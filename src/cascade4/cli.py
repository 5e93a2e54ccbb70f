"""Command-line front end: config parsing, scenario execution, CSV output.

Everything is emitted as plain comma-separated text (one header row, '#'
comment lines before it); plotting is left to external tools.  All
quantities are in units of gamma = 2*pi MHz.
"""

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import correlations, perturbation
from .correlations import PAIR_TABLE, cs_ratio, default_tau_grid, g2, scan_tau_d
from .dynamics import evolve, steady_state
from .errors import (
    Cascade4Error,
    ConfigError,
    InvalidArgument,
    InvalidParams,
    OutputError,
    ParseError,
    RangeError,
    UnknownKey,
    _count,
    _real_scalar,
)
from .model import (
    GAMMA_PRESETS,
    STATE_LABELS,
    SystemParams,
    build_generator,
    populations,
    prepare_state,
    preset,
)
from .validation import run_validation

SYSTEM_KEYS = tuple(f.name for f in fields(SystemParams))
SYSTEM_ALIASES = {"delta_rf": "delta2"}


@dataclass
class RunConfig:
    """Run settings.  Without a config file the system is the published fig2
    drive set on unit gammas, the point `run_validation` also defaults to;
    a config file's [system] section starts from a bare SystemParams."""

    system: SystemParams = field(default_factory=lambda: preset("fig2", "unit"))
    tau_max: float = 10.0
    tau_points: int = 2000
    spacing: str = "log_linear"
    path: str = "out.csv"
    precision: int = 9
    cs_definition: str = "equal_time"

    def tau_grid(self):
        return default_tau_grid(self.system, tau_max=self.tau_max,
                                n=self.tau_points, spacing=self.spacing)


# Accepted keys per section: key -> float, int or str, or a tuple of the
# allowed words.  Every key outside [system] is a RunConfig field.
CONFIG_KEYS = {
    "system": dict.fromkeys(SYSTEM_KEYS, float),
    "grid": {"tau_max": float, "tau_points": int,
             "spacing": ("log_linear", "linear")},
    "output": {"path": str, "precision": int},
    "options": {"cs_definition": ("equal_time", "literal")},
}


def parse_config(text: str) -> RunConfig:
    """Parse 'key = value' lines under [system]/[grid]/[output]/[options].

    '#' starts a comment; keys are case-sensitive; both delta2 and delta_rf
    name the rf detuning (last occurrence wins); unknown keys are errors.
    """
    system_kw, settings = {}, {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"malformed section header {line!r}")
            section = line[1:-1]
            if section not in CONFIG_KEYS:
                raise UnknownKey(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        if section is None:
            raise ParseError(lineno, "key outside of any [section]")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        target = settings
        if section == "system":
            key, target = SYSTEM_ALIASES.get(key, key), system_kw
        kind = CONFIG_KEYS[section].get(key)
        if kind is None:
            raise UnknownKey(f"line {lineno}: unknown [{section}] key {key!r}")
        if isinstance(kind, tuple):
            if raw_value not in kind:
                raise RangeError(f"line {lineno}: {key} must be "
                                 f"{' or '.join(kind)}, got {raw_value!r}")
            target[key] = raw_value
            continue
        try:
            target[key] = kind(raw_value)
        except ValueError:
            what = "integer" if kind is int else "value"
            raise ParseError(
                lineno, f"cannot parse {what} for {key!r}: {raw_value!r}")

    cfg = RunConfig(**settings)
    try:
        cfg.system = SystemParams(**system_kw)
        _real_scalar(cfg.tau_max, "tau_max", 0.0)
        _count(cfg.tau_points, "tau_points", 16)
    except (InvalidParams, InvalidArgument) as exc:
        raise RangeError(str(exc)) from exc
    if not 6 <= cfg.precision <= 17:
        raise RangeError(f"precision must be in [6, 17], got {cfg.precision}")
    return cfg


def _write_csv(cfg, header, rows, title, *comments, path=None):
    """Write rows under '# cascade4 <title>', the units line and `comments`,
    to `path` or else cfg.path, with cfg.precision significant digits."""
    spec = f".{cfg.precision}g"
    lines = [f"# {c}" for c in (f"cascade4 {title}", UNITS_COMMENT, *comments)]
    lines.append(",".join(header))
    for row in rows:
        # + 0.0 turns -0.0 into 0.0
        lines.append(",".join(
            cell if isinstance(cell, str) else format(cell + 0.0, spec)
            for cell in row))
    try:
        with open(path or cfg.path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OutputError(str(exc)) from exc


def _param_comment(p: SystemParams):
    vals = ", ".join(f"{f.name}={getattr(p, f.name):g}" for f in fields(p))
    return f"params: {vals}"

UNITS_COMMENT = "rates and times in units of gamma = 2*pi MHz"

STATE_HEADER = ("rho11", "rho22", "rho33", "rho44") + STATE_LABELS[:12]


def _state_row(x):
    r11, r22, r33, r44 = populations(x)
    return [r11, r22, r33, r44] + [x[i] for i in range(12)]


def _cmd_steady(cfg, args):
    gen = build_generator(cfg.system)
    x = steady_state(gen)
    _write_csv(cfg, STATE_HEADER, [_state_row(x)], "steady",
               _param_comment(cfg.system))
    return 0


def _cmd_evolve(cfg, args):
    gen = build_generator(cfg.system)
    taus = cfg.tau_grid()
    states = evolve(gen, prepare_state(args.init), taus)
    rows = [[t] + _state_row(x) for t, x in zip(taus, states)]
    _write_csv(cfg, ("tau",) + STATE_HEADER, rows,
               f"evolve from level |{args.init}>", _param_comment(cfg.system))
    return 0


PAIR_FLAGS = {f"{i}{j}": (i, j) for i, j in PAIR_TABLE}


def _cmd_g2(cfg, args):
    pair = PAIR_FLAGS[args.pair]
    gen = build_generator(cfg.system)
    series = g2(gen, pair, cfg.tau_grid())
    name = f"g{args.pair}"
    rows = list(zip(series.taus, series.values))
    _write_csv(cfg, ("tau", name), rows, f"g2 pair {pair}",
               _param_comment(cfg.system),
               f"steady-state denominator = {float(series.norm):.12g}")
    return 0


def _cs_columns(gen, taus, definition):
    """(cs_ratio result, [g11, g33, g31, R] on taus)."""
    g31, g11, g33 = (g2(gen, pair, taus) for pair in ((3, 1), (1, 1), (3, 3)))
    result = cs_ratio(g31, g11, g33, definition=definition)
    return result, [g11.values, g33.values, g31.values, result.R]


def _cmd_cs(cfg, args):
    taus = cfg.tau_grid()
    result, columns = _cs_columns(build_generator(cfg.system), taus,
                                  cfg.cs_definition)
    rows = list(zip(taus, *columns))
    _write_csv(cfg, ("tau", "g11", "g33", "g31", "R"), rows,
               f"cs ({result.definition})", _param_comment(cfg.system))
    spec = f".{cfg.precision}g"  # as _write_csv formats a cell
    print(f"r_max = {result.r_max + 0.0:{spec}} at tau = {result.tau_at_max + 0.0:{spec}}")
    return 0


def _cmd_taud_scan(cfg, args):
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if not np.isfinite(value):
            raise RangeError(f"{flag} must be finite, got {value}")
    if args.points < 1:
        raise RangeError(f"--points must be >= 1, got {args.points}")
    if args.start <= 0:
        raise RangeError(f"--start must be positive, got {args.start:g}")
    if args.points > 1 and args.stop <= args.start:
        raise RangeError(f"--stop must exceed --start, got {args.stop:g} "
                         f"<= {args.start:g}")
    grid = np.linspace(args.start, args.stop, args.points)
    scan = scan_tau_d(cfg.system, args.sweep, grid)
    rows = [[v, scan.swept_field, td]
            for v, td in zip(scan.field_values, scan.tau_d)]
    _write_csv(cfg, ("field", "sweep_name", "tau_d"), rows, "taud-scan",
               _param_comment(cfg.system))
    for idx, err in scan.failures:
        print(f"point {idx} ({scan.field_values[idx]:g}): {err}",
              file=sys.stderr)
    return 0


def _cmd_roots(cfg, args):
    rs = perturbation.root_set(cfg.system, args.regime)
    rows = [[group, str(i), z.real, z.imag, q.real, q.imag, abs(q - z)]
            for group, printed in rs.printed.items()
            for i, (z, q) in enumerate(zip(getattr(rs, group), printed))]
    _write_csv(cfg, ("group", "index", "re", "im",
                     "printed_re", "printed_im", "printed_mismatch"),
               rows, f"roots ({args.regime})", _param_comment(cfg.system))
    return 0


def _figures_dir(cfg):
    path = cfg.path
    if path.endswith(".csv"):
        path = os.path.dirname(path) or "."
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(str(exc)) from exc
    return path


def _cmd_figures(cfg, args):
    """Regenerate the data behind the published correlation plots."""
    outdir = _figures_dir(cfg)
    gammas = args.gammas
    p2 = preset("fig2", gammas)
    taus = cfg.tau_grid()
    gen = build_generator(p2)
    rows = list(zip(
        taus,
        g2(gen, (3, 1), taus).values,
        g2(gen, (3, 2), taus).values,
        g2(gen, (2, 1), taus).values,
    ))
    _write_csv(cfg, ("tau", "g31", "g32", "g21"), rows,
               "figures: cross-correlations", _param_comment(p2),
               path=os.path.join(outdir, "fig2.csv"))

    sweeps = (
        ("omega1", p2.with_drives(omega_rf=12.0, omega3=4.0)),
        ("omega2", p2.with_drives(omega1=4.0, omega3=4.0)),
        ("omega3", p2.with_drives(omega1=4.0, omega_rf=4.0)),
    )
    rows = []
    grid = np.linspace(4.0, 20.0, 9)
    for name, base in sweeps:
        scan = scan_tau_d(base, name, grid)
        rows += [[v, name, td] for v, td in zip(scan.field_values, scan.tau_d)]
    _write_csv(cfg, ("field", "sweep_name", "tau_d"), rows,
               "figures: emission delay vs drive strengths",
               path=os.path.join(outdir, "fig3.csv"))

    rows = []
    for drives in ("fig4_rf4", "fig4_rf10", "fig4_rf20"):
        p4 = preset(drives, gammas)
        _result, columns = _cs_columns(build_generator(p4), taus, cfg.cs_definition)
        rows += [[p4.omega_rf, *row] for row in zip(taus, *columns)]
    _write_csv(cfg, ("omega_rf", "tau", "g11", "g33", "g31", "R"), rows,
               "figures: auto/cross correlations and ratio R",
               f"gamma preset: {gammas}", path=os.path.join(outdir, "fig4.csv"))
    return 0


def _cmd_validate(cfg, args):
    report = run_validation(cfg.system)
    _write_csv(cfg, ("check", "status", "value", "tolerance", "source"),
               report.rows(), "validation report", _param_comment(cfg.system))
    print(report.to_text())
    return 1 if report.failed else 0


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parse_args keeps no state
    between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a key=value config file")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="override the [output] path")
    parser = argparse.ArgumentParser(
        prog="cascade4",
        parents=[common],
        description="Four-level cascade fluorescence simulator (units of "
                    "gamma = 2*pi MHz).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    command("steady", _cmd_steady, "steady-state density matrix")
    p = command("evolve", _cmd_evolve, "time evolution from |init><init|")
    p.add_argument("--init", type=int, default=1, choices=(1, 2, 3, 4))
    p = command("g2", _cmd_g2, "one correlation function")
    p.add_argument("--pair", required=True, choices=sorted(PAIR_FLAGS))
    command("cs", _cmd_cs, "Cauchy-Schwarz ratio R(tau)")
    p = command("taud-scan", _cmd_taud_scan, "peak delay vs drive strength")
    p.add_argument("--sweep", required=True, choices=correlations.SWEEPABLE)
    p.add_argument("--start", type=float, default=4.0)
    p.add_argument("--stop", type=float, default=20.0)
    p.add_argument("--points", type=int, default=9)
    p = command("roots", _cmd_roots, "analytic root sets vs printed forms")
    p.add_argument("--regime", required=True, choices=("strong", "weak"))
    p = command("figures", _cmd_figures, "regenerate fig2/fig3/fig4 data files")
    p.add_argument("--gammas", default="unit", choices=sorted(GAMMA_PRESETS))
    command("validate", _cmd_validate, "run the validation suite")
    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    config_path = getattr(args, "config", None)
    out_path = getattr(args, "out", None)
    try:
        if config_path:
            with open(config_path, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = RunConfig()
        if out_path:
            cfg.path = out_path
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cascade4: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"cascade4: config error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.run(cfg, args)
    except RangeError as exc:
        print(f"cascade4: invalid argument: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"cascade4: cannot write output: {exc}", file=sys.stderr)
        return 2
    except Cascade4Error as exc:
        print(f"cascade4: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
