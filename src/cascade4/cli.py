"""Command-line front end: config parsing, scenario execution, CSV output.

Everything is emitted as plain comma-separated text (one header row, '#'
comment lines before it); plotting is left to external tools.  All
quantities are in units of gamma = 2*pi MHz.
"""

import argparse
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import perturbation
from .correlations import cs_ratio, default_tau_grid, g2, scan_tau_d
from .dynamics import evolve, steady_state
from .errors import (
    Cascade4Error,
    ConfigError,
    InvalidParams,
    OutputError,
    ParseError,
    RangeError,
    UnknownKey,
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
    backend: str = "expm"
    cs_definition: str = "equal_time"

    def tau_grid(self):
        return default_tau_grid(self.system, tau_max=self.tau_max,
                                n=self.tau_points, spacing=self.spacing)


def _parse_float(key, raw, lineno):
    try:
        return float(raw)
    except ValueError:
        raise ParseError(lineno, f"cannot parse value for {key!r}: {raw!r}")


def _parse_int(key, raw, lineno):
    try:
        return int(raw)
    except ValueError:
        raise ParseError(lineno, f"cannot parse integer for {key!r}: {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse 'key = value' lines under [system]/[grid]/[output]/[options].

    '#' starts a comment; keys are case-sensitive; both delta2 and delta_rf
    name the rf detuning (last occurrence wins); unknown keys are errors.
    """
    system_kw = {}
    cfg = RunConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"malformed section header {line!r}")
            section = line[1:-1]
            if section not in ("system", "grid", "output", "options"):
                raise UnknownKey(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        if section is None:
            raise ParseError(lineno, "key outside of any [section]")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if section == "system":
            key = SYSTEM_ALIASES.get(key, key)
            if key not in SYSTEM_KEYS:
                raise UnknownKey(f"line {lineno}: unknown [system] key {key!r}")
            system_kw[key] = _parse_float(key, raw_value, lineno)
        elif section == "grid":
            if key == "tau_max":
                cfg.tau_max = _parse_float(key, raw_value, lineno)
            elif key == "tau_points":
                cfg.tau_points = _parse_int(key, raw_value, lineno)
            elif key == "spacing":
                if raw_value not in ("log_linear", "linear"):
                    raise RangeError(f"line {lineno}: spacing must be "
                                     f"log_linear or linear, got {raw_value!r}")
                cfg.spacing = raw_value
            else:
                raise UnknownKey(f"line {lineno}: unknown [grid] key {key!r}")
        elif section == "output":
            if key == "path":
                cfg.path = raw_value
            elif key == "precision":
                cfg.precision = _parse_int(key, raw_value, lineno)
            else:
                raise UnknownKey(f"line {lineno}: unknown [output] key {key!r}")
        else:  # options
            if key == "backend":
                if raw_value not in ("rk", "expm"):
                    raise RangeError(f"line {lineno}: backend must be rk or "
                                     f"expm, got {raw_value!r}")
                cfg.backend = raw_value
            elif key == "cs_definition":
                if raw_value not in ("equal_time", "literal"):
                    raise RangeError(f"line {lineno}: cs_definition must be "
                                     f"equal_time or literal, got {raw_value!r}")
                cfg.cs_definition = raw_value
            else:
                raise UnknownKey(f"line {lineno}: unknown [options] key {key!r}")

    try:
        cfg.system = SystemParams(**system_kw)
    except InvalidParams as exc:
        raise RangeError(str(exc)) from exc
    if not np.isfinite(cfg.tau_max):
        raise RangeError(f"tau_max must be finite, got {cfg.tau_max}")
    if cfg.tau_max <= 0.0:
        raise RangeError(f"tau_max must be positive, got {cfg.tau_max}")
    if cfg.tau_points < 16:
        raise RangeError(f"tau_points must be >= 16, got {cfg.tau_points}")
    if not 6 <= cfg.precision <= 17:
        raise RangeError(f"precision must be in [6, 17], got {cfg.precision}")
    return cfg


def _fmt(value, precision):
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, f".{precision}g")


def _write_csv(path, header, rows, comments, precision):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _fmt(cell, precision)
            for cell in row))
    try:
        with open(path, "w", newline="") as fh:
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
    _write_csv(cfg.path, STATE_HEADER, [_state_row(x)],
               ["cascade4 steady", UNITS_COMMENT, _param_comment(cfg.system)],
               cfg.precision)
    return 0


def _cmd_evolve(cfg, args):
    gen = build_generator(cfg.system)
    taus = cfg.tau_grid()
    traj = evolve(gen, prepare_state(args.init), taus, backend=cfg.backend)
    rows = [[t] + _state_row(x) for t, x in zip(traj.times, traj.states)]
    _write_csv(cfg.path, ("tau",) + STATE_HEADER, rows,
               [f"cascade4 evolve from level |{args.init}>", UNITS_COMMENT,
                _param_comment(cfg.system)],
               cfg.precision)
    return 0


PAIR_FLAGS = {"11": (1, 1), "33": (3, 3), "31": (3, 1), "21": (2, 1),
              "32": (3, 2)}


def _cmd_g2(cfg, args):
    pair = PAIR_FLAGS[args.pair]
    gen = build_generator(cfg.system)
    series = g2(gen, pair, cfg.tau_grid(), backend=cfg.backend)
    name = f"g{args.pair}"
    rows = list(zip(series.taus, series.values))
    _write_csv(cfg.path, ("tau", name), rows,
               [f"cascade4 g2 pair {pair}", UNITS_COMMENT,
                _param_comment(cfg.system),
                f"steady-state denominator = {float(series.norm):.12g}"],
               cfg.precision)
    return 0


def _cmd_cs(cfg, args):
    gen = build_generator(cfg.system)
    taus = cfg.tau_grid()
    s31 = g2(gen, (3, 1), taus, backend=cfg.backend)
    s11 = g2(gen, (1, 1), taus, backend=cfg.backend)
    s33 = g2(gen, (3, 3), taus, backend=cfg.backend)
    result = cs_ratio(s31, s11, s33, definition=cfg.cs_definition)
    rows = list(zip(taus, s11.values, s33.values, s31.values, result.R))
    _write_csv(cfg.path, ("tau", "g11", "g33", "g31", "R"), rows,
               [f"cascade4 cs ({result.definition})", UNITS_COMMENT,
                _param_comment(cfg.system)],
               cfg.precision)
    print(f"r_max = {_fmt(result.r_max, cfg.precision)} at "
          f"tau = {_fmt(result.tau_at_max, cfg.precision)}")
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
    _write_csv(cfg.path, ("field", "sweep_name", "tau_d"), rows,
               ["cascade4 taud-scan", UNITS_COMMENT,
                _param_comment(cfg.system)],
               cfg.precision)
    for idx, err in scan.failures:
        print(f"point {idx} ({scan.field_values[idx]:g}): {err}",
              file=sys.stderr)
    return 0


def _cmd_roots(cfg, args):
    rs = perturbation.root_set(cfg.system, args.regime)
    rows = []
    for group in ("quadratic", "cubic", "quartic"):
        numeric = getattr(rs, group)
        printed = rs.printed.get(group)
        for i, z in enumerate(numeric):
            row = [group, str(i), z.real, z.imag]
            if printed is not None and len(printed):
                match = min(printed, key=lambda q: abs(q - z))
                row += [match.real, match.imag, abs(match - z)]
            else:
                row += ["", "", ""]
            rows.append(row)
    _write_csv(cfg.path, ("group", "index", "re", "im",
                          "printed_re", "printed_im", "printed_mismatch"),
               rows,
               [f"cascade4 roots ({args.regime})", UNITS_COMMENT,
                _param_comment(cfg.system)],
               cfg.precision)
    return 0


def _figures_dir(cfg):
    import os
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
    import os
    outdir = _figures_dir(cfg)
    gammas = args.gammas
    p2 = preset("fig2", gammas)

    taus = default_tau_grid(p2, tau_max=cfg.tau_max, n=cfg.tau_points,
                            spacing=cfg.spacing)
    gen = build_generator(p2)
    rows = list(zip(
        taus,
        g2(gen, (3, 1), taus).values,
        g2(gen, (3, 2), taus).values,
        g2(gen, (2, 1), taus).values,
    ))
    _write_csv(os.path.join(outdir, "fig2.csv"),
               ("tau", "g31", "g32", "g21"), rows,
               ["cascade4 figures: cross-correlations", UNITS_COMMENT,
                _param_comment(p2)], cfg.precision)

    sweeps = (
        ("omega1", preset("fig2", gammas).with_drives(omega_rf=12.0, omega3=4.0)),
        ("omega2", preset("fig2", gammas).with_drives(omega1=4.0, omega3=4.0)),
        ("omega3", preset("fig2", gammas).with_drives(omega1=4.0, omega_rf=4.0)),
    )
    rows = []
    grid = np.linspace(4.0, 20.0, 9)
    for name, base in sweeps:
        scan = scan_tau_d(base, name, grid)
        rows += [[v, name, td] for v, td in zip(scan.field_values, scan.tau_d)]
    _write_csv(os.path.join(outdir, "fig3.csv"),
               ("field", "sweep_name", "tau_d"), rows,
               ["cascade4 figures: emission delay vs drive strengths",
                UNITS_COMMENT], cfg.precision)

    rows = []
    for orf in (4.0, 10.0, 20.0):
        p4 = preset("fig2", gammas).with_drives(omega_rf=orf)
        gen = build_generator(p4)
        s31 = g2(gen, (3, 1), taus)
        s11 = g2(gen, (1, 1), taus)
        s33 = g2(gen, (3, 3), taus)
        R = cs_ratio(s31, s11, s33, definition=cfg.cs_definition)
        rows += [[orf, t, a, b, c, d] for t, a, b, c, d in
                 zip(taus, s11.values, s33.values, s31.values, R.R)]
    _write_csv(os.path.join(outdir, "fig4.csv"),
               ("omega_rf", "tau", "g11", "g33", "g31", "R"), rows,
               ["cascade4 figures: auto/cross correlations and ratio R",
                UNITS_COMMENT, f"gamma preset: {gammas}"], cfg.precision)
    return 0


def _cmd_validate(cfg, args):
    report = run_validation(cfg.system)
    rows = list(report.rows())
    _write_csv(cfg.path, ("check", "status", "value", "tolerance", "source"),
               [[n, s, v, t, src] for n, s, v, t, src in rows],
               ["cascade4 validation report", UNITS_COMMENT,
                _param_comment(cfg.system)], cfg.precision)
    print(report.to_text())
    return 1 if report.failed else 0


def build_parser():
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

    sub.add_parser("steady", parents=[common],
                   help="steady-state density matrix")
    p = sub.add_parser("evolve", parents=[common],
                       help="time evolution from |init><init|")
    p.add_argument("--init", type=int, default=1, choices=(1, 2, 3, 4))
    p = sub.add_parser("g2", parents=[common], help="one correlation function")
    p.add_argument("--pair", required=True, choices=sorted(PAIR_FLAGS))
    sub.add_parser("cs", parents=[common], help="Cauchy-Schwarz ratio R(tau)")
    p = sub.add_parser("taud-scan", parents=[common],
                       help="peak delay vs drive strength")
    p.add_argument("--sweep", required=True,
                   choices=("omega1", "omega2", "omega_rf", "omega3"))
    p.add_argument("--start", type=float, default=4.0)
    p.add_argument("--stop", type=float, default=20.0)
    p.add_argument("--points", type=int, default=9)
    p = sub.add_parser("roots", parents=[common],
                       help="analytic root sets vs printed forms")
    p.add_argument("--regime", required=True, choices=("strong", "weak"))
    p = sub.add_parser("figures", parents=[common],
                       help="regenerate fig2/fig3/fig4 data files")
    p.add_argument("--gammas", default="unit", choices=sorted(GAMMA_PRESETS))
    sub.add_parser("validate", parents=[common],
                   help="run the validation suite")
    return parser


COMMANDS = {
    "steady": _cmd_steady,
    "evolve": _cmd_evolve,
    "g2": _cmd_g2,
    "cs": _cmd_cs,
    "taud-scan": _cmd_taud_scan,
    "roots": _cmd_roots,
    "figures": _cmd_figures,
    "validate": _cmd_validate,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except OSError as exc:
        print(f"cascade4: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"cascade4: config error: {exc}", file=sys.stderr)
        return 2

    try:
        return COMMANDS[args.command](cfg, args)
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
