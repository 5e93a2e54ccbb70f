import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade4
from cascade4 import cli
from cascade4.cli import parse_config, run
from cascade4.correlations import cs_ratio, default_tau_grid, g2
from cascade4.errors import ConfigError, ParseError, RangeError, UnknownKey
from cascade4.model import build_generator, preset

FIG2_CFG = """\
# published drive set, rounded decay rates
[system]
omega1 = 4
omega3 = 4
omega_rf = 20
gamma2 = 1
gamma3 = 1
gamma4 = 0.16
gamma23 = 1
gamma34 = 0.16
gamma24 = 0

[grid]
tau_max = 40
tau_points = 400

[output]
path = out.csv
precision = 9
"""


def test_parse_minimal_defaults():
    cfg = parse_config("[system]\nomega1 = 2.5\n")
    assert cfg.system.omega1 == 2.5
    assert cfg.system.omega_rf == 0.0
    assert cfg.tau_max == 10.0
    assert cfg.tau_points == 2000
    assert cfg.spacing == "log_linear"
    assert cfg.precision == 9
    assert cfg.cs_definition == "equal_time"


def test_parse_fig2_matches_preset():
    cfg = parse_config(FIG2_CFG)
    assert cfg.system == preset("fig2", "unit")


def test_parse_negative_gamma_names_key():
    with pytest.raises(RangeError) as err:
        parse_config("[system]\ngamma2 = -1\n")
    assert "gamma2" in str(err.value)


def test_parse_unknown_key():
    with pytest.raises(UnknownKey):
        parse_config("[system]\nomega9 = 1\n")
    with pytest.raises(UnknownKey):
        parse_config("[grid]\nresolution = 2\n")
    with pytest.raises(UnknownKey):
        parse_config("[plotting]\ncolor = red\n")
    # the propagator is not a run option
    with pytest.raises(UnknownKey):
        parse_config("[options]\nbackend = expm\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("[system]\nomega1 = 1\nnot a pair\n")
    assert err.value.lineno == 3
    with pytest.raises(ParseError):
        parse_config("omega1 = 1\n")  # key before any section


def test_parse_delta_alias_last_wins():
    cfg = parse_config("[system]\ndelta2 = 1\ndelta_rf = 3\n")
    assert cfg.system.delta2 == 3.0
    cfg = parse_config("[system]\ndelta_rf = 3\ndelta2 = 1\n")
    assert cfg.system.delta2 == 1.0


def test_parse_range_checks():
    with pytest.raises(RangeError):
        parse_config("[grid]\ntau_points = 4\n")
    with pytest.raises(RangeError):
        parse_config("[grid]\ntau_max = -2\n")
    with pytest.raises(RangeError):
        parse_config("[output]\nprecision = 3\n")


CONFIG_KEYS = ("omega1", "omega_rf", "delta_rf", "gamma2", "gamma24",
               "tau_max", "tau_points", "spacing", "path", "precision",
               "backend", "cs_definition", "nonsense")
CONFIG_VALUES = ("0", "-1", "4", "1e-300", "1e400", "-inf", "nan", "1_0",
                 "0x10", "1" * 5000, "linear", "rk", "literal", "")


@st.composite
def config_lines(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.text(max_size=30))
    if kind == 1:
        return "[" + draw(st.sampled_from(
            ("system", "grid", "output", "options", "System", ""))) + "]"
    key = draw(st.sampled_from(CONFIG_KEYS) | st.text(max_size=8))
    value = draw(st.sampled_from(CONFIG_VALUES) | st.text(max_size=12))
    return f"{key} = {value}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(config_lines(), max_size=12))
def test_arbitrary_config_raises_only_config_errors(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError:
        return
    assert np.isfinite(cfg.tau_max) and cfg.tau_max > 0.0
    assert cfg.tau_points >= 16 and 6 <= cfg.precision <= 17


def _write_cfg(tmp_path, text=FIG2_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_g2_first_row_zero(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "g31.csv"
    code = run(["--config", cfg, "--out", str(out), "g2", "--pair", "31"])
    assert code == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "tau,g31"
    assert data[1] == "0,0"


ZERO_DRIVES_CFG = "[system]\nomega1 = 0\nomega_rf = 0\nomega3 = 0\n"


def test_run_steady_zero_drives(tmp_path):
    cfg = _write_cfg(tmp_path, ZERO_DRIVES_CFG)
    out = tmp_path / "steady.csv"
    code = run(["--config", cfg, "steady", "--out", str(out)])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert header[0] == "rho11"
    assert float(row[0]) == 1.0


def test_run_cs_summary_consistent(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "cs.csv"
    code = run(["--config", cfg, "cs", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert summary.startswith("r_max = ")
    r_max = float(summary.split()[2])
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    R = np.array([float(ln.split(",")[4]) for ln in lines[1:]])
    assert abs(R.max() - r_max) <= 1e-6 * r_max
    assert 1e2 <= r_max <= 1e7


def test_cs_literal_definition(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, FIG2_CFG + "\n[options]\ncs_definition = literal\n")
    out = tmp_path / "cs.csv"
    assert run(["--config", cfg, "cs", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "# cascade4 cs (literal)"
    p = preset("fig2", "unit")
    gen, taus = build_generator(p), default_tau_grid(p, tau_max=40.0, n=400)
    want = cs_ratio(*(g2(gen, pair, taus) for pair in ((3, 1), (1, 1), (3, 3))),
                    definition="literal")
    cells = [ln.split(",")[4] for ln in _csv_body(out)[1:]]
    np.testing.assert_allclose([float(c) for c in cells], want.R, rtol=1e-8, atol=0)
    # the r_max line prints the CSV's largest R with the same format
    assert summary.split()[2] == max(cells, key=float)


def test_csv_roundtrip_precision(tmp_path):
    cfg = _write_cfg(tmp_path, FIG2_CFG.replace("precision = 9",
                                                "precision = 9"))
    out = tmp_path / "g.csv"
    run(["--config", cfg, "--out", str(out), "g2", "--pair", "21"])
    from cascade4.correlations import default_tau_grid, g2 as g2f
    from cascade4.model import build_generator
    p = preset("fig2", "unit")
    series = g2f(build_generator(p), (2, 1),
                 default_tau_grid(p, tau_max=40.0, n=400))
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    got = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    rel = np.abs(got - series.values) / np.maximum(np.abs(series.values), 1e-30)
    assert np.max(rel) < 10.0 ** (1 - 9)


def test_figures_byte_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        code = run(["figures", "--out", str(d / "x.csv")])
        assert code == 0
    for name in ("fig2.csv", "fig3.csv", "fig4.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _csv_body(path):
    # header and data rows, without the '#' comment lines
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_each_quantity_has_one_csv_text(tmp_path):
    # At the default config, fig4's omega_rf = 20 block is cs and fig2's
    # g31 column is `g2 --pair 31`, as text: every command reads g2 through
    # the same propagator.
    assert run(["figures", "--out", str(tmp_path)]) == 0
    assert run(["cs", "--out", str(tmp_path / "cs.csv")]) == 0
    assert run(["g2", "--pair", "31", "--out", str(tmp_path / "g31.csv")]) == 0
    fig4 = _csv_body(tmp_path / "fig4.csv")
    rf20 = [ln.split(",", 1)[1] for ln in fig4[1:] if ln.startswith("20,")]
    assert [fig4[0].split(",", 1)[1]] + rf20 == _csv_body(tmp_path / "cs.csv")
    fig2 = [",".join(ln.split(",")[:2]) for ln in _csv_body(tmp_path / "fig2.csv")]
    assert fig2 == _csv_body(tmp_path / "g31.csv")


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[system]\ngamma2 = -1\n")
    assert run(["--config", str(bad), "steady"]) == 2
    # the propagator is not a run option
    backend = _write_cfg(tmp_path, "[options]\nbackend = rk\n", name="rk.cfg")
    assert run(["--config", backend, "steady"]) == 2
    assert "unknown [options] key 'backend'" in capsys.readouterr().err
    missing = run(["--config", str(tmp_path / "nope.cfg"), "steady"])
    assert missing == 2
    # computation error: no optical drives -> correlation undefined
    out = tmp_path / "x.csv"
    zero = _write_cfg(tmp_path, ZERO_DRIVES_CFG, name="zero.cfg")
    assert run(["--config", zero, "g2", "--pair", "11", "--out", str(out)]) == 1


FIG2_PARAMS = ("# params: omega1=4, omega_rf=20, omega3=4, delta1=0, "
               "delta2=0, delta3=0, gamma2=1, gamma3=1, gamma4=0.16, "
               "gamma23=1, gamma34=0.16, gamma24=0")


def _params_lines(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("# params:")]


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# d\xe9tuning\n[system]\nomega1 = 4\n")
    assert run(["--config", str(path), "steady"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascade4: cannot read config: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["cs", "g2 --pair 31", "evolve --init 3"])
def test_underflowing_tau_max_is_named(tmp_path, capsys, command):
    cfg = _write_cfg(tmp_path, FIG2_CFG.replace("tau_max = 40", "tau_max = 1e-321"))
    out = tmp_path / "out.csv"
    assert run(["--config", cfg, *command.split(), "--out", str(out)]) == 1
    assert "InvalidArgument: tau_max 1e-321 is too small" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "cs"])
def test_no_config_runs_fig2(tmp_path, capsys, command):
    # without --config the system is preset("fig2", "unit")
    out = tmp_path / "out.csv"
    assert run([command, "--out", str(out)]) == 0
    assert _params_lines(out) == [FIG2_PARAMS]


@pytest.mark.parametrize("command", ["steady", "cs"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    assert run([command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascade4: cannot write output: ")
    assert len(err.splitlines()) == 1


def test_python_m_cascade4(tmp_path):
    src = os.path.dirname(os.path.dirname(cascade4.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "v.csv"
    done = subprocess.run([sys.executable, "-m", "cascade4", "--out", str(out),
                           "validate"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "validation report" in done.stdout
    assert out.read_text().splitlines()[-1].count(",") == 4


def test_validate_writes_report(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "report.csv"
    code = run(["--config", cfg, "validate", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "validation report" in text
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "check,status,value,tolerance,source"
    assert len(lines) > 10


def test_roots_csv(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "roots.csv"
    assert run(["--config", cfg, "roots", "--regime", "strong",
                "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0].startswith("group,index,re,im")
    assert len(lines) == 1 + 5  # quadratic pair + cubic triple


@pytest.mark.parametrize("regime, drives", [
    ("weak", "omega1 = 4\nomega3 = 0\nomega_rf = 0.2\n"),
    ("strong", "omega1 = 0.2\nomega3 = 0.2\nomega_rf = 0\n")])
def test_roots_zero_drive_writes_nan(tmp_path, regime, drives):
    # the published cubic is undefined where its drive vanishes
    cfg = _write_cfg(tmp_path, "[system]\n" + drives)
    out = tmp_path / "roots.csv"
    assert run(["--config", cfg, "roots", "--regime", regime,
                "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln.startswith("cubic,")]
    assert len(rows) == 3
    assert all(row[4:] == ["nan", "nan", "nan"] for row in rows)


def test_taud_scan_csv(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "td.csv"
    assert run(["--config", cfg, "taud-scan", "--sweep", "omega_rf",
                "--points", "4", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    td = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(np.diff(td) < 0)


@pytest.mark.parametrize("argv, message", [
    (["--points", "-1"], "--points must be >= 1, got -1"),
    (["--start", "20", "--stop", "4"], "--stop must exceed --start"),
    (["--start", "0"], "--start must be positive, got 0"),
    (["--stop", "nan"], "--stop must be finite"),
])
def test_taud_scan_bad_arguments_exit_2(tmp_path, capsys, argv, message):
    # these ended in a raw ValueError traceback (exit 1) from np.linspace
    # or scan_tau_d
    out = tmp_path / "td.csv"
    assert run(["taud-scan", "--sweep", "omega1", *argv,
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascade4: invalid argument: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_evolve_csv(tmp_path):
    cfg = _write_cfg(tmp_path, FIG2_CFG.replace("tau_points = 400",
                                                "tau_points = 64"))
    out = tmp_path / "ev.csv"
    assert run(["--config", cfg, "evolve", "--init", "3",
                "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0].split(",")[:5] == ["tau", "rho11", "rho22", "rho33",
                                       "rho44"]
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[4 - 1]) == 1.0


def test_cs_drives_only_config_refused(tmp_path, capsys):
    # Drives without rates keep the literal transfer rates of 1, which
    # make the generator unstable at these drives.
    cfg = _write_cfg(tmp_path, "[system]\nomega1 = 4\nomega3 = 4\n"
                               "omega_rf = 20\n")
    out = tmp_path / "cs.csv"
    assert run(["--config", cfg, "cs", "--out", str(out)]) == 1
    assert "UnstableGenerator" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("omega1 = 4", "omega1 = nan"),
    ("omega1 = 4", "omega1 = inf"),
    ("tau_max = 40", "tau_max = nan"),
])
def test_non_finite_config_refused(tmp_path, capsys, old, new):
    # nan passes every sign check: a nan drive crashed `cs` inside LAPACK,
    # an inf one ended in SingularGenerator, and a nan tau_max was accepted.
    cfg = _write_cfg(tmp_path, FIG2_CFG.replace(old, new))
    out = tmp_path / "cs.csv"
    assert run(["--config", cfg, "cs", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    key = new.split(" = ")[0]
    assert "config error" in err and f"{key} must be finite" in err
    assert not out.exists()


def test_runs_in_one_process_share_only_the_parser(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.chdir(tmp_path)
    # a flag of one call is not the default of the next
    assert run(["taud-scan", "--sweep", "omega1", "--points", "4",
                "--out", "a.csv"]) == 0
    assert run(["taud-scan", "--sweep", "omega1", "--out", "b.csv"]) == 0
    assert len(_csv_body(tmp_path / "b.csv")) == 1 + 9
    # nor is a config: without one the system is fig2 again
    zero = _write_cfg(tmp_path, ZERO_DRIVES_CFG, name="zero.cfg")
    assert run(["--config", zero, "steady", "--out", "c.csv"]) == 0
    assert run(["steady", "--out", "d.csv"]) == 0
    assert _params_lines(tmp_path / "d.csv") == [FIG2_PARAMS]
    # nor an --out: without one the [output] default path is written
    (tmp_path / "d.csv").unlink()
    assert run(["steady"]) == 0
    assert (tmp_path / "out.csv").exists() and not (tmp_path / "d.csv").exists()
