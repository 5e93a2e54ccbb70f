import numpy as np

from cascade4.dynamics import evolve
from cascade4.model import P22, build_generator, prepare_state
from cascade4.validation import brute_force_evolve, run_validation

from conftest import closed_cascade, random_stable_params


def test_brute_force_identity_at_zero(fig2_unit):
    gen = build_generator(fig2_unit)
    x0 = prepare_state(3)
    assert np.array_equal(brute_force_evolve(gen, x0, 0.0), x0)


def test_brute_force_pure_decay():
    p = closed_cascade()  # no drives
    gen = build_generator(p)
    x0 = prepare_state(2)
    for t in (0.3, 1.7, 6.0):
        x = brute_force_evolve(gen, x0, t)
        assert abs(x[P22] - np.exp(-p.gamma2 * t)) < 1e-11


def test_triple_backend_agreement():
    rng = np.random.default_rng(13)
    for _ in range(3):
        p = random_stable_params(rng, omega_high=12.0)
        gen = build_generator(p)
        x0 = prepare_state(3)
        ts = np.array([0.0, 1.0])
        a = evolve(gen, x0, ts, backend="expm").states[-1]
        b = evolve(gen, x0, ts, backend="rk").states[-1]
        c = brute_force_evolve(gen, x0, 1.0)
        assert np.max(np.abs(a - c)) < 1e-9
        assert np.max(np.abs(b - c)) < 1e-9


def test_report_passes_and_is_deterministic(fig2_unit):
    rep1 = run_validation(fig2_unit)
    rep2 = run_validation(fig2_unit)
    assert not rep1.failed
    cs = next(c for c in rep1.checks if c.name == "cs_ratio_bracket")
    assert cs.status == "pass"
    assert len(rep1.checks) == len(rep2.checks)
    for c1, c2 in zip(rep1.checks, rep2.checks):
        assert c1.name == c2.name
        assert c1.status == c2.status
        assert abs(c1.value - c2.value) <= 1e-12 * max(1.0, abs(c1.value))


def test_report_zero_drive_records_undefined_correlations():
    rep = run_validation(closed_cascade())
    names = [c.name for c in rep.checks]
    assert "correlations_defined" in names
    info = next(c for c in rep.checks if c.name == "correlations_defined")
    assert info.status == "info"
    assert "cs_ratio_bracket" not in names
    assert not rep.failed


def test_report_text_roundtrip(fig2_unit):
    rep = run_validation(fig2_unit)
    text = rep.to_text()
    assert text.count("\n") == len(rep.checks)
    rows = list(rep.rows())
    assert len(rows) == len(rep.checks)
    statuses = {s for _n, s, _v, _t, _src in rows}
    assert statuses <= {"pass", "fail", "info"}


def test_printed_form_report_present(fig2_unit):
    rep = run_validation(fig2_unit)
    names = {c.name for c in rep.checks}
    assert "printed_cubic_roots" in names
    assert "weak_field_shape_printed_half_rates" in names
    assert "literal_branching_instability" in names
    lit = next(c for c in rep.checks if c.name == "literal_branching_instability")
    assert lit.status == "info" and lit.value > 0.0
