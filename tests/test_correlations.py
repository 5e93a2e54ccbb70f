import numpy as np
import pytest

from cascade4.correlations import (
    CorrelationSeries,
    cs_ratio,
    default_tau_grid,
    g2,
    g31_peak_delay,
    scan_tau_d,
    tau_delay,
)
from cascade4.errors import GridMismatch, NoPeak, ZeroSteadyState
from cascade4.model import build_generator, preset

from conftest import closed_cascade, random_stable_params


def test_default_tau_grid_shape(fig2_unit):
    taus = default_tau_grid(fig2_unit)
    assert taus[0] == 0.0
    assert len(taus) == 2000
    assert np.all(np.diff(taus) > 0)
    assert abs(taus[-1] - 10.0 / fig2_unit.min_gamma) < 1e-12
    lin = default_tau_grid(fig2_unit, tau_max=5.0, n=100, spacing="linear")
    assert np.allclose(np.diff(lin), lin[1] - lin[0])


def test_g31_zero_at_zero_delay():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = random_stable_params(rng)
        gen = build_generator(p)
        taus = default_tau_grid(p, n=200)
        series = g2(gen, (3, 1), taus)
        assert series.values[0] == 0.0
        assert series.values.max() > 0.0


def test_autocorrelations_zero_at_zero_delay(fig2_unit):
    gen = build_generator(fig2_unit)
    taus = default_tau_grid(fig2_unit, n=300)
    for pair in ((1, 1), (3, 3)):
        assert g2(gen, pair, taus).values[0] < 1e-8


def test_adjacent_pairs_bunch(fig2_unit):
    gen = build_generator(fig2_unit)
    taus = default_tau_grid(fig2_unit, n=64)
    for pair in ((2, 1), (3, 2)):
        assert g2(gen, pair, taus).values[0] > 0.0


def test_g2_long_time_normalization(fig2_unit):
    gen = build_generator(fig2_unit)
    T = 50.0 / fig2_unit.min_gamma
    taus = np.array([0.0, T])
    for pair in ((1, 1), (3, 3), (3, 1), (2, 1), (3, 2)):
        assert abs(g2(gen, pair, taus).values[-1] - 1.0) < 1e-4


def test_g2_zero_steady_state():
    p = closed_cascade(omega_rf=5.0)  # no optical drives: rho22ss = 0
    gen = build_generator(p)
    with pytest.raises(ZeroSteadyState):
        g2(gen, (1, 1), np.array([0.0, 1.0]))


def test_weak_drive_cross_correlation_shape():
    # two-pathway cancellation: transient is the difference of the two
    # cascade exponentials; compare baseline-subtracted, peak-normalized.
    from dataclasses import replace

    p = closed_cascade(omega1=0.05, omega_rf=0.05, omega3=0.05)
    p = replace(p, gamma2=1.0, gamma3=2.0, gamma23=2.0)
    gen = build_generator(p)
    taus = np.linspace(0.0, 4.0, 401)
    series = g2(gen, (3, 1), taus)
    transient = series.values - 1.0
    transient /= np.max(np.abs(transient))
    closed = np.exp(-p.gamma2 * taus) - np.exp(-p.gamma3 * taus)
    closed /= np.max(np.abs(closed))
    assert np.max(np.abs(transient - closed)) < 0.02


def test_cs_ratio_constant_series():
    taus = np.linspace(0.0, 1.0, 11)
    mk = lambda v: CorrelationSeries(pair=(3, 1), taus=taus,
                                     values=np.full(11, v), norm=1.0)
    res = cs_ratio(mk(2.0), mk(1.0), mk(1.0))
    assert np.all(res.R == 4.0)
    assert res.r_max == 4.0


def test_cs_ratio_classical_bound():
    # any triple with g31^2 <= g11 g33 pointwise keeps R <= 1 by construction
    rng = np.random.default_rng(9)
    taus = np.linspace(0.0, 2.0, 50)
    g11 = 1.0 + rng.uniform(0, 1, 50)
    g33 = 1.0 + rng.uniform(0, 1, 50)
    g31 = np.sqrt(g11 * g33) * rng.uniform(0, 1, 50)
    mk = lambda pair, v: CorrelationSeries(pair=pair, taus=taus, values=v,
                                           norm=1.0)
    res = cs_ratio(mk((3, 1), g31), mk((1, 1), g11), mk((3, 3), g33))
    assert res.r_max <= 1.0


def test_cs_ratio_fig4_bracket(fig2_unit):
    gen = build_generator(fig2_unit)
    taus = default_tau_grid(fig2_unit)
    res = cs_ratio(g2(gen, (3, 1), taus), g2(gen, (1, 1), taus),
                   g2(gen, (3, 3), taus))
    assert 1e3 <= res.r_max <= 1e7


def test_cs_ratio_literal_definition(fig2_unit):
    gen = build_generator(fig2_unit)
    taus = default_tau_grid(fig2_unit, n=200)
    s31, s11, s33 = (g2(gen, pair, taus) for pair in ((3, 1), (1, 1), (3, 3)))
    res = cs_ratio(s31, s11, s33, definition="literal")
    # g33(0) = 0 exactly, so the floored literal denominator is 1e-12 * g11
    assert res.definition == "literal"
    assert res.r_max > 1e10  # essentially divergent, as the text's form is


def test_cs_ratio_grid_mismatch(fig2_unit):
    gen = build_generator(fig2_unit)
    a = g2(gen, (3, 1), np.linspace(0, 1, 10))
    b = g2(gen, (1, 1), np.linspace(0, 1, 11))
    c = g2(gen, (3, 3), np.linspace(0, 1, 11))
    with pytest.raises(GridMismatch):
        cs_ratio(a, b, c)


def test_tau_delay_parabola_exact():
    taus = np.arange(0.0, 3.0, 0.1)
    values = -(taus - 1.5) ** 2 + 4.0
    series = CorrelationSeries(pair=(3, 1), taus=taus, values=values, norm=1.0)
    assert abs(tau_delay(series) - 1.5) < 1e-3


def test_tau_delay_nonuniform_grid():
    taus = np.concatenate([np.geomspace(0.01, 1.0, 30),
                           np.linspace(1.1, 3.0, 30)])
    values = -(taus - 1.37) ** 2 + 2.0
    series = CorrelationSeries(pair=(3, 1), taus=taus, values=values, norm=1.0)
    assert abs(tau_delay(series) - 1.37) < 1e-9


def test_tau_delay_monotone_raises():
    taus = np.linspace(0.0, 1.0, 20)
    series = CorrelationSeries(pair=(3, 1), taus=taus, values=taus ** 2,
                               norm=1.0)
    with pytest.raises(NoPeak):
        tau_delay(series)


def test_tau_delay_grid_refinement_oracle(fig2_unit):
    # refined peak must sit within one coarse step of a 10x-finer argmax
    gen = build_generator(fig2_unit)
    coarse = default_tau_grid(fig2_unit, tau_max=4.0, n=400)
    series = g2(gen, (3, 1), coarse)
    td = tau_delay(series)
    k = np.argmax(series.values[:len(series.values) // 2])
    step = coarse[k + 1] - coarse[k]
    fine = np.linspace(max(coarse[k] - 2 * step, 1e-6), coarse[k] + 2 * step,
                       41)
    fine_series = g2(gen, (3, 1), fine)
    fine_peak = fine[np.argmax(fine_series.values)]
    assert abs(td - fine_peak) <= step


def test_scan_tau_d_monotone(fig2_unit):
    grid = np.linspace(4.0, 20.0, 5)
    scan = scan_tau_d(fig2_unit, "omega_rf", grid)
    assert scan.failures == []
    assert np.all(np.diff(scan.tau_d) < 0)
    scan3 = scan_tau_d(fig2_unit.with_drives(omega_rf=4.0), "omega3", grid)
    assert np.all(np.diff(scan3.tau_d) < 0)


def test_scan_tau_d_records_failures():
    p = closed_cascade(omega_rf=4.0, omega3=4.0)  # omega1 = 0: no rho22ss
    scan = scan_tau_d(p, "omega3", np.array([4.0, 8.0]))
    assert [err for _i, err in scan.failures] == ["ZeroSteadyState"] * 2
    assert np.all(np.isnan(scan.tau_d))


def test_scan_rejects_bad_grid(fig2_unit):
    with pytest.raises(ValueError):
        scan_tau_d(fig2_unit, "omega_rf", np.array([4.0, 3.0]))
    with pytest.raises(ValueError):
        scan_tau_d(fig2_unit, "detuning", np.array([1.0, 2.0]))


def test_g31_peak_delay_stability(fig2_unit):
    a = g31_peak_delay(fig2_unit, coarse_n=1200)
    b = g31_peak_delay(fig2_unit, coarse_n=2400)
    assert abs(a - b) < 5e-3


def test_g2_backend_consistency(fig2_unit):
    gen = build_generator(fig2_unit)
    taus = np.linspace(0.0, 8.0, 80)
    for pair in ((3, 1), (1, 1)):
        a = g2(gen, pair, taus, backend="expm").values
        b = g2(gen, pair, taus, backend="rk").values
        assert np.max(np.abs(a - b)) < 1e-7


def test_zero_delay_antibunching_exact():
    for gammas in ("unit", "physical"):
        p = preset("fig2", gammas)
        gen = build_generator(p)
        taus = default_tau_grid(p)
        for pair in ((1, 1), (3, 3), (3, 1)):
            assert g2(gen, pair, taus).values[0] == 0.0
