import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade4.correlations import (
    CLIP_TOL,
    PAIR_TABLE,
    PEAK_GRID_POINTS,
    CorrelationSeries,
    _first_descent,
    _peak_grid,
    cs_ratio,
    default_tau_grid,
    g2,
    g31_peak_delay,
    scan_tau_d,
)
from cascade4.dynamics import SPECTRAL_COND_LIMIT, evolve
from cascade4.errors import GridMismatch, InvalidArgument, NoPeak, ZeroSteadyState
from cascade4.model import P44, SystemParams, build_generator, prepare_state, preset
from cascade4.validation import rk_evolve

from conftest import (
    closed_cascade,
    oracle_tau_d,
    random_stable_params,
    stable_params,
)


def test_default_tau_grid_shape(fig2_unit):
    taus = default_tau_grid(fig2_unit)
    assert taus[0] == 0.0
    assert len(taus) == 2000
    assert np.all(np.diff(taus) > 0)
    assert abs(taus[-1] - 10.0 / fig2_unit.min_gamma) < 1e-12
    lin = default_tau_grid(fig2_unit, tau_max=5.0, n=100, spacing="linear")
    assert np.allclose(np.diff(lin), lin[1] - lin[0])


def test_default_tau_grid_refuses_underflowing_tau_max(fig2_unit):
    # the log head starts at 1e-4 tau_max, which underflows to 0 here
    with pytest.raises(InvalidArgument, match="too small"):
        default_tau_grid(fig2_unit, tau_max=1e-321)
    taus = default_tau_grid(fig2_unit, tau_max=1e-300)
    assert taus[0] == 0.0 and taus[1] > 0.0 and taus[-1] == 1e-300


def test_peak_grid_cached_read_only(fig2_unit):
    # g31_peak_delay shares one read-only grid per min Gamma;
    # default_tau_grid still hands out a fresh writable array each call
    tau_max = min(6.0 / fig2_unit.min_gamma, 40.0)
    grid = _peak_grid(fig2_unit.min_gamma)
    assert grid is _peak_grid(fig2_unit.min_gamma)
    assert not grid.flags.writeable
    fresh = default_tau_grid(fig2_unit, tau_max=tau_max, n=PEAK_GRID_POINTS)
    assert fresh.flags.writeable
    assert fresh is not default_tau_grid(fig2_unit, tau_max=tau_max,
                                         n=PEAK_GRID_POINTS)
    assert np.array_equal(grid, fresh)
    td = g31_peak_delay(fig2_unit)
    _peak_grid.cache_clear()
    assert g31_peak_delay(fig2_unit) == td


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


def test_g2_clips_rounding_undershoot(fig2_unit):
    # rho44 from |3> starts at exactly 0 and rises like tau^2, so on a fine
    # head of the grid the propagator's rounding takes it a few ulps below 0;
    # g2 returns those values as 0.0 and every other value unchanged
    gen = build_generator(fig2_unit)
    taus = np.concatenate([[0.0], np.geomspace(1e-10, 1e-2, 400)])
    series = g2(gen, (3, 3), taus)
    raw = evolve(gen, prepare_state(3), taus)[:, P44] / series.norm
    under = raw < 0.0
    assert np.any(under) and np.all(raw[under] > -CLIP_TOL)
    assert np.all(series.values >= 0.0)
    assert np.all(series.values[under] == 0.0)
    assert np.array_equal(series.values[~under], raw[~under])


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


def test_first_descent_matches_full_grid_search():
    # Crossings on both sides of each chunk boundary (chunks of 128, 256,
    # 512, ... points sharing their end points) and at the grid's end.
    taus = np.linspace(0.0, 1.0, 1600)
    for k in (0, 126, 127, 128, 381, 382, 383, 893, 894, 1598):
        slope = lambda t, k=k: np.where(t <= taus[k], 1.0, -1.0)
        assert _first_descent(taus, slope) == (taus[k], taus[k + 1])
    # the first crest, not a later or a global one
    assert _first_descent(taus, lambda t: np.cos(6 * np.pi * t)) == (
        taus[133], taus[134])


def test_first_descent_monotone_raises():
    taus = np.linspace(0.0, 1.0, 200)
    with pytest.raises(NoPeak):
        _first_descent(taus, np.ones_like)
    with pytest.raises(NoPeak):
        _first_descent(taus, lambda t: -np.ones_like(t))


ORACLE_BASES = {
    "omega1": dict(omega_rf=12.0, omega3=4.0),
    "omega2": dict(omega1=4.0, omega3=4.0),
    "omega_rf": dict(omega1=6.0, omega3=3.0),
    "omega3": dict(omega1=4.0, omega_rf=4.0),
}


@pytest.mark.parametrize("gammas", ("unit", "physical"))
@pytest.mark.parametrize("swept", sorted(ORACLE_BASES))
def test_g31_peak_delay_matches_oracle(gammas, swept):
    base = preset("fig2", gammas).with_drives(**ORACLE_BASES[swept])
    assert build_generator(base).eigensystem.cond <= SPECTRAL_COND_LIMIT
    scan = scan_tau_d(base, swept, np.linspace(4.0, 20.0, 5))
    assert scan.failures == []
    key = "omega_rf" if swept == "omega2" else swept
    for value, td in zip(scan.field_values, scan.tau_d):
        ref = oracle_tau_d(base.with_drives(**{key: value}))
        assert abs(td - ref) <= 1e-10 * ref


def test_g31_peak_delay_fallback_matches_oracle():
    # Weak drive with Gamma2 = Gamma3: cond V ~ 2.6e7, so the slope comes
    # from expm propagation.  rho22 ~ tau exp(-tau) crests near tau = 1.
    p = closed_cascade(omega1=1e-4)
    assert build_generator(p).eigensystem.cond > SPECTRAL_COND_LIMIT
    ref = oracle_tau_d(p)
    assert abs(ref - 1.0) < 1e-6
    assert abs(g31_peak_delay(p) - ref) <= 1e-10 * ref


@st.composite
def closed_branching(draw):
    """Strong drives, weak drives, or a weak lower drive alone with
    Gamma2 = Gamma3 (a near-defective eigenbasis: mostly the expm fallback)."""
    kind = draw(st.sampled_from(("strong", "weak", "near_defective")))

    def drive():
        if kind == "strong":
            return draw(st.floats(0.1, 30.0))
        return 10.0 ** draw(st.floats(-5.0, -2.0))

    g2v = draw(st.floats(0.1, 3.0))
    g4v = draw(st.floats(0.1, 3.0))
    if kind == "near_defective":
        return SystemParams(omega1=10.0 ** draw(st.floats(-5.0, -3.0)),
                            omega_rf=0.0, omega3=0.0,
                            gamma2=g2v, gamma3=g2v, gamma4=g4v,
                            gamma23=g2v, gamma34=g4v, gamma24=0.0)
    g3v = draw(st.floats(0.1, 3.0))
    return SystemParams(omega1=drive(), omega_rf=drive(), omega3=drive(),
                        gamma2=g2v, gamma3=g3v, gamma4=g4v,
                        gamma23=g3v, gamma34=g4v, gamma24=0.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(p=closed_branching())
def test_g31_peak_delay_oracle_property(p):
    ref = oracle_tau_d(p)
    try:
        td = g31_peak_delay(p)
    except NoPeak:
        assert ref is None
        return
    assert ref is not None
    assert abs(td - ref) <= 1e-10 * ref


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


def test_g2_backend_consistency(fig2_unit):
    gen = build_generator(fig2_unit)
    taus = np.linspace(0.0, 8.0, 80)
    for pair in ((3, 1), (1, 1)):
        series = g2(gen, pair, taus)
        level, obs = PAIR_TABLE[pair]
        b = rk_evolve(gen, prepare_state(level), taus)[:, obs] / series.norm
        assert np.max(np.abs(series.values - b)) < 1e-7


def test_zero_delay_antibunching_exact():
    for gammas in ("unit", "physical"):
        p = preset("fig2", gammas)
        gen = build_generator(p)
        taus = default_tau_grid(p)
        for pair in ((1, 1), (3, 3), (3, 1)):
            assert g2(gen, pair, taus).values[0] == 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=stable_params())
def test_g2_tails_and_zero_delay_property(p):
    # Every defined g2 returns to 1 by tau = 50/min(Gamma), and the pairs
    # whose second photon needs the level the first one left empty vanish
    # at zero delay.  Weak or absent drives leave some denominators below
    # DENOMINATOR_FLOOR; those pairs are refused and skipped.
    gen = build_generator(p)
    taus = np.array([0.0, 50.0 / p.min_gamma])
    for pair in PAIR_TABLE:
        try:
            values = g2(gen, pair, taus).values
        except ZeroSteadyState:
            continue
        assert abs(values[-1] - 1.0) < 1e-4
        if pair in ((1, 1), (3, 3), (3, 1)):
            assert values[0] == 0.0
