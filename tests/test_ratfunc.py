import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade4.errors import (
    Cascade4Error,
    IllConditionedPoles,
    InvalidArgument,
    NonFiniteTransform,
    NonRealSum,
)
from cascade4.model import preset
from cascade4.perturbation import (
    _Dyson,
    appendix_rational,
    talbot_g2_value,
)
from cascade4.ratfunc import (
    _grid_coeffs,
    _poly_at,
    _talbot_rule,
    DOUBLE_WEIGHT,
    ExponentialSum,
    Fixed,
    RationalFunction,
    cluster_poles,
    invert_rational,
    principal_parts,
    talbot_invert,
    talbot_invert_rf,
    talbot_nodes_required,
)

from conftest import closed_cascade, mp_observable, mp_value, via_mpmath


def talbot_node(nodes, k):
    """z_k and w_k of the fixed-Talbot rule at the current mpmath precision."""
    r = mpmath.mpf(2 * nodes) / 5
    if k == 0:
        return mpmath.mpc(r), mpmath.exp(r) / 2
    theta = mpmath.pi * k / nodes
    cot = mpmath.cos(theta) / mpmath.sin(theta)
    z = r * theta * mpmath.mpc(cot, 1)
    return z, mpmath.exp(z) * mpmath.mpc(1, theta * (1 + cot ** 2) - cot)


def talbot_direct(F, t, nodes, dps=None):
    """Reference: the fixed-Talbot sum with every node computed directly at
    mpmath precision (talbot_invert's precision unless `dps` is given)."""
    if dps is None:
        dps = 20 + int(np.ceil(0.19 * nodes))
    with mpmath.workdps(dps):
        tmp = mpmath.mpf(t)
        total = 0
        for k in range(nodes):
            z, w = talbot_node(nodes, k)
            total += (w * F(z / tmp)).real
        return float(2 * total / (5 * tmp))


def test_talbot_simple_pole():
    # 1/(s+1) at t=1 -> 1/e
    val = talbot_invert(via_mpmath(lambda s: 1 / (s + 1)), 1.0)
    assert abs(val - np.exp(-1.0)) < 1e-10


def test_talbot_ramp():
    # 1/s^2 at t=2.5 -> 2.5
    val = talbot_invert(via_mpmath(lambda s: 1 / s ** 2), 2.5)
    assert abs(val - 2.5) < 1e-9


def test_talbot_requires_positive_time():
    with pytest.raises(ValueError):
        talbot_invert(lambda s: 1 / s, 0.0)


def test_talbot_oscillatory_rational():
    # poles at -0.5 +- 8i need node scaling; talbot_invert_rf handles it
    rf = RationalFunction.from_factors(
        np.array([8.0]), [(-0.5 + 8j, 1), (-0.5 - 8j, 1)])
    for t in (0.3, 2.0, 10.0):
        truth = np.exp(-0.5 * t) * np.sin(8 * t)
        assert abs(talbot_invert_rf(rf, t) - truth) < 1e-9 * max(abs(truth), 1e-3)


def test_talbot_cached_rule_matches_direct_sum():
    def F(s):
        return 1 / (s + 1)
    for t, nodes in ((0.3, 32), (1.0, 32), (4.0, 57)):
        want = talbot_direct(F, t, nodes)
        assert abs(talbot_invert(via_mpmath(F), t, nodes=nodes) - want) <= 1e-15 * abs(want)
    rf = RationalFunction.from_factors(
        np.array([8.0]), [(-0.5 + 8j, 1), (-0.5 - 8j, 1)])
    for t in (0.3, 2.0, 10.0):
        want = talbot_direct(rf, t, talbot_nodes_required(t, rf.den_factors))
        assert abs(talbot_invert_rf(rf, t) - want) <= 1e-15 * abs(want)


def test_talbot_rule_cache_holds_every_rung_in_3_mb():
    # the cache keeps all 32 rungs of the node ladder (32, 48, ..., 528
    # nodes) for the life of the process; built cold, they hold about 2.4 MB
    talbot_invert(via_mpmath(lambda s: 1 / (s + 1)), 1.0)  # mpmath loaded and warm
    _talbot_rule.cache_clear()
    rungs = range(32, 529, 16)
    tracemalloc.start()
    try:
        for nodes in rungs:
            _talbot_rule(nodes, 20 + int(np.ceil(0.19 * nodes)))
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 3e6
    assert _talbot_rule.cache_info().currsize == len(rungs) == 32


def test_talbot_rule_splits_every_node_once():
    for nodes in (32, 61, 176, 390):
        dps = 20 + int(np.ceil(0.19 * nodes))
        z, w, zd, wd, zh = _talbot_rule(nodes, dps)
        assert not zd.flags.writeable and not wd.flags.writeable
        assert not zh.flags.writeable and zh.tolist() == [complex(zk) for zk in z]
        # Im z_k = 2 pi k / 5 identifies the node
        k_mp = [int(round(complex(zk).imag * 5 / (2 * np.pi))) for zk in z]
        k_d = np.rint(zd.imag * 5 / (2 * np.pi)).astype(int).tolist()
        assert len(set(k_mp)) == len(k_mp) and len(set(k_d)) == len(k_d)
        assert not set(k_mp) & set(k_d)
        with mpmath.workdps(dps):
            for k in range(nodes):
                zk, wk = talbot_node(nodes, k)
                if k in k_mp:
                    i = k_mp.index(k)
                    assert abs(wk) > DOUBLE_WEIGHT
                    assert abs(mp_value(z[i]) - zk) <= 1e-40 * abs(zk)
                    assert abs(mp_value(w[i]) - wk) <= 1e-40 * abs(wk)
                elif k in k_d:
                    i = k_d.index(k)
                    assert 0 < abs(wd[i]) <= DOUBLE_WEIGHT
                    assert abs(zd[i] - complex(zk)) <= 1e-15 * abs(zk)
                    # e^{z_k} turns the rounding of Re z_k into |Re z_k| ulps
                    # (subnormal weights keep only absolute accuracy)
                    tol = 1e-15 * (1 + abs(zk.real)) * abs(wk) + 1e-320
                    assert abs(wd[i] - complex(wk)) <= tol
                else:       # dropped: the weight underflows in double
                    assert abs(wk) < 1e-300


@pytest.mark.parametrize("gammas", ["unit", "physical"])
@pytest.mark.parametrize("regime,drives", [
    ("strong", {"omega1": 0.2, "omega_rf": 20.0, "omega3": 0.2}),
    ("weak", {"omega1": 4.0, "omega_rf": 0.2, "omega3": 4.0}),
])
def test_talbot_g2_value_matches_all_mp_sum(gammas, regime, drives):
    p = closed_cascade(gammas=gammas, **drives)
    F = mp_observable(p, regime, 3, "rho22")
    ss = 0.25
    for tau in (0.3, 1.5):
        nodes = talbot_nodes_required(tau, _Dyson(p, regime, "rho22").poles())
        want = talbot_direct(F, tau, nodes,
                             dps=30 + int(np.ceil(0.19 * nodes))) / ss
        got = talbot_g2_value(p, regime, (3, 1), tau, ss=ss)
        assert abs(got - want) <= 1e-15 * abs(want)


@st.composite
def perturbative_point(draw):
    """Parameters drawn like the perturbative benchmark inputs: weak optical
    drives under a strong rf drive, or the converse."""
    gammas = draw(st.sampled_from(("unit", "physical")))
    if draw(st.booleans()):
        orf = draw(st.floats(10.0, 30.0))
        drives = (orf * draw(st.floats(0.005, 0.02)), orf,
                  orf * draw(st.floats(0.005, 0.02)))
        return "strong", closed_cascade(*drives, gammas=gammas)
    o1, o3 = draw(st.floats(2.0, 6.0)), draw(st.floats(2.0, 6.0))
    orf = min(o1, o3) * draw(st.floats(0.02, 0.05))
    return "weak", closed_cascade(o1, orf, o3, gammas=gammas)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(point=perturbative_point(), tau=st.sampled_from((0.3, 1.5)))
def test_talbot_g2_value_matches_all_mp_sum_property(point, tau):
    regime, p = point
    F = mp_observable(p, regime, 3, "rho22")
    nodes = talbot_nodes_required(tau, _Dyson(p, regime, "rho22").poles())
    want = talbot_direct(F, tau, nodes, dps=30 + int(np.ceil(0.19 * nodes)))
    got = talbot_g2_value(p, regime, (3, 1), tau, ss=1.0)
    assert abs(got - want) <= 1e-15 * abs(want)


@st.composite
def stable_rational(draw):
    """Real-valued transforms with poles in Re s < 0, some repeated."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        re = -draw(st.floats(0.01, 5.0))
        m = draw(st.sampled_from((1, 1, 2)))
        if draw(st.booleans()):
            im = draw(st.floats(0.1, 20.0))
            factors += [(complex(re, im), m), (complex(re, -im), m)]
        else:
            factors.append((complex(re, 0.0), m))
    degree = sum(m for _p, m in factors)
    num = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=degree))
    return RationalFunction.from_factors(np.array(num), factors)


def light_error(rf, t):
    """Error bound of the light half of talbot_invert_rf(rf, t), summed in
    double.  Each of its terms (below 1e-3 |F|) carries ~|Re z_k| ulps from
    e^{z_k} and a few from F, so this part of the error is absolute: it does
    not shrink with f(t)."""
    nodes = talbot_nodes_required(t, rf.den_factors)
    _z, _w, zd, wd, _zh = _talbot_rule(nodes, 20 + int(np.ceil(0.19 * nodes)))
    light = 2 / (5 * t) * np.sum(np.abs(wd * rf(zd / t)) * (1 + np.abs(zd.real)))
    return 1e-14 * light


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rf=stable_rational(), t=st.floats(0.05, 10.0))
def test_talbot_mixed_precision_property(rf, t):
    nodes = talbot_nodes_required(t, rf.den_factors)
    want = talbot_direct(rf, t, nodes)
    got = talbot_invert_rf(rf, t)
    assert abs(got - want) <= 1e-15 * max(abs(want), 1e-9) + light_error(rf, t)


def continuous_nodes(t, poles):
    """The node count before the ladder: 32 + ceil(3 t max|Im p| 5 / 2 pi)."""
    max_imag = max((abs(p.imag) for p, _m in poles), default=0.0)
    if max_imag <= 0:
        return 32
    return int(np.ceil(3.0 * t * max_imag * 5.0 / (2.0 * np.pi))) + 32


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ts=st.lists(st.floats(1e-3, 50.0), min_size=2, max_size=2),
       ims=st.lists(st.floats(0.0, 300.0), min_size=2, max_size=2))
def test_talbot_nodes_required_is_a_16_node_ladder(ts, ims):
    (t1, t2), (im1, im2) = sorted(ts), sorted(ims)

    def nodes(t, im):
        poles = [(-1.0 + 1j * im, 1), (-1.0 - 1j * im, 1)]
        n = talbot_nodes_required(t, poles)
        assert type(n) is int and n % 16 == 0
        assert continuous_nodes(t, poles) <= n < continuous_nodes(t, poles) + 16
        return n

    # non-decreasing in t and in max|Im p|
    assert nodes(t1, im1) <= nodes(t2, im1) and nodes(t1, im2) <= nodes(t2, im2)
    assert nodes(t1, im1) <= nodes(t1, im2) and nodes(t2, im1) <= nodes(t2, im2)
    # no pole off the real axis: the floor of 32, from the same formula
    for poles in ([], [(-1.0 + 0j, 2), (-4.0, 1)]):
        assert talbot_nodes_required(t1, poles) == talbot_nodes_required(t2, poles) == 32


def test_talbot_ladder_matches_continuous_count_on_oscillatory_rf():
    rf = RationalFunction.from_factors(
        np.array([8.0]), [(-0.5 + 8j, 1), (-0.5 - 8j, 1)])
    for t in (0.3, 0.77, 2.0, 3.1, 10.0):
        old = continuous_nodes(t, rf.den_factors)
        assert talbot_nodes_required(t, rf.den_factors) != old
        want = talbot_direct(rf, t, old)
        assert abs(talbot_invert_rf(rf, t) - want) <= 1e-15 * abs(want)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rf=stable_rational(), t=st.floats(0.05, 10.0))
def test_talbot_ladder_matches_continuous_count_property(rf, t):
    want = talbot_direct(rf, t, continuous_nodes(t, rf.den_factors))
    got = talbot_invert_rf(rf, t)
    assert abs(got - want) <= 1e-15 * max(abs(want), 1e-9) + light_error(rf, t)


def test_talbot_cold_cache_value_equals_warm_value():
    rf = RationalFunction.from_factors(
        np.array([1.0, 0.3]), [(-0.5 + 8j, 1), (-0.5 - 8j, 1), (-2.0, 2)])
    p = closed_cascade(0.2, 20.0, 0.2, gammas="physical")
    for t in (0.3, 1.5):
        _talbot_rule.cache_clear()
        cold = (talbot_invert_rf(rf, t), talbot_g2_value(p, "strong", (3, 1), t, ss=1.0))
        assert _talbot_rule.cache_info().misses >= 1
        warm = (talbot_invert_rf(rf, t), talbot_g2_value(p, "strong", (3, 1), t, ss=1.0))
        assert cold == warm


def test_talbot_g2_values_on_one_rung_share_a_table():
    # two strong-rf parameter sets whose continuous node counts differ but
    # round up to the same rung: the second value builds no table
    tau = 0.3
    p1 = closed_cascade(0.2, 20.0, 0.2, gammas="unit")
    p2 = closed_cascade(0.2, 20.5, 0.2, gammas="unit")
    poles1, poles2 = (_Dyson(p, "strong", "rho22").poles() for p in (p1, p2))
    assert continuous_nodes(tau, poles1) != continuous_nodes(tau, poles2)
    assert talbot_nodes_required(tau, poles1) == talbot_nodes_required(tau, poles2)
    talbot_g2_value(p1, "strong", (3, 1), tau, ss=1.0)
    misses = _talbot_rule.cache_info().misses
    talbot_g2_value(p2, "strong", (3, 1), tau, ss=1.0)
    assert _talbot_rule.cache_info().misses == misses


def test_talbot_invert_accepts_numpy_integer_nodes():
    F = via_mpmath(lambda s: 1 / (s + 1))
    _talbot_rule.cache_clear()      # the table is built from the numpy count
    assert talbot_invert(F, 1.0, nodes=np.int64(48)) == talbot_invert(F, 1.0, nodes=48)


def test_talbot_non_finite_transform_raises():
    # e^{-s}/(s+1), a decay delayed by 1: e^{-s} overflows in double at the
    # light nodes, which lie far into the left half-plane
    def F(s):
        if isinstance(s, np.ndarray):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.exp(-s) / (s + 1)
        return mpmath.exp(-s) / (s + 1)
    with pytest.raises(NonFiniteTransform):
        talbot_invert(via_mpmath(F), 0.25)


def test_talbot_refuses_a_heavy_value_off_the_node_precision():
    # a transform answers a heavy node's Fixed s with a Fixed of s's
    # precision; any other value, finite or not, is refused, not converted
    exact = RationalFunction.from_factors([1.0], [(-1.0, 1)])
    for answer in (lambda s: mpmath.inf, lambda s: 0.5, lambda s: 1 + 2j, lambda s: 1,
                   lambda s: mpmath.mpc(0.5), lambda s: Fixed(0.5, s.prec + 32)):
        def F(s):
            return exact(s) if isinstance(s, np.ndarray) else answer(s)
        with pytest.raises(InvalidArgument, match="must answer a Fixed s"):
            talbot_invert(F, 1.0)


def test_rational_function_is_its_own_talbot_transform():
    # rf answers a Fixed s from its exact form at s's precision, so
    # talbot_invert_rf is talbot_invert of rf itself at the ladder's node
    # count; a Fixed never changes precision by construction
    rf = RationalFunction.from_factors([1.0, 0.3], [(-1.0, 1), (-0.5 + 8j, 1), (-0.5 - 8j, 1)])
    for t in (0.3, 2.0):
        nodes = talbot_nodes_required(t, rf.den_factors)
        assert talbot_invert_rf(rf, t) == talbot_invert(rf, t, nodes=nodes)
    assert nodes > 32
    s = Fixed(0.3 + 0.7j, 192)
    got = rf(s)
    assert type(got) is Fixed and got.prec == 192
    assert abs(complex(got) - rf(0.3 + 0.7j)) <= 1e-15 * abs(rf(0.3 + 0.7j))
    for p in (192, 256):
        with pytest.raises(TypeError):
            Fixed(s, p)


def fixed_operands():
    """Complex operands from 1e-30 to 1e30 in modulus, all four sign
    quadrants, plus real ones."""
    rng = np.random.default_rng(12)
    out = []
    for e in np.linspace(-30, 30, 13):
        for sr, si in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            m = rng.uniform(1, 10, 2) * 10.0 ** e
            out.append(complex(sr * m[0], si * m[1] * 10.0 ** rng.uniform(-3, 3)))
        out.append(float(rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** e))
    return out


@pytest.mark.parametrize("prec", [256, 320])
def test_fixed_construction_and_division_match_mpmath(prec):
    # construction is exact on the grid from int, float, complex, mpf and
    # mpc; / is off by less than one grid step per component, rounded down,
    # against mpmath at twice the precision
    ulp = mpmath.ldexp(1, -prec)
    values = [Fixed(v, prec) for v in fixed_operands()]
    pivot = Fixed(3e-30 - 7e-31j, prec)  # a small pivot
    with mpmath.workprec(2 * prec):
        for x, want in ((7, 7), (-2.5, -2.5), (1.5 - 2.25j, mpmath.mpc(1.5, -2.25)),
                        (mpmath.mpf(2) ** -prec, mpmath.mpf(2) ** -prec),
                        (mpmath.mpc(3, -4.5), mpmath.mpc(3, -4.5))):
            assert mp_value(Fixed(x, prec)) == want
        exact = [mp_value(v) for v in values]
        assert all(complex(v) == complex(x) for v, x in zip(values, exact))
        pairs = [(i, j) for i in range(len(values)) for j in range(0, len(values), 5)]
        pairs += [(i, None) for i in range(len(values))]
        for i, j in pairs:
            a, b = values[i], values[j] if j is not None else pivot
            got = a / b
            assert type(got) is Fixed and got.prec == prec
            err = mp_value(got) - exact[i] / mp_value(b)
            assert -ulp < err.real <= 0 and -ulp < err.imag <= 0
    assert not Fixed(0, prec) and Fixed(1e-30j, prec)
    assert complex(Fixed(1.5 - 2.25j, prec)) == 1.5 - 2.25j
    with pytest.raises(ValueError):
        Fixed(mpmath.inf, prec)
    with pytest.raises(TypeError):
        Fixed(1, prec) / Fixed(1, prec + 64)


@pytest.mark.parametrize("t", [0.3, 1.7])
def test_talbot_rf_scale_invariant(t):
    # the Fixed grid follows |F| at the heavy nodes: scaling the numerator
    # by 10^-k scales f(t) without losing digits
    factors = [(-1.0, 1), (-0.5 + 3j, 1), (-0.5 - 3j, 1)]
    num = np.array([1.0, 0.3, -0.2])
    base = talbot_invert_rf(RationalFunction.from_factors(num, factors), t)
    for k in (0, 10, 20, 30):
        scaled = talbot_invert_rf(
            RationalFunction.from_factors(num * 10.0 ** -k, factors), t)
        want = base * 10.0 ** -k
        assert abs(scaled - want) <= 1e-15 * abs(want)


def test_talbot_branch_cut_transform():
    # F = 1/sqrt(s): mpmath.sqrt at the heavy nodes (through via_mpmath),
    # np.sqrt on the array; f(t) = 1/sqrt(pi t)
    def F(s):
        if isinstance(s, np.ndarray):
            return 1 / np.sqrt(s)
        return 1 / mpmath.sqrt(s)
    for t in (0.05, 1.0, 7.5):
        want = 1 / np.sqrt(np.pi * t)
        assert abs(talbot_invert(via_mpmath(F), t) - want) <= 1e-12 * want


def test_invert_two_simple_poles():
    rf = RationalFunction.from_factors(np.array([1.0]), [(-1.0, 1), (-2.0, 1)])
    es = invert_rational(rf)
    ts = np.linspace(0.0, 5.0, 21)
    truth = np.exp(-ts) - np.exp(-2 * ts)
    assert np.max(np.abs(es(ts) - truth)) < 1e-12


def residue_sum_mp(num, roots, t):
    """sum_p N(p) e^{pt} / prod_{q != p} (p - q) over simple poles, at 50
    digits from the given double coefficients and roots."""
    with mpmath.workdps(50):
        num = [mpmath.mpc(c) for c in num]
        exact = 0
        for i, p in enumerate(roots):
            d = mpmath.fprod(mpmath.mpc(p) - q for j, q in enumerate(roots)
                             if j != i)
            exact += (mpmath.polyval(num[::-1], mpmath.mpc(p)) / d
                      * mpmath.exp(p * mpmath.mpf(t)))
        return float(exact.real)


def test_invert_residues_keep_digits_under_cancellation():
    # poles near -1 +- 50.6i (a strong-rf catalogue entry): at small t the
    # terms, ~5e-3 each, cancel to ~3e-8; residues taken from the expanded
    # D'(p) were off by 2e-8 relative there
    roots = [0.0, -1.0 - 50.6j, -1.0 + 50.6j, -1.25 - 50.6022j,
             -1.25 + 50.6022j, -0.5]
    num = [349.37227459, 233.30894276, 0.72755637, 0.36377818]
    rf = RationalFunction.from_factors(np.array(num), [(r, 1) for r in roots])
    es = invert_rational(rf)
    for t in (0.07, 0.5):
        want = residue_sum_mp(num, roots, t)
        assert abs(es(np.array([t]))[0] - want) < 1e-9 * abs(want)


def test_invert_residues_keep_digits_next_to_numerator_root(weak_rf_point):
    # weak-rf (3, rho22) at the validation point: N nearly vanishes at the
    # pole -0.49979, where double-precision Horner lost 1.6e-8
    rf = appendix_rational(weak_rf_point, "weak", 3, "rho22")
    assert all(m == 1 for _r, m in rf.den_factors)
    roots = [r for r, _m in rf.den_factors]
    es = invert_rational(rf)
    for t in (0.07, 0.5, 1.8):
        want = residue_sum_mp(rf.numerator, roots, t)
        assert abs(es(np.array([t]))[0] - want) <= 1e-12 * abs(want)


def test_invert_double_pole():
    rf = RationalFunction.from_factors(np.array([1.0]), [(-3.0, 2)])
    es = invert_rational(rf)
    ts = np.linspace(0.0, 3.0, 13)
    assert np.max(np.abs(es(ts) - ts * np.exp(-3 * ts))) < 1e-10
    powers = sorted(p for _c, _r, p in es.terms)
    assert powers == [0, 1]


def test_invert_clustered_poles_reproduce_degenerate_limit():
    # poles 1e-9 apart (relative): clustered to a double pole, and the
    # inversion reproduces the degenerate t e^{pt} limit of the two-pathway
    # difference form
    a = 0.5
    b = a * (1 + 1e-9)
    rf = RationalFunction.from_factors(np.array([1.0]), [(-a, 1), (-b, 1)])
    es = invert_rational(rf)
    assert sorted(p for _c, _r, p in es.terms) == [0, 1]
    ts = np.linspace(0.05, 6.0, 25)
    # cancellation-free oracle: e^{-at} - e^{-bt} = -e^{-at} expm1(-(b-a)t)
    exact = -np.exp(-a * ts) * np.expm1(-(b - a) * ts) / (b - a)
    assert np.max(np.abs(es(ts) - exact) / np.abs(exact)) < 1e-6


def test_cluster_ambiguity_raises():
    # separation inside the 1e-8..1e-6 band cannot be classified
    rf = RationalFunction.from_factors(
        np.array([1.0]), [(-1.0, 1), (-1.0 * (1 + 1e-7), 1)])
    with pytest.raises(IllConditionedPoles):
        invert_rational(rf)


def test_principal_part_refuses_contour_reaching_a_neighbour():
    # A cluster spread of 0.02 widens its circle to 0.2, past half the 0.1
    # distance to the next pole, for any F (here a plain closure, as the
    # hierarchy passes); the isolated neighbour keeps its residue 1/0.1^2.
    clusters = [(-1.0, 2, 0.02), (-1.1, 1, 0.0)]

    def F(s):
        return 1.0 / ((s + 1.0) ** 2 * (s + 1.1))

    with pytest.raises(IllConditionedPoles):
        principal_parts(F, clusters)
    (((coeff, rate, power),),) = principal_parts(F, clusters, clusters[1:])
    assert (rate, power) == (-1.1, 0)
    assert abs(coeff - 100.0) < 1e-9


def test_principal_parts_sample_every_contour_in_one_call():
    # one array call of F for all clusters, and the same terms, bit for
    # bit, as one call per cluster
    rf = appendix_rational(closed_cascade(4.0, 0.2, 4.0), "weak", 2, "rho22")
    factors = list(rf.den_factors) + [(-0.4, 2), (-0.3 + 0.1j, 3)]
    clusters = cluster_poles(factors)
    shapes = []

    def F(s):
        shapes.append(s.shape)
        return rf(s) / ((s + 0.4) ** 2 * (s + 0.3 - 0.1j) ** 3)

    parts = principal_parts(F, clusters)
    assert shapes == [(64 * len(clusters),)]
    assert [len(part) for part in parts] == [order for _c, order, _s in clusters]
    for cluster, part in zip(clusters, parts):
        (alone,) = principal_parts(F, clusters, [cluster])
        assert alone == part
    assert principal_parts(F, clusters, []) == [] and len(shapes) == 1 + len(clusters)


@pytest.mark.parametrize("seed", range(6))
def test_poly_at_matches_complex_horner(seed):
    # the remainder recurrence against complex Horner, both on the grid,
    # for random real (even seeds) and complex (odd seeds) coefficients, at
    # s off the real axis, on it and just above it.  The rounding of each
    # step costs either evaluator under one ulp times the largest term's
    # size max(1, |s|)^n; the recurrence also rounds |s|^2 once, which puts
    # one ulp times the quotient Q(s) into the value, and |Q(s)| reaches
    # about n^2 terms' size where s and conj(s) nearly coincide (seen: 223
    # ulps at degree 24 against Horner's 7)
    rng = np.random.default_rng(seed)
    for degree in (0, 1, 2, 7, 15, 24):
        c = rng.uniform(-1, 1, degree + 1)
        if seed % 2:
            c = c + 1j * rng.uniform(-1, 1, degree + 1)
        coeffs = _grid_coeffs(128, c)
        assert (coeffs[1] is None) == (seed % 2 == 0)
        re, im = coeffs[0], coeffs[1] or [0] * (degree + 1)
        x = float(rng.uniform(-1.5, 1.5))
        for y in (0.0, 1e-12 * x, -3e-9, float(rng.uniform(-1.5, 1.5))):
            s = Fixed(complex(x, y), 128)
            ar, ai = re[0], im[0]
            for cr, ci in zip(re[1:], im[1:]):
                ar, ai = (((ar * s.re - ai * s.im) >> 128) + cr,
                          ((ar * s.im + ai * s.re) >> 128) + ci)
            got = _poly_at(coeffs, s)
            ulps = (degree + 1) ** 2 * max(1.0, abs(complex(s))) ** degree
            assert abs(got.re - ar) <= ulps and abs(got.im - ai) <= ulps


def exact_value(coeffs, s):
    """p(s) 2^(P (n + 1)) as exact ints (re, im), for _grid_coeffs lists
    of degree n and a Fixed s of precision P."""
    p, n = s.prec, len(coeffs[0]) - 1
    im_c = coeffs[1] or [0] * (n + 1)
    re = im = 0
    pr, pi = 1 << (p * n), 0          # s^k 2^(P (n - k)), from k = 0
    for cr, ci in zip(coeffs[0][::-1], im_c[::-1]):
        re, im = re + cr * pr - ci * pi, im + cr * pi + ci * pr
        pr, pi = (pr * s.re - pi * s.im) >> p, (pr * s.im + pi * s.re) >> p
    return re, im


@pytest.mark.parametrize("regime,drives", [
    ("strong", {"omega1": 0.2, "omega_rf": 20.0, "omega3": 0.2}),
    ("weak", {"omega1": 4.0, "omega_rf": 0.1, "omega3": 3.0}),
])
def test_poly_at_keeps_the_guard_bits_at_heavy_talbot_nodes(regime, drives):
    # at every heavy node of a catalogue entry (s = z_k / t, real at k = 0
    # and with |Im s| << |Re s| at the next few), N and D come out within
    # 2^(5 - P) of their exact values, relative: the recurrence spends at
    # most 5 of the GUARD_BITS beyond the working precision (1 to 5 bits
    # more than Horner was seen)
    rf = appendix_rational(preset("fig2", "unit").with_drives(**drives), regime, 2, "rho22")
    for t in (0.07, 1.8):
        nodes = talbot_nodes_required(t, rf.den_factors)
        z, *_ = _talbot_rule(nodes, 20 + int(np.ceil(0.19 * nodes)))
        p = z[0].prec
        for zk in z:
            s = zk / Fixed(t, p)
            for c in (rf.numerator, rf.denominator):
                coeffs = _grid_coeffs(p, c)
                got, n = _poly_at(coeffs, s), len(c) - 1
                re, im = exact_value(coeffs, s)
                err = abs((got.re << (p * n)) - re) + abs((got.im << (p * n)) - im)
                assert err << p <= 32 * (abs(re) + abs(im))


def test_poly_at_is_exact_when_the_grid_holds_every_term():
    # invert_rational's residue numerators: with as many fractional bits
    # as the terms carry, the value is the exact one
    s = Fixed(-0.3 + 0.7j, 320)
    c = np.array([0.1, -2.5, 3.25, 1e-3, 0.7])
    got = _poly_at(_grid_coeffs(320, c), s)
    with mpmath.workdps(120):
        want = sum(mpmath.mpf(v) * mpmath.mpc(-0.3, 0.7) ** k for k, v in enumerate(c))
        assert got.re == int(mpmath.re(want) * (1 << 320))
        assert got.im == int(mpmath.im(want) * (1 << 320))


def test_strictly_proper_enforced():
    with pytest.raises(ValueError):
        RationalFunction.from_factors(np.array([1.0, 2.0]), [(-1.0, 1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_refused(bad):
    # the exact residue numerator has no value for them; refuse up front
    with pytest.raises(InvalidArgument):
        RationalFunction.from_factors(np.array([bad, 1.0]), [(-1.0, 1), (-2.0, 1)])
    with pytest.raises(InvalidArgument):
        RationalFunction.from_factors(np.array([1.0]), [(-1.0, 1), (bad, 1)])


def test_monic_normalization_and_eval():
    rf = RationalFunction.from_factors(np.array([2.0]), [(-0.5, 1)])
    assert rf.denominator[-1] == 1.0
    assert abs(rf(1.0) - 2.0 / 1.5) < 1e-15


def test_initial_value():
    rf = RationalFunction.from_factors(np.array([3.0, 5.0]), [(-1.0, 1), (-2.0, 1)])
    assert abs(rf.initial_value() - 5.0) < 1e-15
    rf2 = RationalFunction.from_factors(np.array([3.0]), [(-1.0, 1), (-2.0, 1)])
    assert rf2.initial_value() == 0.0


def test_from_factors_keeps_a_small_leading_coefficient():
    # only exact trailing zeros go: a leading coefficient 1e-14 of the others
    # is part of the function (a relative trim at 1e-13 dropped it)
    factors = [(-1.0, 1), (-2.0, 1), (-3.0, 1)]
    rf = RationalFunction.from_factors(np.array([1.0, 2.0, 1e-14]), factors)
    assert rf.degree() == (2, 3) and rf.initial_value() == 1e-14
    rf = RationalFunction.from_factors(np.array([1.0, 2.0, 0.0, 0.0]), factors)
    assert rf.degree() == (1, 3)


@pytest.mark.parametrize("regime,drives,poles", [
    ("weak", {"omega1": 70.0, "omega_rf": 1.0, "omega3": 70.0}, 11),
    ("strong", {"omega1": 1.0, "omega_rf": 1000.0, "omega3": 1.0}, 6),
])
def test_catalogue_at_large_drives_keeps_its_poles(regime, drives, poles):
    # the denominator coefficients pass 1e13 here; read off the coefficients,
    # its monic leading 1 fell under a relative trim, and the residue and
    # Talbot engines gave 0.00135 and 0.0150 (weak) or 0.155 and 0.742
    # (strong) for the same function
    p = preset("fig2", "unit").with_drives(**drives)
    rf = appendix_rational(p, regime, 3, "rho22")
    assert rf.degree()[1] == poles == sum(m for _r, m in rf.den_factors)
    assert abs(rf.initial_value()) <= 1e-12
    residue = invert_rational(rf)(np.array([0.02]))[0]
    assert abs(talbot_invert_rf(rf, 0.02) - residue) <= 1e-9 * abs(residue)


def test_exponential_sum_realness_guard():
    es = ExponentialSum(terms=((1.0 + 0j, -1.0 + 2j, 0),))  # unpaired
    with pytest.raises(ArithmeticError):
        es(np.array([1.0]))


def test_non_real_sum_is_a_named_error():
    # analytic_g2_sum's sums reach this guard, so it raises a Cascade4Error
    es = ExponentialSum(terms=((1.0 + 0j, -1.0 + 2j, 0),))
    with pytest.raises(NonRealSum) as info:
        es(np.array([1.0]))
    assert isinstance(info.value, Cascade4Error)


def test_exponential_sum_empty_inputs():
    es = ExponentialSum(terms=((1.0 + 0j, -1.0 + 2j, 0), (1.0 - 0j, -1.0 - 2j, 0)))
    out = es(np.array([]))
    assert out.shape == (0,) and out.dtype == float


def test_exponential_sum_holds_read_only_arrays():
    terms = ((1.5 - 2j, -1.0 + 2j, 0), (1.5 + 2j, -1.0 - 2j, 0), (0.25 + 0j, -3 + 0j, 2))
    es = ExponentialSum(terms)
    assert es.terms == terms
    assert [type(v) for v in es.terms[0]] == [complex, complex, int]
    assert es.coeffs.dtype == es.rates.dtype == complex and es.powers.tolist() == [0, 0, 2]
    for array in (es.coeffs, es.rates, es.powers):
        assert not array.flags.writeable
    with pytest.raises(AttributeError):
        es.coeffs = es.rates
    half = es.scaled(0.5)
    assert half.terms == tuple((c * 0.5, r, p) for c, r, p in terms)
    assert not half.coeffs.flags.writeable and es.terms == terms
    ts = np.array([0.0, 0.3, 2.0])
    assert np.array_equal(half(ts), 0.5 * es(ts))
    assert ExponentialSum(()).terms == () and ExponentialSum(())(ts).tolist() == [0.0] * 3


def test_exponential_sum_value_at_zero():
    es = ExponentialSum(terms=((1.0, 0.0, 0), (-1.0, -1.0, 0), (0.5, -2.0, 1)))
    assert es.value_at_zero() == 0.0  # t^1 term does not count at t=0


def test_cluster_poles_merges_exact_duplicates():
    clusters = cluster_poles([(-1.0, 1), (-1.0, 1), (-2.0, 1)])
    orders = sorted(o for _c, o, _s in clusters)
    assert orders == [1, 2]
