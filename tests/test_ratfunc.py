import mpmath
import numpy as np
import pytest

from cascade4.errors import IllConditionedPoles
from cascade4.ratfunc import (
    _talbot_rule,
    ExponentialSum,
    RationalFunction,
    cluster_poles,
    companion_roots,
    invert_rational,
    poly_from_roots,
    talbot_invert,
    talbot_invert_rf,
    talbot_nodes_required,
)


def talbot_direct(F, t, nodes):
    """Reference: the fixed-Talbot sum with every node computed directly."""
    with mpmath.workdps(20 + int(np.ceil(0.19 * nodes))):
        tmp = mpmath.mpf(t)
        r = mpmath.mpf(2 * nodes) / 5
        p0 = r / tmp
        total = (mpmath.exp(p0 * tmp) / 2 * F(mpmath.mpc(p0))).real
        for k in range(1, nodes):
            theta = mpmath.pi * k / nodes
            cot = mpmath.cos(theta) / mpmath.sin(theta)
            pk = r / tmp * theta * mpmath.mpc(cot, 1)
            gamma = (mpmath.exp(pk * tmp)
                     * mpmath.mpc(1, theta * (1 + cot ** 2) - cot))
            total += (gamma * F(pk)).real
        return float(2 * total / (5 * tmp))


def test_talbot_simple_pole():
    # 1/(s+1) at t=1 -> 1/e
    val = talbot_invert(lambda s: 1 / (s + 1), 1.0)
    assert abs(val - np.exp(-1.0)) < 1e-10


def test_talbot_ramp():
    # 1/s^2 at t=2.5 -> 2.5
    val = talbot_invert(lambda s: 1 / s ** 2, 2.5)
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
        assert abs(talbot_invert(F, t, nodes=nodes) - want) <= 1e-15 * abs(want)
    rf = RationalFunction.from_factors(
        np.array([8.0]), [(-0.5 + 8j, 1), (-0.5 - 8j, 1)])
    for t in (0.3, 2.0, 10.0):
        want = talbot_direct(rf, t, talbot_nodes_required(t, 8.0))
        assert abs(talbot_invert_rf(rf, t) - want) <= 1e-15 * abs(want)
    # a few tables only: one for 284 nodes holds about 0.3 MB
    assert _talbot_rule.cache_info().maxsize <= 4


def test_invert_two_simple_poles():
    rf = RationalFunction.make(np.array([1.0]),
                               poly_from_roots([-1.0, -2.0]))
    es = invert_rational(rf)
    ts = np.linspace(0.0, 5.0, 21)
    truth = np.exp(-ts) - np.exp(-2 * ts)
    assert np.max(np.abs(es(ts) - truth)) < 1e-12


def test_invert_residues_keep_digits_under_cancellation():
    # poles near -1 +- 50.6i (a strong-rf catalogue entry): at small t the
    # terms, ~5e-3 each, cancel to ~3e-8; residues taken from the expanded
    # D'(p) were off by 2e-8 relative there
    roots = [0.0, -1.0 - 50.6j, -1.0 + 50.6j, -1.25 - 50.6022j,
             -1.25 + 50.6022j, -0.5]
    num = [349.37227459, 233.30894276, 0.72755637, 0.36377818]
    rf = RationalFunction.from_factors(np.array(num), [(r, 1) for r in roots])
    es = invert_rational(rf)
    with mpmath.workdps(50):
        for t in (0.07, 0.5):
            exact = 0
            for i, p in enumerate(roots):
                d = mpmath.fprod(mpmath.mpc(p) - q for j, q in enumerate(roots)
                                 if j != i)
                exact += (mpmath.polyval(num[::-1], mpmath.mpc(p)) / d
                          * mpmath.exp(p * mpmath.mpf(t)))
            want = float(exact.real)
            assert abs(es(np.array([t]))[0] - want) < 1e-9 * abs(want)


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


def test_companion_near_double_root_is_ambiguous():
    # from coefficients alone, a double root splits by ~sqrt(eps): the
    # clustering honestly refuses to guess
    a = 0.5
    b = a * (1 + 1e-9)
    rf = RationalFunction.make(np.array([1.0]), poly_from_roots([-a, -b]))
    with pytest.raises(IllConditionedPoles):
        invert_rational(rf)


def test_cluster_ambiguity_raises():
    # separation inside the 1e-8..1e-6 band cannot be classified
    rf = RationalFunction.make(
        np.array([1.0]), poly_from_roots([-1.0, -1.0 * (1 + 1e-7)]))
    with pytest.raises(IllConditionedPoles):
        invert_rational(rf)


def test_strictly_proper_enforced():
    with pytest.raises(ValueError):
        RationalFunction.make(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_monic_normalization_and_eval():
    rf = RationalFunction.make(np.array([2.0]), np.array([2.0, 4.0]))
    assert rf.denominator[-1] == 1.0
    assert abs(rf(1.0) - 2.0 / 6.0) < 1e-15


def test_initial_value():
    rf = RationalFunction.make(np.array([3.0, 5.0]),
                               poly_from_roots([-1.0, -2.0]))
    assert abs(rf.initial_value() - 5.0) < 1e-15
    rf2 = RationalFunction.make(np.array([3.0]), poly_from_roots([-1.0, -2.0]))
    assert rf2.initial_value() == 0.0


def test_companion_roots_match_numpy():
    rng = np.random.default_rng(4)
    for _ in range(5):
        asc = rng.standard_normal(6)
        asc[-1] = abs(asc[-1]) + 0.5
        mine = list(companion_roots(asc))
        for ref in np.roots(asc[::-1]):
            k = int(np.argmin([abs(ref - m) for m in mine]))
            assert abs(ref - mine.pop(k)) < 1e-8


def test_poly_eval_of_own_roots():
    roots = [-1.0 + 3j, -1.0 - 3j, -0.2]
    c = poly_from_roots(roots)
    scale = np.max(np.abs(c))
    for r in roots:
        val = np.polyval(c[::-1], r)
        assert abs(val) < 1e-12 * scale


def test_exponential_sum_realness_guard():
    es = ExponentialSum(terms=((1.0 + 0j, -1.0 + 2j, 0),))  # unpaired
    with pytest.raises(ArithmeticError):
        es(np.array([1.0]))


def test_exponential_sum_empty_inputs():
    es = ExponentialSum(terms=((1.0 + 0j, -1.0 + 2j, 0), (1.0 - 0j, -1.0 - 2j, 0)))
    out = es(np.array([]))
    assert out.shape == (0,) and out.dtype == float
    assert ExponentialSum(terms=()).significant_rates() == []


def test_exponential_sum_value_at_zero():
    es = ExponentialSum(terms=((1.0, 0.0, 0), (-1.0, -1.0, 0), (0.5, -2.0, 1)))
    assert es.value_at_zero() == 0.0  # t^1 term does not count at t=0
    assert es.constant_term() == 1.0


def test_cluster_poles_merges_exact_duplicates():
    clusters = cluster_poles([-1.0, -1.0, -2.0], [1, 1, 1])
    orders = sorted(o for _c, o, _s in clusters)
    assert orders == [1, 2]
