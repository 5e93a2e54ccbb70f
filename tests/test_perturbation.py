import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyfromroots

from cascade4.correlations import g2
from cascade4.dynamics import evolve
from cascade4.errors import (
    InvalidArgument,
    NearPole,
    NonzeroDetuning,
    NotCatalogued,
    ZeroSteadyState,
)
from cascade4 import perturbation
from cascade4.model import (
    IM_R12,
    IM_R14,
    IM_R23,
    IM_R34,
    P22,
    P33,
    P44,
    RE_R13,
    RE_R24,
    SystemParams,
    build_generator,
    prepare_state,
    preset,
)
from cascade4.perturbation import (
    APPENDIX_CATALOGUE,
    Regime,
    analytic_g2_sum,
    appendix_rational,
    root_set,
    talbot_g2_value,
)
from cascade4.ratfunc import fixed_type, invert_rational, talbot_invert_rf

from conftest import closed_cascade, mp_observable, mp_value


def exact_laplace(params, init, s):
    """Oracle: the full 15-dim resolvent (s I - A)^{-1}(x0 + b/s)."""
    gen = build_generator(params)
    x0 = prepare_state(init)
    return np.linalg.solve(s * np.eye(15) - gen.A, x0 + gen.b / s)


def test_initial_value_theorem(strong_weakdrive, weak_rf_point):
    s = 1e3 + 0.0j
    for params, regime in ((strong_weakdrive, "strong"),
                           (weak_rf_point, "weak")):
        for init in (1, 2, 3):
            ys = perturbation._Dyson(params, regime)(s, prepare_state(init))
            expectations = {P22: 1.0 if init == 2 else 0.0,
                            P33: 1.0 if init == 3 else 0.0,
                            P44: 0.0}
            for idx, want in expectations.items():
                assert abs(s * sum(y[idx] for y in ys) - want) < 1e-2


def test_hierarchy_tracks_exact_resolvent(strong_weakdrive, weak_rf_point):
    # second-order truncation error is tiny at these drive strengths
    for params, regime, tol in ((strong_weakdrive, "strong", 5e-4),
                                (weak_rf_point, "weak", 5e-4)):
        for s in (0.5 + 0.3j, 2.0 + 0.0j, 0.05 + 1.0j):
            xb = exact_laplace(params, 3, s)
            ys = perturbation._Dyson(params, regime)(s, prepare_state(3))
            assert abs(sum(y[P22] for y in ys) - xb[P22]) < tol


def test_strong_no_optical_drive_kills_sources():
    p = closed_cascade(omega_rf=20.0)  # omega1 = omega3 = 0
    dyson = perturbation._Dyson(p, "strong")
    ys = dyson(0.7 + 0.2j, prepare_state(1))
    assert ys[2][P44] == 0.0
    assert sum(y[P22] for y in ys) == 0.0  # nothing pumps out of |1>
    ys3 = dyson(0.7 + 0.2j, prepare_state(3))
    assert abs(sum(y[P44] for y in ys3)) == 0.0  # 2nd-order source needs omega3


def test_orders_scale_with_perturbative_drive(strong_weakdrive,
                                              weak_rf_point):
    # term k of the Dyson chain is exactly order k in the perturbative
    # drives: halving them scales it by 2^-k
    s = 0.7 + 0.3j
    for params, regime, half in (
            (strong_weakdrive, "strong",
             dict(omega1=strong_weakdrive.omega1 / 2,
                  omega3=strong_weakdrive.omega3 / 2)),
            (weak_rf_point, "weak",
             dict(omega_rf=weak_rf_point.omega_rf / 2))):
        for init in (1, 2, 3):
            x0 = prepare_state(init)
            full = perturbation._Dyson(params, regime)(s, x0)
            halved = perturbation._Dyson(replace(params, **half), regime)(s, x0)
            for k, (y, y_half) in enumerate(zip(full, halved)):
                y, y_half = np.array(y, dtype=complex), np.array(y_half, dtype=complex)
                assert np.all(abs(y_half - y * 0.5 ** k) <= 1e-9 * abs(y))


def test_nonzero_detuning_rejected(strong_weakdrive):
    p = replace(strong_weakdrive, delta1=0.5)
    for observable in (None, "rho22"):
        with pytest.raises(NonzeroDetuning):
            perturbation._Dyson(p, "strong", observable)
    with pytest.raises(NonzeroDetuning):
        root_set(p, "strong")
    with pytest.raises(NonzeroDetuning):
        analytic_g2_sum(p, "strong", (3, 1))


def test_near_pole_rejected(strong_weakdrive):
    rs = root_set(strong_weakdrive, "strong")
    pole = complex(rs.cubic[np.argmin(np.abs(rs.cubic.imag))])  # real root
    chain, x0 = perturbation._Dyson(strong_weakdrive, "strong"), prepare_state(3)
    with pytest.raises(NearPole):
        chain(pole, x0)
    # one point of a contour ring on the pole spoils the whole batch
    dyson = perturbation._Dyson(strong_weakdrive, "strong", "rho22")
    F = dyson.transform(3)
    ring = pole + 0.1 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.all(np.isfinite(F(ring)))
    ring[5] = pole
    with pytest.raises(NearPole):
        F(ring)
    # b/s puts a pole at 0 whatever the arithmetic of s
    for zero in (0j, np.array([1.0, 0.0]), fixed_type(128)(0)):
        with pytest.raises(NearPole):
            F(zero)
    # -1/2 + 20i is exactly a root of A0's (Im rho12, Re rho13) block here:
    # the exact form's denominator vanishes
    block_pole = -0.5 + 20j
    assert min(abs(z - block_pole) for z, _m in dyson.poles()) < 1e-12
    for s in (block_pole, fixed_type(128)(block_pole)):
        with pytest.raises(NearPole):
            F(s)
    # the chain runs at complex scalars and arrays only; the closure answers
    # a Fixed from the exact form, and every other s is refused by name
    refused = "s must be a complex scalar or a numpy array"
    for s in (mpmath.mpc(0.3, 0.7), mpmath.mpf(2)):
        with pytest.raises(InvalidArgument, match=refused):
            F(s)
    for s in (mpmath.mpc(0.3, 0.7), fixed_type(128)(0.3 + 0.7j)):
        with pytest.raises(InvalidArgument, match=refused):
            chain(s, x0)


def dyson_reference(params, regime, init, s):
    """The Dyson terms y0, y1, y2 on the full 15x15 matrices, without the
    block structure."""
    off = ({"omega1": 0.0, "omega3": 0.0} if regime == "strong"
           else {"omega_rf": 0.0})
    full = build_generator(params)
    base = build_generator(replace(params, **off))
    a1, b1 = full.A - base.A, full.b - base.b

    def r0(rhs):
        return np.linalg.solve(s * np.eye(15) - base.A, rhs)

    y0 = r0(prepare_state(init) + base.b / s)
    y1 = r0(a1 @ y0 + b1 / s)
    return y0, y1, r0(a1 @ y1)


@pytest.mark.parametrize("gammas", ["unit", "physical"])
def test_laplace_solve_scalar_matches_full_dyson(gammas):
    points = ((closed_cascade(0.2, 20.0, 0.2, gammas), "strong"),
              (closed_cascade(4.0, 0.2, 4.0, gammas), "weak"))
    for params, regime in points:
        dyson = perturbation._Dyson(params, regime)
        for init in (1, 2, 3):
            for s in (0.7 + 0.3j, 2.0 + 0.0j, -0.2 + 3.7j, 1e-3 + 0.01j):
                ys = dyson(s, prepare_state(init))
                want = dyson_reference(params, regime, init, s)
                # every packed component of every term, against the
                # component's sum over the terms
                assert all(np.ndim(v) == 0 for y in ys for v in y)
                got = np.array(ys, dtype=complex)
                total = abs(got.sum(axis=0))
                assert np.all(abs(got - np.array(want)) <= 1e-13 * total)


@pytest.mark.parametrize("gammas", ["unit", "physical"])
def test_observable_closure_broadcasts(gammas):
    # one call on an array of s equals the scalar calls elementwise
    points = ((closed_cascade(0.2, 20.0, 0.2, gammas), "strong"),
              (closed_cascade(4.0, 0.2, 4.0, gammas), "weak"))
    s = np.concatenate([0.3 + 0.2 * np.exp(2j * np.pi * np.arange(16) / 16),
                        [2.0, 0.05 + 1.0j, -0.2 + 3.7j, 1e-3 + 0.01j]])
    for params, regime in points:
        for init, observable in ((1, "rho22"), (2, "rho33"), (3, "rho22"),
                                 (3, "rho33"), (3, "rho44")):
            F = perturbation._Dyson(params, regime, observable).transform(init)
            batch = F(s)
            assert batch.shape == s.shape
            for z, value in zip(s, batch):
                assert abs(value - F(z)) <= 1e-13 * abs(F(z))


@pytest.mark.parametrize("gammas", ["unit", "physical"])
def test_observable_closure_same_at_mpc_and_complex(gammas):
    # the contour residues call the closure with complex128; the all-mpmath
    # chain of the test oracle must give the same transform
    points = ((closed_cascade(0.2, 20.0, 0.2, gammas), "strong"),
              (closed_cascade(4.0, 0.2, 4.0, gammas), "weak"))
    pairs = sorted({(init, obs) for _reg, init, obs in APPENDIX_CATALOGUE})
    assert len(pairs) == 5
    for params, regime in points:
        for init, observable in pairs:
            F = perturbation._Dyson(params, regime, observable).transform(init)
            F_mp = mp_observable(params, regime, init, observable)
            for z in (0.3 + 0.7j, 2.0, -0.3 + 2j, 1 + 30j, 5 + 40j,
                      1e-3 + 0.01j):
                want = F(complex(z))
                with mpmath.workdps(30):
                    got = complex(F_mp(mpmath.mpc(z)))
                assert abs(got - want) <= 1e-13 * abs(want)


# The large drives of the catalogue test: denominator coefficients past 1e13.
LARGE_DRIVES = (("weak", {"omega1": 70.0, "omega_rf": 1.0, "omega3": 70.0}),
                ("strong", {"omega1": 1.0, "omega_rf": 1000.0, "omega3": 1.0}))


@pytest.mark.parametrize("gammas", ["unit", "physical", "large"])
def test_observable_closure_same_at_fixed_and_mpc(gammas):
    # the heavy fixed-Talbot nodes call the closure with Fixed scalars, which
    # it answers from the exact N(u)/D(u); the all-mpmath chain at 60 digits
    # is the reference
    kind = fixed_type(240)
    if gammas == "large":
        points = [(preset("fig2", "unit").with_drives(**drives), regime)
                  for regime, drives in LARGE_DRIVES]
    else:
        points = ((closed_cascade(0.2, 20.0, 0.2, gammas), "strong"),
                  (closed_cascade(4.0, 0.2, 4.0, gammas), "weak"))
    pairs = sorted({(init, obs) for _reg, init, obs in APPENDIX_CATALOGUE})
    for params, regime in points:
        for init, observable in pairs:
            F = perturbation._Dyson(params, regime, observable).transform(init)
            F_mp = mp_observable(params, regime, init, observable)
            for z in (0.3 + 0.7j, 2.0, -0.3 + 2j, 5 + 40j, 1e-3 + 0.01j):
                got = F(kind(z))
                assert type(got) is kind
                with mpmath.workdps(60):
                    want = F_mp(mpmath.mpc(z))
                    assert abs(mp_value(got) - want) <= 1e-50 * abs(want)


@pytest.mark.parametrize("regime", ["strong", "weak"])
@pytest.mark.parametrize("gammas", ["unit", "physical"])
def test_exact_denominator_is_the_pole_inventory(regime, gammas):
    # one source of truth: the exact form's denominator in s is monic, of
    # degree the multiplicity sum of _Dyson.poles(), and is prod (s - p)^m
    params = (closed_cascade(0.2, 20.0, 0.2, gammas) if regime == "strong"
              else closed_cascade(4.0, 0.2, 4.0, gammas))
    for init, observable in ((3, "rho22"), (3, "rho44"), (1, "rho22")):
        dyson = perturbation._Dyson(params, regime, observable)
        num, den, shift = dyson._exact(prepare_state(init))
        poles = dyson.poles()
        degree = sum(m for _p, m in poles)
        assert len(num) == len(den) == degree + 1
        assert den[-1] == 1 and num[-1] == 0
        for s in (0.3 + 0.7j, 2.0, -0.3 + 2j, 1 + 30j):
            with mpmath.workdps(50):
                got = mpmath.polyval(den[::-1].tolist(), mpmath.mpc(s) * 2 ** shift)
                got = complex(got / mpmath.mpf(2) ** (shift * degree))
            want = math.prod((s - p) ** m for p, m in poles)
            assert abs(got - want) <= 1e-10 * abs(want)


@pytest.fixture
def order_4(monkeypatch):
    # _split's drive list lengthened to (b0, b1, 0, 0, 0): the chain's
    # order must follow from that list alone
    split = perturbation._split

    def split_4(*args):
        a0, a1, (b0, b1, zero) = split(*args)
        return a0, a1, (b0, b1, zero, zero, zero)

    perturbation._structure.cache_clear()
    perturbation._dyson.cache_clear()
    monkeypatch.setattr(perturbation, "_split", split_4)
    yield
    perturbation._structure.cache_clear()
    perturbation._dyson.cache_clear()


@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_order_set_by_split_drive_list(order_4, regime):
    params = (closed_cascade(0.2, 20.0, 0.2) if regime == "strong"
              else closed_cascade(4.0, 0.2, 4.0))
    dyson = perturbation._Dyson(params, regime, "rho22")
    assert len(dyson.terms) == 5
    F = dyson.transform(3)
    kind = fixed_type(240)
    for z in (0.3 + 0.7j, 2.0, -0.3 + 2j, 5 + 40j):
        assert abs(complex(F(kind(z))) - F(z)) <= 1e-12 * abs(F(z))
    _num, den, _shift = dyson._exact(prepare_state(3))
    poles = dyson.poles()
    degree = sum(m for _p, m in poles)
    assert np.flatnonzero(den)[-1] == degree and den[degree] == 1
    es, ss = analytic_g2_sum(params, regime, (3, 1))      # pair (3, 1) reads rho22 from |3>
    from cascade4.ratfunc import talbot_invert, talbot_nodes_required
    for tau in (0.3, 1.5):
        want = es(np.array([tau]))[0]
        got = talbot_invert(F, tau, nodes=talbot_nodes_required(tau, poles)) / ss
        assert abs(got - want) <= 1e-8 * abs(want)


def test_talbot_inversion_of_hierarchy_matches_exact(strong_weakdrive):
    # strong rf, prepared in |3>, rho22(t) against exact dynamics, 3% rel
    p = strong_weakdrive
    gen = build_generator(p)
    ts = np.array([0.1, 0.5, 1.2, 2.8, 5.0])
    exact = evolve(gen, prepare_state(3), ts)[:, P22]
    dyson = perturbation._Dyson(p, "strong", "rho22")
    F = dyson.transform(3)
    from cascade4.ratfunc import talbot_invert, talbot_nodes_required
    poles = dyson.poles()
    got = np.array([talbot_invert(F, t, nodes=talbot_nodes_required(t, poles))
                    for t in ts])
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 0.03


def test_root_set_quadratic_closed_form(fig2_physical):
    rs = root_set(fig2_physical, "strong")
    bar = fig2_physical.gamma2 / 2 + fig2_physical.gamma3 / 2
    expect = np.sort_complex(np.array([-bar - 40j, -bar + 40j]))
    assert np.max(np.abs(rs.quadratic - expect)) < 1e-10
    assert rs.mismatch["quadratic"] < 1e-10


def test_root_set_cubic_mismatch_reported(strong_weakdrive):
    rs = root_set(strong_weakdrive, "strong")
    # the published cubic formulas are dimensionally inconsistent: the
    # mismatch must be measured and large, never silently patched
    assert rs.mismatch["cubic"] > 1.0
    rw = root_set(closed_cascade(omega1=4.0, omega_rf=0.2, omega3=4.0), "weak")
    assert rw.mismatch["quartic"] > 1.0


def test_roots_nonpositive_and_satisfy_denominators(strong_weakdrive,
                                                    weak_rf_point):
    for params, regime in ((strong_weakdrive, "strong"),
                           (weak_rf_point, "weak")):
        rs = root_set(params, regime)
        for group in (rs.quadratic, rs.cubic, rs.quartic):
            assert np.all(group.real <= 1e-12)
            # every root has a conjugate partner in its group, so the
            # denominator built from the group is real
            for z in group:
                assert np.min(np.abs(np.conj(z) - group)) < 1e-9
            if len(group):
                poly = polyfromroots(group)
                assert np.max(np.abs(poly.imag)) < 1e-9 * np.max(np.abs(poly))


# Independent oracle for root_set's block roots: the hand-typed matrices of
# the population-difference / coherence pair, the population cubic and the
# weak-rf odd coherence block, written from the equations of motion.
def hand_pair_block_roots(gamma_a, gamma_b, coupling):
    m = np.array([[-gamma_a, -2 * coupling], [2 * coupling, -gamma_b]])
    return np.linalg.eigvals(m)


def hand_population_cubic_roots(gamma_hi, gamma_lo, feed, coupling, bar_sum):
    m = np.array([
        [-gamma_hi, feed, -2 * coupling],
        [0.0, -gamma_lo, 2 * coupling],
        [coupling, -coupling, -bar_sum],
    ])
    return np.linalg.eigvals(m)


def hand_odd_block_roots(p):
    b2, b3, b4 = p.gamma2 / 2, p.gamma3 / 2, p.gamma4 / 2
    o1, o3 = p.omega1, p.omega3
    m = np.array([
        [-(b2 + b3), -1j * o1, 1j * o3, 0.0],
        [-1j * o1, -b3, 0.0, 1j * o3],
        [1j * o3, 0.0, -(b2 + b4), -1j * o1],
        [0.0, 1j * o3, -1j * o1, -b4],
    ])
    return np.linalg.eigvals(m)


def hand_root_groups(p, regime):
    b2, b3, b4 = p.gamma2 / 2, p.gamma3 / 2, p.gamma4 / 2
    if regime == "strong":
        return {"quadratic": hand_pair_block_roots(p.gamma2, p.gamma3, p.omega_rf),
                "cubic": hand_population_cubic_roots(
                    p.gamma3, p.gamma2, p.gamma23, p.omega_rf, b2 + b3)}
    return {"cubic": hand_population_cubic_roots(
                p.gamma4, p.gamma3, p.gamma34, p.omega3, b3 + b4),
            "quartic": hand_odd_block_roots(p)}


def matched_relative_distance(got, want):
    """Largest |w - g| / |w| over a greedy nearest matching of two root
    sets of equal size."""
    assert len(got) == len(want)
    got = list(got)
    worst = 0.0
    for w in want:
        k = int(np.argmin([abs(w - g) for g in got]))
        worst = max(worst, abs(w - got.pop(k)) / abs(w))
    return worst


@st.composite
def regime_params(draw, regime):
    """Resonant drives of the regime and every rate drawn, the transfer
    rates within the decay they share (gamma23 <= Gamma3, gamma34 + gamma24
    <= Gamma4), so that every population decays and no root sits near 0,
    where a relative distance would measure only rounding."""
    def strong():
        return draw(st.floats(2.0, 30.0))

    def weak():
        return draw(st.floats(0.0, 0.3))

    def fraction():
        return draw(st.floats(0.0, 1.0))

    drives = (dict(omega1=weak(), omega_rf=strong(), omega3=weak())
              if regime == "strong" else
              dict(omega1=strong(), omega_rf=weak(), omega3=strong()))
    g2v, g3v, g4v = (draw(st.floats(0.1, 3.0)) for _ in range(3))
    g34 = fraction() * g4v
    return SystemParams(**drives, gamma2=g2v, gamma3=g3v, gamma4=g4v,
                        gamma23=fraction() * g3v, gamma34=g34,
                        gamma24=fraction() * (g4v - g34))


def tolerant_order(roots, rel=1e-9):
    """roots by real part, where a run of real parts each within rel * max|z|
    of the previous counts as one value, then by imaginary part."""
    roots = sorted(roots, key=lambda z: z.real)
    tol = rel * max(abs(z) for z in roots)
    runs = [[roots[0]]]
    for z in roots[1:]:
        if z.real - runs[-1][-1].real <= tol:
            runs[-1].append(z)
        else:
            runs.append([z])
    return [z for run in runs for z in sorted(run, key=lambda z: z.imag)]


@pytest.mark.parametrize("regime", ["strong", "weak"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_root_groups_match_hand_block_matrices(regime, data):
    p = data.draw(regime_params(regime))
    rs = root_set(p, regime)
    for group, want in hand_root_groups(p, regime).items():
        got = getattr(rs, group)
        assert matched_relative_distance(got, want) <= 1e-12, group
        # the same order, element by element, whatever the rounding of
        # real parts that tie
        want = np.array(tolerant_order(want))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, group


# Independent oracle for _Dyson.poles: the inventory as once restated by
# hand, with A0's blocks named from the equations of motion.  The population
# block is solved at order zero and again around the loop R0 A1 R0 A1 R0
# (double poles), the blocks that A1 couples it to once, and b/s adds 0.
HAND_POLE_BLOCKS = {
    "strong": ((IM_R23, P22, P33, P44),
               ((IM_R12, RE_R13), (IM_R34, RE_R24))),
    "weak": ((IM_R12, IM_R34, P22, P33, P44),
             ((IM_R23, RE_R13, IM_R14, RE_R24),)),
}


def hand_hierarchy_poles(params, regime):
    off = ({"omega1": 0.0, "omega3": 0.0} if regime == "strong"
           else {"omega_rf": 0.0})
    a0 = build_generator(replace(params, **off)).A
    population, coupled = HAND_POLE_BLOCKS[regime]

    def eig(idx):
        return np.linalg.eigvals(a0[np.ix_(idx, idx)])

    return ([(0.0 + 0.0j, 1)] + [(z, 2) for z in eig(population)]
            + [(z, 1) for block in coupled for z in eig(block)])


@pytest.mark.parametrize("regime", ["strong", "weak"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hierarchy_poles_match_hand_rule(regime, data):
    p = data.draw(regime_params(regime))
    if data.draw(st.booleans()):
        p = replace(p, omega1=0.0, omega3=0.0)
    got = perturbation._Dyson(p, regime, "rho22").poles()
    # exactly the same values, multiplicities and order
    assert got == hand_hierarchy_poles(p, regime)


@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_one_split_per_g2_call(monkeypatch, regime, strong_weakdrive,
                               weak_rf_point):
    # the (1,1) and (3,1) sums and the Talbot g31 values read one rho22
    # chain, split once, and one exact form
    p = strong_weakdrive if regime == "strong" else weak_rf_point
    perturbation._structure(Regime.coerce(regime))       # built once per regime
    perturbation._dyson.cache_clear()
    split, calls = perturbation._split, []
    monkeypatch.setattr(perturbation, "_split",
                        lambda *args: calls.append(args) or split(*args))
    exact, forms = perturbation._Dyson._exact, []
    monkeypatch.setattr(perturbation._Dyson, "_exact",
                        lambda *args: forms.append(args) or exact(*args))
    _es, ss = analytic_g2_sum(p, regime, (3, 1))
    analytic_g2_sum(p, regime, (1, 1))
    assert len(calls) == 1
    for tau in (0.5, 1.5, 0.5):
        talbot_g2_value(p, regime, (3, 1), tau, ss=ss)
    assert len(calls) == 1 and len(forms) == 1
    analytic_g2_sum(p, regime, (3, 3))                  # the rho44 chain
    assert len(calls) == 2
    analytic_g2_sum(p, regime, (3, 1))
    assert len(calls) == 2


@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_catalogue_shares_one_root_computation(monkeypatch, regime,
                                               strong_weakdrive, weak_rf_point):
    p = strong_weakdrive if regime == "strong" else weak_rf_point
    perturbation._structure(Regime.coerce(regime))       # built once per regime
    perturbation._root_groups.cache_clear()
    split, calls = perturbation._split, []
    monkeypatch.setattr(perturbation, "_split",
                        lambda *args: calls.append(args) or split(*args))
    rs = root_set(p, regime)
    for entry in APPENDIX_CATALOGUE:
        if entry[0] is Regime.coerce(regime):
            appendix_rational(p, *entry)
    assert len(calls) == 1
    assert not rs.cubic.flags.writeable
    assert root_set(p, regime).quadratic is rs.quadratic


def test_hierarchy_pole_inventory_nonpositive(strong_weakdrive, weak_rf_point):
    for params, regime in ((strong_weakdrive, "strong"),
                           (weak_rf_point, "weak")):
        for z, m in perturbation._Dyson(params, regime, "rho22").poles():
            assert z.real <= 1e-12
            assert m in (1, 2)


ZERO_CUBIC_DRIVE = {"weak": SystemParams(omega1=4.0, omega_rf=0.2, omega3=0.0),
                    "strong": SystemParams(omega1=0.2, omega_rf=0.0, omega3=0.2)}


@pytest.mark.parametrize("regime", sorted(ZERO_CUBIC_DRIVE))
def test_printed_cubic_undefined_at_zero_drive(regime):
    # The published cubic divides by a quantity that vanishes with omega3
    # (weak rf) or omega_rf (strong rf); it raised ZeroDivisionError there.
    rs = root_set(ZERO_CUBIC_DRIVE[regime], regime)
    assert np.all(np.isfinite(rs.cubic))
    printed = rs.printed["cubic"]
    assert np.all(np.isnan(printed.real) & np.isnan(printed.imag))
    assert math.isnan(rs.mismatch["cubic"])
    assert rs.mismatch["quadratic"] < 1e-10


def test_weak_catalogue_at_zero_upper_drive():
    p = ZERO_CUBIC_DRIVE["weak"]
    for regime, init, obs in APPENDIX_CATALOGUE:
        if regime is Regime.WEAK_RF:
            rf = appendix_rational(p, regime, init, obs)
            es = invert_rational(rf)
            for t in (0.07, 0.5, 1.8):
                assert abs(es(np.array([t]))[0] - talbot_invert_rf(rf, t)) <= 1e-14


def test_appendix_weak_init1_structure(weak_rf_point):
    p = weak_rf_point
    rf = appendix_rational(p, "weak", 1, "rho22")
    b2 = p.gamma2 / 2
    d2p = polyfromroots(np.roots([1.0, 2 * b2, b2 ** 2 + 4 * p.omega1 ** 2]))
    expect_den = np.concatenate([[0.0], d2p])  # extra factor s
    got = rf.denominator * (2 * p.omega1 ** 2 / rf.numerator[0])
    assert np.max(np.abs(np.array([0, *d2p]) - got[:len(expect_den)])) < 1e-9


def test_appendix_catalogue_proper_and_initial_values(strong_weakdrive,
                                                      weak_rf_point):
    for regime, init, obs in APPENDIX_CATALOGUE:
        p = strong_weakdrive if regime is Regime.STRONG_RF else weak_rf_point
        rf = appendix_rational(p, regime, init, obs)
        dn, dd = rf.degree()
        assert dn < dd
        want = 1.0 if (init, obs) in ((2, "rho22"), (3, "rho33")) else 0.0
        assert abs(rf.initial_value() - want) < 1e-10


def test_appendix_initial_value_at_published_drives():
    rf = appendix_rational(preset("fig2", "unit"), "strong", 3, "rho33")
    assert abs(rf.initial_value() - 1.0) < 1e-8


def test_appendix_not_catalogued(strong_weakdrive):
    with pytest.raises(NotCatalogued):
        appendix_rational(strong_weakdrive, "strong", 3, "rho44")
    with pytest.raises(NotCatalogued):
        appendix_rational(strong_weakdrive, "strong", 1, "rho33")


def catalogue_scalar(params, regime, init, obs, s):
    """One catalogue entry at a complex scalar s, term by term as printed:
    d2/d3/d4 and their weak-rf analogues as products of (s - r) over the
    root_set roots, and no polynomial expansion anywhere."""
    b2, b3, b4 = params.gamma2 / 2, params.gamma3 / 2, params.gamma4 / 2
    o1, o2, o3 = params.omega1, params.omega_rf, params.omega3
    rs = root_set(params, regime)

    def d(roots, shift=0.0):
        return math.prod(s - (r + shift) for r in roots)

    if Regime.coerce(regime) is Regime.STRONG_RF:
        d2, d3, d4 = d(rs.quadratic), d(rs.cubic), d(rs.quadratic, -b4)
        if init == 1:
            num = 2 * o1 ** 2 * (o2 ** 2 + (s + b3) * ((s + b2 + b3) * (s + b3)
                                                      + o2 ** 2))
            return num / (s * d2 * d3)
        if init == 2:
            q = s ** 2 + (b2 + 2 * b3) * s + b3 ** 2 + b2 * b3 + 2 * o2 ** 2
            pp = s ** 2 + (b2 + 2 * b3) * s + b3 ** 2 + 2 * o1 ** 2 + b3 * o2 ** 2
            num = (q * s * d2 + 2 * o1 ** 2 * o2 ** 2 * (s - 1)
                   - 2 * o1 ** 2 * (s + b3) * pp)
            return num / (s * d2 * d3)
        core = d4 * (s + b4)
        den = d3 * d4 * (s + b4)
        if obs == "rho22":
            lead = s + b2 + b3 + 2 * o2 ** 2
            num = (lead * (core + 2 * o3 ** 2 * (1 - b4 - s) * (s + b2 + b4))
                   + 2 * o2 ** 2 * o3 ** 2 * (1 - b3 - s) * (s + b4))
            return num / den
        q3 = s ** 2 + (b3 + 2 * b2) * s + b2 ** 2 + b2 * b3 + 2 * o2 ** 2
        num = (q3 * (core + 2 * o3 ** 2 * (s + b2 + b4) * (1 - b4 - s))
               + 2 * o2 ** 2 * o3 ** 2 * (s + b2) * (s + b4))
        return num / den

    d2p, d3p, d4p = d(rs.quadratic), d(rs.cubic), d(rs.quartic)
    c1 = -o1 * o2 * ((s + b4) * (s + b2 + b4) + o1 ** 2 - o3 ** 2)
    c2 = -o2 * ((s + b4) * (s + b3) * (s + b2 + b4) + o3 ** 2 * (s + b2 + b4)
                + o1 ** 2 * (s + b3))
    c3 = o2 * o3 * (-(s + b3) * (s + b4) + o1 ** 2 - o3 ** 2)
    w = s ** 2 + (b3 + 2 * b4) * s + b4 ** 2 + b3 * b4 + 2 * o3 ** 2
    if init == 1:
        return 2 * o1 ** 2 / (s * d2p)
    if (init, obs) == (3, "rho33"):
        num = (d4p + 2 * o2 * c2) * w + 2 * o2 * o3 * c3 * (s + 2 * b4 + 1)
        return num / (d3p * d4p)
    if (init, obs) == (3, "rho44"):
        return 2 * o3 * (o3 * (d4p + 2 * o2 * c2) - o2 * c3 * (s + b4)) / (d3p * d4p)
    g = s ** 2 + (2 * b2 - 2 * o1 ** 2) * s + b2 ** 2 - 2 * b2 * o1 ** 2
    t1 = 2 * o1 ** 2 * (s + b2) * d3p * d4p
    t2 = 2 * o1 * o2 * c1 * s * (s + b2) * d3p
    if init == 3:
        t3 = -2 * o2 * (s + b2) * c2 * s * (s + b2) * d3p
        t4 = 4 * o1 ** 2 * (-o3 ** 2 * d4p
                            + o2 * o3 * ((s + b3) * c3 - 2 * o3 * c2)) * s * (s + b2)
        inner5 = (d4p + 2 * o2 * c2) * w + 2 * o2 * o3 * c3 * (s + b4 - 1)
    else:
        t3 = (s + b2) * (d4p - 2 * o2 * c2) * s * (s + b2) * d3p
        t4 = (4 * o1 ** 2 * o2 ** 2 * o3 ** 2 * ((s + b3) * c3 - 2 * o3 * c2)
              * s * (s + b2))
        inner5 = 2 * o2 * c2 * w + 2 * o2 * o3 * c3 * (s + b4 - 1)
    num = t1 + t2 + t3 + t4 + g * inner5 * s
    return num / (s * (s + b2) * d2p * d3p * d4p)


@pytest.mark.parametrize("gammas", ["unit", "physical"])
def test_appendix_matches_printed_terms(gammas):
    # guards the transcription itself: the expanded coefficients must
    # reproduce the printed formula evaluated term by term
    points = {
        Regime.STRONG_RF: closed_cascade(omega1=0.2, omega_rf=20.0, omega3=0.2,
                                         gammas=gammas),
        Regime.WEAK_RF: closed_cascade(omega1=4.0, omega_rf=0.2, omega3=4.0,
                                       gammas=gammas),
    }
    for regime, init, obs in APPENDIX_CATALOGUE:
        params = points[regime]
        rf = appendix_rational(params, regime, init, obs)
        for s in (0.3 + 0.7j, -0.2 + 5j, 2.0 + 0j, 1.0 + 30j):
            want = catalogue_scalar(params, regime, init, obs, s)
            assert abs(rf(s) - want) <= 1e-12 * abs(want), (regime, init, obs, s)


def test_appendix_weak_init1_inverts_to_damped_rabi(weak_rf_point):
    # the transcribed form inverts to the two-level damped oscillation
    # structure: constant d0 plus a conjugate pair at -b2 +- 2i omega1,
    # vanishing at t = 0
    p = weak_rf_point
    rf = appendix_rational(p, "weak", 1, "rho22")
    es = invert_rational(rf)
    b2 = p.gamma2 / 2
    d0 = 2 * p.omega1 ** 2 / (4 * p.omega1 ** 2 + b2 ** 2)
    const = [c for c, r, _p in es.terms if abs(r) < 1e-12]
    assert len(const) == 1 and abs(const[0] - d0) < 1e-12
    pair = [r for _c, r, _p in es.terms if abs(r) > 1e-12]
    assert np.allclose(sorted((r.real, r.imag) for r in pair),
                       [(-b2, -2 * p.omega1), (-b2, 2 * p.omega1)])
    assert abs(es.value_at_zero()) < 1e-14


def test_dual_engine_on_catalogue_subset(strong_weakdrive, weak_rf_point):
    picks = (APPENDIX_CATALOGUE[0], APPENDIX_CATALOGUE[3],
             APPENDIX_CATALOGUE[5], APPENDIX_CATALOGUE[8])
    for regime, init, obs in picks:
        p = strong_weakdrive if regime is Regime.STRONG_RF else weak_rf_point
        rf = appendix_rational(p, regime, init, obs)
        es = invert_rational(rf)
        for t in (0.05, 0.7, 4.0):
            a = es(np.array([t]))[0]
            b = talbot_invert_rf(rf, t)
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-9)


def test_analytic_g2_zero_delay(strong_weakdrive, weak_rf_point):
    taus = np.array([0.0, 0.4, 2.0])
    s31 = analytic_g2_sum(strong_weakdrive, "strong", (3, 1))[0](taus)
    assert abs(s31[0]) < 1e-8 * np.max(np.abs(s31))
    w11 = analytic_g2_sum(weak_rf_point, "weak", (1, 1))[0]
    values = w11(taus)
    assert abs(values[0]) < 1e-8 * max(np.max(np.abs(values)), 1.0)
    assert w11([]).shape == (0,)


def test_analytic_g31_matches_exact(strong_weakdrive):
    p = strong_weakdrive
    gen = build_generator(p)
    taus = np.linspace(0.1, 5.0, 30)
    exact = g2(gen, (3, 1), taus).values
    approx = analytic_g2_sum(p, "strong", (3, 1))[0](taus)
    assert np.max(np.abs(exact - approx)) / np.max(np.abs(exact)) < 0.05


@pytest.mark.xfail(strict=True, reason=(
    "rho44's driven response from the ground state requires both optical "
    "drives and is therefore fourth order; any faithful second-order "
    "solution misses the slow rise that dominates the exact g33 on this "
    "window (measured ~38% sup error; the published closed form is further "
    "off).  Kept as specified, documented in the validation report."))
def test_analytic_g33_matches_exact(strong_weakdrive):
    p = strong_weakdrive
    gen = build_generator(p)
    taus = np.linspace(0.1, 5.0, 30)
    exact = g2(gen, (3, 3), taus).values
    approx = analytic_g2_sum(p, "strong", (3, 3))[0](taus)
    assert np.max(np.abs(exact - approx)) / np.max(np.abs(exact)) < 0.05


def test_regime_validity_error_growth():
    taus = np.linspace(0.1, 5.0, 30)
    errs = []
    for frac in (0.01, 0.05, 0.2):
        p = closed_cascade(omega1=20 * frac, omega_rf=20.0, omega3=20 * frac)
        gen = build_generator(p)
        exact = g2(gen, (3, 1), taus).values
        approx = analytic_g2_sum(p, "strong", (3, 1))[0](taus)
        errs.append(np.max(np.abs(exact - approx)) / np.max(np.abs(exact)))
    assert errs[0] < errs[1] < errs[2]
    assert errs[1] < 0.05  # within the stated validity ratio


def test_coefficient_identities(strong_weakdrive):
    # weak rf with omega1 ~ omega3 clusters the odd-block poles; both
    # gamma presets
    points = [(strong_weakdrive, "strong")] + [
        (closed_cascade(omega1=4.0, omega_rf=0.12, omega3=o3, gammas=g), "weak")
        for g in ("unit", "physical") for o3 in (4.0, 4.01)]
    for params, regime in points:
        for pair in ((1, 1), (3, 3), (3, 1)):
            es, _ss = analytic_g2_sum(params, regime, pair)
            assert abs(es.value_at_zero()) < 1e-8


def test_talbot_g2_matches_residue_path(strong_weakdrive):
    es, ss = analytic_g2_sum(strong_weakdrive, "strong", (3, 1))
    for t in (0.3, 1.5):
        a = es(np.array([t]))[0]
        b = talbot_g2_value(strong_weakdrive, "strong", (3, 1), t, ss=ss)
        assert abs(a - b) < 1e-6 * abs(a)


@pytest.mark.parametrize("regime", ["strong", "weak"])
@pytest.mark.parametrize("gammas", ["unit", "physical"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_talbot_g2_matches_residue_sum_over_draws(regime, gammas, data):
    # the two engines on the same transform: Talbot at exact fixed-point
    # nodes against contour residues, over the perturbative workload's drive
    # ranges (strong: optical drives 0.5-2 % of omega_rf = 10-30; weak:
    # omega1, omega3 = 2-6 and omega_rf 2-5 % of the smaller)
    if regime == "strong":
        orf = data.draw(st.floats(10.0, 30.0))
        drives = [data.draw(st.floats(0.005, 0.02)) * orf for _ in range(2)]
        params = closed_cascade(drives[0], orf, drives[1], gammas)
    else:
        o1, o3 = data.draw(st.floats(2.0, 6.0)), data.draw(st.floats(2.0, 6.0))
        orf = data.draw(st.floats(0.02, 0.05)) * min(o1, o3)
        params = closed_cascade(o1, orf, o3, gammas)
    pair = data.draw(st.sampled_from(perturbation.ANALYTIC_PAIRS))
    tau = data.draw(st.floats(0.05, 1.5))
    es, ss = analytic_g2_sum(params, regime, pair)
    want = es(np.array([tau]))[0]
    got = talbot_g2_value(params, regime, pair, tau, ss=ss)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_talbot_g2_value_own_denominator(strong_weakdrive):
    p = strong_weakdrive
    _es, ss = analytic_g2_sum(p, "strong", (3, 1))
    assert (talbot_g2_value(p, "strong", (3, 1), 0.5)
            == talbot_g2_value(p, "strong", (3, 1), 0.5, ss=ss))
    with pytest.raises(ValueError):
        talbot_g2_value(p, "strong", (2, 1), 0.5)


def test_assembled_transform_consistency(strong_weakdrive):
    # the extracted exponential sum must reproduce the transform it came from
    from math import factorial
    es, ss = analytic_g2_sum(strong_weakdrive, "strong", (3, 1))
    F = perturbation._Dyson(strong_weakdrive, "strong", "rho22").transform(3)
    for s0 in (0.7 + 0.4j, 2.5 + 0.0j, 0.3 + 5.0j):
        recon = ss * sum(c * factorial(k) / (s0 - p) ** (k + 1)
                         for c, p, k in es.terms)
        assert abs(recon - F(s0)) < 1e-9 * max(abs(F(s0)), 1e-6)


def test_both_layers_refuse_the_same_zero_denominator():
    # Without the upper optical drive rho44 has no steady state, so g33 is
    # undefined; the exact and both perturbative paths say so alike.
    p = closed_cascade(omega1=0.2, omega_rf=20.0, omega3=0.0)
    with pytest.raises(ZeroSteadyState) as exact:
        g2(build_generator(p), (3, 3), np.array([0.0, 1.0]))
    with pytest.raises(ZeroSteadyState) as summed:
        analytic_g2_sum(p, "strong", (3, 3))
    with pytest.raises(ZeroSteadyState) as talbot:
        talbot_g2_value(p, "strong", (3, 3), 0.5)
    assert str(exact.value) == str(summed.value) == str(talbot.value)
