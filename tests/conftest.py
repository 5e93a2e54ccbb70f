"""Shared fixtures: parameter sets and independent oracles.

The complex-form evaluator below is deliberately written against the 4x4
density matrix with complex arithmetic, independent of the packed real
representation used by the package.  The all-mpmath Dyson chain
(mp_observable) is the reference for the library's exact N(u)/D(u) form
and its fixed-point Talbot values.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from cascade4.errors import NearPole
from cascade4.model import (
    DIM,
    GAMMA_PRESETS,
    P22,
    RESIDUAL_TOL,
    SystemParams,
    build_generator,
    prepare_state,
    preset,
)
from cascade4.perturbation import _Dyson
from cascade4.ratfunc import Fixed
from cascade4.validation import brute_force_evolve


def closed_cascade(omega1=0.0, omega_rf=0.0, omega3=0.0, gammas="unit",
                   **kw):
    g = GAMMA_PRESETS[gammas]
    return SystemParams(omega1=omega1, omega_rf=omega_rf, omega3=omega3,
                        **g, gamma23=g["gamma3"], gamma34=g["gamma4"],
                        gamma24=0.0, **kw)


def random_stable_params(rng, omega_low=0.1, omega_high=30.0):
    """Random drives and rates with fully fed (stable, trace-true) branching."""
    o1, orf, o3 = rng.uniform(omega_low, omega_high, 3)
    g2v, g3v, g4v = rng.uniform(0.1, 3.0, 3)
    return SystemParams(omega1=o1, omega_rf=orf, omega3=o3,
                        gamma2=g2v, gamma3=g3v, gamma4=g4v,
                        gamma23=g3v, gamma34=g4v, gamma24=0.0)


@st.composite
def stable_params(draw, weak_decades=(-10.0, -5.0)):
    """Closed-branching rates; drives strong, weak (10**weak_decades,
    near-defective when Gamma2 = Gamma3) or absent."""
    scale = draw(st.sampled_from(("strong", "weak", "zero")))

    def drive():
        if scale == "strong":
            return draw(st.floats(0.1, 30.0))
        if scale == "weak":
            return 10.0 ** draw(st.floats(*weak_decades))
        return 0.0

    g2v = draw(st.floats(0.1, 3.0))
    g3v = g2v if draw(st.booleans()) else draw(st.floats(0.1, 3.0))
    g4v = draw(st.floats(0.1, 3.0))
    return SystemParams(omega1=drive(), omega_rf=drive(), omega3=drive(),
                        gamma2=g2v, gamma3=g3v, gamma4=g4v,
                        gamma23=g3v, gamma34=g4v, gamma24=0.0)


def complex_rhs(p: SystemParams, x):
    """Independent evaluation of the nine coupled equations (4x4 complex)."""
    r12 = x[0] + 1j * x[1]
    r23 = x[2] + 1j * x[3]
    r34 = x[4] + 1j * x[5]
    r13 = x[6] + 1j * x[7]
    r14 = x[8] + 1j * x[9]
    r24 = x[10] + 1j * x[11]
    r22, r33, r44 = x[12], x[13], x[14]
    r11 = 1.0 - r22 - r33 - r44
    r21, r32, r43 = np.conj(r12), np.conj(r23), np.conj(r34)

    d12 = ((-1j * p.delta1 - p.gamma2 / 2) * r12
           - 1j * p.omega1 * (r22 - r11) + 1j * p.omega_rf * r13)
    d23 = ((-1j * p.delta2 - (p.gamma2 + p.gamma3) / 2) * r23
           - 1j * p.omega1 * r13 - 1j * p.omega_rf * (r33 - r22)
           + 1j * p.omega3 * r24)
    d34 = ((-1j * p.delta3 - (p.gamma3 + p.gamma4) / 2) * r34
           - 1j * p.omega_rf * r24 - 1j * p.omega3 * (r44 - r33))
    d13 = ((-1j * (p.delta1 + p.delta2) - p.gamma3 / 2) * r13
           - 1j * p.omega1 * r23 + 1j * p.omega_rf * r12
           + 1j * p.omega3 * r14)
    d14 = ((-1j * (p.delta1 + p.delta2 + p.delta3) - p.gamma4 / 2) * r14
           - 1j * p.omega1 * r24 + 1j * p.omega3 * r13)
    d24 = ((-1j * (p.delta2 + p.delta3) - (p.gamma2 + p.gamma4) / 2) * r24
           - 1j * p.omega1 * r14 - 1j * p.omega_rf * r34
           + 1j * p.omega3 * r23)
    d22 = (-p.gamma2 * r22 + 1j * p.omega1 * (r21 - r12)
           + 1j * p.omega_rf * (r23 - r32)
           + p.gamma23 * r33 + p.gamma24 * r44)
    d33 = (-p.gamma3 * r33 + 1j * p.omega3 * (r34 - r43)
           - 1j * p.omega_rf * (r23 - r32) + p.gamma34 * r44)
    d44 = -p.gamma4 * r44 - 1j * p.omega3 * (r34 - r43)

    out = np.empty(15)
    out[0], out[1] = d12.real, d12.imag
    out[2], out[3] = d23.real, d23.imag
    out[4], out[5] = d34.real, d34.imag
    out[6], out[7] = d13.real, d13.imag
    out[8], out[9] = d14.real, d14.imag
    out[10], out[11] = d24.real, d24.imag
    out[12], out[13], out[14] = d22.real, d33.real, d44.real
    return out


def oracle_tau_d(params, step=1e-3):
    """First + to - sign change of d rho22/d tau from |3>, or None if there
    is none before min(6/min Gamma, 40) (the delay grid's end).

    The sign change is bracketed on a uniform `step`, stepping with the
    brute_force_evolve propagator for that step, and the root is solved by
    scipy's brentq on the slope A x + b, with x(tau) from brute_force_evolve
    at every trial tau.  No eigenbasis and no scipy expm are involved.
    """
    from scipy.optimize import brentq

    gen = build_generator(params)
    x0 = prepare_state(3)

    def slope(x):
        return (gen.A @ x + gen.b)[P22]

    # x(t + step) = E x(t) + f, one column of E per basis state.
    f = brute_force_evolve(gen, np.zeros(DIM), step)
    E = np.column_stack([brute_force_evolve(gen, e, step) - f
                         for e in np.eye(DIM)])
    tau_max = min(6.0 / params.min_gamma, 40.0)
    x, t, d = x0, 0.0, slope(x0)
    while t < tau_max:
        x_next = E @ x + f
        d_next = slope(x_next)
        if d > 0.0 >= d_next:
            return brentq(lambda s: slope(brute_force_evolve(gen, x0, s)),
                          t, t + step, xtol=1e-15, rtol=4e-15)
        x, t, d = x_next, t + step, d_next
    return None


def lu_fixed_point(gen):
    """A x = -b by scipy's LU factorisation (factored once, with its
    check_finite) and the same two steps of iterative refinement as
    AffineGenerator.fixed_point, which solves through numpy instead."""
    import scipy.linalg

    lu = scipy.linalg.lu_factor(gen.A)
    x = scipy.linalg.lu_solve(lu, -gen.b)
    for _ in range(2):
        r = -gen.b - gen.A @ x
        if np.max(np.abs(r)) < RESIDUAL_TOL:
            break
        x = x + scipy.linalg.lu_solve(lu, r)
    return x


def mp_value(fixed):
    """A ratfunc.Fixed as the mpc of the same value, exactly."""
    p = fixed.prec
    return mpmath.mp.make_mpc((from_man_exp(fixed.re, -p), from_man_exp(fixed.im, -p)))


def via_mpmath(f):
    """A talbot_invert transform from f, written for complex arrays and
    mpmath scalars: a heavy node's Fixed s goes to f as an mpc, at the
    precision of its grid, and f's value comes back on that grid."""
    def F(s):
        if isinstance(s, np.ndarray):
            return f(s)
        with mpmath.workprec(s.prec):
            return Fixed(f(mp_value(s)), s.prec)
    return F


def _factor_mp(s, m):
    """Solver for (s - m) y = r at an mpmath scalar s (pivoted LU).

    `m` is a list of rows of mpf entries, with exact zeros as int 0 so that
    products with them can be skipped.
    """
    n = len(m)
    lu = [[s - v if i == j else -v for j, v in enumerate(row)]
          for i, row in enumerate(m)]
    perm = list(range(n))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(lu[r][col]))
        if lu[piv][col] == 0:
            raise NearPole("singular hierarchy block at this s")
        lu[col], lu[piv] = lu[piv], lu[col]
        perm[col], perm[piv] = perm[piv], perm[col]
        for r in range(col + 1, n):
            if lu[r][col]:
                f = lu[r][col] = lu[r][col] / lu[col][col]
                for c in range(col + 1, n):
                    if lu[col][c]:
                        lu[r][c] -= f * lu[col][c]

    def solve(rhs):
        x = [rhs[p] for p in perm]
        for r in range(n):
            for c in range(r):
                if lu[r][c] and x[c]:
                    x[r] -= lu[r][c] * x[c]
        for r in range(n - 1, -1, -1):
            for c in range(r + 1, n):
                if lu[r][c] and x[c]:
                    x[r] -= lu[r][c] * x[c]
            if x[r]:
                x[r] /= lu[r][r]
        return x

    return solve


def mp_observable(params, regime, init, observable):
    """Oracle: one population transform F(s) at an mpmath scalar s, by the
    Dyson chain solved block by block with _factor_mp, at the working
    precision, summed over all its terms (a term that does not reach the
    observable adds an exact 0).

    It runs on mpf copies of the library chain's supports, blocks, couplings
    and drives (_Dyson's terms, data and idx); 53 bits hold a double
    exactly, so the copies keep every digit.
    """
    dyson = _Dyson(params, regime, observable)
    x0 = prepare_state(init).tolist()
    blocks, couplings, drives = dyson.data
    with mpmath.workprec(53):
        blocks = {key: [[mpmath.mpf(v) if v else 0 for v in row] for row in m.tolist()]
                  for key, m in blocks.items()}
        couplings = [[(i, j, mpmath.mpf(a)) for i, j, a in c] for c in couplings]
        drives = [[(i, mpmath.mpf(b)) for i, b in d] for d in drives]

    def F(s):
        if s == 0:
            raise NearPole("the drive term b/s has its pole at s = 0")
        solvers = {key: _factor_mp(s, m) for key, m in blocks.items()}
        ys, rhs = [], list(x0)
        for term, coupling, drive in zip(dyson.terms, couplings, drives):
            for i, j, a in coupling:
                rhs[i] += a * ys[-1][j]
            for i, b in drive:
                rhs[i] += b / s
            y = [0] * DIM
            for idx in term:      # R0 rhs, block by block
                for i, v in zip(idx, solvers[idx[0]]([rhs[i] for i in idx])):
                    y[i] = v
            ys.append(y)
            rhs = [0] * DIM
        return sum(y[dyson.idx] for y in ys)

    return F


@pytest.fixture
def fig2_unit():
    return preset("fig2", "unit")


@pytest.fixture
def fig2_physical():
    return preset("fig2", "physical")


@pytest.fixture
def strong_weakdrive():
    """Strong-rf regime point used by the perturbative cross-checks."""
    return closed_cascade(omega1=0.2, omega_rf=20.0, omega3=0.2)


@pytest.fixture
def weak_rf_point():
    """Weak-rf regime point used by the perturbative cross-checks."""
    return closed_cascade(omega1=4.0, omega_rf=0.2, omega3=4.0)
