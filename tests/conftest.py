"""Shared fixtures: parameter sets and independent oracles.

The complex-form evaluator below is deliberately written against the 4x4
density matrix with complex arithmetic, independent of the packed real
representation used by the package.
"""

import numpy as np
import pytest

from cascade4.model import (
    DIM,
    GAMMA_PRESETS,
    P22,
    SystemParams,
    build_generator,
    prepare_state,
    preset,
)
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
