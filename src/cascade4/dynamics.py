"""Steady state and time evolution of the affine system dx/dt = A x + b.

The system is linear, so the default propagator is exact up to rounding:
the deviation from the steady state is expanded in the eigenbasis of A,

    x(t) = Re[V diag(exp(lam t)) V^-1 (x0 - x_ss)] + x_ss,

and evaluated for every grid time at once from the one eigendecomposition
cached on the generator.  The expansion loses accuracy in proportion to the
condition number of V, which is unbounded near a defective A (Moler & Van
Loan, SIAM Rev. 2003); here that is weak drive with Gamma2 = Gamma3.  Above
SPECTRAL_COND_LIMIT the propagator therefore steps between grid points with
scipy.linalg.expm instead.  That choice is made in one place, _projector,
which returns fixed rows applied to x(t) - x_ss: evolve passes the
identity, the emission-delay search the rows of its slope and curvature.
It is the only propagator the library computes with; the independent
oracles that certify it (adaptive Runge-Kutta and scaled Taylor) live in
validation.

The steady state and the eigen-expansion need numpy only.  scipy is
imported inside the expm stepping, so that the default path never pays its
import.
"""

import numpy as np

from .errors import InvalidArgument, _grid, _real_array
from .model import AffineGenerator

# Largest eigenbasis condition number the eigen-expansion is trusted at.
# Its absolute error grows like 5e-17 cond(V): against the scaled-Taylor
# oracle it is 2.7e-13 at cond 8.2e3 (drives 1e-6, Gamma2 = Gamma3), up to
# 2.7e-11 at cond 1e4-7e5 (drives 1e-8-1e-4) and 0.3 at cond 1.2e16 (zero
# drive), while the stepped expm stays at 4.4e-16 above 1e4.  The shipped
# presets sit near cond 2.
SPECTRAL_COND_LIMIT = 1e4


def steady_state(gen: AffineGenerator) -> np.ndarray:
    """The steady state: gen.fixed_point, the fixed point of A x = -b solved
    and certified once per generator (read-only).

    Raises SingularGenerator when A is numerically singular, and
    UnstableGenerator when A has an eigenvalue with positive real part.
    """
    return gen.fixed_point


def evolve(gen: AffineGenerator, x0, times) -> np.ndarray:
    """The states x(t) on `times` (finite, ascending, times[0] >= 0, in
    units of 1/gamma), one row per time: a (len(times), 15) array, as
    validation.rk_evolve returns for the same arguments.

    x0 (finite, shaped like gen.b) is the state at t = 0 regardless of
    where the grid starts, and a grid point at t = 0 returns x0 exactly.

    x(t) = exp(A t)(x0 - x_ss) + x_ss comes from _projector: the
    eigen-expansion over the whole grid at once, or, when the eigenbasis is
    ill-conditioned, stepping with scipy.linalg.expm (one matrix per
    distinct step).  Raises UnstableGenerator like steady_state.
    """
    x0, times = _checked_start(gen, x0, times)
    states = _projector(gen, x0, np.eye(len(x0)))(times) + gen.fixed_point
    if times[0] == 0.0:
        states[0] = x0  # exp(0) = I: no rounding from x_ss or the basis
    return states


def _checked_start(gen, x0, times):
    # (x0, times) as float arrays, refused with InvalidArgument unless x0 is
    # finite and shaped like gen.b and times is a finite ascending grid
    # from t >= 0; validation's rk_evolve and brute_force_evolve take their
    # arguments through here too.
    times = _grid(times, "times", 0.0, closed=True)
    x0 = _real_array(x0, "x0")
    if x0.shape != gen.b.shape:
        raise InvalidArgument(f"x0 must have shape {gen.b.shape}, got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise InvalidArgument("x0 must be finite")
    return x0, times


def _projector(gen, x0, rows):
    """Callable times -> rows @ (x(t) - x_ss) from x(0) = x0, one row per
    time of an array.

    This is the one choice of propagator: the eigen-expansion up to
    SPECTRAL_COND_LIMIT, the stepped expm trajectory above it.  evolve
    passes the identity; a row r @ A^n reads the n-th time derivative of
    r @ x, since dx/dt = A (x - x_ss).
    """
    y0 = x0 - steady_state(gen)
    eig = gen.eigensystem
    if eig.cond <= SPECTRAL_COND_LIMIT:
        c = np.linalg.solve(eig.V, y0)
        w = (rows @ eig.V).T
        return lambda times: ((np.exp(np.outer(times, eig.lam)) * c) @ w).real
    return lambda times: _step_expm(gen.A, y0, times) @ rows.T


def _step_expm(A, y, times):
    """exp(A t) y on the grid by stepping, one scipy expm per distinct step
    (a linspace run repeats a handful of step lengths)."""
    import scipy.linalg

    propagators = {}
    out = np.empty((len(times), y.size))
    t_prev = 0.0
    for k, t in enumerate(times):
        dt = t - t_prev
        if dt > 0.0:
            P = propagators.get(dt)
            if P is None:
                P = propagators[dt] = scipy.linalg.expm(A * dt)
            y = P @ y
        out[k] = y
        t_prev = t
    return out

