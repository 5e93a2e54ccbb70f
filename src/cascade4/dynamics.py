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
An adaptive Runge-Kutta backend is kept as an independent cross-check.

The steady state and the eigen-expansion need numpy only.  scipy is
imported inside the two functions that use it, the expm stepping and the
RK backend, so that the default path never pays its import.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, StepFailure, UnstableGenerator
from .model import AffineGenerator

# Largest eigenbasis condition number the eigen-expansion is trusted at.
# Its absolute error grows like 5e-17 cond(V): against the scaled-Taylor
# oracle it is 2.7e-13 at cond 8.2e3 (drives 1e-6, Gamma2 = Gamma3), up to
# 2.7e-11 at cond 1e4-7e5 (drives 1e-8-1e-4) and 0.3 at cond 1.2e16 (zero
# drive), while the stepped expm stays at 4.4e-16 above 1e4.  The shipped
# presets sit near cond 2.
SPECTRAL_COND_LIMIT = 1e4


@dataclass(frozen=True)
class Trajectory:
    """States sampled on an ascending time grid (units of 1/gamma)."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), 15)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise InvalidArgument("times and states lengths differ")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise InvalidArgument("times must be strictly increasing")


def steady_state(gen: AffineGenerator) -> np.ndarray:
    """The fixed point of A x = -b, solved once per generator (read-only).

    Raises SingularGenerator when A is numerically singular, and
    UnstableGenerator when A has an eigenvalue with positive real part.
    """
    x = gen.fixed_point
    abscissa = gen.eigensystem.abscissa
    if abscissa > 0.0:
        raise UnstableGenerator(
            f"spectral abscissa {abscissa:.3g} > 0, so the fixed point "
            "repels; transfer rates above the decays that feed them "
            "(gamma23 > gamma3, gamma34 + gamma24 > gamma4) can cause this")
    return x


def evolve(gen: AffineGenerator, x0, times, backend="expm") -> Trajectory:
    """Propagate x0 along `times` (finite, ascending, times[0] >= 0).

    x0 (finite, shaped like gen.b) is the state at t = 0 regardless of
    where the grid starts, and a grid point at t = 0 returns x0 exactly.

    backend 'expm' evaluates x(t) = exp(A t)(x0 - x_ss) + x_ss by the
    eigen-expansion over the whole grid at once, or, when the eigenbasis is
    ill-conditioned, by stepping with scipy.linalg.expm (one matrix per
    distinct step); it raises UnstableGenerator like steady_state.  'rk'
    integrates with an adaptive embedded Runge-Kutta pair at rtol 1e-10 /
    atol 1e-12.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise InvalidArgument("times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise InvalidArgument("times must be finite")
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        raise InvalidArgument("times must be strictly increasing")
    if times[0] < 0:
        raise InvalidArgument("times must start at t >= 0")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != gen.b.shape:
        raise InvalidArgument(f"x0 must have shape {gen.b.shape}, got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise InvalidArgument("x0 must be finite")

    if backend == "expm":
        # _projector has run steady_state's checks on the fixed point.
        states = _projector(gen, x0, np.eye(len(x0)))(times) + gen.fixed_point
    elif backend == "rk":
        states = _evolve_rk(gen, x0, times)
    else:
        raise InvalidArgument(f"unknown backend {backend!r}")
    if times[0] == 0.0:
        states[0] = x0  # exp(0) = I: no rounding from x_ss or the basis
    return Trajectory(times=times.copy(), states=states)


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


def _evolve_rk(gen, x0, times):
    # Imported here: scipy.integrate is most of the package's import time
    # and memory, and only this cross-check backend needs it.
    from scipy.integrate import solve_ivp

    if times[-1] == 0.0:
        return x0[None, :].copy()
    sol = solve_ivp(
        lambda _t, x: gen.A @ x + gen.b,
        t_span=(0.0, times[-1]),
        y0=x0,
        t_eval=times,
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise StepFailure(sol.message)
    return sol.y.T.copy()
