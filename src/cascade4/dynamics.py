"""Steady state and time evolution of the affine system dx/dt = A x + b.

The system is linear, so the default propagator is exact up to rounding:
the deviation from the steady state is expanded in the eigenbasis of A,

    x(t) = Re[V diag(exp(lam t)) V^-1 (x0 - x_ss)] + x_ss,

and evaluated for every grid time at once from the one eigendecomposition
cached on the generator.  The expansion loses accuracy in proportion to the
condition number of V, which is unbounded near a defective A (Moler & Van
Loan, SIAM Rev. 2003); here that is weak drive with Gamma2 = Gamma3.  Above
SPECTRAL_COND_LIMIT the propagator therefore steps between grid points with
scipy.linalg.expm instead.  An adaptive Runge-Kutta backend is kept as an
independent cross-check.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidArgument, StepFailure, UnstableGenerator
from .model import AffineGenerator

# Largest eigenbasis condition number the eigen-expansion is trusted at.
# Against the scaled-Taylor oracle its error is 2.7e-13 at cond 8.2e3
# (drives 1e-6, Gamma2 = Gamma3), 8.3e-12 at cond 1.8e5 (drives 1e-8) and
# 0.3 at cond 1.2e16 (zero drive); the shipped presets sit near cond 2.
SPECTRAL_COND_LIMIT = 1e6


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

    def component(self, index):
        return self.states[:, index]


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
    """Propagate x0 along `times` (ascending, times[0] >= 0).

    x0 is the state at t = 0 regardless of where the grid starts, and a
    grid point at t = 0 returns x0 exactly.

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
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        raise InvalidArgument("times must be strictly increasing")
    if times[0] < 0:
        raise InvalidArgument("times must start at t >= 0")
    x0 = np.asarray(x0, dtype=float)

    if backend == "expm":
        states = _evolve_expm(gen, x0, times)
    elif backend == "rk":
        states = _evolve_rk(gen, x0, times)
    else:
        raise InvalidArgument(f"unknown backend {backend!r}")
    if times[0] == 0.0:
        states[0] = x0  # exp(0) = I: no rounding from x_ss or the basis
    return Trajectory(times=times.copy(), states=states)


def _evolve_expm(gen, x0, times):
    xp = steady_state(gen)
    eig = gen.eigensystem
    y0 = x0 - xp
    if eig.cond <= SPECTRAL_COND_LIMIT:
        c = np.linalg.solve(eig.V, y0)
        y = (np.exp(np.outer(times, eig.lam)) * c) @ eig.V.T
        return y.real + xp
    return _step_expm(gen.A, y0, times) + xp


def _derivative_evaluator(gen, x0, index):
    """Callable (times, order) -> the first `order` (1 or 2) time derivatives
    of x_index from x(0) = x0, one column per derivative, at every time of
    an array.

    It makes _evolve_expm's choice of propagator but reads out one linear
    functional per derivative instead of the whole state: the n-th
    derivative of the eigen-expansion weights mode k by lam_k^n V[index, k]
    c_k, and above SPECTRAL_COND_LIMIT the stepped expm trajectory is
    projected on row `index` of A^n.
    """
    y0 = x0 - steady_state(gen)
    eig = gen.eigensystem
    if eig.cond <= SPECTRAL_COND_LIMIT:
        w = eig.lam * eig.V[index] * np.linalg.solve(eig.V, y0)
        weights = np.array([w, eig.lam * w])
        return lambda times, order: (
            np.exp(np.outer(times, eig.lam)) @ weights[:order].T).real
    row = gen.A[index]
    rows = np.array([row, row @ gen.A])
    return lambda times, order: _step_expm(gen.A, y0, times) @ rows[:order].T


def _step_expm(A, y, times):
    """exp(A t) y on the grid by stepping, one scipy expm per distinct step
    (a linspace run repeats a handful of step lengths)."""
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
