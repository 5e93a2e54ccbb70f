"""Second-order photon correlations of the cascade fluorescence.

The regression theorem reduces every two-time average to a one-time solve:
prepare the atom in the level left behind by the first detected photon,
propagate, read off the population radiating the second photon, and divide
by that population's steady-state value.
"""

import functools
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import model
from .dynamics import _projector, evolve, steady_state
from .errors import GridMismatch, InvalidArgument, NoPeak, ZeroSteadyState, _real_array
from .model import AffineGenerator, SystemParams, build_generator, prepare_state

# pair -> (preparation level, observed population index)
# Mode i is the |i+1> -> |i> emission; detecting it projects onto |i>,
# and the rate of mode j is proportional to rho_{j+1,j+1}.
PAIR_TABLE = {
    (1, 1): (1, model.P22),
    (3, 3): (3, model.P44),
    (3, 1): (3, model.P22),
    (2, 1): (2, model.P22),
    (3, 2): (3, model.P33),
}

DENOMINATOR_FLOOR = 1e-12
CLIP_TOL = 1e-10


def _validate_pair(pair, table=PAIR_TABLE):
    # pair as a tuple, refused with InvalidArgument unless it is a key of
    # table; a non-iterable such as 31 is refused, not passed to tuple().
    pair = tuple(pair) if np.iterable(pair) else pair
    if pair not in table:
        raise InvalidArgument(f"pair must be one of {sorted(table)}, got {pair}")
    return pair


@dataclass(frozen=True)
class CorrelationSeries:
    """One normalized g2_ij on a tau grid, with the steady-state denominator."""

    pair: tuple
    taus: np.ndarray
    values: np.ndarray
    norm: float


@dataclass(frozen=True)
class CSRatioResult:
    """Cauchy-Schwarz ratio R(tau) and its maximum over the grid."""

    taus: np.ndarray
    R: np.ndarray
    r_max: float
    tau_at_max: float
    definition: str


@dataclass(frozen=True)
class DelayScan:
    """Peak delay of the extreme-pair cross-correlation along a field sweep."""

    swept_field: str
    field_values: np.ndarray
    tau_d: np.ndarray
    failures: list = field(default_factory=list)  # (index, error name) pairs


def default_tau_grid(params: SystemParams, tau_max=None, n=2000, spacing="log_linear"):
    """Tau grid from 0 to tau_max, 10/min(Gamma) of params unless given: a
    log run to tau_max/20, then linear.

    The log section resolves the rise near tau = 0 (first point at
    1e-4 tau_max, so a tau_max for which that underflows to 0 is refused);
    the linear section carries the slow tails.
    """
    if tau_max is None:
        if params is None:
            raise InvalidArgument("default_tau_grid needs params or tau_max")
        tau_max = 10.0 / params.min_gamma
    if not (isinstance(tau_max, numbers.Real) and 0.0 < tau_max < np.inf):
        raise InvalidArgument(f"tau_max must be positive and finite, got {tau_max!r}")
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidArgument(f"n must be an integer, got {n!r}") from None
    if n < 16:
        raise InvalidArgument("need at least 16 grid points")
    if spacing == "linear":
        return np.linspace(0.0, tau_max, n)
    if spacing != "log_linear":
        raise InvalidArgument(f"unknown spacing {spacing!r}")
    if 1e-4 * tau_max == 0.0:
        raise InvalidArgument(f"tau_max {tau_max!r} is too small for the log grid")
    n_log = n // 3
    knee = tau_max / 20.0
    head = np.geomspace(1e-4 * tau_max, knee, n_log)
    tail = np.linspace(knee, tau_max, n - n_log)[1:]
    return np.concatenate([[0.0], head, tail])


def g2(gen: AffineGenerator, pair, taus) -> CorrelationSeries:
    """g2_ij on the grid: population rho_{j+1,j+1}(tau) from |i><i|, over its
    steady-state value, propagated by dynamics.evolve."""
    pair = _validate_pair(pair)
    level, obs = PAIR_TABLE[pair]
    taus = _real_array(taus, "taus")

    norm = _steady_norm(gen, pair)
    values = evolve(gen, prepare_state(level), taus)[:, obs] / norm
    # Populations can undershoot by rounding; clip only within tolerance.
    values[(values < 0.0) & (values > -CLIP_TOL)] = 0.0
    return CorrelationSeries(pair=pair, taus=taus, values=values, norm=norm)


def _steady_norm(gen, pair):
    # The steady-state population that normalizes g2 for this pair.
    norm = steady_state(gen)[PAIR_TABLE[pair][1]]
    if norm < DENOMINATOR_FLOOR:
        raise ZeroSteadyState(
            f"steady-state population for pair {pair} is {norm:.2e}; "
            "the correlation is undefined for these drives")
    return norm


def cs_ratio(g31: CorrelationSeries, g11: CorrelationSeries,
             g33: CorrelationSeries, definition="equal_time") -> CSRatioResult:
    """R(tau) = g31^2 / (g33 g11).

    'equal_time' evaluates both denominators at tau (R set to 0 where the
    denominator underflows).  'literal' uses g33(0), floored at 1e-12: with
    the cascade's antibunching g33(0) = 0, so this variant is essentially a
    diagnostic of how singular the published expression is.
    """
    for s in (g11, g33):
        if s.taus.shape != g31.taus.shape or np.any(s.taus != g31.taus):
            raise GridMismatch("correlation series use different tau grids")
    if definition == "equal_time":
        den = g33.values * g11.values
    elif definition == "literal":
        den = max(g33.values[0], DENOMINATOR_FLOOR) * g11.values
    else:
        raise InvalidArgument(f"unknown definition {definition!r}")
    ok = den > DENOMINATOR_FLOOR
    R = np.where(ok, g31.values ** 2 / np.where(ok, den, 1.0), 0.0)
    k = int(np.argmax(R))
    return CSRatioResult(taus=g31.taus, R=R, r_max=float(R[k]),
                         tau_at_max=float(g31.taus[k]), definition=definition)


# The drive fields scan_tau_d sweeps, in the order `taud-scan --sweep` lists them.
SWEEPABLE = ("omega1", "omega2", "omega_rf", "omega3")

# The slope search evaluates the grid in chunks of doubling length, starting
# here.  On the fig3 sweeps the first crest lies 241-340 points into the
# 1600-point grid, so fewer than 400 of its points are evaluated.
FIRST_CHUNK = 128
# Points of the grid that brackets tau_d.  It only brackets the Newton root,
# so one fixed size serves every caller.
PEAK_GRID_POINTS = 1600
# Newton stops once a step falls below this fraction of tau_d; bisection
# bounds the iteration count if it never does.
ROOT_RTOL = 4.0 * np.finfo(float).eps
ROOT_MAX_STEPS = 100


def g31_peak_delay(params: SystemParams):
    """tau_d for one parameter set: the delay of the first crest of g31.

    tau_d is the first + to - sign change of the slope d rho22/d tau after
    preparation in |3>.  The sign change is bracketed between two adjacent
    points of default_tau_grid(n=PEAK_GRID_POINTS) up to min(6/min Gamma, 40),
    searched from tau = 0 in chunks; a crest between two points whose slopes
    are both positive is not seen.  The root is then found by Newton steps on
    the closed-form second derivative, with a bisection whenever a step
    would leave the bracket.  The first crest (not the global maximum) is
    deliberate: strong rf drives superimpose fast oscillations, and the
    emission delay is set by the first one.

    The slope and curvature are the rows A[rho22] and (A^2)[rho22] applied
    to the deviation from the steady state, read through dynamics'
    propagator (the eigen-expansion, or scipy.linalg.expm propagation above
    SPECTRAL_COND_LIMIT).  Raises ZeroSteadyState when rho22 vanishes in
    the steady state and NoPeak when the slope never changes sign on the
    grid.
    """
    gen = build_generator(params)
    level, obs = PAIR_TABLE[(3, 1)]
    _steady_norm(gen, (3, 1))      # ZeroSteadyState before any search
    taus = _peak_grid(params.min_gamma)
    rows = np.array([gen.A[obs], gen.A[obs] @ gen.A])
    derivatives = _projector(gen, prepare_state(level), rows)
    lo, hi = _first_descent(taus, lambda t: derivatives(t)[:, 0])
    return _slope_root(derivatives, lo, hi)


@functools.lru_cache(maxsize=4)
def _peak_grid(min_gamma):
    # g31_peak_delay's search grid, read-only: a delay scan keeps min Gamma,
    # so every sweep point shares one grid.
    taus = default_tau_grid(None, tau_max=min(6.0 / min_gamma, 40.0),
                            n=PEAK_GRID_POINTS)
    taus.setflags(write=False)
    return taus


def _first_descent(taus, slope):
    # (taus[k], taus[k + 1]) for the first k with slope > 0 at taus[k] and
    # <= 0 at taus[k + 1]; consecutive chunks share their boundary point.
    start, size = 0, FIRST_CHUNK
    while start < len(taus) - 1:
        stop = min(start + size, len(taus))
        d = slope(taus[start:stop])
        down = np.flatnonzero((d[:-1] > 0.0) & (d[1:] <= 0.0))
        if len(down):
            k = start + down[0]
            return taus[k], taus[k + 1]
        start, size = stop - 1, 2 * size
    raise NoPeak("g31 has no crest on the delay grid")


def _slope_root(derivatives, lo, hi):
    # Safeguarded Newton for the slope's root in [lo, hi], where the slope
    # is > 0 at lo and <= 0 at hi.
    t = 0.5 * (lo + hi)
    for _ in range(ROOT_MAX_STEPS):
        slope, curvature = derivatives(np.array([t]))[0]
        if slope == 0.0:
            break
        if slope > 0.0:
            lo = t
        else:
            hi = t
        if curvature < 0.0:
            t_next = t - slope / curvature
            if abs(t_next - t) <= ROOT_RTOL * t:
                return float(t_next)
            if lo < t_next < hi:
                t = t_next
                continue
        if hi - lo <= ROOT_RTOL * t:
            break
        t = 0.5 * (lo + hi)
    return float(t)


def scan_tau_d(base: SystemParams, swept: str, grid) -> DelayScan:
    """tau_d as a function of one drive strength; per-point errors recorded."""
    if not isinstance(swept, str) or swept not in SWEEPABLE:
        raise InvalidArgument(f"swept field must be one of {sorted(SWEEPABLE)}")
    grid = _real_array(grid, "sweep grid")
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or np.any(grid <= 0):
        raise InvalidArgument("sweep grid must be 1-d, ascending and positive")
    key = "omega_rf" if swept == "omega2" else swept
    tau_d = np.full(len(grid), np.nan)
    failures = []
    for i, value in enumerate(grid):
        params = base.with_drives(**{key: value})
        try:
            tau_d[i] = g31_peak_delay(params)
        except (NoPeak, ZeroSteadyState) as exc:
            failures.append((i, type(exc).__name__))
    return DelayScan(swept_field=swept, field_values=grid, tau_d=tau_d,
                     failures=failures)
