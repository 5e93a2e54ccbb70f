"""Exception types shared across the package, and the gates that turn a
numeric argument from outside the library into a float array, a float, an
int or a grid, or refuse it by name with InvalidArgument."""

import operator

import numpy as np


class Cascade4Error(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(Cascade4Error, ValueError):
    """A library call got an argument outside its domain (unknown name,
    malformed grid, nonpositive time)."""


def _real_array(value, name):
    """value as a float array (not copied when it is one), refused with
    InvalidArgument unless it holds real numbers: a str is refused, not
    parsed, and so are complex and object values."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise InvalidArgument(f"{name} must be real numbers, got {value!r:.60}")
    return array.astype(float, copy=False)


def _real_scalar(value, name, low, closed=False):
    """value as a float, refused unless it is one finite real number > low
    (>= low when closed); a 0-d array is one number, any other array is
    refused, not reduced."""
    array = _real_array(value, name)
    if array.ndim or not ((low <= array if closed else low < array) and array < np.inf):
        raise InvalidArgument(f"{name} must be finite and {'>=' if closed else '>'} "
                              f"{low:g}, got {value!r:.40}")
    return float(array)


def _count(value, name, minimum):
    """value as an int, refused unless it is an integer (operator.index:
    48.0 is refused, not truncated) of at least minimum."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum:
        raise InvalidArgument(f"{name} must be an integer >= {minimum}, got {value!r:.40}")
    return count


def _grid(value, name, low, closed):
    """value as a float array, refused unless it is a nonempty 1-d grid of
    finite, strictly increasing numbers, the first > low (>= low when
    closed)."""
    grid = _real_array(value, name)
    if (grid.ndim != 1 or not len(grid) or not np.all(np.isfinite(grid))
            or np.any(np.diff(grid) <= 0)
            or not (low <= grid[0] if closed else low < grid[0])):
        raise InvalidArgument(
            f"{name} must be a nonempty 1-d grid of finite, strictly increasing "
            f"numbers, the first {'>=' if closed else '>'} {low:g}, got {value!r:.60}")
    return grid


class InvalidParams(Cascade4Error):
    """Physical parameters violate their constraints (negative rate, zero Gamma)."""


class InvalidLevel(InvalidArgument):
    """Preparation level outside {1, 2, 3, 4}."""


class SingularGenerator(Cascade4Error):
    """The drift matrix is numerically singular; no unique steady state."""


class UnstableGenerator(Cascade4Error):
    """The drift matrix has an eigenvalue with positive real part; its fixed
    point repels, so there is no steady state to relax to."""


class StepFailure(Cascade4Error):
    """Adaptive integrator could not reach the requested accuracy."""


class ZeroSteadyState(Cascade4Error):
    """A correlation denominator population vanishes; g2 undefined for these drives."""


class GridMismatch(Cascade4Error):
    """Series combined on different tau grids."""


class NoPeak(Cascade4Error):
    """Series is monotone on the grid; no interior local maximum."""


class NonzeroDetuning(Cascade4Error):
    """Perturbative solutions are only defined on resonance."""


class NearPole(InvalidArgument):
    """Laplace-domain solve requested at or too close to a pole
    (ill-conditioned)."""


class NotCatalogued(Cascade4Error):
    """No transcribed Laplace-space expression for this combination."""


class NonFiniteTransform(Cascade4Error):
    """A Laplace transform evaluated to inf or nan on an inversion contour."""


class NonRealSum(Cascade4Error, ArithmeticError):
    """An exponential sum that should be real on t >= 0 is not (its terms do
    not pair into conjugates)."""


class IllConditionedPoles(Cascade4Error):
    """Pole clustering is ambiguous within the tolerance band."""


class ConfigError(Cascade4Error):
    """Base class for configuration-file problems (exit code 2 in the CLI)."""


class ParseError(ConfigError):
    """Malformed config line; carries the 1-based line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class UnknownKey(ConfigError):
    """Config key not recognised in its section."""


class RangeError(ConfigError):
    """Config value outside its allowed range."""


class OutputError(Cascade4Error):
    """An output file or directory cannot be written (exit code 2 in the CLI)."""
