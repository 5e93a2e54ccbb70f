"""Exception types shared across the package."""


class Cascade4Error(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(Cascade4Error, ValueError):
    """A library call got an argument outside its domain (unknown name,
    malformed grid, nonpositive time)."""


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
