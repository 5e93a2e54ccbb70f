"""Four-level cascade fluorescence simulator.

Exact master-equation dynamics plus the perturbative Laplace-domain
analytics of the strongly and weakly rf-driven regimes; second-order photon
correlations via the regression theorem; Cauchy-Schwarz ratio and
emission-delay scans.
"""

from . import correlations, dynamics, model, perturbation, ratfunc, validation
from .correlations import (
    CorrelationSeries,
    CSRatioResult,
    DelayScan,
    cs_ratio,
    default_tau_grid,
    g2,
    scan_tau_d,
)
from .dynamics import evolve, steady_state
from .errors import (
    Cascade4Error,
    ConfigError,
    GridMismatch,
    IllConditionedPoles,
    InvalidArgument,
    InvalidLevel,
    InvalidParams,
    NearPole,
    NoPeak,
    NonFiniteTransform,
    NonRealSum,
    NonzeroDetuning,
    NotCatalogued,
    OutputError,
    ParseError,
    RangeError,
    SingularGenerator,
    StepFailure,
    UnknownKey,
    UnstableGenerator,
    ZeroSteadyState,
)
from .model import (
    AffineGenerator,
    SystemParams,
    build_generator,
    populations,
    prepare_state,
    preset,
)
from .perturbation import (
    Regime,
    RootSet,
    analytic_g2_sum,
    appendix_rational,
    coefficient_identities,
    root_set,
)
from .ratfunc import ExponentialSum, RationalFunction, invert_rational, talbot_invert
from .validation import ValidationReport, brute_force_evolve, rk_evolve, run_validation

__version__ = "0.1.0"
