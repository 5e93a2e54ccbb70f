"""Four-level cascade atom driven by three resonant-or-detuned fields.

Levels |1>-|2>-|3>-|4> form a ladder; the |1>-|2> and |3>-|4> couplings are
optical (Rabi frequencies omega1, omega3), the |2>-|3> coupling is the rf
field (omega_rf).  Everything is expressed in units of gamma = 2*pi MHz, so a
"rate 1" means 2*pi MHz and times are measured in 1/gamma.

The density matrix is packed into 15 real components; rho11 is eliminated by
the trace, which turns the master equation into the affine system
dx/dt = A x + b.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import InvalidLevel, InvalidParams, SingularGenerator

TWO_PI = 2.0 * np.pi

# Index layout of the packed state vector.
RE_R12, IM_R12 = 0, 1
RE_R23, IM_R23 = 2, 3
RE_R34, IM_R34 = 4, 5
RE_R13, IM_R13 = 6, 7
RE_R14, IM_R14 = 8, 9
RE_R24, IM_R24 = 10, 11
P22, P33, P44 = 12, 13, 14

DIM = 15

# Steady-state solve: refuse A above this 2-norm condition number, and
# require this residual max|A x + b| after refinement.
COND_LIMIT = 1e14
RESIDUAL_TOL = 1e-12

STATE_LABELS = (
    "re_rho12", "im_rho12", "re_rho23", "im_rho23", "re_rho34", "im_rho34",
    "re_rho13", "im_rho13", "re_rho14", "im_rho14", "re_rho24", "im_rho24",
    "rho22", "rho33", "rho44",
)


@dataclass(frozen=True)
class SystemParams:
    """Drive strengths, detunings and decay rates, all in units of gamma.

    gamma23, gamma34, gamma24 are the population transfer rates feeding
    level |i> from level |k> (|3>->|2>, |4>->|3>, |4>->|2|).  The default
    preset keeps the first two at 1 and the last at 0.
    """

    omega1: float = 0.0
    omega_rf: float = 0.0
    omega3: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    delta3: float = 0.0
    gamma2: float = 1.0
    gamma3: float = 1.0
    gamma4: float = 0.16
    gamma23: float = 1.0
    gamma34: float = 1.0
    gamma24: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise InvalidParams(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("omega1", "omega_rf", "omega3",
                     "gamma23", "gamma34", "gamma24"):
            if getattr(self, name) < 0.0:
                raise InvalidParams(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("gamma2", "gamma3", "gamma4"):
            if getattr(self, name) <= 0.0:
                raise InvalidParams(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def detuned(self):
        return self.delta1 != 0.0 or self.delta2 != 0.0 or self.delta3 != 0.0

    @property
    def min_gamma(self):
        return min(self.gamma2, self.gamma3, self.gamma4)

    def with_drives(self, omega1=None, omega_rf=None, omega3=None):
        """Copy with some Rabi frequencies replaced (used by field sweeps)."""
        kw = {}
        if omega1 is not None:
            kw["omega1"] = omega1
        if omega_rf is not None:
            kw["omega_rf"] = omega_rf
        if omega3 is not None:
            kw["omega3"] = omega3
        return replace(self, **kw)


# Decay-rate presets: 'unit' rounds the Rb rates to gamma-units,
# 'physical' converts Gamma_{2,3} = 6 MHz and Gamma_4 = 0.97 MHz by 1/(2*pi).
GAMMA_PRESETS = {
    "unit": dict(gamma2=1.0, gamma3=1.0, gamma4=0.16),
    "physical": dict(gamma2=6.0 / TWO_PI, gamma3=6.0 / TWO_PI, gamma4=0.97 / TWO_PI),
}

# Drive sets used for the published correlation and ratio plots.
DRIVE_PRESETS = {
    "fig2": dict(omega1=4.0, omega3=4.0, omega_rf=20.0),
    "fig4_rf4": dict(omega1=4.0, omega3=4.0, omega_rf=4.0),
    "fig4_rf10": dict(omega1=4.0, omega3=4.0, omega_rf=10.0),
    "fig4_rf20": dict(omega1=4.0, omega3=4.0, omega_rf=20.0),
}


def preset(drives="fig2", gammas="unit"):
    """Build a SystemParams from a drive preset and a decay-rate preset.

    Presets close the cascade: gamma23 = gamma3 and gamma34 = gamma4, i.e.
    each level's decay feeds the next level down in full.  Leaving the
    transfer rates at the literal value 1 while gamma4 < 1 pumps the |3>-|4>
    pair harder than it drains, and at the published drive strengths the
    generator then acquires eigenvalues with positive real part (no steady
    state, diverging correlations).  Closed branching is the reading under
    which the published figures are reproducible; see README.
    """
    if drives not in DRIVE_PRESETS:
        raise InvalidParams(f"unknown drive preset {drives!r}")
    if gammas not in GAMMA_PRESETS:
        raise InvalidParams(f"unknown gamma preset {gammas!r}")
    g = GAMMA_PRESETS[gammas]
    return SystemParams(**DRIVE_PRESETS[drives], **g,
                        gamma23=g["gamma3"], gamma34=g["gamma4"], gamma24=0.0)


@dataclass(frozen=True)
class Eigensystem:
    """A = V diag(lam) V^-1 from one np.linalg.eig (unit-norm columns of V).

    cond is the 2-norm condition number of V: near 1 for a well-separated
    spectrum, unbounded as A approaches a defective matrix.
    """

    lam: np.ndarray
    V: np.ndarray
    cond: float

    @property
    def abscissa(self):
        """Spectral abscissa max Re lam."""
        return float(np.max(self.lam.real))


@dataclass(frozen=True)
class AffineGenerator:
    """The packed master equation dx/dt = A x + b.

    The fixed point and the eigensystem of A are computed on first use and
    kept with the generator; the cached arrays are read-only.
    """

    A: np.ndarray
    b: np.ndarray
    params: SystemParams

    def rhs(self, x):
        return self.A @ x + self.b

    @cached_property
    def eigensystem(self) -> Eigensystem:
        """Eigendecomposition of A, the basis of the spectral propagator."""
        lam, V = np.linalg.eig(self.A)
        lam.setflags(write=False)
        V.setflags(write=False)
        return Eigensystem(lam=lam, V=V, cond=float(np.linalg.cond(V)))

    @cached_property
    def fixed_point(self) -> np.ndarray:
        """Solution of A x = -b by LU with partial pivoting plus iterative
        refinement; raises SingularGenerator when A is numerically singular."""
        if np.linalg.cond(self.A) > COND_LIMIT:
            raise SingularGenerator(
                f"generator condition number exceeds {COND_LIMIT:g}")
        lu, piv = scipy.linalg.lu_factor(self.A)
        x = scipy.linalg.lu_solve((lu, piv), -self.b)
        # Refinement keeps the residual at rounding level even when
        # omega_rf >> Gamma inflates the condition number.
        for _ in range(2):
            r = -self.b - self.A @ x
            if np.max(np.abs(r)) < RESIDUAL_TOL:
                break
            x = x + scipy.linalg.lu_solve((lu, piv), r)
        residual = np.max(np.abs(self.A @ x + self.b))
        if residual > RESIDUAL_TOL:
            raise SingularGenerator(
                f"steady-state residual {residual:.2e} above {RESIDUAL_TOL:g}")
        x.setflags(write=False)
        return x


def build_generator(params: SystemParams) -> AffineGenerator:
    """Assemble the 15x15 drift matrix and constant vector.

    Each complex coherence equation is split into real and imaginary rows;
    rho11 is replaced by 1 - rho22 - rho33 - rho44, which produces the single
    constant entry b[im rho12] = omega1.
    """
    o1, orf, o3 = params.omega1, params.omega_rf, params.omega3
    d1, d2, d3 = params.delta1, params.delta2, params.delta3
    g2, g3, g4 = params.gamma2, params.gamma3, params.gamma4
    g23, g34, g24 = params.gamma23, params.gamma34, params.gamma24

    A = np.zeros((DIM, DIM))
    b = np.zeros(DIM)

    # rho12: (-i d1 - g2/2) rho12 - i o1 (2 rho22 + rho33 + rho44 - 1) + i orf rho13
    A[RE_R12, RE_R12] = -g2 / 2
    A[RE_R12, IM_R12] = d1
    A[RE_R12, IM_R13] = -orf
    A[IM_R12, RE_R12] = -d1
    A[IM_R12, IM_R12] = -g2 / 2
    A[IM_R12, RE_R13] = orf
    A[IM_R12, P22] = -2 * o1
    A[IM_R12, P33] = -o1
    A[IM_R12, P44] = -o1
    b[IM_R12] = o1

    # rho23: (-i d2 - (g2+g3)/2) rho23 - i o1 rho13 - i orf (rho33-rho22) + i o3 rho24
    A[RE_R23, RE_R23] = -(g2 + g3) / 2
    A[RE_R23, IM_R23] = d2
    A[RE_R23, IM_R13] = o1
    A[RE_R23, IM_R24] = -o3
    A[IM_R23, RE_R23] = -d2
    A[IM_R23, IM_R23] = -(g2 + g3) / 2
    A[IM_R23, RE_R13] = -o1
    A[IM_R23, RE_R24] = o3
    A[IM_R23, P22] = orf
    A[IM_R23, P33] = -orf

    # rho34: (-i d3 - (g3+g4)/2) rho34 - i orf rho24 - i o3 (rho44-rho33)
    A[RE_R34, RE_R34] = -(g3 + g4) / 2
    A[RE_R34, IM_R34] = d3
    A[RE_R34, IM_R24] = orf
    A[IM_R34, RE_R34] = -d3
    A[IM_R34, IM_R34] = -(g3 + g4) / 2
    A[IM_R34, RE_R24] = -orf
    A[IM_R34, P33] = o3
    A[IM_R34, P44] = -o3

    # rho13: (-i(d1+d2) - g3/2) rho13 - i o1 rho23 + i orf rho12 + i o3 rho14
    A[RE_R13, RE_R13] = -g3 / 2
    A[RE_R13, IM_R13] = d1 + d2
    A[RE_R13, IM_R23] = o1
    A[RE_R13, IM_R12] = -orf
    A[RE_R13, IM_R14] = -o3
    A[IM_R13, RE_R13] = -(d1 + d2)
    A[IM_R13, IM_R13] = -g3 / 2
    A[IM_R13, RE_R23] = -o1
    A[IM_R13, RE_R12] = orf
    A[IM_R13, RE_R14] = o3

    # rho14: (-i(d1+d2+d3) - g4/2) rho14 - i o1 rho24 + i o3 rho13
    A[RE_R14, RE_R14] = -g4 / 2
    A[RE_R14, IM_R14] = d1 + d2 + d3
    A[RE_R14, IM_R24] = o1
    A[RE_R14, IM_R13] = -o3
    A[IM_R14, RE_R14] = -(d1 + d2 + d3)
    A[IM_R14, IM_R14] = -g4 / 2
    A[IM_R14, RE_R24] = -o1
    A[IM_R14, RE_R13] = o3

    # rho24: (-i(d2+d3) - (g2+g4)/2) rho24 - i o1 rho14 - i orf rho34 + i o3 rho23
    A[RE_R24, RE_R24] = -(g2 + g4) / 2
    A[RE_R24, IM_R24] = d2 + d3
    A[RE_R24, IM_R14] = o1
    A[RE_R24, IM_R34] = orf
    A[RE_R24, IM_R23] = -o3
    A[IM_R24, RE_R24] = -(d2 + d3)
    A[IM_R24, IM_R24] = -(g2 + g4) / 2
    A[IM_R24, RE_R14] = -o1
    A[IM_R24, RE_R34] = -orf
    A[IM_R24, RE_R23] = o3

    # rho22: -g2 rho22 + 2 o1 Im rho12 - 2 orf Im rho23 + g23 rho33 + g24 rho44
    A[P22, P22] = -g2
    A[P22, IM_R12] = 2 * o1
    A[P22, IM_R23] = -2 * orf
    A[P22, P33] = g23
    A[P22, P44] = g24

    # rho33: -g3 rho33 - 2 o3 Im rho34 + 2 orf Im rho23 + g34 rho44
    A[P33, P33] = -g3
    A[P33, IM_R34] = -2 * o3
    A[P33, IM_R23] = 2 * orf
    A[P33, P44] = g34

    # rho44: -g4 rho44 + 2 o3 Im rho34
    A[P44, P44] = -g4
    A[P44, IM_R34] = 2 * o3

    A.setflags(write=False)
    b.setflags(write=False)
    return AffineGenerator(A=A, b=b, params=params)


def prepare_state(level: int) -> np.ndarray:
    """State vector for the atom prepared in |level><level| (coherences zero)."""
    if level not in (1, 2, 3, 4):
        raise InvalidLevel(f"level must be 1..4, got {level}")
    x = np.zeros(DIM)
    if level > 1:
        x[P22 + level - 2] = 1.0
    return x


def populations(x):
    """(rho11, rho22, rho33, rho44) of a packed state, rho11 from the trace."""
    p22, p33, p44 = x[..., P22], x[..., P33], x[..., P44]
    return 1.0 - p22 - p33 - p44, p22, p33, p44


class DensityMatrix:
    """Full 4x4 complex density matrix, convertible to/from the packed state.

    Construction checks hermiticity and unit trace to 1e-12.
    """

    HERM_TOL = 1e-12
    TRACE_TOL = 1e-12

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidParams(f"density matrix must be 4x4, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > self.HERM_TOL:
            raise InvalidParams("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > self.TRACE_TOL or abs(np.trace(m).imag) > self.TRACE_TOL:
            raise InvalidParams("density matrix trace differs from 1 by more than 1e-12")
        self.matrix = m

    @classmethod
    def from_state(cls, x):
        m = np.zeros((4, 4), dtype=complex)
        r11, r22, r33, r44 = populations(x)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = r11, r22, r33, r44
        m[0, 1] = x[RE_R12] + 1j * x[IM_R12]
        m[1, 2] = x[RE_R23] + 1j * x[IM_R23]
        m[2, 3] = x[RE_R34] + 1j * x[IM_R34]
        m[0, 2] = x[RE_R13] + 1j * x[IM_R13]
        m[0, 3] = x[RE_R14] + 1j * x[IM_R14]
        m[1, 3] = x[RE_R24] + 1j * x[IM_R24]
        iu = np.triu_indices(4, 1)
        m[(iu[1], iu[0])] = m[iu].conj()
        return cls(m)

    def to_state(self):
        m = self.matrix
        x = np.zeros(DIM)
        x[RE_R12], x[IM_R12] = m[0, 1].real, m[0, 1].imag
        x[RE_R23], x[IM_R23] = m[1, 2].real, m[1, 2].imag
        x[RE_R34], x[IM_R34] = m[2, 3].real, m[2, 3].imag
        x[RE_R13], x[IM_R13] = m[0, 2].real, m[0, 2].imag
        x[RE_R14], x[IM_R14] = m[0, 3].real, m[0, 3].imag
        x[RE_R24], x[IM_R24] = m[1, 3].real, m[1, 3].imag
        x[P22], x[P33], x[P44] = m[1, 1].real, m[2, 2].real, m[3, 3].real
        return x
