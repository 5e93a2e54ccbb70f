"""Four-level cascade atom driven by three resonant-or-detuned fields.

Levels |1>-|2>-|3>-|4> form a ladder; the |1>-|2> and |3>-|4> couplings are
optical (Rabi frequencies omega1, omega3), the |2>-|3> coupling is the rf
field (omega_rf).  Everything is expressed in units of gamma = 2*pi MHz, so a
"rate 1" means 2*pi MHz and times are measured in 1/gamma.

The density matrix is packed into 15 real components; rho11 is eliminated by
the trace, which turns the master equation into the affine system
dx/dt = A x + b.  The master equation is written once, in 4x4 operator form
(_master_equation); A and b are linear in 15 rates, so the operator form is
evaluated once per unit rate at import and build_generator is a product of
the rate vector with that table.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import (InvalidArgument, InvalidLevel, InvalidParams, SingularGenerator,
                     UnstableGenerator)

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

# Steady-state solve: refuse A above this 2-norm condition number, refine
# while the residual max|A x + b| exceeds RESIDUAL_TOL, and accept a refined
# residual up to RESIDUAL_TOL or up to the rounding floor of A x + b,
# RESIDUAL_FLOOR (max|A| max|x| + max|b|): 16 eps on that scale.
COND_LIMIT = 1e14
RESIDUAL_TOL = 1e-12
RESIDUAL_FLOOR = 16 * np.finfo(float).eps

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
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise InvalidParams(f"{f.name} must be finite and real, got {value!r}")
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
        drives = dict(omega1=omega1, omega_rf=omega_rf, omega3=omega3)
        return replace(self, **{k: v for k, v in drives.items() if v is not None})


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
    """The packed master equation dx/dt = A x + b, from A and b alone.

    A and b must be finite (InvalidArgument otherwise).  The fixed point and
    the eigensystem of A are computed on first use and kept with the
    generator; the cached arrays are read-only.  fixed_point is the one
    checked steady state: dynamics.steady_state returns it.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # LAPACK does not check its input: a nan or inf would come back as
        # an unnamed LinAlgError from the SVDs or as a nan steady state.
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise InvalidArgument("generator A and b must be finite")

    @cached_property
    def eigensystem(self) -> Eigensystem:
        """Eigendecomposition of A, the basis of the spectral propagator."""
        lam, V = np.linalg.eig(self.A)
        lam.setflags(write=False)
        V.setflags(write=False)
        return Eigensystem(lam=lam, V=V, cond=float(np.linalg.cond(V)))

    @cached_property
    def fixed_point(self) -> np.ndarray:
        """The steady state: the solution of A x = -b by np.linalg.solve
        (LAPACK gesv: LU with partial pivoting) plus up to two steps of
        iterative refinement, certified by its residual and by the sign of
        the spectral abscissa.

        Raises SingularGenerator when cond(A) exceeds COND_LIMIT or the
        refined residual max|A x + b| is above both RESIDUAL_TOL and the
        rounding floor of A x + b (RESIDUAL_FLOOR (max|A| max|x| +
        max|b|), a normwise backward error of a few ulps; Higham, Accuracy
        and Stability of Numerical Algorithms, 2nd ed., sec. 7.1).  The
        floor matters at large drives: b[im rho12] = omega1, so from
        omega1 = 8192 one ulp of it exceeds 1e-12.  Then raises
        UnstableGenerator when A has an eigenvalue with positive real part,
        since such a fixed point repels.
        """
        if np.linalg.cond(self.A) > COND_LIMIT:
            raise SingularGenerator(
                f"generator condition number exceeds {COND_LIMIT:g}")
        x = np.linalg.solve(self.A, -self.b)
        # Refinement keeps the residual at rounding level even when
        # omega_rf >> Gamma inflates the condition number.
        for _ in range(2):
            r = -self.b - self.A @ x
            if np.max(np.abs(r)) < RESIDUAL_TOL:
                break
            x = x + np.linalg.solve(self.A, r)
        residual = np.max(np.abs(self.A @ x + self.b))
        # the floor is computed only past RESIDUAL_TOL (nan fails both tests)
        if not (residual <= RESIDUAL_TOL or residual <= RESIDUAL_FLOOR * (
                np.max(np.abs(self.A)) * np.max(np.abs(x)) + np.max(np.abs(self.b)))):
            raise SingularGenerator(
                f"steady-state residual {residual:.2e} above {RESIDUAL_TOL:g} "
                "and the rounding floor of A x + b")
        abscissa = self.eigensystem.abscissa
        if abscissa > 0.0:
            raise UnstableGenerator(
                f"spectral abscissa {abscissa:.3g} > 0, so the fixed point repels; "
                "transfer rates above the decays that feed them (gamma23 > gamma3, "
                "gamma34 + gamma24 > gamma4) can cause this")
        x.setflags(write=False)
        return x


# (row, column) of each packed coherence rho_jk, j < k, in packed order.
_ROW = np.array([0, 1, 2, 0, 0, 1])
_COL = np.array([1, 2, 3, 2, 3, 3])
_POP = np.array([1, 2, 3])


def _pack(m):
    """Packed state(s) of 4x4 matrices (leading axes broadcast): Re and Im of
    each coherence, then rho22, rho33, rho44."""
    coherences = np.ascontiguousarray(m[..., _ROW, _COL]).view(float)
    return np.concatenate([coherences, m[..., _POP, _POP].real], axis=-1)


def _unpack(x, trace=1.0):
    """Hermitian 4x4 matrices of packed states, with rho11 = trace - rho22 -
    rho33 - rho44 (trace 0 gives the linear part of the affine map)."""
    x = np.asarray(x, dtype=float)
    m = np.zeros(x.shape[:-1] + (4, 4), dtype=complex)
    coherences = np.ascontiguousarray(x[..., :P22]).view(complex)
    m[..., _ROW, _COL] = coherences
    m[..., _COL, _ROW] = coherences.conj()
    m[..., 0, 0] = trace - x[..., P22] - x[..., P33] - x[..., P44]
    m[..., _POP, _POP] = x[..., P22:]
    return m


def _master_equation(rates, rho):
    """d rho/dt = -i[H, rho] - D * rho (elementwise) + transfer, for 4x4 rho.

    rates = (omega1, omega_rf, omega3, gamma2, gamma3, gamma4, gamma23,
    gamma34, gamma24, then the detuning Delta_jk of each packed coherence).
    H couples |1>-|2>, |2>-|3>, |3>-|4> with omega1, omega_rf, omega3;
    D_jk = (Gamma_j + Gamma_k)/2 + i Delta_jk with Gamma_1 = 0 and
    Delta_kj = -Delta_jk; gamma23, gamma24 feed rho22 from rho33, rho44 and
    gamma34 feeds rho33 from rho44.  rho may carry leading axes.

    The result is d rho/dt only off the (1, 1) entry: rho11's gain, the
    decay into |1> (gamma2 rho22 + (gamma3 - gamma23) rho33 + (gamma4 -
    gamma34 - gamma24) rho44), is left out, because the packed form drops
    rho11 and recovers it from the trace (_unpack).  So this is not a full
    Liouvillian.
    """
    o1, orf, o3, g2, g3, g4, g23, g34, g24 = rates[:9]
    H = np.zeros((4, 4))
    H[_ROW[:3], _COL[:3]] = o1, orf, o3
    H += H.T
    gamma = np.array([0.0, g2, g3, g4])
    delta = np.zeros((4, 4))
    delta[_ROW, _COL] = rates[9:]
    D = (gamma[:, None] + gamma) / 2 + 1j * (delta - delta.T)
    drho = -1j * (H @ rho - rho @ H) - D * rho
    drho[..., 1, 1] += g23 * rho[..., 2, 2] + g24 * rho[..., 3, 3]
    drho[..., 2, 2] += g34 * rho[..., 3, 3]
    return drho


def _rates(p: SystemParams):
    """The 15 rates A and b are linear in, in _master_equation's order; the
    coherence detunings are the level-detuning sums d1 + d2, d1 + d2 + d3
    and d2 + d3 (rho13, rho14, rho24)."""
    d1, d2, d3 = p.delta1, p.delta2, p.delta3
    return np.array([p.omega1, p.omega_rf, p.omega3, p.gamma2, p.gamma3,
                     p.gamma4, p.gamma23, p.gamma34, p.gamma24,
                     d1, d2, d3, d1 + d2, d1 + d2 + d3, d2 + d3])


def _unit_generators():
    """(15, DIM*DIM + DIM) table: row k holds A (row-major) and b of the
    master equation with rate k at 1 and all others at 0.

    Column j of A is the packed image of basis state j with rho11 =
    -(rho22 + rho33 + rho44); b is the image of the zero state, |1><1|.
    """
    basis = np.concatenate([_unpack(np.eye(DIM), trace=0.0),
                            _unpack(np.zeros((1, DIM)))])
    images = [_pack(_master_equation(r, basis)) for r in np.eye(DIM)]
    return np.stack([np.concatenate([im[:DIM].T.ravel(), im[DIM]])
                     for im in images])


_UNIT_GENERATORS = _unit_generators()


def build_generator(params: SystemParams) -> AffineGenerator:
    """The packed master equation: A and b as the rates times the unit-rate
    generators of the operator form.

    The unit coefficients are 0, -1/2, +-1 and +-2, so every entry is
    exactly what expanding the equations by hand gives (up to the sign of
    zeros); rho11 = 1 - rho22 - rho33 - rho44 produces the single constant
    entry b[im rho12] = omega1.
    """
    Ab = _rates(params) @ _UNIT_GENERATORS
    A, b = Ab[:DIM * DIM].reshape(DIM, DIM), Ab[DIM * DIM:]
    A.setflags(write=False)
    b.setflags(write=False)
    return AffineGenerator(A=A, b=b)


def prepare_state(level: int) -> np.ndarray:
    """State vector for the atom prepared in |level><level| (coherences zero)."""
    if not isinstance(level, numbers.Integral) or level not in (1, 2, 3, 4):
        raise InvalidLevel(f"level must be an integer 1..4, got {level!r}")
    x = np.zeros(DIM)
    if level > 1:
        x[P22 + level - 2] = 1.0
    return x


def populations(x):
    """(rho11, rho22, rho33, rho44) of a packed state, rho11 from the trace."""
    p22, p33, p44 = x[..., P22], x[..., P33], x[..., P44]
    return 1.0 - p22 - p33 - p44, p22, p33, p44
