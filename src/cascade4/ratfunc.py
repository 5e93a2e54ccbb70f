"""Laplace-domain utilities: rational functions, exponential sums, and two
independent inversion engines (partial fractions and fixed-Talbot quadrature).

A rational function enters as its numerator coefficients and its list of
(pole, multiplicity) pairs; that list is the only source of its poles, for
the residues, the pole clusters and the Talbot node count alike.  Polynomial
coefficient arrays are ascending complex ndarrays (c[0] + c[1] s + ...), the
convention of numpy.polynomial: polyfromroots builds the monic denominator
from the poles and polyval evaluates.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyfromroots, polyval
# mpmath is imported inside the functions that need it, so that neither the
# exact dynamics (import cascade4, g2, scan_tau_d) nor the residue path
# (analytic sums, invert_rational) loads it.

from .errors import (
    IllConditionedPoles,
    InvalidArgument,
    NearPole,
    NonFiniteTransform,
    NonRealSum,
    _real_array,
)

CLUSTER_TOL = 1e-8
CLUSTER_TOL_UPPER = 1e-6
CLUSTER_SCALE_FLOOR = 1e-2


class Fixed:
    """Complex fixed-point scalar (re + i im) / 2**prec with Python int re, im.

    Each precision is its own subclass, made by fixed_type(prec); calling
    one, as in fixed_type(200)(x), rounds x down onto its grid.  That is
    exact for int, and for a float, complex or mpmath number with at most
    prec fractional bits; a Fixed of another precision is shifted onto it.
    The only arithmetic is / between two values of one class, which rounds
    each component down once; complex() rounds to a complex double.  This
    is CPython int arithmetic: against mpc arithmetic on mpmath's
    pure-Python backend it makes a heavy Talbot node more than twice as
    cheap.
    """

    __slots__ = ("re", "im")
    prec = 0
    one = 1

    def __new__(cls, value=0):
        p = cls.prec
        if isinstance(value, Fixed):
            return _make(cls, _shift(value.re, p - value.prec),
                         _shift(value.im, p - value.prec))
        if isinstance(value, int):
            return _make(cls, int(value) << p, 0)
        if isinstance(value, (float, complex)):
            return _make(cls, _on_grid(value.real, p), _on_grid(value.imag, p))
        if hasattr(value, "_mpc_"):
            re, im = value._mpc_
            return _make(cls, _mpf_on_grid(re, p), _mpf_on_grid(im, p))
        if hasattr(value, "_mpf_"):
            return _make(cls, _mpf_on_grid(value._mpf_, p), 0)
        raise TypeError(f"cannot convert {type(value).__name__} to Fixed")

    def __truediv__(self, other):
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        p = cls.prec
        den = c * c + d * d
        return _make(cls, ((a * c + b * d) << p) // den, ((b * c - a * d) << p) // den)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        one = type(self).one
        return complex(self.re / one, self.im / one)


_new = object.__new__


def _make(cls, re, im):
    v = _new(cls)
    v.re = re
    v.im = im
    return v


def _shift(n, bits):
    return n << bits if bits >= 0 else n >> -bits


def _on_grid(x, p):
    n, d = float(x).as_integer_ratio()      # d is a power of two
    return (n << p) // d


def _mpf_on_grid(mpf, p):
    sign, man, exp, bc = mpf
    if not man and (exp or bc):
        raise ValueError("cannot convert an infinite or nan mpmath value to Fixed")
    return _shift(-man if sign else man, exp + p)


@functools.cache
def fixed_type(prec):
    """The Fixed subclass of `prec` fractional bits.

    One class per precision, kept for the life of the process: the fast
    paths compare classes, and the callers here round their precisions to
    a few distinct values.
    """
    return type(f"Fixed{prec}", (Fixed,),
                {"__slots__": (), "prec": prec, "one": 1 << prec})


def _poly_at(coeffs, s):
    """p(s) for a Fixed s, where coeffs = (re, im) from _grid_coeffs.

    A real polynomial p is alpha s + beta at s, with alpha x + beta its
    remainder mod x^2 - 2 Re(s) x + |s|^2, whose quotient vanishes at s.
    The remainder comes from b_k = c_k + 2 Re(s) b_(k+1) - |s|^2 b_(k+2),
    two integer products per coefficient against complex Horner's four
    (Knuth, TAOCP vol. 2, 4.6.4); a complex p is re(s) + i im(s).  Each
    step rounds down once, as a Horner step does, and |s|^2 is rounded once:
    that puts one ulp times the quotient at s into the value, and near the
    real axis, where s and conj(s) nearly coincide, the quotient grows to
    about degree^2 times the largest term.  At the heavy Talbot nodes this
    spends at most 5 of the GUARD_BITS, 1 to 5 bits more than Horner.
    """
    p, sr, si = s.prec, s.re, s.im
    t, q = sr << 1, (sr * sr + si * si) >> p

    def remainder(c):
        b1 = b2 = 0
        for ck in c[:-1]:
            b1, b2 = ck + ((t * b1 - q * b2) >> p), b1
        return b1, c[-1] - ((q * b2) >> p)

    ar, br = remainder(coeffs[0])
    ai, bi = remainder(coeffs[1]) if coeffs[1] else (0, 0)
    return _make(type(s), ((ar * sr - ai * si) >> p) + br,
                 ((ar * si + ai * sr) >> p) + bi)


def _grid_coeffs(kind, c):
    """(re, im): the real and imaginary parts of ascending coefficients c as
    ints on the grid of `kind`, highest power first, for _poly_at; im is
    None when every imaginary part is 0."""
    values = [kind(v) for v in c[::-1]]
    im = [v.im for v in values]
    return [v.re for v in values], im if any(im) else None


def _fixed_ratio(num, den, shift=0):
    """Closure s -> N(u) / D(u) at u = 2**shift s, for a Fixed s.

    num and den are ascending coefficients (ints, floats or complex); each
    Fixed class gets copies of them on its grid once (see _grid_coeffs).
    u is exact, and so is every product and sum up to the rounding of each
    step of _poly_at; a D(u) that comes out exactly 0 raises NearPole.
    """
    copies = {}

    def F(s):
        kind = type(s)
        if kind not in copies:
            copies[kind] = [_grid_coeffs(kind, c) for c in (num, den)]
        n, d = copies[kind]
        u = _make(kind, s.re << shift, s.im << shift)
        value = _poly_at(d, u)
        if not value:
            raise NearPole("the rational function's denominator vanishes at this s")
        return _poly_at(n, u) / value

    return F


def _frac_bits(z):
    """Fractional bits of a complex double: its binary expansion's length
    after the point, 0 for integers."""
    return max(float(v).as_integer_ratio()[1].bit_length() - 1
               for v in (z.real, z.imag))


def _realify(c, rel=1e-10):
    # Coefficients assembled from conjugate-paired numeric roots pick up tiny
    # imaginary residue; snapping it to zero keeps F(conj s) = conj F(s)
    # exact, which the one-sided Talbot fold relies on.
    scale = np.max(np.abs(c), initial=0.0)
    if scale > 0.0 and np.max(np.abs(c.imag)) <= rel * scale:
        return c.real.astype(complex)
    return c


@dataclass(frozen=True)
class RationalFunction:
    """Strictly proper rational function N(s)/D(s), built from its poles.

    `den_factors` lists the denominator roots with multiplicities, ((root,
    multiplicity), ...); the denominator is their product, monic and of
    degree equal to the pole count.  Both inversion engines read the poles
    from this list, never from the coefficients.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    den_factors: tuple

    @classmethod
    def from_factors(cls, numerator, factors):
        """Build from ascending numerator coefficients and (root,
        multiplicity) pairs.  Only exact trailing zeros of the numerator are
        dropped: a small leading coefficient is part of the function."""
        factors = tuple((complex(r), int(m)) for r, m in factors)
        roots = [r for r, m in factors for _ in range(m)]
        num = np.trim_zeros(_realify(np.array(numerator, dtype=complex)), "b")
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(roots))):
            raise InvalidArgument("rational function coefficients must be finite")
        if not roots:
            raise InvalidArgument("denominator must have degree >= 1")
        if len(num) > len(roots):
            raise InvalidArgument(
                f"rational function must be strictly proper "
                f"(deg N = {len(num)-1}, deg D = {len(roots)})")
        return cls(numerator=num if len(num) else np.zeros(1, dtype=complex),
                   denominator=_realify(polyfromroots(roots)),
                   den_factors=factors)

    def __call__(self, s):
        return polyval(s, self.numerator) / polyval(s, self.denominator)

    def degree(self):
        return len(self.numerator) - 1, len(self.denominator) - 1

    @functools.cached_property
    def _exact(self):
        """N(s) / D(s) at a Fixed s (_fixed_ratio), one closure per function,
        so that its Talbot inversions share each Fixed class's copies."""
        return _fixed_ratio(self.numerator, self.denominator)

    def initial_value(self):
        """lim s->inf of s F(s) = f(0+)."""
        dn, dd = self.degree()
        if dn + 1 == dd:
            return self.numerator[-1] / self.denominator[-1]
        return 0.0 + 0.0j


def _closure(adj):
    """(reach, groups) of a symmetric boolean adjacency matrix with a true
    diagonal: reach[i, j] says i and j are connected, from repeated boolean
    squaring (paths of up to 2^k steps after k squarings), and groups lists
    the connected index tuples, ordered by their smallest member."""
    reach = np.asarray(adj, dtype=bool)
    for _ in range((len(reach) - 1).bit_length()):
        reach = reach @ reach
    groups = {}
    for i, row in enumerate(reach.tolist()):
        groups.setdefault(row.index(True), []).append(i)
    return reach, [tuple(g) for g in groups.values()]


def cluster_poles(factors):
    """Group near-coincident poles of a (pole, multiplicity) list into
    (centroid, order, spread) clusters; raise if the grouping is ambiguous.

    Clusters are single-linkage at a relative distance (to the larger
    modulus, at least CLUSTER_SCALE_FLOOR).  Ambiguity means the partition
    changes somewhere between relative tolerance 1e-8 and 1e-6 -- the
    caller cannot tell a repeated pole from a close pair, so guessing is
    refused.
    """
    poles = [complex(p) for p, _m in factors]
    mult = [m for _p, m in factors]
    z = np.array(poles, dtype=complex)
    dist = abs(z[:, None] - z[None, :])
    scale = np.maximum(np.maximum.outer(abs(z), abs(z)), CLUSTER_SCALE_FLOOR)
    low = _closure(dist <= CLUSTER_TOL * scale)[1]
    if low != _closure(dist <= CLUSTER_TOL_UPPER * scale)[1]:
        raise IllConditionedPoles(
            "pole clustering differs between tolerances 1e-8 and 1e-6")
    clusters = []
    for members in low:
        weight = sum(mult[i] for i in members)
        centroid = sum(poles[i] * mult[i] for i in members) / weight
        spread = max(abs(poles[i] - centroid) for i in members)
        clusters.append((centroid, weight, spread))
    return clusters


class ExponentialSum:
    """f(t) = sum_k  coeff_k * t^power_k * exp(rate_k t), real-valued on t>=0.

    Built from (coeff, rate, power) terms and held as three read-only
    arrays, `coeffs` and `rates` (complex) and `powers` (int); `terms`
    reads them back as a tuple of (complex, complex, int).
    """

    __slots__ = ("coeffs", "rates", "powers")

    IMAG_TOL = 1e-10

    def __init__(self, terms):
        coeffs, rates, powers = tuple(zip(*terms)) or ((), (), ())
        self._hold(np.array(coeffs, dtype=complex), np.array(rates, dtype=complex),
                   np.array(powers, dtype=int))

    def _hold(self, *arrays):
        for name, array in zip(self.__slots__, arrays):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExponentialSum is immutable; cannot set {name}")

    @property
    def terms(self):
        return tuple(zip(self.coeffs.tolist(), self.rates.tolist(), self.powers.tolist()))

    def __repr__(self):
        return f"ExponentialSum(terms={self.terms!r})"

    def __call__(self, ts):
        ts = _real_array(ts, "t")
        if not np.all((ts >= 0) & (ts < np.inf)):
            raise InvalidArgument("exponential sums are evaluated at finite t >= 0")
        vals = np.zeros(ts.shape, dtype=complex)
        for coeff, rate, power in self.terms:
            vals += coeff * np.exp(rate * ts) * ts ** power
        if vals.size:
            scale = max(1.0, np.max(np.abs(vals)))
            if np.max(np.abs(vals.imag)) > self.IMAG_TOL * scale:
                raise NonRealSum(
                    "exponential sum is not real on t >= 0 "
                    f"(imag defect {np.max(np.abs(vals.imag)):.2e})")
        # a contiguous copy, so the complex result is not kept alive
        return vals.real.copy()

    def scaled(self, factor):
        out = object.__new__(ExponentialSum)
        out._hold(self.coeffs * factor, self.rates, self.powers)
        return out

    def value_at_zero(self):
        return sum(c for c, _r, p in self.terms if p == 0)


# Trapezoid nodes on each Laurent-coefficient circle, and the unit circle
# they sit on.
CONTOUR_POINTS = 64
_RING = np.exp(1j * (2.0 * np.pi * np.arange(CONTOUR_POINTS) / CONTOUR_POINTS))
_RING.setflags(write=False)


def principal_parts(F, clusters, targets=None):
    """Time-domain terms of F's principal part at each pole cluster of
    `targets` (by default every one of `clusters`), one term list per target.

    `clusters` is the whole (centroid, order, spread) list of cluster_poles,
    and `targets` some of its entries.  The Laurent coefficients a_{-1} ..
    a_{-order} of a cluster come from a circle of radius 0.3 times the
    distance to the nearest other centroid (or 0.3 with none), widened to
    10 times the spread; a circle that then reaches half that distance
    would integrate across the neighbour, so it is refused with
    IllConditionedPoles, before F is called.  Then every circle's samples
    come from one call of F on a complex array (one value per element), and
    a_{-l} = radius^l mean(samples ring^l) is the trapezoid rule on the
    CONTOUR_POINTS nodes: spectrally accurate while the nearest other
    singularity stays well outside the circle.  Each a_{-l} / (s - p)^l
    inverts to a_{-l} t^{l-1} e^{pt} / (l-1)!, returned as (coeff, rate,
    power) for ExponentialSum.
    """
    targets = clusters if targets is None else targets
    radii = []
    for centroid, _order, spread in targets:
        dists = [abs(centroid - c) for c, _o, _s in clusters if c != centroid]
        dist = min(dists, default=1.0)
        radii.append(max(0.3 * dist, 10.0 * spread))
        if dists and radii[-1] >= 0.5 * dist:
            raise IllConditionedPoles(
                f"cluster spread {spread:.2e} too close to neighbour at "
                f"distance {dist:.2e}")
    if not targets:
        return []
    rings = [centroid + radius * _RING for (centroid, *_), radius in zip(targets, radii)]
    samples = np.asarray(F(np.concatenate(rings)), dtype=complex)
    return [[(radius ** l * np.mean(row * _RING ** l) / math.factorial(l - 1), centroid, l - 1)
             for l in range(1, order + 1)]
            for (centroid, order, _s), radius, row
            in zip(targets, radii, samples.reshape(len(targets), CONTOUR_POINTS))]


def invert_rational(rf: RationalFunction) -> ExponentialSum:
    """Partial-fraction inversion of a strictly proper rational function.

    The poles are rf.den_factors; poles within 1e-8 relative distance are
    treated as one pole of higher multiplicity, and the principal parts of
    all such clusters come from one principal_parts call.  An isolated
    simple pole p takes the residue N(p) / prod_j (p - r_j)^{m_j} over the
    other roots: the product form of D'(p), which keeps the digits that
    expanding D and differentiating it loses when poles sit far off the
    real axis.  N(p) is evaluated exactly from the same double coefficients,
    by _poly_at in Fixed arithmetic with as many fractional bits as its
    terms carry, and rounded to complex128 once: a pole next to a root of N
    makes double-precision Horner cancel (1.6e-8 relative was seen).
    """
    clusters = cluster_poles(rf.den_factors)
    degree = len(rf.numerator) - 1
    num_bits = max(map(_frac_bits, rf.numerator))

    multiple = [c for c in clusters if c[1] > 1 or c[2]]
    parts = iter(principal_parts(rf, clusters, multiple))
    terms = []
    for centroid, order, spread in clusters:
        if order > 1 or spread:
            terms += next(parts)
            continue
        dprime = math.prod((centroid - r) ** m for r, m in rf.den_factors
                           if r != centroid)
        # a multiple of 64 bits, so that few Fixed classes are made
        bits = num_bits + degree * _frac_bits(centroid)
        kind = fixed_type(-(-bits // 64) * 64)
        num = complex(_poly_at(_grid_coeffs(kind, rf.numerator), kind(centroid)))
        terms.append((num / dprime, centroid, 0))
    return ExponentialSum(terms)


def _talbot_time(t):
    """t as a float, refused with InvalidArgument unless it is one finite
    real number > 0 (a str, None or an array is refused, not converted)."""
    array = _real_array(t, "t")
    if array.ndim or not 0 < array < np.inf:
        raise InvalidArgument(f"Talbot inversion needs one finite t > 0, got {t!r:.40}")
    return float(array)


def talbot_nodes_required(t, poles):
    """Node count keeping the fixed-Talbot contour outside the (pole,
    multiplicity) list's poles of large imaginary part at time t, with
    enough surplus to resolve the resulting oscillation of the integrand;
    32 without such poles.  t is refused as talbot_invert refuses it.

    The count 32 + ceil(3 t max|Im p| 5 / 2 pi) is rounded up to a multiple
    of 16, so that parameter sets with nearby t max|Im p| share one rung of
    this ladder, and with it one cached node table (see _talbot_rule).
    """
    t = _talbot_time(t)
    max_imag = max((abs(p.imag) for p, _m in poles), default=0.0)
    nodes = int(np.ceil(3.0 * t * max_imag * 5.0 / (2.0 * np.pi))) + 32
    return 16 * -(-nodes // 16)


# Fixed-Talbot nodes whose weight |w_k| is at most this are evaluated in one
# complex128 call instead of in Fixed arithmetic.  Each such term is below
# 1e-3 |F(z_k/t)|, and double arithmetic puts a few ulps on it (the weight
# picks up ~|Re z_k| ulps through e^{z_k}), so the light half adds an
# absolute error near 1e-18 of |F| on the contour.  That is below the last
# bit of f(t) unless f(t) is itself many orders smaller than F there; the
# heavy half is exact to ~1e-20 |F| or better.  At 32-250 nodes, 37-48 %
# of the nodes are light.
DOUBLE_WEIGHT = 1e-3
# Fixed bits beyond the working precision: the heavy-node table carries
# ceil(dps log2 10) + GUARD_BITS fractional bits, and talbot_invert adds the
# bits that |F| at the heavy nodes lacks of 1.
GUARD_BITS = 64


@functools.lru_cache(maxsize=32)
def _talbot_rule(nodes, dps):
    """The t-independent part of the fixed-Talbot rule at `dps` digits.

    With r = 2*nodes/5 and theta_k = pi k/nodes, the nodes z_k = s_k t of the
    upper contour half are z_k = r theta_k (cot theta_k + i) (z_0 = r), with
    weights w_k = e^{z_k} (1 + i(theta_k (1 + cot^2 theta_k) - cot theta_k))
    (w_0 = e^r / 2).  All weights are first computed in double precision to
    split the rule: returns (z, w, zd, wd, zh), the nodes with |w_k| >
    DOUBLE_WEIGHT as tuples of Fixed (computed by mpmath at `dps` digits and
    put on a grid of ceil(dps log2 10) + GUARD_BITS fractional bits in the
    same pass), the rest as read-only complex128 arrays, and z rounded to
    a read-only complex128 array for talbot_invert's array call.  Double nodes
    whose weight underflows to 0 are dropped.  32 tables are kept for the
    life of the process: every rung of talbot_nodes_required's ladder from
    32 to 528 nodes, so the tables are built once and shared by every
    parameter set and time (a 288-node table holds about 70 KB).
    """
    import mpmath
    k = np.arange(1, nodes)
    theta = np.pi * k / nodes
    # cot theta_k from a well-conditioned tangent: tan(pi/2 - theta_k) in
    # the middle quarters, 1/tan of theta_k or of theta_k - pi near the ends.
    # Rounding theta_k itself would put |Im z_k| ulps into e^{z_k}.
    cot = np.where(2 * np.abs(nodes - 2 * k) <= nodes,
                   np.tan(np.pi * (nodes - 2 * k) / (2 * nodes)),
                   1 / np.tan(np.pi * np.where(2 * k < nodes, k, k - nodes) / nodes))
    shape = theta * (1 + cot ** 2) - cot
    # Im z_k = r theta_k = 2 pi k / 5, so e^{i Im z_k} is taken from the
    # reduced angle: rounding Im z_k itself (up to ~1e3) would cost the
    # weight ~1e-13 of its phase.
    im = 2 * np.pi * k / 5
    zd = im * cot + 1j * im
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mag = np.exp(zd.real) * np.hypot(1.0, shape)
        wd = np.exp(zd.real) * np.exp(2j * np.pi * (k % 5) / 5) * (1 + 1j * shape)
    double = mag <= DOUBLE_WEIGHT
    live = double & (wd != 0)
    zd, wd = zd[live], wd[live]
    zd.setflags(write=False)
    wd.setflags(write=False)
    kind = fixed_type(math.ceil(dps * math.log2(10)) + GUARD_BITS)
    with mpmath.workdps(dps):
        r = mpmath.mpf(2 * nodes) / 5
        z = [kind(r)]
        w = [kind(mpmath.exp(r) / 2)]
        for k in np.flatnonzero(~double) + 1:
            theta = mpmath.pi * int(k) / nodes
            cos, sin = mpmath.cos_sin(theta)
            cot = cos / sin
            zk = r * theta * mpmath.mpc(cot, 1)
            z.append(kind(zk))
            w.append(kind(mpmath.exp(zk) * mpmath.mpc(1, theta * (1 + cot ** 2) - cot)))
    zh = np.array([complex(zk) for zk in z])
    zh.setflags(write=False)
    return tuple(z), tuple(w), zd, wd, zh


def talbot_invert(F, t, nodes=32):
    """Inverse Laplace transform at a single finite t > 0 by the fixed-Talbot
    rule.

    The contour parameter is r = 2*nodes/5; rounding amplification grows
    like exp(r), so the working precision is raised with the node count,
    to 20 + ceil(0.19 nodes) digits.  The original f(t) is assumed real,
    i.e. F(conj s) = conj F(s): only the upper contour half is sampled.  For
    transforms with poles far off the real axis the node count must grow
    (see talbot_nodes_required), both to keep the contour outside the poles
    and to resolve the oscillation they imprint.

    F is called in two ways and must support both.  First, once with a
    complex128 array holding every node (one value per element).  The light
    nodes, whose weight is at most DOUBLE_WEIGHT, lie far into the left
    half-plane, where each weighted term is below 1e-3 |F|; their sum in
    double adds an absolute error near 1e-18 of |F| on the contour, which
    does not shrink with f(t) (see DOUBLE_WEIGHT).  A non-finite value there
    raises NonFiniteTransform rather than being summed.  Then once per heavy
    node with a Fixed scalar s, returning a Fixed, or an int, float or
    complex.  The Fixed grid has ceil(dps log2 10) + GUARD_BITS fractional
    bits plus the bits that max |F| over the heavy nodes, read from the
    array call, lacks of 1, so that scaling F scales f(t) without losing
    digits.  The terms Re(w_k F(s_k)) are added as one exact integer and
    f(t) is rounded to a double once.

    The nodes z_k = s_k t and weights w_k do not depend on t; they come from
    a table cached per (nodes, dps) for the life of the process (see
    _talbot_rule), so a call costs one array call, and one division
    z_k / t, one F evaluation and one product per heavy node.  The weights
    stay on the table's grid: the sum of their products with values on a
    finer grid is exact at the sum of both precisions.  `nodes` must
    be an integer of at least 32, the rule's documented floor, and t one
    finite real number > 0 (InvalidArgument otherwise).
    """
    t = _talbot_time(t)
    try:
        nodes = operator.index(nodes)
    except TypeError:
        raise InvalidArgument(
            f"talbot_invert requires an integer node count, got {nodes!r}") from None
    if nodes < 32:
        raise InvalidArgument(f"talbot_invert requires at least 32 nodes, got {nodes}")
    dps = 20 + int(np.ceil(0.19 * nodes))
    z, w, zd, wd, zh = _talbot_rule(nodes, dps)
    values = np.asarray(F(np.concatenate([zh, zd]) / t), dtype=complex)
    heavy, values = values[:len(z)], values[len(z):]
    if not np.all(np.isfinite(values)):
        raise NonFiniteTransform(
            f"transform is not finite at {np.sum(~np.isfinite(values))} "
            f"of {len(zd)} double-precision Talbot nodes (t = {t:g})")
    light = float(np.sum((wd * values).real))
    # the grid gains the bits that max |F| at the heavy nodes lacks of 1,
    # in steps of 32 so that few Fixed classes are made
    scale = np.max(np.abs(heavy[np.isfinite(heavy)]), initial=0.0)
    extra = max(0, -math.frexp(scale)[1])
    kind = fixed_type(z[0].prec + 32 * -(-extra // 32))
    # s_k = z_k / t on the finer grid, as kind(z_k) / kind(t) rounds it
    tk, shift = kind(t).re, 2 * kind.prec - z[0].prec
    total = 0
    for zk, wk in zip(z, w):
        value = F(_make(kind, (zk.re << shift) // tk, (zk.im << shift) // tk))
        if type(value) is not kind:
            try:
                value = kind(value)
            except (OverflowError, ValueError) as exc:
                raise NonFiniteTransform(
                    f"transform is not finite at a Talbot node (t = {t:g})") from exc
        total += wk.re * value.re - wk.im * value.im
    # f(t) = 2 (total / 2^p2 + light) / (5 t), rounded once
    p2 = z[0].prec + kind.prec
    num, den = light.as_integer_ratio()
    tn, td = t.as_integer_ratio()
    return 2 * td * (total * den + (num << p2)) / (5 * tn * den << p2)


def talbot_invert_rf(rf: RationalFunction, t):
    """Talbot inversion of a rational function, choosing nodes from its poles.

    The heavy nodes run _fixed_ratio's _poly_at on Fixed copies of the
    double coefficients, made once per function and Fixed class (exact
    unless a coefficient has more fractional bits than the grid); the array
    of all nodes goes through RationalFunction.__call__ at complex128.
    """
    def F(s):
        return rf(s) if isinstance(s, np.ndarray) else rf._exact(s)

    return talbot_invert(F, t, nodes=talbot_nodes_required(t, rf.den_factors))
