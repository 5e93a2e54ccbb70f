"""Laplace-domain utilities: rational functions, exponential sums, and two
independent inversion engines (partial fractions and fixed-Talbot quadrature).

Polynomial coefficient arrays are ascending complex ndarrays (c[0] + c[1] s
+ ...), the convention of numpy.polynomial, which supplies all polynomial
arithmetic here: polyfromroots builds denominators from their roots, polyval
evaluates, polyroots solves a denominator given only as coefficients.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyfromroots, polyroots, polyval
# mpmath is imported inside the functions that need it, so that the exact
# dynamics (import cascade4, g2, scan_tau_d) never loads it.

from .errors import IllConditionedPoles, InvalidArgument, NonFiniteTransform

CLUSTER_TOL = 1e-8
CLUSTER_TOL_UPPER = 1e-6
CLUSTER_SCALE_FLOOR = 1e-2


def _trim(c, rel=1e-13):
    c = np.asarray(c, dtype=complex)
    scale = np.max(np.abs(c)) if len(c) else 0.0
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) <= rel * scale:
        keep -= 1
    return c[:keep].copy()


def _realify(c, rel=1e-10):
    # Coefficients assembled from conjugate-paired numeric roots pick up tiny
    # imaginary residue; snapping it to zero keeps F(conj s) = conj F(s)
    # exact, which the one-sided Talbot fold relies on.
    scale = np.max(np.abs(c))
    if scale > 0.0 and np.max(np.abs(c.imag)) <= rel * scale:
        return c.real.astype(complex)
    return c


@dataclass(frozen=True)
class RationalFunction:
    """Strictly proper rational function N(s)/D(s), monic denominator.

    `den_factors`, when present, lists the denominator roots with
    multiplicities (exact product form), which lets the inversion skip the
    polyroots solve.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    provenance: str = ""
    den_factors: tuple = None  # ((root, multiplicity), ...) or None

    @classmethod
    def make(cls, numerator, denominator, provenance="", den_factors=None):
        num = _realify(_trim(numerator))
        den = _realify(_trim(denominator))
        if len(den) < 2:
            raise InvalidArgument("denominator must have degree >= 1")
        if len(num) >= len(den):
            raise InvalidArgument(
                f"rational function must be strictly proper "
                f"(deg N = {len(num)-1}, deg D = {len(den)-1})")
        lead = den[-1]
        num = num / lead
        den = den / lead
        if den_factors is not None:
            den_factors = tuple((complex(r), int(m)) for r, m in den_factors)
        return cls(numerator=num, denominator=den, provenance=provenance,
                   den_factors=den_factors)

    @classmethod
    def from_factors(cls, numerator, factors, provenance=""):
        """Build from numerator coefficients and denominator roots."""
        roots = []
        for r, m in factors:
            roots.extend([r] * m)
        return cls.make(numerator, polyfromroots(roots), provenance,
                        den_factors=factors)

    def __call__(self, s):
        return polyval(s, self.numerator) / polyval(s, self.denominator)

    def degree(self):
        return len(self.numerator) - 1, len(self.denominator) - 1

    def initial_value(self):
        """lim s->inf of s F(s) = f(0+)."""
        dn, dd = self.degree()
        if dn + 1 == dd:
            return self.numerator[-1] / self.denominator[-1]
        return 0.0 + 0.0j

    def max_imag_pole(self):
        return max(abs(p.imag) for p in self.poles())

    def poles(self):
        if self.den_factors is not None:
            return [complex(r) for r, m in self.den_factors for _ in range(m)]
        return list(polyroots(self.denominator))


def _cluster(points, rel_tol):
    """Single-linkage clusters of complex points at a relative tolerance."""
    points = list(points)
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            scale = max(abs(points[i]), abs(points[j]), CLUSTER_SCALE_FLOOR)
            if abs(points[i] - points[j]) <= rel_tol * scale:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(frozenset(g) for g in groups.values())


def cluster_poles(poles, multiplicities=None):
    """Group near-coincident poles; raise if the grouping is ambiguous.

    Ambiguity means the partition changes somewhere between relative
    tolerance 1e-8 and 1e-6 -- the caller cannot tell a repeated pole from a
    close pair, so guessing is refused.
    """
    poles = [complex(p) for p in poles]
    if multiplicities is None:
        multiplicities = [1] * len(poles)
    low = _cluster(poles, CLUSTER_TOL)
    high = _cluster(poles, CLUSTER_TOL_UPPER)
    if low != high:
        raise IllConditionedPoles(
            "pole clustering differs between tolerances 1e-8 and 1e-6")
    clusters = []
    for group in low:
        members = sorted(group)
        weight = sum(multiplicities[i] for i in members)
        centroid = sum(poles[i] * multiplicities[i] for i in members) / weight
        spread = max(abs(poles[i] - centroid) for i in members)
        clusters.append((centroid, weight, spread))
    return clusters


@dataclass(frozen=True)
class ExponentialSum:
    """f(t) = sum_k  coeff_k * t^power_k * exp(rate_k t), real-valued on t>=0."""

    terms: tuple  # of (coeff complex, rate complex, power int)
    provenance: str = ""

    IMAG_TOL = 1e-10

    def eval_complex(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape, dtype=complex)
        for coeff, rate, power in self.terms:
            term = coeff * np.exp(rate * ts)
            if power:
                term = term * ts ** power
            out += term
        return out

    def __call__(self, ts):
        vals = self.eval_complex(ts)
        if not vals.size:
            return vals.real
        scale = max(1.0, np.max(np.abs(vals)))
        if np.max(np.abs(vals.imag)) > self.IMAG_TOL * scale:
            raise ArithmeticError(
                "exponential sum is not real on t >= 0 "
                f"(imag defect {np.max(np.abs(vals.imag)):.2e})")
        return vals.real

    def scaled(self, factor):
        return ExponentialSum(
            terms=tuple((c * factor, r, p) for c, r, p in self.terms),
            provenance=self.provenance)

    def value_at_zero(self):
        return sum(c for c, _r, p in self.terms if p == 0)

    def constant_term(self):
        return sum(c for c, r, p in self.terms if p == 0 and abs(r) < 1e-12)

    def significant_rates(self, rel=1e-9):
        scale = max((abs(c) for c, _r, _p in self.terms), default=0.0)
        return sorted({(round(r.real, 9), round(abs(r.imag), 9))
                       for c, r, _p in self.terms if abs(c) > rel * scale})


# Trapezoid nodes on each Laurent-coefficient circle.
CONTOUR_POINTS = 64


def laurent_coefficients(F, pole, order, radius):
    """Principal-part coefficients a_{-1} .. a_{-order} of F about `pole`.

    Trapezoid rule on a circle of `radius` with CONTOUR_POINTS nodes;
    spectrally accurate while the nearest other singularity stays well
    outside the contour.  F must accept a complex array and return its
    values elementwise: the whole ring is sampled in one call.
    """
    theta = 2.0 * np.pi * np.arange(CONTOUR_POINTS) / CONTOUR_POINTS
    ring = np.exp(1j * theta)
    samples = np.asarray(F(pole + radius * ring), dtype=complex)
    coeffs = []
    for l in range(1, order + 1):
        coeffs.append(radius ** l * np.mean(samples * ring ** l))
    return coeffs


def principal_terms(coeffs, pole):
    """Time-domain terms of the principal part sum_l a_{-l} / (s - pole)^l,
    coeffs = (a_{-1}, a_{-2}, ...): each inverts to a_{-l} t^{l-1} e^{pt} /
    (l-1)!, returned as (coeff, rate, power) for ExponentialSum."""
    return [(a / math.factorial(l - 1), pole, l - 1)
            for l, a in enumerate(coeffs, start=1)]


def invert_rational(rf: RationalFunction) -> ExponentialSum:
    """Partial-fraction inversion of a strictly proper rational function.

    Denominator roots come from polyroots (or the stored factor list);
    roots within 1e-8 relative distance are treated as one pole of higher
    multiplicity, whose principal part becomes principal_terms.  An isolated
    simple pole p takes the residue N(p) / prod_j (p - r_j)^{m_j} over the
    other roots: the product form of D'(p), which keeps the digits that
    expanding D and differentiating it loses when poles sit far off the real
    axis.  N(p) is evaluated at 106 bits from the same double coefficients,
    since a pole next to a root of N makes double-precision Horner cancel
    (1.6e-8 relative was seen).
    """
    import mpmath
    if rf.den_factors is not None:
        raw = [r for r, _m in rf.den_factors]
        mult = [m for _r, m in rf.den_factors]
    else:
        raw = list(polyroots(rf.denominator))
        mult = [1] * len(raw)
    clusters = cluster_poles(raw, mult)
    with mpmath.workprec(53):     # exact for double coefficients
        num_mp = [mpmath.mpc(c) for c in rf.numerator[::-1]]

    terms = []
    for centroid, order, spread in clusters:
        others = [c for c, _o, _s in clusters if c is not centroid and c != centroid]
        dist = min((abs(centroid - c) for c in others), default=1.0)
        if order == 1 and spread == 0.0:
            dprime = math.prod((centroid - r) ** m for r, m in zip(raw, mult)
                               if r != centroid)
            with mpmath.workprec(106):
                num = complex(mpmath.polyval(num_mp, centroid))
            res = num / dprime
            terms.append((res, centroid, 0))
            continue
        radius = 0.3 * dist
        if spread > 0.0:
            radius = max(radius, 10.0 * spread)
        if radius >= 0.5 * dist and others:
            raise IllConditionedPoles(
                f"cluster spread {spread:.2e} too close to neighbour at "
                f"distance {dist:.2e}")
        terms += principal_terms(
            laurent_coefficients(rf, centroid, order, radius), centroid)
    return ExponentialSum(terms=tuple(terms), provenance=rf.provenance)


def talbot_nodes_required(t, max_imag):
    """Node count keeping the fixed-Talbot contour outside poles with large
    imaginary part (|Im p| up to max_imag) at time t, with enough surplus to
    resolve the resulting oscillation of the integrand; 32 without such
    poles."""
    if t <= 0 or max_imag <= 0:
        return 32
    return int(np.ceil(3.0 * t * max_imag * 5.0 / (2.0 * np.pi))) + 32


# Fixed-Talbot nodes whose weight |w_k| is at most this are evaluated in one
# complex128 call instead of at mpmath precision.  Each such term is below
# 1e-3 |F(z_k/t)|, and double arithmetic puts a few ulps on it (the weight
# picks up ~|Re z_k| ulps through e^{z_k}), so the light half adds an
# absolute error near 1e-18 of |F| on the contour.  That is below the last
# bit of f(t) unless f(t) is itself many orders smaller than F there; the
# all-mpmath sum is exact to ~1e-20 |F| or better.  At 32-250 nodes,
# 37-48 % of the nodes leave the mpmath half.
DOUBLE_WEIGHT = 1e-3


@functools.lru_cache(maxsize=4)
def _talbot_rule(nodes, dps):
    """The t-independent part of the fixed-Talbot rule at `dps` digits.

    With r = 2*nodes/5 and theta_k = pi k/nodes, the nodes z_k = s_k t of the
    upper contour half are z_k = r theta_k (cot theta_k + i) (z_0 = r), with
    weights w_k = e^{z_k} (1 + i(theta_k (1 + cot^2 theta_k) - cot theta_k))
    (w_0 = e^r / 2).  All weights are first computed in double precision to
    split the rule: returns (z, w, zd, wd), the nodes with |w_k| >
    DOUBLE_WEIGHT as mpmath tuples and the rest as read-only complex128
    arrays.  Double nodes whose weight underflows to 0 are dropped.  A few
    tables are kept, since the callers evaluate many transforms at the same
    handful of times.
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
    with mpmath.workdps(dps):
        r = mpmath.mpf(2 * nodes) / 5
        z = [mpmath.mpc(r)]
        w = [mpmath.exp(r) / 2]
        for k in np.flatnonzero(~double) + 1:
            theta = mpmath.pi * int(k) / nodes
            cos, sin = mpmath.cos_sin(theta)
            cot = cos / sin
            zk = r * theta * mpmath.mpc(cot, 1)
            z.append(zk)
            w.append(mpmath.exp(zk) * mpmath.mpc(1, theta * (1 + cot ** 2) - cot))
        return tuple(z), tuple(w), zd, wd


def talbot_invert(F, t, nodes=32, dps=None):
    """Inverse Laplace transform at a single t > 0 by the fixed-Talbot rule.

    The contour parameter is r = 2*nodes/5; rounding amplification grows
    like exp(r), so the working precision is raised with the node count
    (mpmath).  The original f(t) is assumed real, i.e. F(conj s) = conj
    F(s): only the upper contour half is sampled.  For transforms with poles
    far off the real axis the node count must grow (see
    talbot_nodes_required), both to keep the contour outside the poles and
    to resolve the oscillation they imprint.

    F is called in two ways and must support both: with an mpmath.mpc
    scalar (returning any scalar mpmath/complex type), once per node whose
    weight exceeds DOUBLE_WEIGHT, and once with a complex128 array holding
    every other node (returning one value per element).  The light nodes lie
    far into the left half-plane, where each weighted term is below 1e-3
    |F|; summing them in double adds an absolute error near 1e-18 of |F| on
    the contour, which does not shrink with f(t) (see DOUBLE_WEIGHT).  A
    non-finite value from the array call raises NonFiniteTransform rather
    than being summed.

    The nodes z_k = s_k t and weights w_k do not depend on t; they come from
    a small table cached per (nodes, dps), so a call costs one division
    z_k / t, one F evaluation and one product per mp node, and one array
    call for the rest.
    """
    import mpmath
    if t <= 0:
        raise InvalidArgument("talbot_invert requires t > 0")
    if dps is None:
        dps = 20 + int(np.ceil(0.19 * nodes))
    z, w, zd, wd = _talbot_rule(nodes, dps)
    with mpmath.workdps(dps):
        tmp = mpmath.mpf(t)
        total = mpmath.mpf(0)
        for zk, wk in zip(z, w):
            total += (wk * F(zk / tmp)).real
        if len(zd):
            values = np.asarray(F(zd / float(t)), dtype=complex)
            if not np.all(np.isfinite(values)):
                raise NonFiniteTransform(
                    f"transform is not finite at {np.sum(~np.isfinite(values))} "
                    f"of {len(zd)} double-precision Talbot nodes (t = {t:g})")
            total += float(np.sum((wd * values).real))
        return float(2 * total / (5 * tmp))


def talbot_invert_rf(rf: RationalFunction, t):
    """Talbot inversion of a rational function, choosing nodes from its poles.

    The mp nodes use mpmath.polyval on the coefficients converted to mpc
    once per call; the array of light nodes goes through
    RationalFunction.__call__ at complex128.
    """
    import mpmath
    with mpmath.workprec(53):     # exact for double coefficients
        num = [mpmath.mpc(c) for c in rf.numerator[::-1]]
        den = [mpmath.mpc(c) for c in rf.denominator[::-1]]

    def F(s):
        if isinstance(s, np.ndarray):
            return rf(s)
        return mpmath.polyval(num, s) / mpmath.polyval(den, s)

    return talbot_invert(F, t, nodes=talbot_nodes_required(t, rf.max_imag_pole()))
