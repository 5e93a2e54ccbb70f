"""Perturbative Laplace-domain solutions of the cascade master equation.

Two regimes: the rf drive treated to all orders with the optical drives kept
to second order (strong rf), and the converse (weak rf).  Both are read off
the exact packed generator dx/dt = A x + b.  Switching the regime's
perturbative drives off (omega1 and omega3 in strong rf, omega_rf in weak rf)
leaves A0, b0; the remainder A1 = A - A0, b1 = b - b0 is linear in those
drives.  With R0 = (s - A0)^-1 the transform of x expands as the Dyson chain

    y0 = R0 (x0 + b0/s),   y1 = R0 (A1 y0 + b1/s),   yk = R0 A1 y(k-1),

and term k is exactly order k in the perturbative drives.  The chain has
one term per entry of _split's drive list (b0, b1, 0), so that list alone
fixes the order at 2; everything below loops over the terms.  On resonance
A0 splits into small connected blocks (the real and imaginary parts of the
coherences separate), so an evaluation factors each block a term reaches
once and reuses the factors for every term.  Every step is analytic in s,
so the chain can be evaluated at any complex s (the contour residues and
the light Talbot nodes).

Every block, coupling and drive value is a double, hence dyadic, so a
population transform is also an exact ratio N(u) / D(u) of integer
polynomials in u = 2^E s, with E the most fractional bits of any of those
values: the same chain on integer characteristic polynomials and
adjugates of the scaled blocks (Faddeev-LeVerrier).  D is monic, of degree
the pole inventory's multiplicity sum.  The heavy fixed-Talbot nodes, at
ratfunc.Fixed s, are answered from it by ratfunc._poly_at.

A _Dyson coerces the regime and holds the parameters' split (_split
refuses detuning), including the full generator whose steady state gives
the g2 denominator.  The g2 paths take theirs from _dyson, a small cache
keyed by (params, regime, observable), so that a parameter set's analytic
sums and Talbot values share one chain, one steady state and one pole
inventory per observable, and one exact form per preparation (see
_Dyson.transform).  The pole inventory is read off its
chain: each block of A0 contributes its eigenvalues once per term that
solves it, and b/s adds the pole 0.  For a population that gives the
population block twice (order 0 and again around the loop) and the blocks
that A1 couples to it once.  The transcribed catalogue's denominator roots
are eigenvalues of principal sub-blocks of the same A0 (root_set).

The population rates entering these systems are the ones of the exact master
equation.  The published versions of the same systems halve the population
rates (and drop a few first-order source terms); those variants do not
converge to the exact dynamics and are kept only as documented cross-checks
(see validation's printed-form report).
"""

import collections
import enum
import functools
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Polynomial

from .correlations import DENOMINATOR_FLOOR, PAIR_TABLE, _steady_norm, _validate_pair
from .errors import InvalidArgument, NearPole, NonzeroDetuning, NotCatalogued, _real_scalar
from .model import (
    DIM,
    IM_R13,
    IM_R23,
    IM_R24,
    IM_R34,
    P22,
    P33,
    P44,
    RE_R12,
    RE_R14,
    RE_R23,
    STATE_LABELS,
    SystemParams,
    build_generator,
    prepare_state,
)
from .ratfunc import (
    _closure,
    _fixed_ratio,
    _frac_bits,
    _on_grid,
    ExponentialSum,
    Fixed,
    RationalFunction,
    cluster_poles,
    principal_parts,
    talbot_invert,
    talbot_nodes_required,
)


class Regime(enum.Enum):
    STRONG_RF = "strong_rf"
    WEAK_RF = "weak_rf"

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        key = str(value).lower()
        if key in ("strong", "strong_rf", "strongrf"):
            return cls.STRONG_RF
        if key in ("weak", "weak_rf", "weakrf"):
            return cls.WEAK_RF
        raise InvalidArgument(f"unknown regime {value!r}")


# Largest 1-norm condition number ||a||_1 ||a^-1||_1 of a block s - A0 that
# _factor accepts; on these blocks of at most 5x5 it is within a factor 5
# of the 2-norm condition number.
COND_LIMIT = 1e12


def _bars(params):
    return params.gamma2 / 2.0, params.gamma3 / 2.0, params.gamma4 / 2.0


# ---------------------------------------------------------------------------
# The Dyson chain on the split generator.
# ---------------------------------------------------------------------------

def _split(params, regime):
    """(full, A0, A1, drives): the full generator, A0 of the generator
    without its perturbative drives, the part A1 those drives add, and the
    drive constant b_k of each Dyson term: b0, then b1 = b - b0, then zero.
    The list's length is the number of terms, so it is the one place that
    sets the chain's order.  A detuned parameter set is refused with
    NonzeroDetuning."""
    if params.detuned:
        raise NonzeroDetuning("perturbative solutions assume all detunings zero")
    off = ({"omega1": 0.0, "omega3": 0.0} if regime is Regime.STRONG_RF
           else {"omega_rf": 0.0})
    full = build_generator(params)
    base = build_generator(replace(params, **off))
    b1 = full.b - base.b
    return full, base.A, full.A - base.A, (base.b, b1, 0 * b1)


@functools.cache
def _structure(regime):
    """(link, masks, blocks): the connected blocks of A0 and the support of
    each Dyson term, from a probe with every drive and transfer rate on.

    link[i, j] says components i and j share a block; masks[k] marks the
    blocks term k can reach from a population preparation and the drive
    constant.  A drive that is zero in the actual parameters only leaves
    exact zeros in these supports.  The result depends on the regime alone,
    so it is built once per regime; link and the masks are read-only.
    """
    probe = SystemParams(omega1=1.0, omega_rf=1.0, omega3=1.0, gamma24=1.0)
    _full, a0, a1, drives = _split(probe, regime)
    link, blocks = _closure((a0 != 0) | (a0 != 0).T | np.eye(DIM, dtype=bool))
    sources = np.isin(np.arange(DIM), (P22, P33, P44))
    masks = []
    for b in drives:      # term k is fed by A1 y_{k-1} + b_k / s
        masks.append(link[sources | (b != 0)].any(axis=0))
        sources = (a1[:, masks[-1]] != 0).any(axis=1)
    for array in (link, *masks):
        array.setflags(write=False)
    return link, tuple(masks), tuple(blocks)


def _factor(s, m):
    """Solver for (s - m) y = r at machine precision, at every s of an array.

    r is a sequence of components, each a scalar or shaped like s; the
    solution comes back the same way.  The condition check applies at each
    sample; the worst one is reported.
    """
    a = s[..., None, None] * np.eye(len(m)) - m
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise NearPole("singular hierarchy block at this s") from None
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.max(np.linalg.norm(a, 1, axis=(-2, -1))
                      * np.linalg.norm(inv, 1, axis=(-2, -1)))
    if not cond <= COND_LIMIT:
        raise NearPole(f"hierarchy block 1-norm condition {cond:.2e} exceeds 1e12")

    def solve(rhs):
        r = np.zeros(a.shape[:-1], dtype=complex)
        for j, v in enumerate(rhs):
            r[..., j] = v
        return np.moveaxis((inv @ r[..., None])[..., 0], -1, 0)

    return solve


def _char_adj(m, size):
    """(det(u - m), adj(u - m)) of an integer matrix m, by Faddeev-LeVerrier.

    det is an object array of its ascending Python-int coefficients, zero
    padded to `size`; adj lists the adjugate's coefficient matrices, adj[q]
    that of u^q.  The iterates M_k = m M_(k-1) + c_(n-k+1) are the
    coefficients of u^(n-k), and c_(n-k) = -tr(m M_k) / k divides exactly,
    since the characteristic polynomial of an integer matrix has integer
    coefficients.
    """
    n = len(m)
    det = np.zeros(size, dtype=object)
    det[n] = 1
    adj, mk, eye = [], 0 * m, np.eye(n, dtype=int).astype(object)
    for k in range(1, n + 1):
        mk = m @ mk + det[n - k + 1] * eye
        adj.insert(0, mk)
        det[n - k], rem = divmod(-np.trace(m @ mk), k)
        assert rem == 0, "inexact Faddeev-LeVerrier division"
    return det, adj


class _Dyson:
    """The Dyson chain of one parameter set in one regime: its terms y0, y1,
    ... (one per drive of _split) at any s, the transform of one population,
    and their pole inventory.

    Building one coerces the regime, splits the generator (which refuses
    detuning; the full one is kept as `generator`), lists the pole
    inventory and picks each term's support from _structure: `masks[k]`
    selects which of A0's `blocks` term k solves.  The last term covers
    every component it reaches, or with an `observable` (a population's
    label, InvalidArgument otherwise) only the block of that population,
    which is all its transform reads; `held` lists the terms whose support
    holds that population.

    Each term comes back as a DIM-long list of arrays shaped like s, a
    complex scalar or array, each block solved by _factor; any other s
    raises InvalidArgument.  The transform answers a ratfunc.Fixed s (the
    heavy fixed-Talbot nodes) from the chain's exact rational form instead
    (see _exact).
    """

    def __init__(self, params, regime, observable=None):
        self.regime = regime = Regime.coerce(regime)
        self.generator, a0, a1, drives = _split(params, regime)
        link, masks, blocks = _structure(regime)
        self.transforms = {}
        if observable is not None:
            if observable not in STATE_LABELS[P22:]:
                raise InvalidArgument(f"observable must be one of {list(STATE_LABELS[P22:])}")
            self.idx = STATE_LABELS.index(observable)
            masks = masks[:-1] + (link[self.idx],)
            self.held = [k for k, mask in enumerate(masks) if mask[self.idx]]
        blocks = [b for b in blocks if any(mask[b[0]] for mask in masks)]
        self.terms = [[b for b in blocks if mask[b[0]]] for mask in masks]
        # Per term k: the A1 entries (i, j, a) from term k-1's support into
        # term k's, and the entries (i, b) of its drive b_k.
        prevs = (np.zeros(DIM, dtype=bool),) + tuple(masks[:-1])
        couplings = [[(int(i), int(j), a1[i, j]) for i, j in zip(*np.nonzero(a1))
                      if mask[i] and prev[j]] for prev, mask in zip(prevs, masks)]
        drives = [[(int(i), b[i]) for i in np.flatnonzero(b)] for b in drives]
        self.data = ({b[0]: a0[np.ix_(b, b)] for b in blocks}, couplings, drives)
        solved = collections.Counter(b[0] for term in self.terms for b in term)
        self._poles = [(0.0 + 0.0j, 1)] + [(z, m) for key, m in solved.items()
                                           for z in np.linalg.eigvals(self.data[0][key])]

    def poles(self):
        """(pole, multiplicity) inventory of the terms, listed once when the
        chain is built: each block of A0 contributes its eigenvalues once
        per term that solves it, listed at the first such term, after the
        pole 0 of b/s.  Each call returns a fresh list."""
        return list(self._poles)

    def transform(self, init_level):
        """F(s) of the observable's population from |init_level>: the sum of
        the terms that hold it (`held`; populations have no odd-order part),
        started from the first of them, not from 0, so that a -0.0 keeps its
        sign.  At a Fixed s it is _exact's N(u) / D(u), built on the first
        such call.  One closure per preparation is kept in `transforms`, so
        that every caller of this instance shares its exact form."""
        x0, idx = prepare_state(init_level), self.idx
        if init_level in self.transforms:
            return self.transforms[init_level]
        exact = functools.cache(lambda: _fixed_ratio(*self._exact(x0)))

        def F(s):
            if isinstance(s, Fixed):
                return exact()(s)
            ys = self(s, x0)
            return functools.reduce(np.add, (ys[k][idx] for k in self.held))

        self.transforms[init_level] = F
        return F

    def _exact(self, x0):
        """(num, den, shift): the observable's transform from a basis state
        x0 as an exact ratio of integer polynomials in u = 2**shift s,
        F(s) = num(u) / den(u), with ascending Python-int coefficients.

        Every block, coupling and drive value is a double, so it is an
        integer once scaled by 2**shift, where shift is the most fractional
        bits any of them has.  With those integers m, a block's resolvent is
        (s - M)^-1 = 2**shift adj(u - m) / det(u - m) (_char_adj), A1 R0
        loses the scale and b/s = 2**shift b / u.  The chain then runs as
        __call__ does, on numerators over the common denominator
        u P0 P1 ... Pn, where P_k is the product of det(u - m) over the
        blocks term k solves; term k, over u P0 .. P_k, enters the numerator
        times the P_j of the later terms.  So den is monic, of degree the
        multiplicity sum of poles(), and its roots are 2**shift times those
        poles.
        """
        blocks, couplings, drives = self.data
        values = [*np.concatenate([m.ravel() for m in blocks.values()]),
                  *(a for c in couplings for *_, a in c),
                  *(b for d in drives for _, b in d)]
        shift = max(map(_frac_bits, values))
        size = 2 + sum(len(b) for term in self.terms for b in term)
        scaled = np.vectorize(_on_grid, otypes=[object])
        chars = {key: _char_adj(scaled(m, shift), size) for key, m in blocks.items()}

        def poly(*coeffs):
            return np.array(coeffs + (0,) * (size - len(coeffs)), dtype=object)

        def mul(*polys):
            out = poly(1)
            for p in polys:
                out = np.convolve(out, p)[:size]
            return out

        # x0 + b0/s is (u x0 + 2**shift b0) / u; y_k is over u P0 .. P_k
        ys, ps = [], []
        rhs = collections.defaultdict(poly, {i: poly(0, int(v)) for i, v in enumerate(x0) if v})
        for term, coupling, drive in zip(self.terms, couplings, drives):
            for i, j, a in coupling:
                rhs[i] += _on_grid(a, shift) * ys[-1][j]
            for i, b in drive:
                rhs[i] += _on_grid(b, shift) * mul(*ps)
            y = {}
            for idx in term:      # adj(u - m) rhs times the other blocks' det
                others = mul(*(chars[o[0]][0] for o in term if o is not idx))
                r = np.array([mul(others, rhs[j]) for j in idx])
                block = 0 * r
                for q, coeff in enumerate(chars[idx[0]][1]):
                    block[:, q:] += (coeff @ r)[:, :size - q]
                y.update(zip(idx, block))
            ys.append(y)
            ps.append(mul(*(chars[b[0]][0] for b in term)))
            rhs = collections.defaultdict(poly)
        num = sum(mul(ys[k][self.idx], *ps[k + 1:]) for k in self.held)   # exact ints
        return num * (1 << shift), mul(poly(0, 1), *ps), shift

    def __call__(self, s, x0):
        if not isinstance(s, (complex, float, int, np.ndarray, np.number)):
            raise InvalidArgument(
                f"s must be a complex scalar or a numpy array, got {type(s).__name__}")
        s = np.asarray(s, dtype=complex)
        if np.any(s == 0):
            raise NearPole("the drive term b/s has its pole at s = 0")
        blocks, couplings, drives = self.data
        solvers = {key: _factor(s, m) for key, m in blocks.items()}
        ys, rhs = [], x0.tolist()
        for term, coupling, drive in zip(self.terms, couplings, drives):
            for i, j, a in coupling:
                rhs[i] += a * ys[-1][j]
            for i, b in drive:
                rhs[i] += b / s
            y = [0] * DIM
            for idx in term:      # R0 rhs, block by block
                for i, v in zip(idx, solvers[idx[0]]([rhs[i] for i in idx])):
                    y[i] = v
            ys.append(y)
            rhs = [0] * DIM
        return ys


@functools.lru_cache(maxsize=4)
def _dyson(params, regime, observable):
    """_Dyson(params, regime, observable) for a coerced regime, kept for the
    last four such keys: one op of the g2 paths reads two observables of one
    parameter set.  Unbounded, every parameter set's chain and exact forms
    would stay alive."""
    return _Dyson(params, regime, observable)


# ---------------------------------------------------------------------------
# Root sets: numerically exact block roots plus the published closed forms.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSet:
    """Denominator roots (pole convention: decaying means Re <= 0).

    Each group is ordered by real part, with real parts that agree to 1e-9
    of the group's largest modulus taken as equal, then by imaginary part.
    `printed` carries the closed-form values from the source text evaluated
    verbatim, printed[group][i] being the one that a greedy matching (each
    printed value in turn takes the nearest numeric root left) assigns to
    roots[group][i]; `mismatch` is the largest distance of a matched pair.
    The quadratic closed form is exact; the cubic/quartic printed
    expressions are dimensionally inconsistent and the mismatch is
    reported, not hidden.
    """

    quadratic: np.ndarray   # strong: alpha_{1,2}; weak: alpha-bar analogues
    cubic: np.ndarray       # strong: alpha_{3..5}; weak: alpha-bar_{3..5}
    quartic: np.ndarray     # weak only: alpha-bar_{6..9}; empty for strong
    printed: dict

    @property
    def mismatch(self):
        return {group: float(np.max(np.abs(values - getattr(self, group))))
                for group, values in self.printed.items()}


def _printed_cubic(bar_sum, orf):
    """The closed-form cubic roots exactly as published (known to be
    dimensionally inconsistent; kept for the discrepancy report).  The
    formula divides by alpha, which vanishes with the drive orf: there it
    is undefined and every value is nan."""
    inner = 324.0 * bar_sum ** 2 * orf ** 4 + 6912.0 * orf ** 6
    alpha = 3.0 ** (1 / 3) * (3.0 * orf ** 2 * bar_sum
                              + np.sqrt(inner) / 6.0) ** (1 / 3)
    if alpha == 0.0:
        return np.full(3, complex(np.nan, np.nan))
    a3 = -2.0 * bar_sum / (3.0 * alpha) - 4.0 * orf ** 2 + alpha / 3.0
    a4 = (-2.0 * bar_sum / (3.0 * alpha)
          + 12.0 * (1 + 1j * np.sqrt(3.0)) * orf ** 2
          - (1 - 1j * np.sqrt(3.0)) / alpha)
    a5 = (-2.0 * bar_sum / (3.0 * alpha)
          + 12.0 * (1 - 1j * np.sqrt(3.0)) * orf ** 2
          - (1 + 1j * np.sqrt(3.0)) / alpha)
    return np.array([a3, a4, a5])


def _sorted_roots(z):
    """z by real part rounded to 1e-9 of its largest modulus, then by
    imaginary part: real parts that tie up to rounding do not order it."""
    z = np.asarray(z, dtype=complex)
    step = 1e-9 * (np.max(np.abs(z), initial=0.0) or 1.0)
    return z[np.lexsort((z.imag, np.round(z.real / step)))]


def _matched(numeric, printed):
    """printed reordered to match numeric: each printed value in turn takes
    the nearest numeric root not yet taken."""
    free = list(range(len(numeric)))
    out = np.empty(len(numeric), dtype=complex)
    for p in printed:
        k = free.pop(int(np.argmin([abs(p - numeric[i]) for i in free])))
        out[k] = p
    return out


@functools.lru_cache(maxsize=16)
def _root_groups(params, regime):
    """(quadratic, cubic, quartic): root_set's numeric roots of one
    parameter set in one coerced regime, as read-only arrays.  Cached, so
    that the catalogue entries of one parameter set share one computation
    (a _split and the block eigenvalue problems)."""
    a0 = _split(params, regime)[1]
    b2 = _bars(params)[0]

    def block_roots(*idx):
        return _sorted_roots(np.linalg.eigvals(a0[np.ix_(idx, idx)]))

    if regime is Regime.STRONG_RF:
        # The published d2 is det(s - 2B) for A0's (Re rho12, Im rho13)
        # block B = [[-b2, -O_rf], [O_rf, -b3]]; doubling is exact.  At
        # omega3 = 0 nothing feeds rho44, so A0's population block is
        # triangular: the cubic d3 plus the root -gamma4.
        groups = (2 * block_roots(RE_R12, IM_R13), block_roots(IM_R23, P22, P33),
                  np.array([], dtype=complex))
    else:
        # d2' stays the published s^2 + 2 b2 s + b2^2 + 4 O1^2: no A0 block
        # carries it (A0's rho22 / Im rho12 pair has the roots
        # -3 b2 / 2 +- i sqrt(4 O1^2 - b2^2 / 4)).  At omega_rf = 0, rho22
        # and Im rho12 feed nothing back into (Im rho34, rho33, rho44), so
        # that sub-block gives the cubic; the quartic is A0's odd coherence
        # block.
        groups = (_sorted_roots(np.roots([1.0, 2 * b2, b2 ** 2 + 4 * params.omega1 ** 2])),
                  block_roots(IM_R34, P33, P44),
                  block_roots(RE_R23, IM_R13, RE_R14, IM_R24))
    for array in groups:
        array.setflags(write=False)
    return groups


def root_set(params: SystemParams, regime) -> RootSet:
    regime = Regime.coerce(regime)
    roots = dict(zip(("quadratic", "cubic", "quartic"), _root_groups(params, regime)))
    p = params
    b2, b3, b4 = _bars(p)
    if regime is Regime.STRONG_RF:
        phi = np.sqrt(complex(4 * p.omega_rf ** 2 - (b2 - b3) ** 2))
        printed = {"quadratic": _sorted_roots([-b2 - b3 + 1j * phi,
                                               -b2 - b3 - 1j * phi]),
                   "cubic": _printed_cubic(b2 + b3, p.omega_rf)}
    else:
        o1, o3 = p.omega1, p.omega3
        phi1 = np.sqrt(complex(4 * o1 ** 2 - b2 ** 2))
        phi2 = np.sqrt(complex(4 * o3 ** 2 - (b3 - b4) ** 2))
        phi3 = (4 * (o1 ** 2 + o3 ** 2)
                - (b2 ** 2 + b3 ** 2 + b4 ** 2 - 2 * b3 * b4))
        ssum = b2 + b3 + b4
        printed = {
            "quadratic": _sorted_roots([-b2 + 2j * o1, -b2 - 2j * o1]),
            "cubic": _printed_cubic(b3 + b4, o3),
            "quartic": _sorted_roots([
                -ssum - np.sqrt(complex(phi3 + 2 * phi1 * phi2)),
                -ssum + np.sqrt(complex(phi3 + 2 * phi1 * phi2)),
                -ssum - 1j * np.sqrt(complex(phi3 - 2 * phi1 * phi2)),
                -ssum + 1j * np.sqrt(complex(phi3 - 2 * phi1 * phi2)),
            ])}
    printed = {group: _matched(roots[group], values)
               for group, values in printed.items()}
    return RootSet(**roots, printed=printed)


# ---------------------------------------------------------------------------
# Assembled exponential sums (contour residues of the chained solution).
# ---------------------------------------------------------------------------

ANALYTIC_PAIRS = ((1, 1), (3, 3), (3, 1))


def _g2_source(params, regime, pair, ss=None):
    """(init level, chain, denominator) of one analytic g2 pair: the
    preparation read from correlations.PAIR_TABLE and the cached _dyson
    chain of the pair's observable.

    The denominator is the observable's steady state under the full
    generator of the chain's split, refused like correlations.g2's, unless
    one is passed in; a passed one must be one finite real number of at
    least correlations.DENOMINATOR_FLOOR.
    """
    pair = _validate_pair(pair, ANALYTIC_PAIRS)
    init_level, idx = PAIR_TABLE[pair]
    dyson = _dyson(params, Regime.coerce(regime), STATE_LABELS[idx])
    if ss is None:
        return init_level, dyson, float(_steady_norm(dyson.generator, pair))
    return init_level, dyson, _real_scalar(ss, "denominator ss", DENOMINATOR_FLOOR, closed=True)


def analytic_g2_sum(params: SystemParams, regime, pair):
    """Exponential sum for g2, scaled by the correlation denominator.

    The numerator transient comes from the second-order hierarchy: the
    contour residues of the observable's transform at the chain's pole
    inventory, all taken by one ratfunc.principal_parts call.  The
    steady-state denominator is taken from the full generator.  The
    populations' own perturbative limits truncate at different orders
    (rho44's steady state is fourth order in the weak drives and vanishes
    from the hierarchy entirely), so the denominator of the correlation
    definition is the one quantity the analytic form must import.
    """
    init_level, dyson, ss = _g2_source(params, regime, pair)
    parts = principal_parts(dyson.transform(init_level), cluster_poles(dyson.poles()))
    return ExponentialSum([t for part in parts for t in part]).scaled(1.0 / ss), ss


def talbot_g2_value(params: SystemParams, regime, pair, tau, ss=None):
    """g2 at one delay via Talbot inversion of the hierarchy (no residues).

    The light Talbot nodes evaluate the Dyson chain on one complex128 array;
    each heavy node evaluates the transform's exact integer N(u) / D(u) in
    fixed point (see _Dyson._exact).  The node count comes from the chain's
    pole inventory.  The chain and its exact form are shared with the
    parameter set's other g2 calls (see _dyson).
    """
    init_level, dyson, ss = _g2_source(params, regime, pair, ss)
    nodes = talbot_nodes_required(tau, dyson.poles())
    return talbot_invert(dyson.transform(init_level), tau, nodes=nodes) / ss


# ---------------------------------------------------------------------------
# The transcribed Laplace-space catalogue (verbatim structure; numeric
# denominator roots where the printed root formulas are unusable).
# ---------------------------------------------------------------------------

APPENDIX_CATALOGUE = (
    (Regime.STRONG_RF, 3, "rho22"),
    (Regime.STRONG_RF, 3, "rho33"),
    (Regime.STRONG_RF, 2, "rho22"),
    (Regime.STRONG_RF, 1, "rho22"),
    (Regime.WEAK_RF, 3, "rho22"),
    (Regime.WEAK_RF, 3, "rho33"),
    (Regime.WEAK_RF, 3, "rho44"),
    (Regime.WEAK_RF, 2, "rho22"),
    (Regime.WEAK_RF, 1, "rho22"),
)


def appendix_rational(params: SystemParams, regime, init_level,
                      observable) -> RationalFunction:
    """One catalogued Laplace-space solution, transcribed as published.

    The scalar structure (numerators, helper fractions C1..C3) follows the
    source text verbatim, including its literal unit transfer rates; the
    denominators d2/d3/d4 and their weak-rf analogues are products over the
    corresponding block roots computed numerically.  Numerators are written
    in numpy Polynomial arithmetic on s = Polynomial([0, 1]), so each reads
    as the printed formula; denominators enter as root lists (den_factors),
    and the d2/d3/d4 that numerators contain come from Polynomial.fromroots
    over the same roots.  One deviation: the
    published rho22 solution for the |2> preparation carries its
    initial-condition term with a minus sign, which would invert at t=0 to
    -1 instead of the prepared population; the sign is corrected here and
    the difference is reported by the validation suite.
    """
    regime = Regime.coerce(regime)
    quadratic, cubic, quartic = _root_groups(params, regime)    # refuses detuning
    key = (regime, init_level, observable)
    if key not in APPENDIX_CATALOGUE:
        raise NotCatalogued(f"no transcribed expression for {key}")
    p = params
    b2, b3, b4 = _bars(p)
    o1, o2, o3 = p.omega1, p.omega_rf, p.omega3  # Omega_2 == Omega_rf

    s = Polynomial([0.0, 1.0])

    def rf(num, poles):
        return RationalFunction.from_factors(num.coef, [(z, 1) for z in poles])

    if regime is Regime.STRONG_RF:
        d2_roots = list(quadratic)
        d3_roots = list(cubic)
        d4_roots = [z - b4 for z in quadratic]

        if init_level == 1:
            # 2 O1^2 [O2^2 + (s+b3)((s+b3+b2)(s+b3) + O2^2)] / (s d2 d3)
            num = 2 * o1 ** 2 * (o2 ** 2 + (s + b3) * ((s + b2 + b3) * (s + b3)
                                                      + o2 ** 2))
            return rf(num, [0.0] + d2_roots + d3_roots)

        if init_level == 2:
            # [Q s d2 + 2 O1^2 O2^2 (s-1) - 2 O1^2 (s+b3) P] / (s d2 d3)
            Q = s ** 2 + (b2 + 2 * b3) * s + b3 ** 2 + b2 * b3 + 2 * o2 ** 2
            Pp = s ** 2 + (b2 + 2 * b3) * s + b3 ** 2 + 2 * o1 ** 2 + b3 * o2 ** 2
            num = (Q * s * Polynomial.fromroots(d2_roots)
                   + 2 * o1 ** 2 * o2 ** 2 * (s - 1)
                   - 2 * o1 ** 2 * (s + b3) * Pp)
            return rf(num, [0.0] + d2_roots + d3_roots)

        # init |3>: shared pieces over d3 d4 (s+b4)
        core = Polynomial.fromroots(d4_roots) * (s + b4)
        if observable == "rho22":
            L = s + b2 + b3 + 2 * o2 ** 2
            num = (L * (core + 2 * o3 ** 2 * (1 - b4 - s) * (s + b2 + b4))
                   + 2 * o2 ** 2 * o3 ** 2 * (1 - b3 - s) * (s + b4))
        else:   # rho33
            Q3 = s ** 2 + (b3 + 2 * b2) * s + b2 ** 2 + b2 * b3 + 2 * o2 ** 2
            num = (Q3 * (core + 2 * o3 ** 2 * (s + b2 + b4) * (1 - b4 - s))
                   + 2 * o2 ** 2 * o3 ** 2 * (s + b2) * (s + b4))
        return rf(num, d3_roots + d4_roots + [-b4])

    # Weak rf.
    d2p_roots = list(quadratic)
    d3p_roots = list(cubic)
    d4p_roots = list(quartic)
    d3p = Polynomial.fromroots(d3p_roots)
    d4p = Polynomial.fromroots(d4p_roots)

    # Helper numerators (each over d4p).
    C1n = -o1 * o2 * ((s + b4) * (s + b2 + b4) + (o1 ** 2 - o3 ** 2))
    C2n = -o2 * ((s + b4) * (s + b3) * (s + b2 + b4) + o3 ** 2 * (s + b2 + b4)
                 + o1 ** 2 * (s + b3))
    C3n = o2 * o3 * (-(s + b3) * (s + b4) + (o1 ** 2 - o3 ** 2))
    W = s ** 2 + b4 ** 2 + b3 * (s + b4) + 2 * o3 ** 2 + 2 * s * b4

    if init_level == 1:
        return rf(Polynomial([2 * o1 ** 2]), [0.0] + d2p_roots)

    if observable == "rho33" and init_level == 3:
        # (1/d3p)[(1 + 2 O2 C2) W + 2 O2 O3 C3 (s + 2 b4 + 1)]
        num = (d4p + 2 * o2 * C2n) * W + 2 * o2 * o3 * C3n * (s + 2 * b4 + 1)
        return rf(num, d3p_roots + d4p_roots)

    if observable == "rho44" and init_level == 3:
        # (2 O3 / d3p)[O3 (1 + 2 O2 C2) - O2 C3 (s + b4)]
        num = 2 * o3 * (o3 * (d4p + 2 * o2 * C2n) - o2 * C3n * (s + b4))
        return rf(num, d3p_roots + d4p_roots)

    # rho22 for |3> and |2>: common scaffolding over s (s+b2) d2p d3p d4p.
    G = b2 ** 2 + s * (s - 2 * o1 ** 2) + 2 * b2 * (s - o1 ** 2)
    poles = [0.0, -b2] + d2p_roots + d3p_roots + d4p_roots

    if init_level == 3:
        # (1/d2p)[ 2O1^2/s + 2 O1 O2 C1 - 2 (s+b2) O2 C2
        #   + (4O1^2/d3p)(-O3^2 + O2 O3((s+b3)C3 - 2 O3 C2))
        #   + (1/((s+b2) d3p)) G ((1+2O2C2) W + 2 C3 O2 O3 (s+b4-1)) ]
        num = (2 * o1 ** 2 * (s + b2) * d3p * d4p
               + 2 * o1 * o2 * C1n * s * (s + b2) * d3p
               - 2 * o2 * (s + b2) * C2n * s * (s + b2) * d3p
               + 4 * o1 ** 2 * (-o3 ** 2 * d4p
                                + o2 * o3 * ((s + b3) * C3n - 2 * o3 * C2n))
               * s * (s + b2)
               + G * ((d4p + 2 * o2 * C2n) * W
                      + 2 * o2 * o3 * C3n * (s + b4 - 1)) * s)
        return rf(num, poles)

    # init |2>, rho22: same scaffolding; initial-condition term sign fixed.
    num = (2 * o1 ** 2 * (s + b2) * d3p * d4p
           + 2 * o1 * o2 * C1n * s * (s + b2) * d3p
           + (s + b2) * (d4p - 2 * o2 * C2n) * s * (s + b2) * d3p
           + 4 * o1 ** 2 * o2 ** 2 * o3 ** 2 * ((s + b3) * C3n - 2 * o3 * C2n)
           * s * (s + b2)
           + G * (2 * o2 * C2n * W + 2 * o2 * o3 * C3n * (s + b4 - 1)) * s)
    return rf(num, poles)
