"""Cross-check report: exact numerics against the analytic apparatus, plus a
listing of where the published closed forms disagree with both.

Check outcomes are 'pass'/'fail' for quantitative claims the implementation
must honour, and 'info' for documented discrepancies of the source text
(those never fail: the physics is certified numerically).
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .correlations import PAIR_TABLE, cs_ratio, default_tau_grid, g2, g31_peak_delay
from .dynamics import _checked_start, evolve
from .errors import StepFailure, ZeroSteadyState
from .model import SystemParams, build_generator, prepare_state, preset
from .perturbation import (
    ANALYTIC_PAIRS,
    APPENDIX_CATALOGUE,
    Regime,
    analytic_g2_sum,
    appendix_rational,
    coefficient_identities,
    root_set,
)
from .ratfunc import invert_rational, talbot_invert_rf


@dataclass(frozen=True)
class Check:
    name: str
    status: str      # pass | fail | info
    value: float
    tolerance: float
    source: str      # which claim this certifies or documents

    def line(self):
        return (f"[{self.status.upper():4s}] {self.name}: value={self.value:.6g} "
                f"tol={self.tolerance:.3g} ({self.source})")


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    elapsed: float

    @property
    def failed(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_text(self):
        head = [f"validation report ({len(self.checks)} checks, "
                f"{self.elapsed:.1f} s)"]
        return "\n".join(head + [c.line() for c in self.checks])

    def rows(self):
        for c in self.checks:
            yield (c.name, c.status, c.value, c.tolerance, c.source)


def _bounded(name, value, tol, source):
    return Check(name, "pass" if value < tol else "fail", float(value),
                 float(tol), source)


def _positive(name, value, floor, source):
    return Check(name, "pass" if value > floor else "fail", float(value),
                 float(floor), source)


def brute_force_evolve(gen, x0, t):
    """Reference propagator: Taylor series of the augmented exponential with
    exact binary scaling, accumulated in extended precision.

    Free of eigendecompositions, Pade solves and step-size control, so it is
    an independent oracle for evolve() and rk_evolve().  Handles singular A
    (the constant drive rides in the augmented column).  x0 and the scalar
    t are refused with InvalidArgument as evolve refuses x0 and the grid
    [t].
    """
    x0, (t,) = _checked_start(gen, x0, [t])
    n = x0.size
    aug = np.zeros((n + 1, n + 1), dtype=np.longdouble)
    aug[:n, :n] = gen.A.astype(np.longdouble) * np.longdouble(t)
    aug[:n, n] = gen.b.astype(np.longdouble) * np.longdouble(t)
    norm = float(np.max(np.sum(np.abs(aug), axis=1)))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 2) if norm > 0 else 0
    scaled = aug / np.longdouble(2.0) ** squarings

    expm = np.eye(n + 1, dtype=np.longdouble)
    term = np.eye(n + 1, dtype=np.longdouble)
    for k in range(1, 60):
        term = term @ scaled / np.longdouble(k)
        expm = expm + term
        if float(np.max(np.abs(term))) < 1e-24:
            break
    for _ in range(squarings):
        expm = expm @ expm
    x = expm[:n, :n] @ x0.astype(np.longdouble) + expm[:n, n]
    return np.asarray(x, dtype=float)


def rk_evolve(gen, x0, times):
    """Reference propagator: the states on `times` (arguments as for
    dynamics.evolve) by an adaptive embedded Runge-Kutta pair (DOP853) at
    rtol 1e-10 / atol 1e-12, with no eigendecomposition and no matrix
    exponential.  A t = 0 row is x0 exactly; raises StepFailure when the
    integrator cannot reach that accuracy.
    """
    # Imported here: scipy.integrate is most of the package's import time
    # and memory, and only this oracle needs it.
    from scipy.integrate import solve_ivp

    x0, times = _checked_start(gen, x0, times)
    states = np.empty((len(times), x0.size))
    if times[-1] > 0.0:
        sol = solve_ivp(lambda _t, x: gen.A @ x + gen.b, t_span=(0.0, times[-1]),
                        y0=x0, t_eval=times, method="DOP853", rtol=1e-10,
                        atol=1e-12)
        if not sol.success:
            raise StepFailure(sol.message)
        states[:] = sol.y.T
    if times[0] == 0.0:
        states[0] = x0
    return states


STRONG_CHECK_PARAMS = dict(omega1=0.2, omega3=0.2, omega_rf=20.0)
WEAK_CHECK_PARAMS = dict(omega1=4.0, omega3=4.0, omega_rf=0.2)


def _perturbative_params(regime):
    drives = STRONG_CHECK_PARAMS if regime is Regime.STRONG_RF else WEAK_CHECK_PARAMS
    return preset("fig2", "unit").with_drives(**drives)


def run_validation(params: SystemParams = None) -> ValidationReport:
    """Execute the full cross-check suite on one parameter preset."""
    t0 = time.perf_counter()
    if params is None:
        params = preset("fig2", "unit")
    checks = []
    gen = build_generator(params)

    # (a) + (b): zero-delay structure of the five correlation pairs.
    taus = default_tau_grid(params, n=1200)
    tail = 50.0 / params.min_gamma
    try:
        series = {pair: g2(gen, pair, taus) for pair in PAIR_TABLE}
        for pair in ANALYTIC_PAIRS:
            v = series[pair].values
            checks.append(_bounded(
                f"antibunching_g{pair[0]}{pair[1]}_zero",
                abs(v[0]) / max(v.max(), 1e-30), 1e-8,
                "cross/auto correlations vanish at zero delay"))
        for pair in ((2, 1), (3, 2)):
            checks.append(_positive(
                f"bunching_g{pair[0]}{pair[1]}_zero",
                series[pair].values[0], 0.0,
                "adjacent-pair correlations finite at zero delay"))
        for pair in series:
            checks.append(_bounded(
                f"normalization_g{pair[0]}{pair[1]}_tail",
                abs(g2(gen, pair, [0.0, tail]).values[-1] - 1.0), 1e-4,
                "every g2 -> 1 at tau = 50/min(Gamma)"))
    except ZeroSteadyState as exc:
        series = None
        checks.append(Check("correlations_defined", "info", 0.0, 0.0,
                            f"skipped: {exc}"))

    # (c) the propagator against both oracles.
    x0 = prepare_state(3)
    tgrid = np.linspace(0.0, 10.0, 41)
    diff = np.max(np.abs(evolve(gen, x0, tgrid) - rk_evolve(gen, x0, tgrid)))
    checks.append(_bounded("backend_rk_vs_expm", diff, 1e-7,
                           "independent propagators agree"))
    bf = brute_force_evolve(gen, x0, 3.0)
    mid = evolve(gen, x0, np.array([0.0, 3.0]))[-1]
    checks.append(_bounded("backend_expm_vs_taylor", np.max(np.abs(bf - mid)),
                           1e-9, "scaled-Taylor oracle agrees"))

    for regime in (Regime.STRONG_RF, Regime.WEAK_RF):
        p = _perturbative_params(regime)
        picks = [k for k in APPENDIX_CATALOGUE if k[0] is regime][:2]
        worst = 0.0
        for _reg, init, obs in picks:
            rf = appendix_rational(p, regime, init, obs)
            es = invert_rational(rf)
            for t in (0.07, 0.5, 1.8):
                a = es(np.array([t]))[0]
                b = talbot_invert_rf(rf, t)
                worst = max(worst, abs(a - b) / max(abs(a), 1e-9))
        checks.append(_bounded(
            f"dual_engine_{regime.value}", worst, 1e-8,
            "residue and Talbot inversions agree on the catalogue"))

    # (d) regime agreement: perturbative vs exact correlations, and (e) the
    # coefficient identities, from one analytic sum per pair.
    p = _perturbative_params(Regime.STRONG_RF)
    gen_p = build_generator(p)
    tcmp = np.linspace(0.1, 5.0, 40)
    rel, worst = {}, 0.0
    for pair in ANALYTIC_PAIRS:
        es, _ss = analytic_g2_sum(p, Regime.STRONG_RF, pair)
        worst = max(worst, coefficient_identities(es))
        if pair != (1, 1):      # g11 has no agreement check
            exact = g2(gen_p, pair, tcmp).values
            rel[pair] = np.max(np.abs(exact - es(tcmp))) / np.max(np.abs(exact))
    checks.append(_bounded("regime_agreement_strong_g31", rel[(3, 1)], 0.05,
                           "second-order hierarchy tracks exact dynamics"))
    # The g33 analogue is blocked at second order: the driven part of
    # rho44 is fourth order in the optical drives (reaching |4> from |1>
    # needs both), so every faithful second-order form misses the slow
    # rise that dominates the exact g33 window.  Documented, not failed.
    checks.append(Check("regime_agreement_strong_g33_transient", "info",
                        rel[(3, 3)], 0.05,
                        "rho44's driven response is fourth-order; the "
                        "second-order transient cannot track the g33 "
                        "window tail"))
    checks.append(_bounded("coefficient_identities", worst, 1e-8,
                           "normalized coefficients sum to -1 (zero at t=0)"))

    # (f) Cauchy-Schwarz violation magnitude, skipped with (a).
    if series is not None:
        R = cs_ratio(series[(3, 1)], series[(1, 1)], series[(3, 3)])
        ok = 1e2 <= R.r_max <= 1e7
        checks.append(Check("cs_ratio_bracket", "pass" if ok else "fail",
                            R.r_max, 1e7,
                            "violation magnitude lies in the published decade range"))

    # (g) delay-control trend on a coarse sweep.
    sweep = np.linspace(4.0, 20.0, 5)
    base = replace(params, omega1=4.0, omega3=4.0)
    td = [g31_peak_delay(base.with_drives(omega_rf=v)) for v in sweep]
    decreasing = all(np.diff(td) < 0)
    checks.append(Check("tau_d_monotone_rf", "pass" if decreasing else "fail",
                        float(td[0] - td[-1]), 0.0,
                        "stronger rf drive shortens the emission delay"))

    # (h) printed-form discrepancy listing (documented, never failing).
    checks.extend(_printed_form_report())

    elapsed = time.perf_counter() - t0
    return ValidationReport(checks=tuple(checks), elapsed=elapsed)


def _printed_form_report():
    """Distances between published closed forms and the numerics they
    paraphrase.  Info-level: these document the source text's typography."""
    out = []
    ps = _perturbative_params(Regime.STRONG_RF)
    rs = root_set(ps, Regime.STRONG_RF)
    out.append(Check("printed_quadratic_roots", "info",
                     rs.mismatch["quadratic"], 1e-10,
                     "closed-form quadratic roots are exact"))
    out.append(Check("printed_cubic_roots", "info", rs.mismatch["cubic"], 0.0,
                     "published cubic root formulas are dimensionally "
                     "inconsistent; companion-matrix roots are authoritative"))
    pw = _perturbative_params(Regime.WEAK_RF)
    rw = root_set(pw, Regime.WEAK_RF)
    out.append(Check("printed_quartic_roots", "info", rw.mismatch["quartic"],
                     0.0, "published quartic roots disagree with the odd-block "
                          "eigenvalues (factor-2 pattern)"))

    # Half-rate population bookkeeping in the published weak-field limit:
    # exact cascade transient decays at Gamma, the printed form at Gamma/2.
    # Gamma3 = 2 (all of it feeding |2>) tells the two rates apart.
    p = replace(preset("fig2", "unit"), omega1=0.05, omega_rf=0.05,
                omega3=0.05, gamma3=2.0, gamma23=2.0)
    gen = build_generator(p)
    taus = np.linspace(0.0, 4.0, 401)
    tr = g2(gen, (3, 1), taus).values - 1.0
    tr /= np.max(np.abs(tr))
    full = np.exp(-p.gamma2 * taus) - np.exp(-p.gamma3 * taus)
    full /= np.max(np.abs(full))
    half = np.exp(-p.gamma2 / 2 * taus) - np.exp(-p.gamma3 / 2 * taus)
    half /= np.max(np.abs(half))
    out.append(Check("weak_field_shape_full_rates", "info",
                     float(np.max(np.abs(tr - full))), 0.02,
                     "cascade-rate reading matches the exact shape"))
    out.append(Check("weak_field_shape_printed_half_rates", "info",
                     float(np.max(np.abs(tr - half))), 0.02,
                     "printed half-rate exponents do not match the exact shape"))

    # Literal unit transfer rates destabilize the generator at preset drives.
    literal = preset("fig2", "unit")
    literal = replace(literal, gamma23=1.0, gamma34=1.0, gamma24=0.0)
    lam = build_generator(literal).eigensystem.abscissa
    out.append(Check("literal_branching_instability", "info", lam, 0.0,
                     "transfer rates fixed at 1 give the generator a positive "
                     "eigenvalue at fig-2 drives; presets close the cascade"))

    # Sign of the |2> initial-condition term in the transcribed catalogue.
    rf = appendix_rational(pw, Regime.WEAK_RF, 2, "rho22")
    out.append(Check("appendix_weak_init2_sign_fixed", "info",
                     float(abs(rf.initial_value() - 1.0)), 1e-10,
                     "initial-value theorem after the sign correction"))
    return out
