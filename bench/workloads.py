"""The three benchmark workloads: seeded inputs, the timed call, and the
checks of each call's outputs against independent oracles.

A workload hands out its inputs in blocks.  Within a block the categorical
choices (gamma preset, regime, swept field) cycle in a fixed order and the
continuous draws are stratified, so every whole block has the same mix of
costs; the runner stops only at a block boundary, which keeps the per-run
figures steady across seeds.

Every call goes through a module attribute (`cli.run`, not a local `run`),
so the tracer's patches see the benchmark's own calls.  The checks run after
the timed region, with tracing off.
"""

import contextlib
import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from cascade4 import cli, correlations, model, perturbation, ratfunc
from cascade4.validation import brute_force_evolve

GAMMAS = ("unit", "physical")
P22, P44 = model.P22, model.P44


def closed_params(gammas, omega1, omega_rf, omega3):
    """Drives on a gamma preset with closed branching (gamma23 = Gamma3,
    gamma34 = Gamma4), the reading under which the generator is stable."""
    g = model.GAMMA_PRESETS[gammas]
    return model.SystemParams(omega1=float(omega1), omega_rf=float(omega_rf),
                              omega3=float(omega3), **g, gamma23=g["gamma3"],
                              gamma34=g["gamma4"], gamma24=0.0)


def params_of(inp):
    return closed_params(inp["gammas"], **inp["drives"])


def strata(rng, n):
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def relative_error(value, reference, floor=0.0):
    return abs(value - reference) / max(abs(reference), floor)


def oracle_generator(params):
    """The generator and its steady state from a plain dense solve."""
    gen = model.build_generator(params)
    return gen, np.linalg.solve(gen.A, -gen.b)


def basis_state(level):
    """Packed state of |level><level|."""
    x = np.zeros(model.DIM)
    if level > 1:
        x[P22 + level - 2] = 1.0
    return x


# ---------------------------------------------------------------------------
# correlations: `cascade4 cs` through cli.run on a generated config.
# ---------------------------------------------------------------------------

CS_PAIRS = {"g11": (1, P22), "g33": (3, P44), "g31": (3, P22)}
CS_TAU_POINTS = 2000
CS_CHECKED_ROWS = 12
CS_REL_TOL = 1e-7          # CSV carries 9 significant digits
ANTIBUNCHING_TOL = 1e-8    # acceptance criterion 1


def log_linear_grid(tau_max, n):
    """The documented `log_linear` tau grid: 0, a log run to tau_max/20,
    then a linear run to tau_max."""
    n_log = n // 3
    knee = tau_max / 20.0
    return np.concatenate([[0.0], np.geomspace(1e-4 * tau_max, knee, n_log),
                           np.linspace(knee, tau_max, n - n_log)[1:]])


def config_text(inp, csv_path):
    p = params_of(inp)
    system = "\n".join(f"{key} = {getattr(p, key)!r}" for key in cli.SYSTEM_KEYS)
    return (f"[system]\n{system}\n"
            f"[grid]\ntau_max = {inp['tau_max']!r}\ntau_points = {CS_TAU_POINTS}\n"
            f"spacing = log_linear\n"
            f"[output]\npath = {csv_path}\nprecision = 9\n")


def read_cs_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return header, data


@dataclass
class CsCall:
    config: str
    csv: str


class Correlations:
    name = "correlations"
    block = 2

    def inputs(self, seed, block):
        rng = np.random.default_rng([seed, block])
        out = []
        for k in range(self.block):
            gammas = GAMMAS[k % 2]
            out.append({
                "gammas": gammas,
                "drives": {"omega1": float(rng.uniform(2.0, 8.0)),
                           "omega_rf": float(rng.uniform(2.0, 30.0)),
                           "omega3": float(rng.uniform(2.0, 8.0))},
                "tau_max": 10.0 / min(model.GAMMA_PRESETS[gammas].values()),
                "rows": sorted(int(r) for r in rng.choice(
                    np.arange(1, CS_TAU_POINTS), CS_CHECKED_ROWS - 1,
                    replace=False)),
            })
        return out

    def prepare(self, inp, workdir, tag):
        call = CsCall(config=str(workdir / f"{tag}.cfg"),
                      csv=str(workdir / f"{tag}.csv"))
        inp["config"] = config_text(inp, call.csv)
        with open(call.config, "w", encoding="utf-8") as fh:
            fh.write(inp["config"])
        return call

    def run(self, call):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run(["cs", "--config", call.config])
        return (code, stdout.getvalue()), 1

    def check(self, inp, call, result):
        code, stdout = result
        if code != 0:
            return [[f"cli.run exit code {code}"]]
        header, data = read_cs_csv(call.csv)
        if header != ["tau", "g11", "g33", "g31", "R"] or data.shape != (CS_TAU_POINTS, 5):
            return [[f"unexpected CSV layout {header} {data.shape}"]]
        if not np.all(np.isfinite(data)):
            return [["non-finite value in CSV"]]
        problems = []
        taus = log_linear_grid(inp["tau_max"], CS_TAU_POINTS)
        tau_err = np.max(np.abs(data[:, 0] - taus) / np.maximum(taus, 1e-300))
        if not tau_err <= 1e-8:
            problems.append(f"tau column off the log_linear grid by {tau_err:.2e}")

        gen, x_ss = oracle_generator(params_of(inp))
        rows = [0] + inp["rows"]
        oracle = {name: np.empty(len(rows)) for name in CS_PAIRS}
        for level in (1, 3):
            x0 = basis_state(level)
            for j, r in enumerate(rows):
                x = brute_force_evolve(gen, x0, taus[r])
                for name, (lvl, obs) in CS_PAIRS.items():
                    if lvl == level:
                        oracle[name][j] = x[obs] / x_ss[obs]
        for col, name in enumerate(("g11", "g33", "g31"), start=1):
            got = data[rows, col]
            scale = np.max(np.abs(oracle[name]))
            err = np.max(np.abs(got - oracle[name])
                         / np.maximum(np.abs(oracle[name]), 1e-9 * scale))
            if not err <= CS_REL_TOL:
                problems.append(f"{name} differs from the Taylor oracle by {err:.2e}")
        den = oracle["g33"] * oracle["g11"]
        ok = den > correlations.DENOMINATOR_FLOOR
        r_oracle = np.where(ok, oracle["g31"] ** 2 / np.where(ok, den, 1.0), 0.0)
        r_err = np.max(np.abs(data[rows, 4] - r_oracle)
                       / np.maximum(np.abs(r_oracle), 1e-300))
        if not r_err <= CS_REL_TOL:
            problems.append(f"R differs from the oracle ratio by {r_err:.2e}")
        for col, name in ((3, "g31"), (2, "g33")):
            zero = abs(data[0, col]) / np.max(data[:, col])
            if not zero < ANTIBUNCHING_TOL:
                problems.append(f"{name}(0)/max = {zero:.2e} (antibunching)")
        k = int(np.argmax(data[:, 4]))
        fields = stdout.split()
        if (len(fields) != 7 or fields[:2] != ["r_max", "="]
                or relative_error(float(fields[2]), data[k, 4]) > 1e-8
                or relative_error(float(fields[6]), data[k, 0]) > 1e-8):
            problems.append(f"r_max line {stdout.strip()!r} does not match the CSV")
        return [problems]


# ---------------------------------------------------------------------------
# delay_scan: whole correlations.scan_tau_d sweeps.
# ---------------------------------------------------------------------------

SWEPT = ("omega1", "omega2", "omega_rf", "omega3")
SWEEP_GRID = np.linspace(4.0, 20.0, 9)
# The library's tau_d is a parabolic vertex on its 41-point refinement grid.
# Against the exact first crossing it is off by 4e-8 relative at the median
# and by 1.4e-6 at worst (1440 points: seeds 1-10, two blocks each), so 1e-6
# would reject correct output; 1e-5 still rejects a 1e-4 shift 100-fold.
TAU_D_REL_TOL = 1e-5
ORACLE_STEP = 2e-3


def oracle_tau_d(params):
    """First + to - zero crossing of d rho22/d tau from |3>, bracketed on a
    uniform step with a fixed scipy.linalg.expm propagator, then brentq."""
    gen, x_ss = oracle_generator(params)
    A = gen.A
    y0 = basis_state(3) - x_ss

    def slope(t):
        return (A @ (scipy.linalg.expm(A * t) @ y0))[P22]

    step = scipy.linalg.expm(A * ORACLE_STEP)
    tau_max = min(6.0 / params.min_gamma, 40.0)
    y, t, d = y0, 0.0, (A @ y0)[P22]
    while t < tau_max:
        y_next = step @ y
        d_next = (A @ y_next)[P22]
        if d > 0.0 >= d_next:
            return scipy.optimize.brentq(slope, t, t + ORACLE_STEP,
                                         xtol=1e-15, rtol=4e-15)
        y, t, d = y_next, t + ORACLE_STEP, d_next
    return None


class DelayScan:
    name = "delay_scan"
    block = 8

    def inputs(self, seed, block):
        rng = np.random.default_rng([seed, block])
        draws = {key: 2.0 + 14.0 * strata(rng, self.block)
                 for key in ("omega1", "omega_rf", "omega3")}
        return [{"gammas": GAMMAS[k % 2], "swept": SWEPT[(k // 2) % 4],
                 "drives": {key: float(v[k]) for key, v in draws.items()},
                 "grid": SWEEP_GRID.tolist()}
                for k in range(self.block)]

    def prepare(self, inp, workdir, tag):
        return params_of(inp), inp["swept"]

    def run(self, call):
        base, swept = call
        return correlations.scan_tau_d(base, swept, SWEEP_GRID), len(SWEEP_GRID)

    def check(self, inp, call, scan):
        base = call[0]
        key = "omega_rf" if inp["swept"] == "omega2" else inp["swept"]
        failed = dict(scan.failures)
        per_point = []
        for i, value in enumerate(SWEEP_GRID):
            if i in failed:
                per_point.append([f"point {i}: {failed[i]}"])
                continue
            ref = oracle_tau_d(base.with_drives(**{key: value}))
            got = scan.tau_d[i]
            if ref is None:
                per_point.append([f"point {i}: oracle finds no peak, got {got!r}"])
            elif not relative_error(got, ref) <= TAU_D_REL_TOL:
                per_point.append([f"point {i}: tau_d {got!r} vs oracle {ref!r}"])
            else:
                per_point.append([])
        return per_point


# ---------------------------------------------------------------------------
# perturbative: analytic sums, Talbot g2 values and the appendix catalogue.
# ---------------------------------------------------------------------------

REGIMES = (perturbation.Regime.STRONG_RF, perturbation.Regime.WEAK_RF)
ANALYTIC_PAIRS = ((1, 1), (3, 3), (3, 1))
TALBOT_TAUS = (0.3, 1.5)
CATALOGUE_TAUS = (0.07, 0.5, 1.8)
EXACT_TAUS = np.linspace(0.1, 5.0, 40)
TALBOT_RESIDUE_TOL = 1e-6
STRONG_G31_TOL = 0.05      # acceptance criterion 6 (g31 only)
# |g(0)| of the normalized sums, and residue vs Talbot on the catalogue.
# Strong rf keeps acceptance criteria 7 and 8 (1e-8; seen <= 5e-13).  In
# weak rf the poles cluster as omega1 -> omega3 and g33 is normalized by
# the fourth-order rho44: over a grid of the weak-rf draw range (omega 2-6,
# |omega1 - omega3| down to 0, both ratio ends and gamma presets) the
# identity reached 4.2e-7 and the engines differed by up to 2.8e-8.
IDENTITY_TOL = {"strong_rf": 1e-8, "weak_rf": 1e-5}
DUAL_ENGINE_TOL = {"strong_rf": 1e-8, "weak_rf": 1e-6}


def exp_sum_value(terms, t):
    """sum_k c_k t^p_k exp(r_k t), evaluated from the raw terms."""
    return sum(c * t ** p * np.exp(r * t) for c, r, p in terms).real


class Perturbative:
    name = "perturbative"
    block = 4      # strong and weak rf on each gamma preset

    def inputs(self, seed, block):
        rng = np.random.default_rng([seed, block])
        half = self.block // 2
        strong_rf, ratio1, ratio3, weak1, weak3, weak_ratio = (
            strata(rng, half) for _ in range(6))
        out = []
        for k in range(self.block):
            j = k // 2
            if k % 2 == 0:
                orf = 10.0 + 20.0 * strong_rf[j]
                drives = {"omega1": (0.005 + 0.015 * ratio1[j]) * orf,
                          "omega_rf": orf,
                          "omega3": (0.005 + 0.015 * ratio3[j]) * orf}
            else:
                o1, o3 = 2.0 + 4.0 * weak1[j], 2.0 + 4.0 * weak3[j]
                drives = {"omega1": o1, "omega3": o3,
                          "omega_rf": (0.02 + 0.03 * weak_ratio[j]) * min(o1, o3)}
            out.append({"gammas": GAMMAS[(k // 2) % 2],
                        "regime": REGIMES[k % 2].value,
                        "drives": {key: float(v) for key, v in drives.items()}})
        return out

    def prepare(self, inp, workdir, tag):
        return params_of(inp), perturbation.Regime(inp["regime"])

    def run(self, call):
        p, regime = call
        sums = {pair: perturbation.analytic_g2_sum(p, regime, pair)
                for pair in ANALYTIC_PAIRS}
        ss31 = sums[(3, 1)][1]
        talbot = [perturbation.talbot_g2_value(p, regime, (3, 1), tau, ss=ss31)
                  for tau in TALBOT_TAUS]
        catalogue = []
        for entry in perturbation.APPENDIX_CATALOGUE:
            if entry[0] is not regime:
                continue
            rf = perturbation.appendix_rational(p, *entry)
            es = ratfunc.invert_rational(rf)
            residue = es(np.array(CATALOGUE_TAUS))
            catalogue.append((entry, residue,
                              [ratfunc.talbot_invert_rf(rf, t) for t in CATALOGUE_TAUS]))
        return {"sums": sums, "talbot": talbot, "catalogue": catalogue}, 1

    def check(self, inp, call, result):
        p, regime = call
        problems = []
        terms = {pair: es.terms for pair, (es, _ss) in result["sums"].items()}
        for pair, pair_terms in terms.items():
            at_zero = abs(sum(c for c, _r, power in pair_terms if power == 0))
            if not at_zero < IDENTITY_TOL[regime.value]:
                problems.append(f"g{pair[0]}{pair[1]} coefficient identity {at_zero:.2e}")
        for tau, value in zip(TALBOT_TAUS, result["talbot"]):
            err = relative_error(value, exp_sum_value(terms[(3, 1)], tau))
            if not err < TALBOT_RESIDUE_TOL:
                problems.append(f"Talbot g31({tau}) vs residue sum: {err:.2e}")
        for entry, residue, talbot in result["catalogue"]:
            for tau, a, b in zip(CATALOGUE_TAUS, residue, talbot):
                err = relative_error(b, a, floor=1e-9)
                if not err < DUAL_ENGINE_TOL[regime.value]:
                    problems.append(f"{entry[1:]} at {tau}: engines differ by {err:.2e}")
        if regime is perturbation.Regime.STRONG_RF:
            gen, x_ss = oracle_generator(p)
            y0 = basis_state(3) - x_ss
            exact = np.array([(scipy.linalg.expm(gen.A * t) @ y0)[P22] + x_ss[P22]
                              for t in EXACT_TAUS]) / x_ss[P22]
            approx = np.array([exp_sum_value(terms[(3, 1)], t) for t in EXACT_TAUS])
            err = np.max(np.abs(exact - approx)) / np.max(np.abs(exact))
            if not err < STRONG_G31_TOL:
                problems.append(f"strong-rf g31 vs exact: {err:.2e}")
        return [problems]


WORKLOADS = {w.name: w for w in (Correlations(), DelayScan(), Perturbative())}
