"""cascade4 benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload correlations --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src and nowhere
else.  `--trace 0` measures setup_s in fresh interpreters, then runs whole
input blocks of the workload, closed loop in this one process, for about
`--seconds`; it reports the end-to-end metrics of BENCHMARK.json.
`--trace 1` runs a fixed number of calls both untraced and traced, and
reports the per-layer metrics.  Either way every output is checked against
independent oracles after the measured region, and the last stdout line is
the JSON result {correct, attempted, failed, metrics}.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# Calls replayed by the traced run: fixed, so its counts repeat exactly.
TRACE_CALLS = 4

SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import cascade4
gen = cascade4.build_generator(cascade4.preset("fig2", "unit"))
cascade4.steady_state(gen)
elapsed = time.perf_counter() - t0
assert cascade4.__file__.startswith({src!r}), cascade4.__file__
print(repr(elapsed))
"""


class LibraryMissing(Exception):
    pass


def load_library():
    """Single-threaded BLAS, then cascade4 from ./src (never an installed copy)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cascade4" / "__init__.py").is_file():
        raise LibraryMissing(f"no cascade4 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cascade4
    if not Path(cascade4.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"cascade4 imported from {cascade4.__file__}")
    return cascade4


def environment():
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS}}


def measure_setup():
    """Median over fresh interpreters of import + first generator + steady state."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip()))
    return statistics.median(times), times


def call_inputs(workload, seed, count):
    out = []
    block = 0
    while len(out) < count:
        out += workload.inputs(seed, block)
        block += 1
    return out[:count]


def check_call(workload, inp, prepared, result, ops):
    """One list of problems per op of a call; an op fails if its list is
    not empty.  A call that raised, or whose output cannot be read, fails
    every op."""
    if isinstance(result, Exception):
        return [[f"raised {type(result).__name__}: {result}"]]
    try:
        return workload.check(inp, prepared, result)
    except Exception as exc:
        return [[f"check raised {type(exc).__name__}: {exc}"]] * ops


class Runner:
    """Prepares, times and later checks the calls of one workload."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.records = []   # (input, prepared call, result or exception, ops, seconds)

    def call(self, inp, tag, tracer=None):
        prepared = self.workload.prepare(inp, self.workdir, tag)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result, ops = self.workload.run(prepared)
            else:
                with tracer.root(f"bench.{self.workload.name}", len(self.records)):
                    result, ops = self.workload.run(prepared)
        except Exception as exc:   # an op that raises is a failed op
            result, ops = exc, None
        elapsed = time.perf_counter() - t0
        self.records.append((inp, prepared, result, ops, elapsed))
        return elapsed, ops

    def check(self):
        """(ops attempted, ops failed, failure messages)."""
        attempted = failed = 0
        messages = []
        for inp, prepared, result, ops, _s in self.records:
            per_op = check_call(self.workload, inp, prepared, result, ops)
            attempted += len(per_op)
            for problems in per_op:
                if problems:
                    failed += 1
                    messages.append({"input": inp, "problems": problems})
        return attempted, failed, messages


def percentile_summary(latencies_ms):
    """Median and the highest whole percentile with >= 10 samples above it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    out = {"samples": n, "p50_ms": statistics.median(ordered)}
    if n > 10:
        out[f"p{100 * (n - 10) // n}_ms"] = ordered[n - 11]
    return out


def run_end_to_end(workload, seed, seconds, runner):
    setup_s, setup_samples = measure_setup()
    warm = workload.inputs(seed, 1_000_000)[0]
    runner.call(warm, "warmup")
    latencies = []   # one sample per call: call time / ops in it
    block = 0
    start = time.perf_counter()
    wall = 0.0
    # Whole blocks only; the run ends within half a block of `seconds`.
    while block == 0 or wall + 0.5 * wall / block < seconds:
        for k, inp in enumerate(workload.inputs(seed, block)):
            elapsed, ops = runner.call(inp, f"b{block}-{k}")
            latencies.append(1e3 * elapsed / (ops or 1))
        block += 1
        wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_ops = sum(ops or 0 for _i, _p, _r, ops, _s in runner.records[1:])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": timed_ops / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"setup_samples_s": setup_samples, "blocks": block,
              "timed_ops": timed_ops, "timed_calls": len(latencies),
              "wall_s": wall, "latency": percentile_summary(latencies)}
    return metrics, detail


def per_layer_metrics(tracer, untraced_s, traced_s):
    stats = tracer.layer_stats()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[1]

    def self_ms(*names):
        return 1e3 * sum(stats[n][2] for n in names if n in stats)

    def ratio(num, den):
        return num / den if den else 0.0

    points = counts["dynamics.evolve.points"]
    nodes = counts["ratfunc.talbot_invert.nodes"]
    scanned = counts["correlations.scan_tau_d.points"]
    failures = counts["correlations.scan_tau_d.failures"]
    out = {
        "dynamics.evolve.calls": calls("dynamics.evolve"),
        "dynamics.evolve.ms": ms("dynamics.evolve"),
        "dynamics.evolve.points": points,
        "dynamics.evolve.us_per_point": ratio(1e3 * ms("dynamics.evolve"), points),
        "dynamics.steady_state.calls": calls("dynamics.steady_state"),
        "dynamics.steady_state.ms": ms("dynamics.steady_state"),
        "dynamics.steady_state.calls_per_generator": ratio(
            calls("dynamics.steady_state"), calls("model.build_generator")),
        "model.build_generator.calls": calls("model.build_generator"),
        "model.build_generator.ms": ms("model.build_generator"),
        "correlations.g2.calls": calls("correlations.g2"),
        "correlations.g2.self_ms": self_ms("correlations.g2"),
        "correlations.cs_ratio.ms": ms("correlations.cs_ratio"),
        "correlations.g31_peak_delay.calls": calls("correlations.g31_peak_delay"),
        "correlations.g31_peak_delay.self_ms": self_ms("correlations.g31_peak_delay"),
        "correlations.scan_tau_d.ms": ms("correlations.scan_tau_d"),
        "correlations.scan_tau_d.failures": failures,
        "correlations.scan_tau_d.ok_ratio": ratio(scanned - failures, scanned),
        "cli.run.calls": calls("cli.run"),
        "cli.self_ms": self_ms(*(n for n in stats if n.startswith("cli."))),
        "perturbation.analytic_g2_sum.calls": calls("perturbation.analytic_g2_sum"),
        "perturbation.analytic_g2_sum.ms": ms("perturbation.analytic_g2_sum"),
        "perturbation.talbot_g2_value.calls": calls("perturbation.talbot_g2_value"),
        "perturbation.talbot_g2_value.ms": ms("perturbation.talbot_g2_value"),
        "perturbation.appendix_rational.ms": ms("perturbation.appendix_rational"),
        "perturbation.root_set.calls": calls("perturbation.root_set"),
        "perturbation.hierarchy_poles.calls": calls("perturbation.hierarchy_poles"),
        "perturbation.laplace_evals": counts["perturbation.laplace_evals"],
        "perturbation.laplace_evals_mp": counts["perturbation.laplace_evals_mp"],
        "ratfunc.laurent_coefficients.calls": calls("ratfunc.laurent_coefficients"),
        "ratfunc.laurent_coefficients.ms": ms("ratfunc.laurent_coefficients"),
        "ratfunc.invert_rational.calls": calls("ratfunc.invert_rational"),
        "ratfunc.invert_rational.ms": ms("ratfunc.invert_rational"),
        "ratfunc.talbot_invert.calls": calls("ratfunc.talbot_invert"),
        "ratfunc.talbot_invert.ms": ms("ratfunc.talbot_invert"),
        "ratfunc.talbot_invert.nodes": nodes,
        "ratfunc.talbot_invert.us_per_node": ratio(1e3 * ms("ratfunc.talbot_invert"), nodes),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    layers = {name: {"calls": c, "ms": 1e3 * total, "self_ms": 1e3 * own}
              for name, (c, total, own) in sorted(stats.items())}
    return out, layers


def run_traced(workload, seed, runner, trace_path):
    from spans import Tracer
    inputs = call_inputs(workload, seed, TRACE_CALLS)
    # One untimed pass first, so the timed calls find lazy imports and
    # library caches (mpmath constants at each precision) already filled.
    for k, inp in enumerate(inputs):
        runner.call(inp, f"w{k}")
    # Then each input untraced and traced back to back, alternating which
    # goes first, so slow phases of the machine fall on both sides alike.
    tracer = Tracer()
    untraced = traced = 0.0
    for k, inp in enumerate(inputs):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                untraced += runner.call(inp, f"u{k}")[0]
                continue
            tracer.install()
            try:
                traced += runner.call(inp, f"t{k}", tracer)[0]
            finally:
                tracer.uninstall()
    metrics, layers = per_layer_metrics(tracer, untraced, traced)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    detail = {"trace_calls": len(inputs), "untraced_s": untraced,
              "traced_s": traced, "spans": len(tracer.names),
              "trace_file": str(trace_path.relative_to(ROOT)), "layers": layers}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
    except LibraryMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(workload, workdir)
    try:
        if args.trace:
            values, detail = run_traced(workload, args.seed, runner,
                                        OUT / f"spans-{tag}.json")
            declared = spec["per_layer"]
        else:
            values, detail = run_end_to_end(workload, args.seed, args.seconds, runner)
            declared = spec["end_to_end"]
        attempted, failed, messages = runner.check()
    finally:
        shutil.rmtree(workdir)

    detail.update({"workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "environment": environment(),
                   "failed_ops": failed / attempted, "failures": messages[:20],
                   "calls": [{"input": inp, "ops": ops, "ms": 1e3 * sec}
                             for inp, _p, _r, ops, sec in runner.records]})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
