"""Run the benchmark as alternated parent/change pairs and summarise them.

    python tools/bench_pairs.py --base HEAD~1 --workload perturbative \
        --pairs 10 --out BENCH.json

The change is the working tree this script belongs to; the parent is the
revision `--base`, exported with `git archive` into a temporary directory
that is removed afterwards (nothing is registered in the repository).  Pair
k runs `bench/run.py --seed <seed + k>` once in each tree, the parent first
in even pairs and the change first in odd ones, so that a slow phase of the
machine falls on both sides alike.  Every run must report `correct: true`.

The output JSON holds every run's metrics and, per workload and metric,
each side's median and quartiles and the fraction of pairs the change won
by the metric's direction in BENCHMARK.json (ties count for neither side).
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """The files of `rev` under dest, by git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree, workload, seed, seconds, trace):
    """The last stdout line of one bench/run.py run in `tree`, as a dict."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{tree}: {workload} seed {seed} not correct: {result}")
    return result


def summary(runs, better):
    """Per metric: each side's median and quartiles, and the change's win
    fraction over the pairs."""
    out = {}
    for name, lower in better.items():
        if name not in runs[0]["parent"]["metrics"]:
            continue
        sides = {side: [run[side]["metrics"][name]["value"] for run in runs]
                 for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {side: {"median": statistics.median(values),
                            "quartiles": statistics.quantiles(values, n=4)[::2]
                            if len(values) > 1 else [values[0]] * 2}
                     for side, values in sides.items()}
        out[name]["change_wins"] = wins / len(runs)
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] == "lower"
              for m in spec["end_to_end"] + spec["per_layer"]}

    report = {"base": args.base, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    with tempfile.TemporaryDirectory() as parent:
        export(args.base, parent)
        trees = {"parent": parent, "change": str(ROOT)}
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench(trees[side], workload, seed, args.seconds, args.trace)
                    print(workload, seed, side,
                          {n: m["value"] for n, m in run[side]["metrics"].items()
                           if n in ("ops_per_s", "setup_s", "peak_rss_mb")},
                          file=sys.stderr, flush=True)
                runs.append(run)
            report["workloads"][workload] = {"summary": summary(runs, better),
                                             "runs": runs}
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
