"""Smoke test of the benchmark's output checks, on one call per workload.

    python3 bench/smoke.py

Run from the repository root.  For each workload it makes one seeded call,
shows that the checker accepts the library's own outputs, then corrupts
those outputs slightly and shows that the checker rejects each corruption.
Exits 1 if any expectation fails.  Takes about ten seconds.
"""

import dataclasses
import os
import shutil
import sys

from run import OUT, Runner, check_call, load_library

SEED = 7


def failed_ops(workload, inp, call, result):
    return sum(1 for problems in check_call(workload, inp, call, result, 1)
               if problems)


def scale_csv_column(path, column, factor):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = []
    for line in lines:
        cells = line.split(",")
        if line.startswith("#") or cells[0] == "tau":
            out.append(line)
            continue
        cells[column] = format(float(cells[column]) * factor, ".9g")
        out.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def cases(workloads, workdir):
    """(label, workload, input, call, result, expect_rejection) per case."""
    wl = workloads["correlations"]
    runner = Runner(wl, workdir)
    inp = wl.inputs(SEED, 0)[0]
    runner.call(inp, "cs")
    _inp, call, result, _ops, _s = runner.records[0]
    yield "correlations: library output", wl, inp, call, result, False
    yield "correlations: exit code 1", wl, inp, call, (1, result[1]), True
    scale_csv_column(call.csv, 3, 1.0 + 1e-6)
    yield "correlations: g31 column x (1 + 1e-6)", wl, inp, call, result, True
    os.remove(call.csv)
    yield "correlations: CSV missing", wl, inp, call, result, True

    wl = workloads["delay_scan"]
    runner = Runner(wl, workdir)
    inp = wl.inputs(SEED, 0)[0]
    runner.call(inp, "scan")
    _inp, call, scan, _ops, _s = runner.records[0]
    yield "delay_scan: library output", wl, inp, call, scan, False
    shifted = scan.tau_d.copy()
    shifted[4] += 1e-4
    yield ("delay_scan: tau_d[4] + 1e-4", wl, inp, call,
           dataclasses.replace(scan, tau_d=shifted), True)

    wl = workloads["perturbative"]
    runner = Runner(wl, workdir)
    # The first two inputs of a block are one strong-rf and one weak-rf set.
    for k, (inp, bump) in enumerate(zip(wl.inputs(SEED, 0)[:2], (1e-7, 1e-5))):
        runner.call(inp, f"pert{k}")
        _inp, call, result, _ops, _s = runner.records[k]
        regime = inp["regime"]
        yield f"perturbative {regime}: library output", wl, inp, call, result, False
        talbot = list(result["talbot"])
        talbot[1] *= 1.0 + 1e-5
        yield (f"perturbative {regime}: Talbot g31(1.5) x (1 + 1e-5)", wl, inp,
               call, dict(result, talbot=talbot), True)
        entry, residue, cat_talbot = result["catalogue"][0]
        bumped = [cat_talbot[0] * (1.0 + bump)] + list(cat_talbot[1:])
        catalogue = [(entry, residue, bumped)] + result["catalogue"][1:]
        yield (f"perturbative {regime}: catalogue Talbot value x (1 + {bump:g})",
               wl, inp, call, dict(result, catalogue=catalogue), True)


def main():
    load_library()
    from workloads import WORKLOADS
    workdir = OUT / f"smoke-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    wrong = 0
    try:
        for label, wl, inp, call, result, reject in cases(WORKLOADS, workdir):
            n = failed_ops(wl, inp, call, result)
            ok = (n > 0) == reject
            wrong += not ok
            verdict = "rejected" if n else "accepted"
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict} ({n} failed op(s))")
    finally:
        shutil.rmtree(workdir)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
