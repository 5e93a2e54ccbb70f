"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function of the cascade4 layer modules
and rebinds the wrapper in every cascade4 namespace that binds the original:
`cli`, `correlations`, `perturbation` and `validation` use `from .x import
name`, so patching only the defining module would miss their calls.  Each
call records one span (name, start, end, parent, op) in memory, in flat
columns of atomic values so that the garbage collector has no more objects
to scan in a traced run than in an untraced one; `uninstall` restores the
originals.  Counts that a span cannot carry (grid
points, Talbot nodes, Laplace-closure evaluations, sweep failures) are taken
at the same boundaries by per-function hooks.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import mpmath

LAYER_MODULES = ("cli", "model", "dynamics", "correlations", "perturbation",
                 "ratfunc", "validation")


def _evolve_points(counts, bound, result):
    counts["dynamics.evolve.points"] += len(bound.arguments["times"])
    return result


def _talbot_nodes(counts, bound, result):
    counts["ratfunc.talbot_invert.nodes"] += int(bound.arguments["nodes"])
    return result


def _scan_outcomes(counts, bound, result):
    counts["correlations.scan_tau_d.points"] += len(result.field_values)
    counts["correlations.scan_tau_d.failures"] += len(result.failures)
    return result


def _count_laplace_evals(counts, bound, F):
    # The closure is where the hierarchy is evaluated (one `_chain` per
    # call); count calls in total and at mpmath s (the Talbot path).
    def counted(s):
        counts["perturbation.laplace_evals"] += 1
        if isinstance(s, (mpmath.mpc, mpmath.mpf)):
            counts["perturbation.laplace_evals_mp"] += 1
        return F(s)
    return counted


HOOKS = {
    "dynamics.evolve": _evolve_points,
    "ratfunc.talbot_invert": _talbot_nodes,
    "correlations.scan_tau_d": _scan_outcomes,
    "perturbation.laplace_observable": _count_laplace_evals,
}


class Tracer:
    """In-memory spans and counters around the public cascade4 functions."""

    def __init__(self):
        # One column per span field; parent is an index into the columns.
        self.names, self.starts, self.ends, self.parents, self.ops = [], [], [], [], []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []   # (namespace, attribute, original)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        counts, span_open, span_close = self.counts, self._open, self._close
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = span_open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_close(idx)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                result = hook(counts, bound, result)
            return result

        return traced

    def install(self):
        modules = {short: importlib.import_module(f"cascade4.{short}")
                   for short in LAYER_MODULES}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "cascade4" or key.startswith("cascade4.")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, name, op):
        """A root span around one benchmark call; `op` tags its spans."""
        self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def layer_stats(self):
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus its children's; inclusive time
        counts only the outermost span of a name, so recursion does not
        count twice.
        """
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for parent, dur in zip(parents, durations):
            if parent >= 0:
                child[parent] += dur
        stats = {}
        for i, (name, dur) in enumerate(zip(names, durations)):
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            ancestor = parents[i]
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = parents[ancestor]
            stats[name] = (calls + 1, total + (dur if ancestor < 0 else 0.0),
                           own + dur - child[i])
        return stats

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": list(zip(self.names, self.starts, self.ends,
                                  self.parents, self.ops))}
