"""Run one invdeg command with its layers traced from outside.

    python trace_child.py FD <invdeg arguments...>
    python trace_child.py FD --sweep

The first form imports invdeg, replaces the public functions of each layer
(module) by timing wrappers in every invdeg namespace that binds them, and
calls ``invdeg.cli.main`` exactly as ``python -m invdeg`` would, so stdout is
unchanged. The second form times the Pfaffian kernel on the psi pair matrix
of {1..k}. Either way a JSON report is written to file descriptor FD at exit.

Spans nest by call stack. A span's self time is its duration minus the union
of its children's intervals. A span opened in a worker thread with no open
span of its own is a child of the main thread's innermost span, which is the
one waiting on the pool, so waiting is not counted as self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("psi", "exact", "multidegree", "mldegree", "symbolic", "cli")

# Public names wrapped per layer. exact.binomial is left out: psi_pair calls
# it ~10^6 times for psi --n 150, so its wrapper would cost more than it does.
WRAPPED = {
    "psi": ("psi_table", "psi_pair", "psi_single", "psi_seq", "p_alpha"),
    "exact": ("pfaffian", "pfaffian_reference"),
    "multidegree": (
        "beta_vector", "beta", "gamma_degrees", "sigma_coefficients", "sdp_degree",
        "verify_multidegree_identity", "multidegree_table",
    ),
    "mldegree": ("ml_degree", "ml_table", "ml_polynomial", "finite_difference_check"),
    "symbolic": (
        "determinant", "adjugate", "product_entries", "graph_ideal_generators",
        "verify_graph_vanishing", "adjugate_identity_holds", "adjugate_identity_numeric",
        "swap_symmetry_holds", "spans_product_entries", "witness_pair_valid",
    ),
    "cli": ("main",),
}

SWEEP_SIZES = (16, 32, 48, 64)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Span:
    __slots__ = ("key", "children")

    def __init__(self, key: str):
        self.key = key
        self.children: list[tuple[float, float]] = []


def _probe_pfaffian(tracer, args, result, parent, seconds, computed):
    matrix = args[0]
    tracer.maximum("exact.pfaffian.size_max", matrix.size if hasattr(matrix, "size") else len(matrix))


def _probe_beta_vector(tracer, args, result, parent, seconds, computed):
    n = args[0]
    tracer.maximum("multidegree.n_max", n)
    tracer.add("multidegree.beta_vector.computed", computed)
    if computed:
        tracer.add("multidegree.masks", 1 << (n + 1))


def _probe_ml_degree(tracer, args, result, parent, seconds, computed):
    tracer.sample("mldegree.n_sampled", args[0])


def _probe_ml_table(tracer, args, result, parent, seconds, computed):
    for n in range(1, args[0] + 1):
        tracer.sample("mldegree.n_sampled", n)


def _probe_determinant(tracer, args, result, parent, seconds, computed):
    rows = args[0]
    tracer.maximum("symbolic.determinant.size_max", len(rows))
    is_int = not rows or isinstance(rows[0][0], int)
    tracer.add("symbolic.determinant.int_s" if is_int else "symbolic.determinant.poly_s", seconds)
    # A zero determinant outside an adjugate is a singular draw that is resampled.
    if result == 0 and parent != "symbolic.adjugate":
        tracer.add("symbolic.determinant.zero_results", 1)


PROBES = {
    "exact.pfaffian": _probe_pfaffian,
    "multidegree.beta_vector": _probe_beta_vector,
    "mldegree.ml_degree": _probe_ml_degree,
    "mldegree.ml_table": _probe_ml_table,
    "symbolic.determinant": _probe_determinant,
}


class Tracer:
    """Aggregates spans and counters in memory; ``report`` returns them as JSON data."""

    def __init__(self):
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._lock = threading.Lock()
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counters: dict[str, float] = defaultdict(int)
        self.samples: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []

    def add(self, name: str, value) -> None:
        with self._lock:
            self.counters[name] += value

    def maximum(self, name: str, value) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def sample(self, name: str, value) -> None:
        with self._lock:
            self.samples[name].add(value)

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def wrap(self, key: str, fn):
        probe = PROBES.get(key)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = _Span(key)
            misses = cache_info().misses if cache_info else 0
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                self_s = seconds - _union_length(span.children)
                if parent is not None:
                    parent.children.append((start, end))
                with self._lock:
                    entry = self.spans[key]
                    entry[0] += 1
                    entry[1] += seconds
                    entry[2] += self_s
            # A call computes unless it was a cache hit.
            computed = cache_info().misses - misses if cache_info else 1
            if probe:
                probe(self, args, result, parent.key if parent else None, seconds, computed)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED that exists; record the rest as absent."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"invdeg.{layer}")
            except ImportError:
                self.absent.append(layer)
        namespaces = [m for name, m in sys.modules.items() if name == "invdeg" or name.startswith("invdeg.")]
        for layer, module in modules.items():
            for name in WRAPPED[layer]:
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self.wrap(f"{layer}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def report(self) -> dict:
        counters = dict(self.counters)
        counters.update({name: len(values) for name, values in self.samples.items()})
        return {"spans": dict(self.spans), "counters": counters, "absent": self.absent}


def sweep() -> dict:
    """Time the Pfaffian of the psi pair matrix of {1..k}; each must equal 1."""
    try:
        from invdeg.exact import SkewMatrix, pfaffian
        from invdeg.psi import psi_table
    except ImportError as exc:
        return {"absent": [str(exc)], "seconds": {}, "wrong": []}
    seconds, wrong = {}, []
    for k in SWEEP_SIZES:
        table = psi_table(k)
        matrix = SkewMatrix.from_upper(k, lambda i, j: table.pair(i + 1, j + 1))
        start = perf_counter()
        value = pfaffian(matrix)
        seconds[str(k)] = perf_counter() - start
        if value != 1:
            wrong.append(k)
    return {"absent": [], "seconds": seconds, "wrong": wrong}


def main(argv: list[str]) -> int:
    fd, args = int(argv[0]), argv[1:]
    if args == ["--sweep"]:
        code, report = 0, sweep()
    else:
        tracer = Tracer()
        tracer.install()
        import invdeg.cli

        code = invdeg.cli.main(args)
        sys.stdout.flush()
        report = tracer.report()
    with os.fdopen(fd, "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
