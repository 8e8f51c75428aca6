"""Spans around every call into kkmlab's public functions, installed from outside.

A module's public functions are those in its ``__all__`` (the functions not
starting with ``_`` when it has none).  The package re-exports them with
``from .x import y``, so each is replaced by one timing wrapper in every
kkmlab namespace that binds it; calls between modules and within a module both
pass through the wrapper.  Generator functions are left alone, because a span
around one would time only the creation of the generator.

Each span records its parent, its operation and its self time (duration minus
the time its child spans cover).  Counts come from each call's arguments and
return value, never from inside the library.  Spans stay in memory; the
per-layer metrics are aggregated from them after the pass.  The tracer keeps
one stack, so it supports one thread: the workloads run with ``workers = 1``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    op: str
    parent: int  # index of the parent span, -1 for a root
    key: str  # "<module>.<function>"
    start: float
    end: float
    self_s: float


def stirling2(n: int, k: int) -> int:
    """Partitions of n items into exactly k nonempty blocks."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def _problem_key(P, k) -> tuple:
    return (P.atoms.tobytes(), P.weights.tobytes(), P.kernel, int(k))


# Per-call counts, from arguments ``a`` and result ``r``.
COUNTERS = {
    "kernels.gram_matrix": lambda a, r: {"bytes": 8 * r.n**2},
    "clustering.kernel_lloyd": lambda a, r: {"iterations": r[1].iterations},
    "clustering.brute_force_erm": lambda a, r: {"partitions": stirling2(a["K"].n, a["k"])},
    "seeding.local_search_improve": lambda a, r: {
        "rounds": a["rounds"], "swaps": r.swaps_accepted - a["seed"].swaps_accepted},
    "nystrom.nystrom_embed": lambda a, r: {
        "rank_deficient": int(r.rank < a["L"].m), "m_sum": a["L"].m},
    "nystrom.euclidean_lloyd": lambda a, r: {"iterations": r[1].iterations},
    "rademacher.coordinate_rad": lambda a, r: {"patterns": r.trials},
    "rademacher.finite_class_rad": lambda a, r: {"patterns": r.trials},
}
DISTINCT = {"risk.optimal_risk": lambda a: _problem_key(a["P"], a["k"])}

# The per-layer metrics, in the order BENCHMARK.json lists them.
FUNCTION_METRICS = {
    "kernels.gram_matrix": ("calls", "self_s", "bytes"),
    "kernels.spectrum_of": ("calls", "self_s"),
    "clustering.kernel_lloyd": ("calls", "self_s", "iterations", "iter_s"),
    "clustering.cluster_cost": ("calls", "self_s"),
    "clustering.brute_force_erm": ("calls", "self_s", "partitions"),
    "seeding.kernel_kmeanspp": ("calls", "self_s"),
    "seeding.local_search_improve": ("calls", "self_s", "rounds", "swaps", "round_s", "accept_ratio"),
    "seeding.approximate_erm": ("calls", "self_s"),
    "nystrom.nystrom_embed": ("calls", "self_s", "rank_deficient", "m_mean"),
    "nystrom.euclidean_lloyd": ("calls", "self_s", "iterations", "iter_s"),
    "nystrom.euclidean_kmeanspp_labels": ("calls", "self_s"),
    "risk.optimal_risk": ("calls", "self_s", "total_s", "distinct", "redundant_ratio"),
    "risk.run_cell": ("calls", "self_s"),
    "risk.population_risk": ("calls", "self_s"),
    "rademacher.coordinate_rad": ("calls", "self_s", "patterns"),
    "rademacher.finite_class_rad": ("calls", "self_s", "patterns"),
    "rademacher.khintchine_check": ("calls", "self_s"),
    "config.load_config": ("calls", "self_s"),
    "cli.cmd_cluster": ("self_s",),
    "cli.cmd_spectrum": ("self_s",),
    "cli.cmd_nystrom_embed": ("self_s",),
    "cli.cmd_rad_check": ("self_s",),
    "cli.cmd_risk_scan": ("self_s",),
}
# Layers are modules; the config parser counts with the CLI that calls it.
LAYERS = ("kernels", "clustering", "seeding", "nystrom", "risk", "rademacher", "cli")
LAYER_OF = {"config": "cli"}

UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "bytes": "B", "iterations": "count",
    "iter_s": "s", "partitions": "count", "rounds": "count", "swaps": "count", "round_s": "s",
    "accept_ratio": "ratio", "rank_deficient": "count", "m_mean": "count", "distinct": "count",
    "redundant_ratio": "ratio", "patterns": "count", "share": "ratio", "spans": "count",
    "run_s": "s", "untraced_run_s": "s", "overhead_s": "s", "bytes_written": "B",
}
COUNT_UNITS = {"count", "B"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric."""
    names = [(f"{key}.{field}", UNITS[field])
             for key, fields in FUNCTION_METRICS.items() for field in fields]
    names.append(("cli.bytes_written", "B"))
    for layer in LAYERS:
        names += [(f"layer.{layer}.self_s", "s"), (f"layer.{layer}.share", "ratio")]
    names += [(f"trace.{f}", UNITS[f]) for f in ("run_s", "untraced_run_s", "overhead_s", "spans")]
    return names


def public_functions(package) -> dict:
    """{function: "<module>.<name>"} for every public function of the package."""
    found = {}
    for mod_name, module in sorted(sys.modules.items()):
        short = mod_name.rpartition(".")[2]
        if not mod_name.startswith(package.__name__ + ".") or short.startswith("_"):
            continue
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            fn = getattr(module, name)
            if (inspect.isfunction(fn) and fn.__module__ == mod_name
                    and not inspect.isgeneratorfunction(fn)):
                found[fn] = f"{short}.{name}"
    return found


class Tracer:
    def __init__(self, package):
        self.package = package
        self.targets = public_functions(package)
        self.spans: list[Span | None] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.distinct: dict[str, set] = defaultdict(set)
        self.op = ""
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple] = []

    def _wrap(self, fn, key):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter, distinct = COUNTERS.get(key), DISTINCT.get(key)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = Span(self.op, parent, key, start, end, end - start - frame[1])
            if counter or distinct:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if counter:
                    self.counts[key].update(counter(bound.arguments, result))
                if distinct:
                    self.distinct[key].add(distinct(bound.arguments))
            return result

        return traced

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, key) for fn, key in self.targets.items()}
        package = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, for a pass of ``run_s``."""
        calls, self_s, total_s = Counter(), Counter(), Counter()
        for span in self.spans:
            calls[span.key] += 1
            self_s[span.key] += span.self_s
            total_s[span.key] += span.end - span.start

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for key, fields in FUNCTION_METRICS.items():
            c = self.counts[key]
            derived = {
                "calls": calls[key], "self_s": self_s[key], "total_s": total_s[key],
                "iter_s": ratio(total_s[key], c["iterations"]),
                "round_s": ratio(total_s[key], c["rounds"]),
                "accept_ratio": ratio(c["swaps"], c["rounds"]),
                "m_mean": ratio(c["m_sum"], calls[key]),
                "distinct": len(self.distinct[key]),
                "redundant_ratio": 1.0 - ratio(len(self.distinct[key]), calls[key])
                if calls[key] else 0.0,
            }
            for field in fields:
                out[f"{key}.{field}"] = derived[field] if field in derived else c[field]
        layer_s = Counter()
        for key, seconds in self_s.items():
            module = key.partition(".")[0]
            layer_s[LAYER_OF.get(module, module)] += seconds
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_s[layer]
            out[f"layer.{layer}.share"] = ratio(layer_s[layer], run_s)
        out["trace.spans"] = len(self.spans)
        return out
