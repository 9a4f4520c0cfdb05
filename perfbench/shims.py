"""Span-recording shims for the traced run.

The traced run wraps the public entry points of each layer of
``repro`` with a shim that times the call and attributes it to the
layer.  Nothing under ``src/`` changes: :func:`install` replaces the
entry points in place (class attributes for methods; every ``repro``
module attribute bound to the same function object for module-level
functions, so ``from x import f`` call sites are wrapped too).

A layer's *self time* is its calls' wall time minus the time of the
wrapped calls nested inside them.  Self times therefore add up, and
``other`` (time under no shim) closes the sum to the run's wall time.

:data:`ENTRY_POINTS` is the layer table; ``perfbench/LAYERS.md`` lists
which end-to-end metric each layer is expected to move, on which
workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _count(key):
    return lambda counts, args, result: counts.__setitem__(key, counts[key] + 1)


def _requests(counts, args, result):
    counts["requests.count"] += len(result)


def _replay_chunk(counts, args, result):
    counts["vectorized.requests"] += len(args[1].rids)


def _simulator(counts, args, result):
    counts["simulator.requests"] += len(args[1])


def _planning(counts, args, result):
    counts["planning.candidates"] += len(result.candidates)
    counts["planning.feasible"] += sum(1 for c in result.candidates if c.feasible)


def _sweep(counts, args, result):
    counts["chaos.replays"] += 1 + len(result.outcomes)
    for outcome in result.outcomes:
        counts["chaos.aborted_rpcs"] += outcome.result.aborted_rpcs
        counts["chaos.dropped"] += len(outcome.result.incomplete_requests)


#: ``(layer, module, attribute path, counter, count nested calls)``.  A
#: counter is ``f(counts, args, result)``; unless the last field is
#: True it only runs for calls not nested in a call of the same layer
#: (``generate_many`` delegates to ``generate_batch``).
ENTRY_POINTS = (
    ("requests", "repro.requests.generator", "RequestGenerator.generate_many", _requests, False),
    ("requests", "repro.requests.generator", "RequestGenerator.generate_batch", _requests, False),
    ("workloads", "repro.workloads.workload", "Workload.sample", None, False),
    ("workloads", "repro.workloads.workload", "WorkloadMix.sample", None, False),
    ("pooling", "repro.sharding.pooling", "estimate_pooling_factors", _count("pooling.calls"), False),
    ("pooling", "repro.requests.generator", "RequestGenerator.table_totals", _count("pooling.computed"), True),
    ("build_plan", "repro.experiments.configs", "build_plan", _count("build_plan.count"), False),
    ("columnar", "repro.serving.columnar", "_cached_chunk_plans", _count("columnar.chunks"), True),
    ("columnar", "repro.serving.columnar", "build_chunk_plans", _count("columnar.builds"), True),
    ("columnar", "repro.serving.columnar", "_scalar_chunk_plans", _count("columnar.builds"), True),
    ("vectorized", "repro.simulation.vectorized", "SweepEvaluator.replay_chunk", _replay_chunk, False),
    ("simulator", "repro.serving.simulator", "ClusterSimulation.run_serial", _simulator, False),
    ("simulator", "repro.serving.simulator", "ClusterSimulation.run_open_loop", _simulator, False),
    ("simulator", "repro.serving.simulator", "ClusterSimulation.run_stream", _simulator, False),
    ("tracing", "repro.tracing.attribution", "attribute_request", _count("tracing.folds"), False),
    ("tracing", "repro.tracing.aggregate", "AggregatingTracer.finalize_request", _count("tracing.folds"), False),
    ("tracing", "repro.simulation.vectorized", "VectorizedColumns.fold_request", _count("tracing.folds"), False),
    ("tracing", "repro.experiments.runner", "RunResult.adopt_aggregate", None, False),
    ("runner", "repro.experiments.runner", "run_configuration", _count("runner.ops"), True),
    ("runner", "repro.experiments.runner", "run_mix_configuration", _count("runner.ops"), True),
    ("planning", "repro.planning.capacity", "CapacityPlanner.plan", _planning, False),
    ("chaos", "repro.chaos.experiment", "availability_sweep", _sweep, False),
    ("chaos", "repro.chaos.availability", "availability_report", None, False),
)

#: Every figure generator is an entry point of the ``figures`` layer.
FIGURES_MODULE = "repro.experiments.figures"

#: Each layer's self-time metric (the rest of a layer's metrics are the
#: counts named in the counters above).
SELF_TIME_METRIC = {
    "requests": "requests.s",
    "workloads": "workloads.sample_s",
    "pooling": "pooling.s",
    "build_plan": "build_plan.s",
    "columnar": "columnar.build_s",
    "vectorized": "vectorized.replay_s",
    "simulator": "simulator.replay_s",
    "tracing": "tracing.fold_s",
    "runner": "runner.self_s",
    "planning": "planning.self_s",
    "chaos": "chaos.self_s",
    "figures": "figures.s",
}

COUNT_METRICS = (
    "requests.count", "pooling.calls", "pooling.computed", "build_plan.count",
    "columnar.builds", "columnar.chunks", "vectorized.requests",
    "simulator.requests", "tracing.folds", "runner.ops",
    "planning.candidates", "planning.feasible", "chaos.replays",
    "chaos.aborted_rpcs", "chaos.dropped",
)


class Recorder:
    """Self time per layer, counts, and the runner's per-op durations."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_durations: list[float] = []
        self.missing: list[str] = []
        self._stack: list[list] = []

    def wrap(self, layer: str, fn, counter=None, count_nested: bool = False):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        ops = self.op_durations if layer == "runner" else None

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None and (count_nested or not nested):
                counter(counts, args, result)
            if ops is not None and not nested:
                ops.append(elapsed)
            return result

        return shim


def _rebind_module_attrs(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (covers ``from module import name`` call sites)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install() -> Recorder:
    """Wrap every entry point in :data:`ENTRY_POINTS` and every figure
    generator; return the recorder they report to.

    An entry point that no longer exists is listed in
    ``Recorder.missing`` (and reported in the run's record), not skipped
    silently.
    """
    recorder = Recorder()
    for layer, module_name, path, counter, count_nested in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            recorder.missing.append(f"{module_name}.{path}")
            continue
        shim = recorder.wrap(layer, original, counter, count_nested)
        if owner_name:
            setattr(owner, attr, shim)
        else:
            _rebind_module_attrs(original, shim)

    figures = importlib.import_module(FIGURES_MODULE)
    for attr, value in sorted(vars(figures).items()):
        generator = (
            attr.startswith(("fig", "table", "overhead_figure", "per_shard_figure"))
            and callable(value)
            and getattr(value, "__module__", None) == FIGURES_MODULE
        )
        if generator:
            _rebind_module_attrs(value, recorder.wrap("figures", value))
    return recorder
