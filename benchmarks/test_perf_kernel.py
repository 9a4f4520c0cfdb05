"""DES kernel microbenchmark: raw event-loop ops/sec per kernel.

Times the event loop itself, stripped of serving-layer work, on the
three event classes that dominate sweeps:

* **timer hops** -- chained plain-delay yields: one heap push + pop +
  generator resume per op on both kernels (the irreducible cost floor);
* **cascade** -- process kick-offs, ``succeed()`` and ``AllOf`` joins,
  i.e. delay-0 traffic: heap churn on the reference kernel, O(1) deque
  appends/pops on the batched kernel;
* **resource churn** -- acquire/release hand-offs on a contended
  resource: deferred grant events on the reference kernel, synchronous
  grants (``SyncResource``) on the batched kernel.

:func:`measure_kernel_ops` is imported by ``test_perf_throughput.py`` to
embed a ``kernel_ops`` entry in ``results/BENCH_throughput.json``; the
test here also records a standalone ``BENCH_kernel_ops.json`` (under
``results/smoke/`` unless ``REPRO_BENCH_RECORD=1``, see
:func:`repro.analysis.bench.record_benchmark`) so the microbenchmark has
its own artifact trajectory.  The per-kernel
ops/sec double as a machine-speed proxy: CI's perf-regression guard
normalizes the committed sweep baseline by the reference kernel's
measured ops/sec before comparing, so a slow runner is not mistaken for
a regression.
"""

from __future__ import annotations

import time

from repro.analysis.bench import record_benchmark
from repro.simulation.engine import KERNELS, make_engine

#: Event-loop operations per workload per measurement pass.  Small enough
#: to stay sub-second per kernel on CI, large enough to dwarf timer
#: resolution.
KERNEL_OPS = 30_000

#: Best-of-N passes per workload (scheduler-noise resilience).
KERNEL_REPEATS = 3


def _timer_hops(engine, ops: int) -> None:
    def chain():
        for _ in range(ops):
            yield 1e-6

    engine.process(chain())
    engine.run()


def _cascade(engine, ops: int) -> None:
    # Each iteration: one child kick-off + completion + AllOf join --
    # pure delay-0 traffic.
    def child():
        return
        yield  # pragma: no cover - makes this a generator

    def parent(n):
        for _ in range(n):
            yield engine.all_of([engine.process(child())])

    engine.process(parent(ops // 3))
    engine.run()


def _resource_churn(engine, ops: int) -> None:
    resource = engine.resource(1)

    def worker(n):
        for _ in range(n):
            yield resource.acquire()
            yield 1e-6
            resource.release()

    # two workers contending on capacity 1: every release is a hand-off
    engine.process(worker(ops // 4))
    engine.process(worker(ops // 4))
    engine.run()


WORKLOADS = (
    ("timer_hops", _timer_hops),
    ("cascade", _cascade),
    ("resource_churn", _resource_churn),
)


def measure_kernel_ops(
    ops: int = KERNEL_OPS, repeats: int = KERNEL_REPEATS
) -> dict[str, dict[str, float]]:
    """Ops/sec per kernel per workload, plus a combined ``ops_per_s``.

    The combined number is total ops over total best-pass wall time --
    the single scalar the perf-regression guard uses as its
    machine-speed proxy.
    """
    results: dict[str, dict[str, float]] = {}
    for kernel in KERNELS:
        entry: dict[str, float] = {}
        total_s = 0.0
        for name, workload in WORKLOADS:
            best = float("inf")
            for _ in range(repeats):
                engine = make_engine(kernel)
                start = time.perf_counter()
                workload(engine, ops)
                best = min(best, time.perf_counter() - start)
            entry[f"{name}_per_s"] = ops / best
            total_s += best
        entry["ops_per_s"] = len(WORKLOADS) * ops / total_s
        results[kernel] = entry
    return results


def test_perf_kernel_ops():
    measured = measure_kernel_ops()
    path = record_benchmark(
        "kernel_ops",
        {"ops": KERNEL_OPS, "kernels": measured},
    )
    reference = measured["reference"]
    batched = measured["batched"]
    print(
        "\n[bench] kernel ops/s -- reference "
        f"{reference['ops_per_s']:.0f} (hops {reference['timer_hops_per_s']:.0f}, "
        f"cascade {reference['cascade_per_s']:.0f}, "
        f"churn {reference['resource_churn_per_s']:.0f}), batched "
        f"{batched['ops_per_s']:.0f} (hops {batched['timer_hops_per_s']:.0f}, "
        f"cascade {batched['cascade_per_s']:.0f}, "
        f"churn {batched['resource_churn_per_s']:.0f}) -> {path}"
    )
    for kernel, entry in measured.items():
        for name, value in entry.items():
            assert value > 0, (kernel, name)
    # The batched kernel exists to win exactly these two workloads; the
    # timer-hop floor is shared.  Advisory margin (shared CI runners are
    # noisy); the JSON artifact is the regression signal.
    assert batched["cascade_per_s"] > 0.8 * reference["cascade_per_s"]
    assert batched["resource_churn_per_s"] > 0.8 * reference["resource_churn_per_s"]
