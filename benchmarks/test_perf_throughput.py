"""Simulation fast-path throughput benchmark (``BENCH_throughput.json``).

Times the stages the fast path optimized -- request generation, the DES
sweep in both trace modes, the parallel sweep runner, a co-located
diurnal ``WorkloadMix`` sweep in AGGREGATE mode, and a closed-loop
``CapacityPlanner`` search over that mix -- and records
simulated-requests-per-second into ``BENCH_throughput.json`` via
:func:`repro.analysis.bench.record_benchmark` (the committed
``results/`` copy only under ``REPRO_BENCH_RECORD=1``, else
``results/smoke/``).  CI uploads the JSON as an
artifact; comparing it across commits is the perf-regression trajectory
for the experiment pipeline (the ``mix_sweep`` entry starts the
mixed-workload branch of that trajectory, ``plan_sweep`` the
capacity-planning branch, ``chaos_sweep`` the fault-injection branch,
``kernel_sweep``/``kernel_ops`` the batched-DES-kernel branch, and
``vectorized_sweep`` the columnar-replay branch -- its headline ratio
times the sweep phase both kernels share, with requests, pooling, and
plans precomputed).

``REPRO_TRACE_MODE`` (``full``/``aggregate``, default ``full``) selects
the trace mode of the *parallel* sweep and suffixes the artifact name
(``BENCH_throughput_aggregate.json`` for the aggregate run), so CI can
record both trajectories side by side.  The serial sweep is always timed
in both modes: the ``aggregate_sweep`` entry tracks the span-free fast
path and its speedup over full tracing.

``SEED_SWEEP_RPS`` is the measured throughput of the pre-fast-path code
(the v0 seed commit) for the identical DRM1 paper sweep on the reference
dev container; ``speedup_vs_seed`` in the artifact is relative to it and
is only meaningful on comparable hardware.  ``PR1_FULL_TRACE_RPS`` is the
same sweep measured at the PR 1 commit (full tracing, REPRO_REQUESTS=2000)
and anchors the aggregate-mode speedup claim.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from repro.analysis.bench import record_benchmark
from repro.chaos import CorrelatedFailure, HostCrash, availability_sweep
from repro.resilience import ResiliencePolicy
from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    paper_configurations,
    run_configuration,
    run_mix_suite,
    run_suite,
    run_suite_parallel,
    suite_requests,
)
from repro.experiments.runner import default_chunk_size
from repro.experiments.parallel import default_workers
from repro.planning import CandidateSpace, CapacityPlanner
from repro.sharding.pooling import estimate_pooling_factors
from repro.models import drm1, drm2
from repro.requests import RequestGenerator
from repro.serving import ServingConfig, TraceMode
from repro.tracing.span import MAIN_SHARD, Layer, Span
from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix

from conftest import BENCH_REQUESTS
from test_perf_kernel import measure_kernel_ops

#: Seed-commit reference: 11-config DRM1 sweep at REPRO_REQUESTS=500 ran at
#: 85.5 simulated requests/second on the reference container (measured at
#: the commit introducing this benchmark, before the fast path landed).
SEED_SWEEP_RPS = 85.5
SEED_SWEEP_REQUESTS = 500

#: PR 2 reference: the 11-config DRM1 AGGREGATE sweep at REPRO_REQUESTS=150
#: ran at 1329.4 simulated requests/second serial on the reference dev
#: container (the committed ``aggregate_sweep.serial_rps`` at the PR 2
#: commit) -- the anchor for the batched-kernel ``kernel_sweep`` rung.
PR2_AGGREGATE_RPS = 1329.4
PR2_AGGREGATE_REQUESTS = 150

#: PR 1 reference: the same sweep with full tracing at REPRO_REQUESTS=2000
#: ran at 575 simulated requests/second on the reference dev container
#: (measured at the PR 1 commit, before aggregate tracing landed).
PR1_FULL_TRACE_RPS = 575.0
PR1_FULL_TRACE_REQUESTS = 2000

#: Request count for the generator microbenchmark (generation is orders of
#: magnitude faster than simulation, so it needs a bigger sample to time).
GEN_REQUESTS = 2000


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _time_best(fn, repeats: int = 2):
    """Best-of-N wall time: resilient to scheduler noise on shared CI."""
    result, best = _time(fn)
    for _ in range(repeats - 1):
        result, elapsed = _time(fn)
        best = min(best, elapsed)
    return result, best


def _span_bytes_per_instance(count: int = 10_000) -> float:
    """Live bytes per Span, measured -- the ``__slots__`` win tracker."""
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    spans = [
        Span(
            request_id=i, shard=MAIN_SHARD, server="main", layer=Layer.SERDE,
            name="bench", start=0.0, end=1.0, cpu_time=0.5,
        )
        for i in range(count)
    ]
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(spans) == count
    return (after - before) / count


def test_perf_throughput():
    model = drm1()
    # Every rung below except the batched and vectorized ones records a
    # reference-kernel rate, so both settings pin that kernel (and the
    # trace mode) instead of taking the library defaults.
    settings = SuiteSettings(
        num_requests=BENCH_REQUESTS,
        serving=ServingConfig(seed=1, kernel="reference"),
        trace_mode=TraceMode.FULL,
    )
    trace_mode = TraceMode(os.environ.get("REPRO_TRACE_MODE", "full"))
    aggregate_settings = SuiteSettings(
        num_requests=BENCH_REQUESTS,
        serving=ServingConfig(seed=1, kernel="reference"),
        trace_mode=TraceMode.AGGREGATE,
    )

    # 1. Request generation: vectorized bulk path vs scalar reference.
    vec_requests, vec_s = _time_best(
        lambda: RequestGenerator(model, seed=3).generate_many(GEN_REQUESTS)
    )
    timestamps = np.linspace(0.0, 5.0 * 86_400.0, GEN_REQUESTS, endpoint=False)

    def scalar_pass():
        generator = RequestGenerator(model, seed=3)
        return [generator.generate(i, float(t)) for i, t in enumerate(timestamps)]

    scalar_requests, scalar_s = _time_best(scalar_pass)
    assert len(vec_requests) == len(scalar_requests) == GEN_REQUESTS
    gen_speedup = scalar_s / vec_s
    # DRM1 is the worst case for the bulk path (most tables, biggest
    # requests); it still wins clearly once scheduler noise is excluded.
    # Advisory on shared CI runners (the JSON artifact is the regression
    # signal); enforced only where the host is known-quiet.
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert gen_speedup > 1.2

    # 2. Serial DES sweep over the full DRM1 paper configuration matrix.
    # Warm the shared one-time caches (pooling memo, request sample is
    # regenerated per run but cached_property warmup matters) so serial
    # and parallel timings are both measured warm and comparable.
    suite_requests(model, settings)
    estimate_pooling_factors(
        model, num_requests=settings.pooling_requests, seed=settings.pooling_seed
    )
    serial_results, serial_s = _time(lambda: run_suite(model, settings))
    simulated = sum(len(result) for result in serial_results.values())
    serial_rps = simulated / serial_s
    assert simulated == BENCH_REQUESTS * len(serial_results)

    # 3. The same serial sweep with span-free aggregate tracing.  The
    # columns must be bit-identical to full tracing (spot-checked here;
    # exhaustively regression-tested in tests/test_trace_modes.py).
    aggregate_results, aggregate_s = _time(
        lambda: run_suite(model, aggregate_settings)
    )
    aggregate_rps = simulated / aggregate_s
    for label, full_result in serial_results.items():
        assert np.array_equal(full_result.e2e, aggregate_results[label].e2e)
        assert np.array_equal(full_result.cpu, aggregate_results[label].cpu)

    # 4. Parallel sweep runner (worker count depends on the host).
    workers = default_workers()
    parallel_settings = (
        aggregate_settings if trace_mode is TraceMode.AGGREGATE else settings
    )
    parallel_results, parallel_s = _time(
        lambda: run_suite_parallel(model, parallel_settings, max_workers=workers)
    )
    parallel_rps = simulated / parallel_s
    assert list(parallel_results) == list(serial_results)

    # 5. Diurnal WorkloadMix sweep: DRM1+DRM2 co-located on shared hosts
    # under diurnal arrivals, swept in AGGREGATE mode over a small shared
    # configuration matrix -- the mixed-workload throughput trajectory.
    mix = WorkloadMix(
        (
            Workload(
                "drm1-diurnal", model,
                PiecewiseRateArrivals.diurnal(50.0, seed=7), request_seed=3,
            ),
            Workload(
                "drm2-diurnal", drm2(),
                PiecewiseRateArrivals.diurnal(30.0, trough_fraction=0.5, seed=8),
                request_seed=4,
            ),
        )
    )
    mix_configurations = (
        ShardingConfiguration("singular"),
        ShardingConfiguration("load-bal", 4),
        ShardingConfiguration("NSBP", 8),
    )
    mix_results, mix_s = _time(
        lambda: run_mix_suite(mix, aggregate_settings, mix_configurations)
    )
    mix_simulated = sum(len(result) for result in mix_results.values())
    mix_rps = mix_simulated / mix_s
    assert mix_simulated == 2 * BENCH_REQUESTS * len(mix_results)
    for result in mix_results.values():
        assert result.workload_labels == mix.labels()
        per_workload = result.per_workload_e2e()
        assert all(len(v) == BENCH_REQUESTS for v in per_workload.values())

    # 6. Closed-loop capacity-planning search: the same diurnal mix, swept
    # over the shared configuration matrix and sized at three utilization
    # targets against its singular-derived SLA (AGGREGATE mode).  This is
    # the planner's perf trajectory from day one: its cost is dominated by
    # the candidate simulations, so it tracks the sweep fast path.
    planner = CapacityPlanner(
        space=CandidateSpace(configurations=mix_configurations),
        settings=aggregate_settings,
    )
    plan_result, plan_s = _time(lambda: planner.plan(mix))
    plan_simulated = 2 * BENCH_REQUESTS * len(mix_configurations)
    plan_rps = plan_simulated / plan_s
    # Feasibility depends on tail estimates, which tighten with
    # REPRO_REQUESTS; the artifact records the outcome, the benchmark
    # only asserts the search ran.
    chosen = plan_result.chosen

    # 7. Chaos availability sweep: one DRM1 host-crash suite replayed at
    # three sparse-replica counts (plus the healthy baseline replay that
    # fixes the SLO) in AGGREGATE mode -- the fault-injection rung of the
    # throughput trajectory.  Replica routing and the per-request status
    # accounting ride the same fast path, so this entry tracks the cost
    # the chaos layer adds on top of the plain open-loop replay.
    chaos_workload = Workload(
        "drm1-chaos", model,
        PiecewiseRateArrivals.diurnal(50.0, seed=7), request_seed=3,
    )
    chaos_replicas = (1, 2, 3)
    chaos_result, chaos_s = _time(
        lambda: availability_sweep(
            chaos_workload,
            ShardingConfiguration("load-bal", 4),
            (HostCrash(shard=0, at=0.1),),
            replica_counts=chaos_replicas,
            settings=aggregate_settings,
        )
    )
    chaos_simulated = BENCH_REQUESTS * (len(chaos_replicas) + 1)
    chaos_rps = chaos_simulated / chaos_s
    retention = [o.report.slo_retention for o in chaos_result.outcomes]
    assert all(a <= b for a, b in zip(retention, retention[1:]))

    # 7b. Tail-resilience sweep: the same workload under a correlated
    # domain crash (2 fault domains, spread placement) with a full
    # resilience policy -- per-attempt timeouts, retries, and
    # quantile-derived hedging.  The policy path swaps the plain RPC
    # generator for the supervised orchestrator, so this rung tracks the
    # overhead of attempt supervision on top of the chaos rung above.
    # Best-of-2, matching the perf guard's protocol: this rung runs late
    # in the benchmark where heap pressure from earlier rungs makes a
    # single sample noisy, and the guard compares against a fresh
    # best-of-2 measurement.
    resilience_replicas = (1, 2)
    resilience_result, resilience_s = _time_best(
        lambda: availability_sweep(
            chaos_workload,
            ShardingConfiguration("load-bal", 4),
            (CorrelatedFailure(domain=0, at=0.1),),
            replica_counts=resilience_replicas,
            domains=2,
            placement="spread",
            policy=ResiliencePolicy(
                rpc_timeout=5e-3, max_attempts=3, hedge_quantile=95.0
            ),
            settings=aggregate_settings,
        )
    )
    resilience_simulated = BENCH_REQUESTS * (len(resilience_replicas) + 1)
    resilience_rps = resilience_simulated / resilience_s
    resilience_attempts = int(
        sum(int(o.result.attempts.sum()) for o in resilience_result.outcomes)
    )
    resilience_hedged = int(
        sum(int(o.result.hedged.sum()) for o in resilience_result.outcomes)
    )
    assert resilience_attempts > 0

    # 8. Batched DES kernel: the same 11-config DRM1 AGGREGATE sweep on
    # kernel="batched" (deque-merged event loop, synchronous resource
    # grants, fused At yields), serial and parallel, anchored on the
    # committed PR 2 aggregate baseline.  The columns must be
    # bit-identical to the reference kernel (spot-checked here;
    # exhaustively pinned in tests/test_kernel_equivalence.py).  The raw
    # event-loop ops/sec per kernel ride along as `kernel_ops` -- they
    # double as the machine-speed proxy CI's perf-regression guard
    # normalizes the committed baseline with.
    batched_settings = SuiteSettings(
        num_requests=BENCH_REQUESTS,
        serving=ServingConfig(seed=1),
        trace_mode=TraceMode.AGGREGATE,
        kernel="batched",
    )
    batched_results, batched_s = _time(lambda: run_suite(model, batched_settings))
    batched_rps = simulated / batched_s
    for label, agg_result in aggregate_results.items():
        assert np.array_equal(agg_result.e2e, batched_results[label].e2e)
        assert np.array_equal(agg_result.cpu, batched_results[label].cpu)
    batched_parallel_results, batched_parallel_s = _time(
        lambda: run_suite_parallel(model, batched_settings, max_workers=workers)
    )
    batched_parallel_rps = simulated / batched_parallel_s
    assert list(batched_parallel_results) == list(batched_results)
    kernel_ops = measure_kernel_ops()

    # 9. Vectorized columnar replay: the same 11-config DRM1 AGGREGATE
    # sweep on kernel="vectorized" (no event loop -- per-request costs
    # transposed into per-chunk numpy columns and replayed as array
    # programs), bit-identical to the batched kernel (spot-checked here;
    # exhaustively pinned in tests/test_kernel_equivalence.py).  The
    # headline ratio times the *sweep phase* both kernels share: the
    # paper's replayer preprocesses and caches requests before sending
    # (run_suite docstring), so requests, pooling, and plans are
    # precomputed once and each kernel then replays the full
    # configuration matrix -- interleaved best-of-2, so scheduler noise
    # hits both kernels alike.  The first vectorized pass also warms the
    # columnar builder caches; the committed number is the warm replay,
    # matching every other warm-measured entry.
    vectorized_settings = SuiteSettings(
        num_requests=BENCH_REQUESTS,
        serving=ServingConfig(seed=1),
        trace_mode=TraceMode.AGGREGATE,
        kernel="vectorized",
    )
    vectorized_results, vectorized_suite_s = _time(
        lambda: run_suite(model, vectorized_settings)
    )
    vectorized_rps = simulated / vectorized_suite_s
    for label, result in vectorized_results.items():
        assert result.kernel_used == "vectorized", (label, result.kernel_fallback)
        assert result.kernel_fallback is None
        assert np.array_equal(batched_results[label].e2e, result.e2e)
        assert np.array_equal(batched_results[label].cpu, result.cpu)
    vectorized_parallel_results, vectorized_parallel_s = _time(
        lambda: run_suite_parallel(model, vectorized_settings, max_workers=workers)
    )
    vectorized_parallel_rps = simulated / vectorized_parallel_s
    assert list(vectorized_parallel_results) == list(vectorized_results)

    sweep_requests = suite_requests(model, vectorized_settings)
    sweep_pooling = estimate_pooling_factors(
        model, num_requests=vectorized_settings.pooling_requests,
        seed=vectorized_settings.pooling_seed,
    )
    sweep_plans = [
        build_plan(model, configuration, sweep_pooling)
        for configuration in paper_configurations(model.name)
    ]
    sweep_schedule = vectorized_settings.resolved_schedule()

    def kernel_sweep_once(serving):
        for sweep_plan in sweep_plans:
            run_configuration(
                model, sweep_plan, sweep_requests, serving, sweep_schedule
            )

    batched_serving = batched_settings.resolved_serving()
    vectorized_serving = vectorized_settings.resolved_serving()
    kernel_sweep_once(vectorized_serving)  # warm the builder caches
    batched_sweep_s = vectorized_sweep_s = float("inf")
    for _ in range(2):
        _, elapsed = _time(lambda: kernel_sweep_once(batched_serving))
        batched_sweep_s = min(batched_sweep_s, elapsed)
        _, elapsed = _time(lambda: kernel_sweep_once(vectorized_serving))
        vectorized_sweep_s = min(vectorized_sweep_s, elapsed)
    vectorized_sweep_rps = simulated / vectorized_sweep_s
    batched_sweep_rps = simulated / batched_sweep_s
    vectorized_speedup = batched_sweep_s / vectorized_sweep_s
    # Advisory on shared CI runners, enforced where the host is
    # known-quiet (the committed artifact is the acceptance signal).
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert vectorized_speedup > 3.0

    span_bytes = _span_bytes_per_instance()

    suffix = "" if trace_mode is TraceMode.FULL else f"_{trace_mode.value}"
    path = record_benchmark(
        f"throughput{suffix}",
        {
            "bench_requests": BENCH_REQUESTS,
            "configurations": len(serial_results),
            "generator": {
                "requests": GEN_REQUESTS,
                "vectorized_rps": GEN_REQUESTS / vec_s,
                "scalar_rps": GEN_REQUESTS / scalar_s,
                "speedup_vectorized_vs_scalar": gen_speedup,
            },
            "sweep": {
                "simulated_requests": simulated,
                "serial_wall_s": serial_s,
                "serial_rps": serial_rps,
                "parallel_wall_s": parallel_s,
                "parallel_rps": parallel_rps,
                "parallel_workers": workers,
                "seed_reference_rps": SEED_SWEEP_RPS,
                "seed_reference_requests": SEED_SWEEP_REQUESTS,
                # Only an apples-to-apples ratio when the request count
                # matches the one the seed reference was measured at; the
                # single-process serial number is compared (the seed
                # reference is serial), so hardware parallelism can never
                # mask a fast-path regression.
                "speedup_vs_seed": (
                    serial_rps / SEED_SWEEP_RPS
                    if BENCH_REQUESTS == SEED_SWEEP_REQUESTS
                    else None
                ),
            },
            "aggregate_sweep": {
                "simulated_requests": simulated,
                "serial_wall_s": aggregate_s,
                "serial_rps": aggregate_rps,
                # Span-free tracing vs full tracing, same commit, same
                # request sample -- the direct cost of materializing and
                # attributing spans.
                "speedup_vs_full_trace": aggregate_rps / serial_rps,
                "pr1_reference_rps": PR1_FULL_TRACE_RPS,
                "pr1_reference_requests": PR1_FULL_TRACE_REQUESTS,
                # The sweep-cost claim of the aggregate fast path: only an
                # apples-to-apples ratio at the request count the PR 1
                # full-trace reference was measured at.
                "speedup_vs_pr1_full_trace": (
                    aggregate_rps / PR1_FULL_TRACE_RPS
                    if BENCH_REQUESTS == PR1_FULL_TRACE_REQUESTS
                    else None
                ),
            },
            "mix_sweep": {
                # Two-model diurnal co-location (shared simulated hosts),
                # AGGREGATE trace mode: the mixed-workload rung of the
                # throughput trajectory.
                "workloads": list(mix.labels()),
                "configurations": len(mix_results),
                "simulated_requests": mix_simulated,
                "wall_s": mix_s,
                "rps": mix_rps,
            },
            "plan_sweep": {
                # Closed-loop SLA-driven deployment search over the same
                # diurnal DRM1+DRM2 mix: candidate simulation + per-shard
                # sizing + feasibility filtering, end to end.
                "configurations": len(mix_configurations),
                "utilization_targets": len(planner.space.utilization_targets),
                "candidates": len(plan_result.candidates),
                "simulated_requests": plan_simulated,
                "wall_s": plan_s,
                "rps": plan_rps,
                "feasible": plan_result.feasible,
                "chosen": chosen.label if chosen else None,
                "chosen_servers": chosen.total_servers if chosen else None,
            },
            "kernel_sweep": {
                # Batched DES kernel over the 11-config DRM1 AGGREGATE
                # sweep, bit-identical to the reference kernel.  The
                # PR 2 anchor is a *serial, reference-container* number:
                # the per-kernel `kernel_ops` above is the machine-speed
                # context for reading the ratios on other hosts, and the
                # parallel rung is where multi-core hosts collect the
                # shard-level (one process per simulated cluster) win.
                "kernel": "batched",
                "simulated_requests": simulated,
                "serial_wall_s": batched_s,
                "serial_rps": batched_rps,
                "parallel_wall_s": batched_parallel_s,
                "parallel_rps": batched_parallel_rps,
                "parallel_workers": workers,
                "speedup_vs_reference_kernel": batched_rps / aggregate_rps,
                "pr2_reference_rps": PR2_AGGREGATE_RPS,
                "pr2_reference_requests": PR2_AGGREGATE_REQUESTS,
                "speedup_vs_pr2_serial": (
                    batched_rps / PR2_AGGREGATE_RPS
                    if BENCH_REQUESTS == PR2_AGGREGATE_REQUESTS
                    else None
                ),
                "speedup_vs_pr2_parallel": (
                    batched_parallel_rps / PR2_AGGREGATE_RPS
                    if BENCH_REQUESTS == PR2_AGGREGATE_REQUESTS
                    else None
                ),
            },
            "kernel_ops": kernel_ops,
            "vectorized_sweep": {
                # Columnar replay over the 11-config DRM1 AGGREGATE
                # sweep, bit-identical to the batched kernel.  The
                # headline `speedup_vs_batched_kernel` compares the
                # sweep phase both kernels share (requests, pooling,
                # and plans precomputed; warm builder caches); the
                # suite-level serial/parallel rps include request
                # generation and are comparable to `kernel_sweep`.
                "kernel": "vectorized",
                "simulated_requests": simulated,
                "chunk_size": default_chunk_size(),
                "serial_wall_s": vectorized_suite_s,
                "serial_rps": vectorized_rps,
                "parallel_wall_s": vectorized_parallel_s,
                "parallel_rps": vectorized_parallel_rps,
                "parallel_workers": workers,
                "sweep_wall_s": vectorized_sweep_s,
                "sweep_rps": vectorized_sweep_rps,
                "batched_sweep_wall_s": batched_sweep_s,
                "batched_sweep_rps": batched_sweep_rps,
                "speedup_vs_batched_kernel": vectorized_speedup,
                "speedup_vs_batched_suite": vectorized_rps / batched_rps,
            },
            "chaos_sweep": {
                # Fault-injection availability sweep: healthy baseline +
                # one host-crash replay per replica count (AGGREGATE).
                "replica_counts": list(chaos_replicas),
                "simulated_requests": chaos_simulated,
                "wall_s": chaos_s,
                "rps": chaos_rps,
                "slo_retention": retention,
                "replicas_for_999": chaos_result.replicas_for(0.999),
            },
            "resilience_sweep": {
                # Correlated domain crash (2 domains, spread) under a
                # timeout+retry+hedge policy: the tail-resilience rung.
                "replica_counts": list(resilience_replicas),
                "simulated_requests": resilience_simulated,
                "wall_s": resilience_s,
                "rps": resilience_rps,
                "attempts": resilience_attempts,
                "hedged": resilience_hedged,
                "slo_retention": [
                    o.report.slo_retention
                    for o in resilience_result.outcomes
                ],
            },
            "parallel_trace_mode": trace_mode.value,
            "span_bytes_per_instance": span_bytes,
        },
    )
    print(
        f"\n[bench] serial {serial_rps:.0f} req/s (full) / {aggregate_rps:.0f} "
        f"req/s (aggregate, {aggregate_rps / serial_rps:.2f}x), parallel "
        f"{parallel_rps:.0f} req/s ({workers} workers, {trace_mode.value}), "
        f"mix {mix_rps:.0f} req/s (diurnal DRM1+DRM2, aggregate), "
        f"plan {plan_s:.2f}s ({len(plan_result.candidates)} candidates -> "
        f"{chosen.label if chosen else 'infeasible'}), "
        f"chaos {chaos_rps:.0f} req/s ({len(chaos_replicas)} replica counts), "
        f"resilience {resilience_rps:.0f} req/s "
        f"({resilience_attempts} attempts, {resilience_hedged} hedged), "
        f"batched kernel {batched_rps:.0f} req/s serial / "
        f"{batched_parallel_rps:.0f} req/s parallel "
        f"({batched_rps / aggregate_rps:.2f}x reference), "
        f"vectorized kernel {vectorized_sweep_rps:.0f} req/s sweep-phase "
        f"({vectorized_speedup:.2f}x batched), "
        f"gen speedup {gen_speedup:.1f}x, span {span_bytes:.0f} B -> {path}"
    )
    assert serial_rps > 0 and aggregate_rps > 0 and parallel_rps > 0 and mix_rps > 0
    assert plan_rps > 0 and plan_result.candidates
    assert chaos_rps > 0 and resilience_rps > 0
    assert batched_rps > 0 and batched_parallel_rps > 0
    assert vectorized_rps > 0 and vectorized_sweep_rps > 0
