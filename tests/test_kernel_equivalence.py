"""Kernel-equivalence regression pins: batched == reference, bit for bit.

The batched DES kernel (``BatchedEngine`` + ``SyncResource`` + fused
``At`` yields in the serving fast path) must replay every paper
configuration *bit-identically* to the reference kernel, in both trace
modes, serial and open-loop, healthy and under a chaos schedule.  This
is the determinism story the kernel selector ships with (see the
"Canonical event ordering" section in ``repro/simulation/engine.py`` and
rule 2 of the determinism contract in ``repro/core/rng.py``): the
batched kernel preserves the reference ``(time, sequence)`` order except
for synchronous resource grants, which only ever move pure computation
earlier within a timestamp -- so every recorded value, every column, and
every accumulator sum lands on the same floats.

The vectorized kernel extends the same contract to the columnar replay
path: eligible runs (serial closed-loop, chaos-free, AGGREGATE tracing)
bypass the event loop entirely yet land on the same floats (the
"vectorized equivalence" clauses in ``engine.py``/``rng.py``), and every
ineligible run falls back to the batched kernel with the reason recorded
on ``RunResult.kernel_fallback`` -- both pinned here.
"""

import tracemalloc

import numpy as np
import pytest

from repro.chaos import FaultSchedule, HealingPolicy, HostCrash, NetworkSpike, StragglerShard
from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    run_configuration,
    run_mix_suite,
    run_suite,
    run_suite_parallel,
)
from repro.experiments.runner import suite_requests
from repro.models import drm1, drm2, drm3
from repro.requests import ReplaySchedule
from repro.serving import ServingConfig, TraceMode
from repro.serving.columnar import (
    REASON_CHAOS,
    REASON_FULL_TRACE,
    REASON_MIX,
    REASON_OPEN_LOOP,
)
from repro.sharding.pooling import estimate_pooling_factors
from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix
from repro.simulation.engine import (
    DEFAULT_KERNEL,
    KERNELS,
    BatchedEngine,
    Engine,
    make_engine,
)

pytestmark = pytest.mark.filterwarnings("error")


def assert_run_identical(ref, new, label=""):
    """Bitwise equality of every RunResult column, chaos columns included."""
    assert np.array_equal(ref.e2e, new.e2e), label
    assert np.array_equal(ref.cpu, new.cpu), label
    for kind in ("latency", "embedded", "cpu"):
        ref_cols = ref.stack_columns(kind)
        new_cols = new.stack_columns(kind)
        for bucket in ref_cols:
            assert np.array_equal(ref_cols[bucket], new_cols[bucket]), (
                label, kind, bucket,
            )
    assert np.array_equal(ref.request_ids, new.request_ids), label
    assert np.array_equal(ref.status, new.status), label
    assert np.array_equal(ref.degraded, new.degraded), label
    assert np.array_equal(ref.retries, new.retries), label
    assert np.array_equal(ref.workloads, new.workloads), label
    for name in ("num_batches", "rpcs", "sparse_op_cpu", "dense_op_cpu"):
        assert np.array_equal(getattr(ref, name), getattr(new, name)), (label, name)
    assert ref.mean_cpu_by_shard() == new.mean_cpu_by_shard(), label
    assert ref.mean_per_shard_op_time() == new.mean_per_shard_op_time(), label
    assert ref.mean_per_shard_net_op_time() == new.mean_per_shard_net_op_time(), label
    assert ref.chaos_timeline == new.chaos_timeline, label
    assert ref.incomplete_requests == new.incomplete_requests, label


def assert_suites_identical(ref, new):
    assert list(ref) == list(new)
    for label in ref:
        assert_run_identical(ref[label], new[label], label)


def settings(kernel=None, trace_mode=None, num_requests=20, **serving_kwargs):
    """Suite settings on the reference oracle (reference kernel, FULL
    trace) unless ``kernel``/``trace_mode`` override it."""
    return SuiteSettings(
        num_requests=num_requests,
        pooling_requests=150,
        serving=ServingConfig(
            seed=1, kernel="reference", trace_mode=TraceMode.FULL,
            **serving_kwargs,
        ),
        trace_mode=trace_mode,
        kernel=kernel,
    )


class TestKernelSelection:
    def test_make_engine_kernels(self):
        assert type(make_engine("reference")) is Engine
        assert isinstance(make_engine("batched"), BatchedEngine)
        assert DEFAULT_KERNEL == "vectorized"
        assert DEFAULT_KERNEL in KERNELS and "batched" in KERNELS
        # The fast path is the default: columnar replay, span-free tracing.
        assert ServingConfig().kernel == DEFAULT_KERNEL
        assert ServingConfig().trace_mode is TraceMode.AGGREGATE

    def test_vectorized_kernel_registered(self):
        assert "vectorized" in KERNELS
        # An *engine* for the vectorized kernel is by definition the
        # fallback path (the columnar replay never runs an event loop),
        # which is the batched kernel.
        assert isinstance(make_engine("vectorized"), BatchedEngine)
        assert ServingConfig(kernel="vectorized").kernel == "vectorized"

    def test_make_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown DES kernel"):
            make_engine("calendar")

    def test_serving_config_validates_kernel(self):
        with pytest.raises(ValueError):
            ServingConfig(kernel="bogus")

    def test_suite_override_applies_kernel(self):
        resolved = settings(kernel="batched").resolved_serving()
        assert resolved.kernel == "batched"
        # no override keeps the serving config object untouched
        base = settings()
        assert base.resolved_serving() is base.serving

    def test_with_kernel_round_trip(self):
        config = ServingConfig(seed=3)
        assert config.with_kernel("batched").kernel == "batched"
        assert config.with_kernel("batched").seed == 3


class TestPaperConfigurationEquivalence:
    @pytest.mark.parametrize("factory", [drm1, drm2, drm3])
    def test_every_paper_configuration_full_trace(self, factory):
        model = factory()
        assert_suites_identical(
            run_suite(model, settings()),
            run_suite(model, settings(kernel="batched")),
        )

    @pytest.mark.parametrize("factory", [drm1, drm2, drm3])
    def test_every_paper_configuration_aggregate_trace(self, factory):
        model = factory()
        assert_suites_identical(
            run_suite(model, settings(trace_mode=TraceMode.AGGREGATE)),
            run_suite(
                model, settings(kernel="batched", trace_mode=TraceMode.AGGREGATE)
            ),
        )

    def test_open_loop_contended_with_clock_skew(self):
        """Queueing overlap + sync resource grants under contention."""
        model = drm1()

        def contended(kernel):
            return SuiteSettings(
                num_requests=40,
                pooling_requests=150,
                serving=ServingConfig(
                    seed=1, service_workers=2, clock_skew_sigma=0.002
                ),
                schedule=ReplaySchedule.open_loop(25.0, seed=2),
                kernel=kernel,
                trace_mode=TraceMode.FULL,
            )

        assert_suites_identical(
            run_suite(model, contended("reference")),
            run_suite(model, contended("batched")),
        )

    def test_full_equals_aggregate_on_batched_kernel(self):
        model = drm1()
        full = run_suite(model, settings(kernel="batched"))
        aggregate = run_suite(
            model, settings(kernel="batched", trace_mode=TraceMode.AGGREGATE)
        )
        assert list(full) == list(aggregate)
        for label in full:
            f, a = full[label], aggregate[label]
            assert np.array_equal(f.e2e, a.e2e), label
            assert np.array_equal(f.cpu, a.cpu), label
            for kind in ("latency", "embedded", "cpu"):
                fc, ac = f.stack_columns(kind), a.stack_columns(kind)
                for bucket in fc:
                    assert np.array_equal(fc[bucket], ac[bucket]), (label, bucket)

    def test_parallel_batched_matches_serial_batched(self):
        model = drm1()
        batched = settings(kernel="batched", trace_mode=TraceMode.AGGREGATE)
        assert_suites_identical(
            run_suite(model, batched),
            run_suite_parallel(model, batched, max_workers=2),
        )


class TestChaosEquivalence:
    """Chaos replays must run identically on both kernels.

    A chaos schedule disables the fused serving fast path (straggler
    multipliers are read at call time), but the BatchedEngine still
    drives the replay -- failover routing, heartbeat healing, and the
    fault timers all schedule through the deque-merged loop.
    """

    SCHEDULE = FaultSchedule(
        experiments=(
            HostCrash(shard=0, at=0.05, restart_after=0.3),
            StragglerShard(shard=1, start=0.0, duration=0.4, multiplier=3.0),
            NetworkSpike(start=0.1, duration=0.2, extra_latency=2e-4),
        ),
        replicas=2,
        healing=HealingPolicy(check_interval=0.05, consecutive_misses=2),
    )

    @pytest.mark.parametrize(
        "trace_mode", [None, TraceMode.AGGREGATE], ids=["full", "aggregate"]
    )
    def test_chaos_replay_matches_reference(self, trace_mode):
        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 4), pooling)
        base = SuiteSettings(
            num_requests=50, schedule=ReplaySchedule.open_loop(120.0, seed=2)
        )
        requests = suite_requests(model, base)
        schedule = base.resolved_schedule()

        def replay(kernel):
            serving = ServingConfig(
                seed=1, chaos=self.SCHEDULE, kernel=kernel,
                trace_mode=trace_mode or TraceMode.FULL,
            )
            return run_configuration(model, plan, requests, serving, schedule)

        ref = replay("reference")
        new = replay("batched")
        assert_run_identical(ref, new, "chaos")
        # the schedule actually bit: the equivalence is not vacuous
        assert ref.retries.sum() > 0 or ref.status.sum() > 0 or len(ref.chaos_timeline) > 0


class TestVectorizedEquivalence:
    """Columnar replay == reference, bit for bit, in the eligible regime.

    The vectorized kernel never runs a DES loop: per-request costs are
    transposed into per-chunk numpy columns and replayed as array
    programs with the exact left-associated float order the chained
    yields produce (see the module docstring of
    ``repro/simulation/vectorized.py``).  Every DRM1/DRM2/DRM3 paper
    configuration must land on the same floats in every RunResult
    column, serial and parallel.
    """

    @pytest.mark.parametrize("factory", [drm1, drm2, drm3])
    def test_every_paper_configuration(self, factory):
        model = factory()
        ref = run_suite(model, settings(trace_mode=TraceMode.AGGREGATE))
        vec = run_suite(
            model, settings(kernel="vectorized", trace_mode=TraceMode.AGGREGATE)
        )
        for label, result in vec.items():
            assert result.kernel_used == "vectorized", (
                label, result.kernel_fallback,
            )
            assert result.kernel_fallback is None, label
        assert_suites_identical(ref, vec)

    def test_parallel_matches_serial(self):
        model = drm1()
        vectorized = settings(kernel="vectorized", trace_mode=TraceMode.AGGREGATE)
        serial = run_suite(model, vectorized)
        parallel = run_suite_parallel(model, vectorized, max_workers=2)
        for result in parallel.values():
            assert result.kernel_used == "vectorized"
        assert_suites_identical(serial, parallel)

    def test_clock_skew(self):
        """Skewed trace stamps ride the same bulk-jitter substreams."""
        model = drm1()

        def skewed(kernel):
            return settings(
                kernel=kernel, trace_mode=TraceMode.AGGREGATE,
                clock_skew_sigma=0.002,
            )

        assert_suites_identical(
            run_suite(model, skewed("reference")),
            run_suite(model, skewed("vectorized")),
        )


class TestVectorizedFallback:
    """Every ineligible run silently takes the batched kernel.

    The chosen kernel and the machine-readable reason are exposed on
    ``RunResult.kernel_used`` / ``RunResult.kernel_fallback`` so sweeps
    can assert which path produced their numbers.
    """

    def _replay(self, serving, schedule=None, num_requests=15):
        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 2), pooling)
        requests = suite_requests(
            model, SuiteSettings(num_requests=num_requests, pooling_requests=150)
        )
        return run_configuration(model, plan, requests, serving, schedule)

    def test_open_loop_falls_back(self):
        result = self._replay(
            ServingConfig(seed=1, kernel="vectorized", trace_mode=TraceMode.AGGREGATE),
            ReplaySchedule.open_loop(25.0, seed=2),
        )
        assert result.kernel_used == "batched"
        assert result.kernel_fallback == REASON_OPEN_LOOP

    def test_chaos_falls_back(self):
        result = self._replay(
            ServingConfig(
                seed=1, kernel="vectorized", trace_mode=TraceMode.AGGREGATE,
                chaos=FaultSchedule(experiments=(HostCrash(shard=0, at=0.05),)),
            ),
        )
        assert result.kernel_used == "batched"
        assert result.kernel_fallback == REASON_CHAOS

    def test_full_trace_falls_back(self):
        result = self._replay(
            ServingConfig(seed=1, kernel="vectorized", trace_mode=TraceMode.FULL)
        )
        assert result.kernel_used == "batched"
        assert result.kernel_fallback == REASON_FULL_TRACE

    def test_mix_falls_back(self):
        mix = WorkloadMix(
            (
                Workload(
                    "drm1-mix", drm1(),
                    PiecewiseRateArrivals.diurnal(50.0, seed=7), request_seed=3,
                ),
                Workload(
                    "drm2-mix", drm2(),
                    PiecewiseRateArrivals.diurnal(30.0, seed=8), request_seed=4,
                ),
            )
        )
        def mix_suite(kernel, trace_mode):
            return run_mix_suite(
                mix,
                SuiteSettings(
                    num_requests=10, pooling_requests=150,
                    serving=ServingConfig(seed=1),
                    trace_mode=trace_mode, kernel=kernel,
                ),
                (ShardingConfiguration("load-bal", 2),),
            )

        results = mix_suite("vectorized", TraceMode.AGGREGATE)
        for result in results.values():
            assert result.kernel_used == "batched"
            assert result.kernel_fallback == REASON_MIX
        assert_suites_identical(mix_suite("reference", TraceMode.FULL), results)

    def test_eligible_run_takes_the_fast_path(self):
        result = self._replay(
            ServingConfig(seed=1, kernel="vectorized", trace_mode=TraceMode.AGGREGATE),
        )
        assert result.kernel_used == "vectorized"
        assert result.kernel_fallback is None

    def test_fallback_result_matches_batched(self):
        """The fallback is not merely labeled batched -- it *is* batched."""
        schedule = ReplaySchedule.open_loop(25.0, seed=2)
        fallback = self._replay(
            ServingConfig(seed=1, kernel="vectorized", trace_mode=TraceMode.AGGREGATE),
            schedule,
        )
        batched = self._replay(
            ServingConfig(seed=1, kernel="batched", trace_mode=TraceMode.AGGREGATE),
            schedule,
        )
        assert_run_identical(fallback, batched, "fallback")


class TestChunkedReplay:
    """``REPRO_CHUNK`` bounds builder memory without changing a bit.

    Chunking only splits the columnarization pass; the replay arithmetic
    and every substream walk are chunk-size invariant.  The memory smoke
    pins the bound the vectorized path claims at REPRO_REQUESTS=1M: peak
    replay memory tracks the chunk size, not the request count (the
    O(num_requests) output columns are excluded by measuring the chunked
    run against the same run columnarized in one piece).
    """

    def test_chunk_size_invariance(self, monkeypatch):
        model = drm1()
        vectorized = settings(kernel="vectorized", trace_mode=TraceMode.AGGREGATE)
        base = run_suite(model, vectorized)
        monkeypatch.setenv("REPRO_CHUNK", "7")
        chunked = run_suite(model, vectorized)
        for result in chunked.values():
            assert result.kernel_used == "vectorized"
        assert_suites_identical(base, chunked)

    def test_replay_memory_bounded_by_chunk(self, monkeypatch):
        from repro.serving import columnar

        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, ShardingConfiguration("singular"), pooling)
        num_requests = 1024
        requests = suite_requests(
            model,
            SuiteSettings(num_requests=num_requests, pooling_requests=150),
        )
        serving = ServingConfig(
            seed=1, kernel="vectorized", trace_mode=TraceMode.AGGREGATE
        )
        # Disable the two builder caches: retention is their (bounded)
        # business, this smoke measures the per-chunk working set.
        monkeypatch.setattr(columnar, "_PLANS_CACHE_MAX", 0)
        monkeypatch.setattr(columnar, "_BUNDLE_CACHE_MAX", 0)

        def peak_bytes(chunk_size):
            monkeypatch.setenv("REPRO_CHUNK", str(chunk_size))
            columnar._PLANS_CACHE.clear()
            columnar._BUNDLE_CACHE.clear()
            tracemalloc.start()
            result = run_configuration(model, plan, requests, serving)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert result.kernel_used == "vectorized"
            return peak

        whole = peak_bytes(num_requests)  # one chunk: O(num_requests)
        chunked = peak_bytes(32)  # 32 chunks of 32 requests
        assert chunked < whole / 4, (chunked, whole)
