"""Trace-mode regression tests: AGGREGATE == FULL, drained tracers.

The aggregate tracing fast path must be *exactly* the full-trace path,
minus the spans: for every paper configuration the span-free
:class:`~repro.tracing.aggregate.AggregatingTracer` has to produce
bit-identical e2e/cpu/stack columns to full tracing + attribution, and
no tracer may retain state once a replay with incremental completion
consumption finishes.
"""

import numpy as np
import pytest

from repro.experiments import SuiteSettings, run_suite, run_suite_parallel
from repro.models import drm1, drm2, drm3
from repro.requests import RequestGenerator, ReplaySchedule
from repro.serving import ClusterSimulation, ServingConfig, TraceMode
from repro.sharding import singular_plan
from repro.tracing import AggregatingTracer, MAIN_SHARD, Layer, Span, Tracer

# Both on the reference kernel, so only the trace mode differs.
SERIAL = SuiteSettings(
    num_requests=25,
    pooling_requests=150,
    serving=ServingConfig(seed=1, kernel="reference"),
    trace_mode=TraceMode.FULL,
)
AGGREGATE = SuiteSettings(
    num_requests=25,
    pooling_requests=150,
    serving=ServingConfig(seed=1, kernel="reference"),
    trace_mode=TraceMode.AGGREGATE,
)


def assert_results_identical(full, aggregate):
    """Bitwise equality of every column, for every configuration."""
    assert list(full) == list(aggregate)
    for label in full:
        f, a = full[label], aggregate[label]
        assert len(f) == len(a)
        assert np.array_equal(f.e2e, a.e2e), label
        assert np.array_equal(f.cpu, a.cpu), label
        for column in (
            "request_ids", "workloads", "status", "degraded", "retries",
            "attempts", "hedged", "deadline_exceeded",
            "num_batches", "rpcs", "sparse_op_cpu", "dense_op_cpu",
        ):
            assert np.array_equal(getattr(f, column), getattr(a, column)), (
                label, column,
            )
        assert f.mean_cpu_by_shard() == a.mean_cpu_by_shard(), label
        assert f.mean_per_shard_op_time() == a.mean_per_shard_op_time(), label
        assert (
            f.mean_per_shard_net_op_time() == a.mean_per_shard_net_op_time()
        ), label
        for kind in ("latency", "embedded", "cpu"):
            full_cols = f.stack_columns(kind)
            agg_cols = a.stack_columns(kind)
            for bucket in full_cols:
                assert np.array_equal(full_cols[bucket], agg_cols[bucket]), (
                    label, kind, bucket,
                )


class TestAggregateEquivalence:
    @pytest.mark.parametrize("factory", [drm1, drm2, drm3])
    def test_matches_full_for_every_paper_configuration(self, factory):
        model = factory()
        assert_results_identical(run_suite(model, SERIAL), run_suite(model, AGGREGATE))

    def test_matches_full_open_loop_with_clock_skew(self):
        """Queueing overlap + skewed wall clocks exercise every stack path."""
        model = drm1()

        def settings(mode):
            return SuiteSettings(
                num_requests=40,
                pooling_requests=150,
                serving=ServingConfig(
                    seed=1, service_workers=2, clock_skew_sigma=0.002,
                    kernel="reference",
                ),
                schedule=ReplaySchedule.open_loop(25.0, seed=2),
                trace_mode=mode,
            )

        assert_results_identical(
            run_suite(model, settings(TraceMode.FULL)),
            run_suite(model, settings(TraceMode.AGGREGATE)),
        )

    def test_parallel_aggregate_matches_serial_aggregate(self):
        model = drm1()
        assert_results_identical(
            run_suite(model, AGGREGATE),
            run_suite_parallel(model, AGGREGATE, max_workers=2),
        )

    def test_aggregate_retains_no_attributions(self):
        model = drm3()
        full = run_suite(model, SERIAL)
        results = run_suite(model, AGGREGATE)
        for label, result in results.items():
            assert result.attributions == []
            # Per-shard demand now comes from columns, so the per-shard
            # means are available (and bit-identical to FULL) even
            # without retained attributions...
            assert result.mean_per_shard_op_time() == full[label].mean_per_shard_op_time()
            assert result.mean_cpu_by_shard() == full[label].mean_cpu_by_shard()
            # ...and so is the per-(shard, net) breakdown (Figure 10).
            assert (
                result.mean_per_shard_net_op_time()
                == full[label].mean_per_shard_net_op_time()
            )

    def test_trace_mode_threads_through_serving_config(self):
        config = ServingConfig(seed=1, trace_mode=TraceMode.AGGREGATE)
        assert config.with_batch_size(64).trace_mode is TraceMode.AGGREGATE
        assert (
            ServingConfig().with_trace_mode(TraceMode.AGGREGATE).trace_mode
            is TraceMode.AGGREGATE
        )
        model = drm1()
        cluster = ClusterSimulation(model, singular_plan(model), config)
        assert isinstance(cluster.tracer, AggregatingTracer)


class TestTracerDrained:
    """Satellite: tracers must not leak state for unfinished requests."""

    @pytest.mark.parametrize("mode", [TraceMode.FULL, TraceMode.AGGREGATE])
    def test_tracer_empty_after_incremental_replay(self, mode):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(8)
        cluster = ClusterSimulation(
            model, singular_plan(model), ServingConfig(seed=1, trace_mode=mode)
        )
        if mode is TraceMode.FULL:
            cluster.on_complete = lambda rid: cluster.tracer.pop_request(rid)
        else:
            cluster.on_complete = cluster.tracer.finalize_request
        cluster.run_serial(requests)
        cluster.tracer.assert_drained()
        assert cluster.tracer.in_flight() == 0
        assert cluster.dropped_requests == []

    def test_incomplete_requests_are_drained_not_leaked(self):
        """A request that never completes must be freed at end of replay."""
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(4)
        cluster = ClusterSimulation(
            model, singular_plan(model),
            ServingConfig(seed=1, trace_mode=TraceMode.FULL),
        )
        cluster.on_complete = lambda rid: cluster.tracer.pop_request(rid)
        # Simulate a request that timed out mid-flight: its spans are in
        # the tracer but pop_request never ran for it.
        cluster.tracer.record(
            Span(
                request_id=999, shard=MAIN_SHARD, server="main",
                layer=Layer.SERDE, name="orphan", start=0.0, end=1.0,
            )
        )
        cluster.run_serial(requests)
        assert cluster.dropped_requests == [999]
        cluster.tracer.assert_drained()

    def test_trace_cli_path_keeps_spans_without_hook(self):
        """Without on_complete the caller owns the trace; nothing dropped."""
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(2)
        cluster = ClusterSimulation(model, singular_plan(model), ServingConfig(seed=1))
        cluster.run_serial(requests)
        assert cluster.dropped_requests == []
        assert cluster.tracer.in_flight() == 2
        with pytest.raises(RuntimeError, match="still holds"):
            cluster.tracer.assert_drained()

    def test_full_tracer_drain_incomplete(self):
        tracer = Tracer()
        tracer.record(
            Span(
                request_id=5, shard=MAIN_SHARD, server="main",
                layer=Layer.SERDE, name="x", start=0.0, end=1.0,
            )
        )
        assert tracer.drain_incomplete() == [5]
        assert tracer.in_flight() == 0
        tracer.assert_drained()

    def test_aggregate_tracer_drain_incomplete(self):
        tracer = AggregatingTracer()

        class _Server:
            clock_skew = 0.0
            name = "main"

        tracer.record_interval(
            7, MAIN_SHARD, _Server(), Layer.SERDE, "x", 0.0, 1.0
        )
        assert tracer.in_flight() == 1
        assert tracer.drain_incomplete() == [7]
        tracer.assert_drained()
        assert tracer.count == 0
