"""Tests for spans, the tracer, and cross-layer attribution invariants."""

import numpy as np
import pytest

from repro.core.types import OpCategory
from repro.models import drm1
from repro.requests import RequestGenerator
from repro.serving import ClusterSimulation, ServingConfig, TraceMode
from repro.sharding import STRATEGIES, estimate_pooling_factors, singular_plan
from repro.tracing import (
    AttributionError,
    E2E_BUCKETS,
    Layer,
    MAIN_SHARD,
    Span,
    Tracer,
    attribute_request,
)


def make_span(**overrides):
    base = dict(
        request_id=0, shard=MAIN_SHARD, server="main", layer=Layer.SERVICE,
        name="s", start=0.0, end=1.0,
    )
    base.update(overrides)
    return Span(**base)


class TestSpan:
    def test_duration(self):
        assert make_span(start=1.0, end=3.5).duration == 2.5

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_span(start=2.0, end=1.0)


class TestTracer:
    def test_record_and_query(self):
        tracer = Tracer()
        tracer.record(make_span(request_id=1))
        tracer.record(make_span(request_id=2))
        tracer.record(make_span(request_id=1, name="x"))
        assert len(tracer.for_request(1)) == 2
        assert tracer.request_ids() == [1, 2]
        assert tracer.spans_recorded == 3

    def test_pop_request_frees(self):
        tracer = Tracer()
        tracer.record(make_span(request_id=1))
        spans = tracer.pop_request(1)
        assert len(spans) == 1
        assert tracer.for_request(1) == []

    def test_clear(self):
        tracer = Tracer()
        tracer.record(make_span())
        tracer.clear()
        assert tracer.request_ids() == []


class TestAttributionErrors:
    def test_empty_spans_rejected(self):
        with pytest.raises(AttributionError):
            attribute_request([])

    def test_missing_service_span_rejected(self):
        with pytest.raises(AttributionError):
            attribute_request([make_span(layer=Layer.BATCH, batch=0)])

    def test_missing_batch_span_rejected(self):
        with pytest.raises(AttributionError):
            attribute_request([make_span(layer=Layer.SERVICE)])


@pytest.fixture(scope="module")
def traced_runs():
    model = drm1()
    requests = RequestGenerator(model, seed=3).generate_many(20)
    pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
    runs = {}
    for label, plan in (
        ("singular", singular_plan(model)),
        ("load-bal-4", STRATEGIES["load-bal"].build_plan(model, 4, pooling)),
    ):
        sim = ClusterSimulation(
            model, plan, ServingConfig(seed=1, trace_mode=TraceMode.FULL)
        )
        sim.run_serial(requests)
        runs[label] = (sim, requests)
    return runs


class TestAttributionInvariants:
    def test_e2e_stack_sums_to_e2e(self, traced_runs):
        """The latency stack partitions E2E exactly (service is residual)."""
        for sim, requests in traced_runs.values():
            for request in requests:
                att = attribute_request(sim.tracer.for_request(request.request_id))
                assert sum(att.latency_stack.values()) == pytest.approx(att.e2e, rel=1e-9)
                assert set(att.latency_stack) == set(E2E_BUCKETS)

    def test_stack_components_non_negative(self, traced_runs):
        for sim, requests in traced_runs.values():
            for request in requests:
                att = attribute_request(sim.tracer.for_request(request.request_id))
                assert all(v >= 0 for v in att.latency_stack.values())
                assert all(v >= 0 for v in att.embedded_stack.values())
                assert all(v >= 0 for v in att.cpu_stack.values())

    def test_cpu_total_matches_span_cpu(self, traced_runs):
        for sim, requests in traced_runs.values():
            for request in requests[:5]:
                spans = sim.tracer.for_request(request.request_id)
                att = attribute_request(spans)
                assert att.cpu_total == pytest.approx(
                    sum(s.cpu_time for s in spans), rel=1e-9
                )

    def test_per_shard_cpu_partitions_total(self, traced_runs):
        for sim, requests in traced_runs.values():
            for request in requests[:5]:
                att = attribute_request(sim.tracer.for_request(request.request_id))
                assert sum(att.per_shard_cpu.values()) == pytest.approx(
                    att.cpu_total, rel=1e-9
                )

    def test_singular_embedded_is_pure_sparse_ops(self, traced_runs):
        sim, requests = traced_runs["singular"]
        for request in requests[:5]:
            att = attribute_request(sim.tracer.for_request(request.request_id))
            assert att.embedded_stack["Network Latency"] == 0.0
            assert att.embedded_stack["Caffe2 Sparse Ops"] > 0.0
            assert att.rpcs == 0

    def test_distributed_embedded_has_network(self, traced_runs):
        sim, requests = traced_runs["load-bal-4"]
        for request in requests[:5]:
            att = attribute_request(sim.tracer.for_request(request.request_id))
            assert att.embedded_stack["Network Latency"] > 0.0
            assert att.rpcs > 0


class TestClockSkewInvariance:
    """Section IV-B: clocks on disparate servers are skewed; the network
    latency derivation uses duration differences, so attribution must be
    *identical* under arbitrary per-server skew."""

    @staticmethod
    def _attributions(skew_sigma):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(12)
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        config = ServingConfig(
            seed=1, clock_skew_sigma=skew_sigma, trace_mode=TraceMode.FULL
        )
        sim = ClusterSimulation(model, plan, config)
        sim.run_serial(requests)
        return [
            attribute_request(sim.tracer.for_request(r.request_id)) for r in requests
        ]

    def test_attribution_invariant_to_skew(self):
        no_skew = self._attributions(0.0)
        big_skew = self._attributions(0.25)  # +/- hundreds of ms of skew
        for a, b in zip(no_skew, big_skew):
            assert a.e2e == pytest.approx(b.e2e, rel=1e-12)
            for bucket in a.latency_stack:
                assert a.latency_stack[bucket] == pytest.approx(
                    b.latency_stack[bucket], rel=1e-9, abs=1e-15
                )
            for bucket in a.embedded_stack:
                assert a.embedded_stack[bucket] == pytest.approx(
                    b.embedded_stack[bucket], rel=1e-9, abs=1e-15
                )

    def test_skew_actually_shifts_wall_clocks(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(2)
        pooling = estimate_pooling_factors(model, num_requests=50, seed=42)
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        config = ServingConfig(
            seed=1, clock_skew_sigma=0.25, trace_mode=TraceMode.FULL
        )
        sim = ClusterSimulation(model, plan, config)
        sim.run_serial(requests)
        spans = sim.tracer.for_request(requests[0].request_id)
        # A shard span can appear to *start before* the main-shard request
        # does -- the telltale sign of skewed wall clocks.
        main_start = min(s.start for s in spans if s.shard == MAIN_SHARD)
        shard_starts = [s.start for s in spans if s.shard != MAIN_SHARD]
        assert shard_starts
        spread = max(shard_starts) - min(shard_starts)
        assert spread > 0.01  # >> any real execution window in this test
