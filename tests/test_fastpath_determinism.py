"""Determinism regression tests for the simulation fast path.

The fast path must be *exactly* the slow path, faster:

* the vectorized bulk request generator and the scalar reference path
  must draw identical requests from the same seed;
* a parallel sweep must be byte-identical to a serial one (same e2e/cpu
  arrays, same attribution stacks) for the same settings;
* pooling-factor memoization must not change estimates, and the
  pooling sampler's bulk Poisson sums must equal numpy's own draws;
* columnar ``RunResult`` storage must agree with the retained
  per-request attributions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    run_configuration,
    run_suite,
    run_suite_parallel,
    suite_requests,
)
from repro.experiments.runner import RunResult
from repro.models import (
    FeatureScope,
    ModelConfig,
    NetConfig,
    RequestProfile,
    TableConfig,
    drm1,
    drm2,
    drm3,
)
from repro.requests import RequestGenerator
from repro.requests.generator import _DAY_SECONDS, _poisson_sum
from repro.serving import ClusterSimulation, ServingConfig, TraceMode
from repro.sharding import estimate_pooling_factors
from repro.sharding.pooling import clear_pooling_cache
from repro.tracing import AggregatingTracer, attribute_request
from repro.tracing.columns import STACK_KEYS

SETTINGS = SuiteSettings(
    num_requests=25, pooling_requests=120, serving=ServingConfig(seed=1)
)


def _assert_requests_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.request_id == rb.request_id
        assert ra.timestamp == rb.timestamp
        assert ra.num_items == rb.num_items
        assert set(ra.draws) == set(rb.draws)
        for name, da in ra.draws.items():
            db = rb.draws[name]
            assert da.total_ids == db.total_ids
            if da.per_item_counts is None:
                assert db.per_item_counts is None
            else:
                assert np.array_equal(da.per_item_counts, db.per_item_counts)


def _edge_rate_model() -> ModelConfig:
    """Item-scoped rates at the bulk Poisson sum's edges: 0 (no draws),
    5 (chains through adjacent candidates) and 12 (numpy's PTRS branch)."""
    return ModelConfig(
        "EDGE",
        (NetConfig("net1", dense_us_per_item=1.0, dense_us_fixed=20.0),),
        (
            TableConfig("user", "net1", 100, 8, scope=FeatureScope.USER,
                        activation_prob=0.5, mean_ids=3),
            TableConfig("rate0", "net1", 100, 8, scope=FeatureScope.ITEM,
                        activation_prob=0.0, mean_ids=2),
            TableConfig("rate5", "net1", 100, 8, scope=FeatureScope.ITEM,
                        activation_prob=1.0, mean_ids=5),
            TableConfig("rate12", "net1", 100, 8, scope=FeatureScope.ITEM,
                        activation_prob=1.0, mean_ids=12),
        ),
        RequestProfile(median_items=8, sigma_items=0.3, batch_size=16),
    )


TOTALS_MODELS = pytest.mark.parametrize(
    "model_factory", [drm1, drm2, drm3, _edge_rate_model],
    ids=["drm1", "drm2", "drm3", "edge-rates"],
)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("model_factory", [drm1, drm3])
    def test_vectorized_matches_scalar(self, model_factory):
        """Bulk numpy draws consume each substream exactly like the
        scalar reference path."""
        model = model_factory()
        vectorized = RequestGenerator(model, seed=3).generate_many(60)
        timestamps = np.linspace(0.0, 5.0 * _DAY_SECONDS, 60, endpoint=False)
        scalar_gen = RequestGenerator(model, seed=3)
        scalar = [
            scalar_gen.generate(i, float(t)) for i, t in enumerate(timestamps)
        ]
        _assert_requests_equal(vectorized, scalar)

    def test_generate_many_is_stable_across_calls(self):
        model = drm1()
        _assert_requests_equal(
            RequestGenerator(model, seed=7).generate_many(30),
            RequestGenerator(model, seed=7).generate_many(30),
        )

    @TOTALS_MODELS
    def test_table_totals_matches_generated_requests(self, model_factory):
        model = model_factory()
        totals = RequestGenerator(model, seed=5).table_totals(40)
        requests = RequestGenerator(model, seed=5).generate_many(40)
        observed = {table.name: 0.0 for table in model.tables}
        for request in requests:
            for draw in request.draws.values():
                observed[draw.table_name] += draw.total_ids
        assert totals == observed

    @TOTALS_MODELS
    def test_table_totals_continues_the_stream(self, model_factory):
        """The generator is stateful: ``table_totals(n)`` must leave every
        substream where ``generate_many(n)`` would."""
        model = model_factory()
        summed = RequestGenerator(model, seed=5)
        summed.table_totals(40)
        generated = RequestGenerator(model, seed=5)
        generated.generate_many(40)
        _assert_requests_equal(summed.generate_many(15), generated.generate_many(15))


def _assert_poisson_sum_exact(seed: int, lam: float, size: int) -> None:
    """``_poisson_sum`` returns numpy's sum and leaves the same state."""
    bulk = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    assert _poisson_sum(bulk, lam, size) == int(twin.poisson(lam, size).sum())
    assert bulk.bit_generator.state == twin.bit_generator.state


class TestPoissonSum:
    """Pins numpy's Poisson draw (multiplication method below rate 10):
    if a numpy release changes it, these fail instead of pooling
    estimates, and with them plans, drifting silently."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(math.log(1e-6), math.log(10.0), exclude_max=True),
        size=st.integers(0, 5000),
    )
    def test_matches_numpy_poisson(self, seed, log_lam, size):
        _assert_poisson_sum_exact(seed, math.exp(log_lam), size)

    @pytest.mark.parametrize("lam", [0.0, 10.0, 25.0])
    def test_fallback_rates(self, lam):
        _assert_poisson_sum_exact(3, lam, 2000)

    def test_adjacent_candidates(self):
        # At rate 5 nearly every uniform exceeds exp(-5), so chains run
        # through long runs of candidates.
        _assert_poisson_sum_exact(11, 5.0, 3000)

    def test_chain_spills_past_the_block(self):
        lam, size = 0.5, 50
        block = np.random.default_rng(0).random(size)
        assert block[-1] > math.exp(-lam)
        _assert_poisson_sum_exact(0, lam, size)

    def test_invalid_rates_raise_like_numpy(self):
        for lam in (-1.0, math.nan):
            with pytest.raises(ValueError):
                _poisson_sum(np.random.default_rng(0), lam, 4)


class TestPoolingMemoization:
    def test_memoized_estimate_is_equal_and_copied(self):
        model = drm1()
        clear_pooling_cache()
        first = estimate_pooling_factors(model, num_requests=80, seed=9)
        second = estimate_pooling_factors(model, num_requests=80, seed=9)
        assert first == second
        # Callers receive independent dicts: mutating one result must not
        # poison the cache.
        first[next(iter(first))] = -1.0
        assert estimate_pooling_factors(model, num_requests=80, seed=9) == second

    def test_distinct_keys_not_conflated(self):
        model = drm1()
        a = estimate_pooling_factors(model, num_requests=80, seed=9)
        b = estimate_pooling_factors(model, num_requests=81, seed=9)
        c = estimate_pooling_factors(model, num_requests=80, seed=10)
        assert a != b and a != c


class TestParallelSerialIdentity:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return run_suite(drm1(), SETTINGS)

    def test_parallel_matches_serial_exactly(self, serial_results):
        parallel_results = run_suite_parallel(drm1(), SETTINGS, max_workers=2)
        assert list(parallel_results) == list(serial_results)
        for label, serial in serial_results.items():
            parallel = parallel_results[label]
            assert np.array_equal(serial.e2e, parallel.e2e), label
            assert np.array_equal(serial.cpu, parallel.cpu), label
            for kind in ("latency", "embedded", "cpu"):
                serial_cols = serial.stack_columns(kind)
                parallel_cols = parallel.stack_columns(kind)
                assert serial_cols.keys() == parallel_cols.keys()
                for bucket in serial_cols:
                    assert np.array_equal(
                        serial_cols[bucket], parallel_cols[bucket]
                    ), (label, kind, bucket)
            for a, b in zip(serial.attributions, parallel.attributions):
                assert a.latency_stack == b.latency_stack
                assert a.embedded_stack == b.embedded_stack
                assert a.cpu_stack == b.cpu_stack
                assert a.per_shard_op_time == b.per_shard_op_time

    def test_in_process_fallback_matches(self, serial_results):
        fallback = run_suite_parallel(drm1(), SETTINGS, max_workers=1)
        for label, serial in serial_results.items():
            assert np.array_equal(serial.e2e, fallback[label].e2e), label


class TestColumnarRunResult:
    @pytest.fixture(scope="class")
    def result(self):
        results = run_suite(drm1(), SETTINGS)
        return results["load-bal 2 shards"]

    def test_columns_match_attributions(self, result):
        assert len(result) == len(result.attributions) == 25
        assert np.array_equal(
            result.e2e, np.array([a.e2e for a in result.attributions])
        )
        assert np.array_equal(
            result.cpu, np.array([a.cpu_total for a in result.attributions])
        )
        for kind in ("latency", "embedded", "cpu"):
            columns = result.stack_columns(kind)
            for i, attribution in enumerate(result.attributions):
                stack = getattr(attribution, f"{kind}_stack")
                assert list(columns) == list(stack)
                for bucket, value in stack.items():
                    assert columns[bucket][i] == value, (kind, bucket, i)

    def test_embedded_totals_match(self, result):
        expected = np.array([a.embedded_total for a in result.attributions])
        assert np.allclose(result.embedded_totals, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "mode", [TraceMode.FULL, TraceMode.AGGREGATE], ids=lambda mode: mode.value
    )
    def test_growth_beyond_initial_capacity(self, mode):
        """A store preallocated for 4 rows grows past its capacity in both
        trace modes and still equals a preallocated FULL run."""
        model = drm1()
        small = SuiteSettings(num_requests=40, pooling_requests=120)
        requests = suite_requests(model, small)
        plan = build_plan(
            model,
            ShardingConfiguration("load-bal", 2),
            estimate_pooling_factors(model, num_requests=120, seed=42),
        )
        serving = ServingConfig(seed=1, trace_mode=mode)
        expected = run_configuration(model, plan, requests, ServingConfig(seed=1))

        result = RunResult(model.name, plan.label, plan, expected_requests=4)
        if mode is TraceMode.AGGREGATE:
            tracer = AggregatingTracer(expected_requests=4)
            cluster = ClusterSimulation(model, plan, serving, tracer=tracer)
            cluster.on_complete = tracer.finalize_request
            cluster.run_serial(requests)
            result.adopt_aggregate(tracer)
        else:
            cluster = ClusterSimulation(model, plan, serving)
            cluster.on_complete = lambda rid: result.add(
                attribute_request(cluster.tracer.pop_request(rid))
            )
            cluster.run_serial(requests)
        columns = result.columns
        assert len(result) == 40 and len(columns.e2e) == 64
        assert np.array_equal(result.e2e, expected.e2e)
        assert np.array_equal(result.cpu, expected.cpu)
        assert np.array_equal(result.request_ids, expected.request_ids)
        for kind in ("latency", "embedded", "cpu"):
            for bucket, column in result.stack_columns(kind).items():
                assert np.array_equal(column, expected.stack_columns(kind)[bucket])
        assert result.mean_cpu_by_shard() == expected.mean_cpu_by_shard()
        assert result.mean_per_shard_op_time() == expected.mean_per_shard_op_time()

        # A shard first seen after the growth steps: its column starts
        # zero for every earlier row and stays so through the next growth.
        stack = (0.0,) * len(STACK_KEYS)
        columns.append(1000, 0, 1.0, 1.0, stack, {99: 1.5}, {99: 2.5})
        while len(columns.e2e) == 64:
            columns.append(1001, 0, 1.0, 1.0, stack, {}, {})
        for shard_columns, value in ((columns.shard_cpu, 1.5), (columns.shard_op, 2.5)):
            column = shard_columns[99]
            assert len(column) == 128
            assert not column[:40].any()
            assert column[40] == value
            assert not column[41:].any()
        assert np.array_equal(columns.e2e[:40], expected.e2e)
