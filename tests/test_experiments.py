"""Tests for the experiment harness: configs, runner, figure generators,
and the replication planner."""

import numpy as np
import pytest

from repro.compression import compress_model
from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    figures,
    paper_configurations,
    run_configuration,
    run_suite,
    suite_requests,
)
from repro.models import drm1, drm3
from repro.requests import ReplaySchedule
from repro.planning import (
    ReplicationDemand,
    memory_efficiency_vs_singular,
    plan_replication,
)
from repro.serving import ServingConfig, TraceMode
from repro.sharding import SINGULAR, estimate_pooling_factors


SETTINGS = SuiteSettings(num_requests=40, pooling_requests=150)

#: The three paths a figure input can come from: FULL attributions on the
#: reference kernel, AGGREGATE on the reference kernel, and the default
#: (vectorized columnar replay, AGGREGATE).
FIGURE_PATHS = {
    "full": SuiteSettings(
        num_requests=40, pooling_requests=150,
        kernel="reference", trace_mode=TraceMode.FULL,
    ),
    "aggregate-reference": SuiteSettings(
        num_requests=40, pooling_requests=150,
        kernel="reference", trace_mode=TraceMode.AGGREGATE,
    ),
    "vectorized": SETTINGS,
}


@pytest.fixture(scope="module")
def drm1_model():
    return drm1()


@pytest.fixture(scope="module")
def drm1_results(drm1_model):
    return run_suite(drm1_model, SETTINGS)


@pytest.fixture(scope="module")
def drm1_by_path(drm1_model, drm1_results):
    """DRM1 suite results from each of :data:`FIGURE_PATHS`."""
    return {
        path: drm1_results if settings is SETTINGS else run_suite(drm1_model, settings)
        for path, settings in FIGURE_PATHS.items()
    }


@pytest.fixture(scope="module")
def drm3_results():
    return run_suite(drm3(), SETTINGS)


class TestConfigurations:
    def test_drm1_matrix_has_eleven_configs(self):
        configs = paper_configurations("DRM1")
        assert len(configs) == 11  # singular + 1-shard + 3 strategies x 3 counts
        labels = [c.label for c in configs]
        assert SINGULAR in labels and "1 shard" in labels
        assert "load-bal 8 shards" in labels

    def test_drm3_matrix_is_nsbp_only(self):
        configs = paper_configurations("DRM3")
        strategies = {c.strategy for c in configs}
        assert strategies == {SINGULAR, "1-shard", "NSBP"}
        assert len(configs) == 4

    def test_build_plan_singular(self, drm1_model):
        plan = build_plan(drm1_model, ShardingConfiguration(SINGULAR))
        assert plan.is_singular


class TestRunner:
    def test_suite_covers_all_configs(self, drm1_results):
        assert len(drm1_results) == 11
        for result in drm1_results.values():
            assert len(result) == 40
            # The default path: columnar replay, no retained attributions.
            assert result.kernel_used == "vectorized"
            assert result.attributions == []

    def test_same_requests_all_configs(self, drm1_results):
        """Every config replays the identical request sample."""
        batch_counts = {
            label: r.num_batches.tolist() for label, r in drm1_results.items()
        }
        reference = batch_counts[SINGULAR]
        for label, counts in batch_counts.items():
            assert counts == reference, label

    def test_run_configuration_with_open_loop(self, drm1_model):
        requests = suite_requests(drm1_model, SETTINGS)
        plan = build_plan(drm1_model, ShardingConfiguration(SINGULAR))
        result = run_configuration(
            drm1_model, plan, requests,
            ServingConfig(seed=1, service_workers=2),
            ReplaySchedule.open_loop(qps=100.0, seed=5),
        )
        assert len(result) == len(requests)
        assert result.kernel_used == "batched"

    def test_result_arrays(self, drm1_results):
        result = drm1_results[SINGULAR]
        assert result.e2e.shape == (40,)
        assert (result.e2e > 0).all()
        assert (result.cpu > 0).all()


class TestPaperShapes:
    """The qualitative findings of Section VI, asserted on suite output."""

    def test_serial_distributed_always_slower_p50(self, drm1_results):
        base = np.percentile(drm1_results[SINGULAR].e2e, 50)
        for label, result in drm1_results.items():
            if label != SINGULAR:
                assert np.percentile(result.e2e, 50) > base, label

    def test_more_shards_reduce_latency_overhead(self, drm1_results):
        for strategy in ("load-bal", "cap-bal"):
            p50 = {
                n: np.percentile(drm1_results[f"{strategy} {n} shards"].e2e, 50)
                for n in (2, 8)
            }
            assert p50[8] < p50[2], strategy

    def test_compute_overhead_grows_with_shards(self, drm1_results):
        cpu = {
            n: np.percentile(drm1_results[f"load-bal {n} shards"].cpu, 50)
            for n in (2, 4, 8)
        }
        assert cpu[2] < cpu[4] < cpu[8]

    def test_nsbp_least_compute_worst_latency(self, drm1_results):
        """Section VI-D1: NSBP is the most compute-scalable strategy but
        parallelizes the least."""
        for n in (4, 8):
            nsbp = drm1_results[f"NSBP {n} shards"]
            load = drm1_results[f"load-bal {n} shards"]
            assert np.percentile(nsbp.cpu, 50) < np.percentile(load.cpu, 50)
            assert np.percentile(nsbp.e2e, 50) >= np.percentile(load.e2e, 50)

    def test_load_vs_capacity_balanced_similar_latency(self, drm1_results):
        """Section VI-D2: no significant E2E difference."""
        for n in (2, 4, 8):
            load = np.percentile(drm1_results[f"load-bal {n} shards"].e2e, 50)
            cap = np.percentile(drm1_results[f"cap-bal {n} shards"].e2e, 50)
            assert abs(load - cap) / cap < 0.05

    def test_drm3_sharding_has_no_effect(self, drm3_results):
        """Section VI-E1: DRM3 gains nothing from more shards."""
        p50 = {
            label: np.percentile(result.e2e, 50)
            for label, result in drm3_results.items()
            if label != SINGULAR
        }
        values = list(p50.values())
        assert max(values) / min(values) < 1.08

    def test_p99_overhead_leq_p50_for_balanced(self, drm1_results):
        base = drm1_results[SINGULAR]
        for label in ("load-bal 8 shards", "cap-bal 8 shards"):
            result = drm1_results[label]
            ov50 = (np.percentile(result.e2e, 50) - np.percentile(base.e2e, 50)) / np.percentile(base.e2e, 50)
            ov99 = (np.percentile(result.e2e, 99) - np.percentile(base.e2e, 99)) / np.percentile(base.e2e, 99)
            assert ov99 <= ov50 + 0.02, label


class TestFigureGenerators:
    def test_fig1(self):
        artifact = figures.fig1_model_growth()
        assert artifact.data["features_x"] >= 9.0
        assert "Figure 1" in artifact.text

    @pytest.mark.parametrize("path", FIGURE_PATHS)
    def test_fig4(self, drm1_by_path, drm1_model, path):
        def fig4(results):
            return figures.fig4_operator_attribution(
                {"DRM1": results[SINGULAR]}, {"DRM1": drm1_model}
            )

        results = drm1_by_path[path]
        # Only the FULL path retains attributions; fig4 must not need them.
        assert bool(results[SINGULAR].attributions) == (path == "full")
        artifact = fig4(results)
        shares = artifact.data["shares"]["DRM1"]
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-6)
        assert 0.02 < shares["Sparse"] < 0.25
        assert artifact.text == fig4(drm1_by_path["full"]).text
        assert shares == fig4(drm1_by_path["full"]).data["shares"]["DRM1"]

    def test_fig5(self, drm1_model):
        artifact = figures.fig5_table_size_distribution(
            {"DRM1": drm1_model, "DRM3": drm3()}
        )
        assert artifact.data["DRM3"]["dominant_share"] > 0.85
        assert artifact.data["DRM1"]["dominant_share"] < 0.05

    def test_table2(self, drm1_model):
        pooling = estimate_pooling_factors(drm1_model, 150, seed=42)
        plans = {
            c.label: build_plan(drm1_model, c, pooling)
            for c in paper_configurations("DRM1")
            if c.strategy != SINGULAR
        }
        artifact = figures.table2_sharding_results(drm1_model, plans, pooling)
        nsbp2 = artifact.data["NSBP 2 shards"]
        ratio = max(nsbp2["capacity_gib"]) / min(nsbp2["capacity_gib"])
        assert ratio == pytest.approx(4.75, rel=0.06)

    def test_fig6_structure(self, drm1_results):
        artifact = figures.fig6_overheads(drm1_results, "DRM1")
        assert SINGULAR not in artifact.data
        assert set(artifact.data["1 shard"]) == {50, 90, 99}

    def test_fig8_stacks(self, drm1_results):
        a = figures.fig8a_e2e_latency_stacks(drm1_results)
        b = figures.fig8b_embedded_stacks(drm1_results)
        assert SINGULAR in a.data["stacks"]
        singular_emb = b.data["stacks"][SINGULAR]
        assert singular_emb["Network Latency"] == 0.0

    def test_fig9(self, drm1_results):
        artifact = figures.fig9_cpu_stacks(drm1_results)
        base = sum(artifact.data["stacks"][SINGULAR].values())
        dist = sum(artifact.data["stacks"]["load-bal 8 shards"].values())
        assert dist > base

    @pytest.mark.parametrize("path", FIGURE_PATHS)
    def test_fig10_net_skew(self, drm1_by_path, path):
        artifact = figures.fig10_per_shard_by_net(drm1_by_path[path])
        nsbp = artifact.data["per_shard"]["NSBP 8 shards"]
        by_net = {}
        for (shard, net), value in nsbp.items():
            by_net.setdefault(net, []).append(value)
        # NSBP: net1 shards carry far more operator work than net2 shards.
        assert max(by_net["net1"]) > 5 * max(by_net["net2"])
        full = figures.fig10_per_shard_by_net(drm1_by_path["full"])
        assert artifact.data["peak"] > 0.0
        assert artifact.text == full.text
        assert artifact.data == full.data

    @pytest.mark.parametrize("path", FIGURE_PATHS)
    def test_fig12(self, drm1_by_path, path):
        artifact = figures.fig12_per_shard_by_strategy(drm1_by_path[path])
        assert set(artifact.data["per_shard"]) == {
            "load-bal 8 shards", "cap-bal 8 shards", "NSBP 8 shards"
        }
        full = figures.fig12_per_shard_by_strategy(drm1_by_path["full"])
        assert artifact.text == full.text
        assert artifact.data == full.data

    def test_fig11(self, drm3_results):
        artifact = figures.fig11_drm3_per_shard(drm3_results)
        per_shard = artifact.data["per_shard"]["NSBP 8 shards"]
        values = sorted(per_shard.values(), reverse=True)
        # One shard (the small tables) does nearly all operator work.
        assert values[0] > 3 * values[1]


class TestReplication:
    def test_distributed_reduces_replicated_memory(self, drm1_model, drm1_results):
        demand = ReplicationDemand(qps=20000.0)
        singular = plan_replication(drm1_model, drm1_results[SINGULAR], demand)
        distributed = plan_replication(
            drm1_model, drm1_results["load-bal 8 shards"], demand
        )
        assert singular.main_replicas > 1
        efficiency = memory_efficiency_vs_singular(singular, distributed)
        assert efficiency > 2.0

    def test_sparse_replicas_fewer_than_main(self, drm1_model, drm1_results):
        """Sparse shards are compute-light: they replicate less than the
        dense main shard (Section VII-C)."""
        demand = ReplicationDemand(qps=20000.0)
        plan = plan_replication(drm1_model, drm1_results["load-bal 8 shards"], demand)
        assert max(plan.sparse_replicas.values()) <= plan.main_replicas

    def test_invalid_demand_rejected(self):
        with pytest.raises(ValueError):
            ReplicationDemand(qps=0.0)
        with pytest.raises(ValueError):
            ReplicationDemand(qps=1.0, utilization_target=1.5)
