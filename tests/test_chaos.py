"""Tests for the chaos layer: fault validation, empty-schedule
byte-identity, failover/degradation accounting, healing, availability
sweeps, abort draining, and the input-validation satellite."""

import numpy as np
import pytest

from repro.chaos import (
    FaultSchedule,
    HealingPolicy,
    HostCrash,
    NetworkSpike,
    ReplicaLoss,
    StragglerShard,
    availability_report,
    availability_sweep,
    format_assessment,
    format_timeline,
    nines,
)
from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    run_configuration,
)
from repro.experiments.runner import suite_requests
from repro.models import drm1
from repro.serving import ServingConfig, TraceMode
from repro.serving.simulator import ClusterSimulation, SimServer
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.costmodel import CostModel
from repro.simulation.network import FabricSpec
from repro.simulation.platform import SC_LARGE, Platform
from repro.workloads import PoissonArrivals, Workload

pytestmark = pytest.mark.filterwarnings("error")


def drm1_plan(shards: int = 4):
    model = drm1()
    pooling = estimate_pooling_factors(model, num_requests=100, seed=42)
    return model, build_plan(model, ShardingConfiguration("load-bal", shards), pooling)


def open_loop_inputs(num_requests: int = 60, qps: float = 80.0):
    model, plan = drm1_plan()
    settings = SuiteSettings(
        num_requests=num_requests, arrivals=PoissonArrivals(qps, seed=7)
    )
    return model, plan, suite_requests(model, settings), settings.resolved_schedule()


CRASH = FaultSchedule(experiments=(HostCrash(shard=0, at=0.2),))


class TestFaultValidation:
    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="at"):
            HostCrash(shard=0, at=-1.0)
        with pytest.raises(ValueError, match="restart_after"):
            HostCrash(shard=0, at=0.0, restart_after=-0.5)
        with pytest.raises(ValueError, match="duration"):
            StragglerShard(shard=0, start=0.0, duration=-1.0)
        with pytest.raises(ValueError, match="start"):
            NetworkSpike(start=float("nan"), duration=1.0)

    def test_main_tier_faults_rejected(self):
        with pytest.raises(ValueError, match="main-tier"):
            HostCrash(shard=-1, at=0.0)

    def test_straggler_needs_slowdown(self):
        with pytest.raises(ValueError, match="multiplier"):
            StragglerShard(shard=0, start=0.0, duration=1.0, multiplier=0.5)

    def test_schedule_validates_members(self):
        with pytest.raises(TypeError, match="FaultExperiment"):
            FaultSchedule(experiments=("crash",))
        with pytest.raises(ValueError, match="replicas"):
            FaultSchedule(replicas=0)
        with pytest.raises(ValueError, match="failover_timeout"):
            FaultSchedule(failover_timeout=-1.0)

    def test_healing_policy_validation(self):
        with pytest.raises(ValueError, match="check_interval"):
            HealingPolicy(check_interval=0.0)
        with pytest.raises(ValueError, match="consecutive_misses"):
            HealingPolicy(consecutive_misses=0)

    def test_schedule_horizon_and_emptiness(self):
        assert FaultSchedule().is_empty
        assert FaultSchedule().horizon() == 0.0
        schedule = FaultSchedule(
            experiments=(
                HostCrash(shard=0, at=0.5, restart_after=1.0),
                StragglerShard(shard=1, start=0.2, duration=0.4),
            )
        )
        assert not schedule.is_empty
        assert schedule.horizon() == pytest.approx(1.5)

    def test_out_of_range_shard_rejected_at_setup(self):
        model, plan = drm1_plan(shards=2)
        config = ServingConfig(
            chaos=FaultSchedule(experiments=(HostCrash(shard=5, at=0.1),))
        )
        with pytest.raises(ValueError, match="only 2 sparse shard"):
            ClusterSimulation(model, plan, config)

    def test_out_of_range_replica_rejected_at_setup(self):
        model, plan = drm1_plan(shards=2)
        config = ServingConfig(
            chaos=FaultSchedule(
                experiments=(ReplicaLoss(shard=0, at=0.1, replica=3),), replicas=2
            )
        )
        with pytest.raises(ValueError, match="replica"):
            ClusterSimulation(model, plan, config)


class TestEmptyScheduleIdentity:
    """An empty FaultSchedule exercises the chaos code path but must be
    byte-identical to a run without the chaos layer at all."""

    @pytest.mark.parametrize("mode", [TraceMode.FULL, TraceMode.AGGREGATE])
    def test_byte_identical_columns(self, mode):
        model, plan, requests, schedule = open_loop_inputs(40)
        base = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=mode, clock_skew_sigma=1e-6),
            schedule,
        )
        empty = run_configuration(
            model, plan, requests,
            ServingConfig(
                trace_mode=mode, clock_skew_sigma=1e-6, chaos=FaultSchedule()
            ),
            schedule,
        )
        assert np.array_equal(base.e2e, empty.e2e)
        assert np.array_equal(base.cpu, empty.cpu)
        assert np.array_equal(base.request_ids, empty.request_ids)
        for kind in ("latency", "embedded", "cpu"):
            for bucket, column in base.stack_columns(kind).items():
                assert np.array_equal(column, empty.stack_columns(kind)[bucket])
        assert not empty.status.any()
        assert not empty.degraded.any()
        assert not empty.retries.any()
        assert empty.chaos_timeline == ()

    def test_healthy_run_has_chaos_columns_zeroed(self):
        model, plan, requests, schedule = open_loop_inputs(20)
        result = run_configuration(model, plan, requests, None, schedule)
        assert not result.status.any()
        assert np.array_equal(
            np.sort(result.request_ids), np.arange(len(result), dtype=np.int64)
        )


class TestFailoverAndDegradation:
    def test_crash_without_replicas_degrades(self):
        model, plan, requests, schedule = open_loop_inputs()
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=CRASH),
            schedule,
        )
        degraded = result.status == 1
        assert degraded.any()
        assert np.array_equal(result.degraded > 0, degraded)
        assert (result.retries == 0).all()
        assert len(result) == len(requests)  # degraded, not dropped

    def test_crash_with_replica_fails_over(self):
        model, plan, requests, schedule = open_loop_inputs()
        schedule_2r = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.2),), replicas=2
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=schedule_2r),
            schedule,
        )
        assert not (result.status == 1).any()

    def test_inflight_rpcs_retry_on_crash(self):
        # Stretch RPC flight time with a spike so the crash catches
        # requests mid-flight: they must retry onto the live replica.
        model, plan, requests, schedule = open_loop_inputs()
        chaos = FaultSchedule(
            experiments=(
                NetworkSpike(start=0.1, duration=0.4, extra_latency=0.05),
                HostCrash(shard=0, at=0.2, restart_after=0.3),
            ),
            replicas=2,
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        assert (result.retries > 0).any()
        assert not (result.status == 1).any()

    @pytest.mark.parametrize(
        "chaos",
        [
            CRASH,
            FaultSchedule(experiments=(HostCrash(shard=0, at=0.2),), replicas=2),
            FaultSchedule(
                experiments=(
                    NetworkSpike(start=0.1, duration=0.4, extra_latency=0.05),
                    HostCrash(shard=0, at=0.2, restart_after=0.3),
                ),
                replicas=2,
            ),
        ],
        ids=["degrade", "failover", "retry"],
    )
    def test_full_equals_aggregate_under_chaos(self, chaos):
        model, plan, requests, schedule = open_loop_inputs()
        results = {
            mode: run_configuration(
                model, plan, requests,
                ServingConfig(trace_mode=mode, chaos=chaos),
                schedule,
            )
            for mode in (TraceMode.FULL, TraceMode.AGGREGATE)
        }
        full, aggregate = results[TraceMode.FULL], results[TraceMode.AGGREGATE]
        assert np.array_equal(full.e2e, aggregate.e2e)
        assert np.array_equal(full.cpu, aggregate.cpu)
        assert np.array_equal(full.request_ids, aggregate.request_ids)
        assert np.array_equal(full.status, aggregate.status)
        assert np.array_equal(full.degraded, aggregate.degraded)
        assert np.array_equal(full.retries, aggregate.retries)

    def test_straggler_and_spike_raise_latency(self):
        model, plan, requests, schedule = open_loop_inputs()
        base = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE),
            schedule,
        )
        straggler = FaultSchedule(
            experiments=(
                StragglerShard(shard=1, start=0.0, duration=10.0, multiplier=8.0),
            )
        )
        spike = FaultSchedule(
            experiments=(
                NetworkSpike(start=0.0, duration=10.0, extra_latency=0.01),
            )
        )
        for chaos in (straggler, spike):
            faulted = run_configuration(
                model, plan, requests,
                ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
                schedule,
            )
            assert faulted.e2e.mean() > base.e2e.mean()
            assert not (faulted.status == 1).any()

    def test_restart_ends_degradation(self):
        model, plan, requests, schedule = open_loop_inputs(80, qps=100.0)
        chaos = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.1, restart_after=0.2),)
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        degraded_ids = set(result.request_ids[result.status == 1].tolist())
        assert degraded_ids
        arrivals = PoissonArrivals(100.0, seed=7).arrival_times(80)
        assert all(arrivals[rid] >= 0.1 for rid in degraded_ids)
        late = [rid for rid in range(80) if arrivals[rid] > 0.35]
        assert late and not (set(late) & degraded_ids)


class TestHealing:
    def test_crash_detected_healed_order_and_recovery(self):
        model, plan, requests, schedule = open_loop_inputs(80, qps=100.0)
        policy = HealingPolicy(
            check_interval=0.05, consecutive_misses=2, recovery_lag=0.1
        )
        chaos = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.2),), healing=policy
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        kinds = [event.kind for event in result.chaos_timeline]
        assert kinds == ["crash", "detected", "healed"]
        crash, detected, healed = result.chaos_timeline
        assert crash.time == pytest.approx(0.2)
        # detection takes between (misses - 1) and misses heartbeats
        # depending on how the crash aligns with the tick grid
        assert crash.time < detected.time
        assert detected.time <= crash.time + policy.detection_lag() + policy.check_interval
        assert healed.time == pytest.approx(detected.time + policy.recovery_lag)
        assert "0/1 live" in detected.detail
        assert healed.server.startswith("sparse-0-h")

        unhealed = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=CRASH),
            schedule,
        )
        assert (result.status == 1).sum() < (unhealed.status == 1).sum()

        arrivals = PoissonArrivals(100.0, seed=7).arrival_times(80)
        degraded_ids = result.request_ids[result.status == 1]
        assert all(arrivals[rid] <= healed.time for rid in degraded_ids)

    def test_healing_noop_when_replicas_survive(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        chaos = FaultSchedule(
            experiments=(),
            healing=HealingPolicy(check_interval=0.05),
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        assert result.chaos_timeline == ()
        assert not result.status.any()


class TestAvailabilityReport:
    def test_report_classification(self):
        model, plan, requests, schedule = open_loop_inputs()
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=CRASH),
            schedule,
        )
        arrivals = PoissonArrivals(80.0, seed=7).arrival_times(len(requests))
        report = availability_report(result, arrivals, slo_latency=10.0)
        assert report.total == len(requests)
        assert report.degraded == int((result.status == 1).sum())
        assert report.ok + report.slow + report.degraded + report.failed == report.total
        assert report.availability == pytest.approx(
            (report.ok + report.slow) / report.total
        )
        assert report.slo_retention <= report.availability
        assert sum(window.arrived for window in report.windows) == report.total

    def test_report_validation_and_nines(self):
        model, plan, requests, schedule = open_loop_inputs(20)
        result = run_configuration(model, plan, requests, None, schedule)
        arrivals = np.zeros(len(requests))
        with pytest.raises(ValueError, match="slo_latency"):
            availability_report(result, arrivals, slo_latency=0.0)
        with pytest.raises(ValueError, match="window"):
            availability_report(result, arrivals, slo_latency=1.0, window=0.0)
        assert nines(0.999) == pytest.approx(3.0)
        assert nines(1.0) == 9.0
        assert nines(0.0) == 0.0

    def test_format_timeline_mentions_events_and_windows(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        chaos = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.1),),
            healing=HealingPolicy(check_interval=0.05, recovery_lag=0.1),
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        arrivals = PoissonArrivals(80.0, seed=7).arrival_times(len(requests))
        report = availability_report(result, arrivals, slo_latency=10.0)
        lines = format_timeline(result.chaos_timeline, report)
        text = "\n".join(lines)
        assert "crash" in text and "healed" in text and "availability" in text


class TestAvailabilitySweep:
    @pytest.fixture(scope="class")
    def assessment(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        return availability_sweep(
            workload,
            ShardingConfiguration("load-bal", 4),
            (HostCrash(shard=0, at=0.1),),
            replica_counts=(1, 2, 3),
            settings=SuiteSettings(num_requests=80, pooling_requests=100),
        )

    def test_slo_retention_monotone_in_replicas(self, assessment):
        retention = [
            outcome.report.slo_retention for outcome in assessment.outcomes
        ]
        assert all(a <= b for a, b in zip(retention, retention[1:]))
        assert retention[0] < 1.0  # the crash hurts at one replica
        assert retention[-1] > retention[0]  # replication actually helps

    def test_replicas_for_target(self, assessment):
        needed = assessment.replicas_for(0.9)
        assert needed is not None
        by_count = {
            outcome.replicas: outcome.report.slo_retention
            for outcome in assessment.outcomes
        }
        assert by_count[needed] >= 0.9
        assert all(
            by_count[count] < 0.9
            for count in by_count
            if count < needed
        )
        assert assessment.replicas_for(2.0) is None

    def test_serial_equals_parallel(self, assessment):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        parallel = availability_sweep(
            workload,
            ShardingConfiguration("load-bal", 4),
            (HostCrash(shard=0, at=0.1),),
            replica_counts=(1, 2, 3),
            settings=SuiteSettings(num_requests=80, pooling_requests=100),
            parallel=True,
            max_workers=2,
        )
        for serial_out, parallel_out in zip(assessment.outcomes, parallel.outcomes):
            assert np.array_equal(serial_out.result.e2e, parallel_out.result.e2e)
            assert np.array_equal(
                serial_out.result.status, parallel_out.result.status
            )
            assert (
                serial_out.report.slo_retention == parallel_out.report.slo_retention
            )
        assert parallel.slo_latency == assessment.slo_latency

    def test_format_assessment_reports_the_answer(self, assessment):
        lines = format_assessment(assessment)
        text = "\n".join(lines)
        assert "replicas for" in text
        assert "timeline (replicas=1):" in text

    def test_rejects_bad_inputs(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        with pytest.raises(ValueError, match="replica_counts"):
            availability_sweep(
                workload, ShardingConfiguration("load-bal", 4), (), replica_counts=()
            )
        with pytest.raises(ValueError, match="serving.chaos"):
            availability_sweep(
                workload,
                ShardingConfiguration("load-bal", 4),
                (),
                settings=SuiteSettings(
                    serving=ServingConfig(chaos=FaultSchedule())
                ),
            )


class TestPlannerAvailability:
    def test_assess_availability_on_chosen_plan(self):
        from repro.planning import CandidateSpace, CapacityPlanner, SlaPolicy

        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        planner = CapacityPlanner(
            policy=SlaPolicy(10.0),  # generous: the candidate qualifies
            space=CandidateSpace(
                configurations=(ShardingConfiguration("load-bal", 4),)
            ),
            settings=SuiteSettings(num_requests=60, pooling_requests=100),
        )
        plan = planner.plan(workload)
        assessment = planner.assess_availability(
            workload, plan, (HostCrash(shard=0, at=0.1),), replica_counts=(1, 2)
        )
        # the planner's SLA target is the SLO the retention is held to
        assert assessment.slo_latency == planner.policy.target_latency
        retention = [o.report.slo_retention for o in assessment.outcomes]
        assert retention[0] <= retention[1]

    def test_singular_choice_cannot_be_chaos_assessed(self):
        from repro.planning import CandidateSpace, CapacityPlanner, SlaPolicy

        workload = Workload(
            "ranking", drm1(), PoissonArrivals(25.0, seed=2), request_seed=3
        )
        planner = CapacityPlanner(
            policy=SlaPolicy(10.0),
            space=CandidateSpace(
                configurations=(ShardingConfiguration("singular"),)
            ),
            settings=SuiteSettings(num_requests=10, pooling_requests=100),
        )
        plan = planner.plan(workload)
        with pytest.raises(ValueError, match="sparse shard"):
            planner.assess_availability(
                workload, plan, (HostCrash(shard=0, at=0.1),), replica_counts=(1,)
            )


class TestDrainOnAbort:
    def test_abort_mid_replay_drains_inflight(self):
        model, plan, requests, schedule = open_loop_inputs(30)

        class Boom(RuntimeError):
            pass

        cluster = ClusterSimulation(
            model, plan, ServingConfig(trace_mode=TraceMode.FULL)
        )
        completed = []

        def on_complete(request_id: int) -> None:
            cluster.tracer.pop_request(request_id)
            completed.append(request_id)
            if len(completed) == 5:
                raise Boom()

        cluster.on_complete = on_complete
        with pytest.raises(Boom):
            cluster.run_open_loop(requests, schedule)
        # the abort left in-flight requests; they were drained, recorded,
        # and the tracer holds no leaked state
        assert cluster.dropped_requests
        assert cluster.tracer.drain_incomplete() == []
        assert set(cluster.dropped_requests).isdisjoint(completed)

    def test_incomplete_requests_annotated_in_result(self):
        model, plan, requests, schedule = open_loop_inputs(20)
        result = run_configuration(model, plan, requests, None, schedule)
        assert result.incomplete_requests == ()


class TestValidationSatellite:
    def test_serving_config_rejects_nonsense(self):
        with pytest.raises(ValueError, match="service_workers"):
            ServingConfig(service_workers=0)
        with pytest.raises(ValueError, match="max_batches"):
            ServingConfig(max_batches=0)
        with pytest.raises(ValueError, match="batch_size"):
            ServingConfig(batch_size=0)
        with pytest.raises(ValueError, match="clock_skew_sigma"):
            ServingConfig(clock_skew_sigma=-1e-6)

    def test_sim_server_rejects_nonsense(self):
        from repro.simulation.engine import Engine

        engine = Engine()
        with pytest.raises(ValueError, match="workers"):
            SimServer(engine, "bad", SC_LARGE, workers=0)
        with pytest.raises(ValueError, match="io_threads"):
            SimServer(engine, "bad", SC_LARGE, workers=1, io_threads=0)

    def test_cost_model_rejects_negative_terms(self):
        with pytest.raises(ValueError, match="rpc_service_fixed"):
            CostModel(rpc_service_fixed=-1e-6)
        with pytest.raises(ValueError, match="serde_bytes_per_sec"):
            CostModel(serde_bytes_per_sec=0.0)
        with pytest.raises(ValueError, match="dense_pre_fraction"):
            CostModel(dense_pre_fraction=1.5)

    def test_fabric_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter_sigma"):
            FabricSpec(jitter_sigma=-0.1)
        with pytest.raises(ValueError, match="propagation"):
            FabricSpec(propagation=float("nan"))

    def test_platform_rejects_nonsense(self):
        with pytest.raises(ValueError, match="cores"):
            Platform(
                name="bad", cores=0, dram_capacity=1.0, clock_ghz=1.0,
                mem_bandwidth=1.0, dram_access_ns=1.0, nic_bandwidth=1.0,
            )
        with pytest.raises(ValueError, match="mem_bandwidth"):
            Platform(
                name="bad", cores=1, dram_capacity=1.0, clock_ghz=1.0,
                mem_bandwidth=-1.0, dram_access_ns=1.0, nic_bandwidth=1.0,
            )
