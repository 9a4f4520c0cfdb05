"""The benchmark's three workloads, their output check, and their digest.

Every workload is a function of a seed and a size.  The seed derives
every request, arrival, pooling and serving seed (:func:`derive`), so one
seed always replays the same simulated inputs.  A workload returns its
products unchecked (:class:`Pending`); after the timed region,
:meth:`Pending.check` gives an :class:`Outcome`: one :class:`Op` per
``run_configuration`` / ``run_mix_configuration`` call or figure-generator
call, each with its pass/fail verdict from the output check and a digest
of its simulated output.  The digests let a later "speed-only" change
prove it did not move a single simulated statistic.

This module imports ``repro`` lazily (inside :func:`setup`), so the
runner (``run.py``) can import the size tables without paying for the
library.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

#: Per-workload sizes: ``requests`` per configuration (``paper-sweep``,
#: ``figures``) or per tenant (``chaos-plan``); ``pooling`` is the
#: pooling-estimate sample (the paper's 1000).  ``tiny`` is the
#: self-test's size.
SIZES = {
    "paper-sweep": {"full": {"requests": 200, "pooling": 1000},
                    "tiny": {"requests": 8, "pooling": 20}},
    "figures": {"full": {"requests": 40, "pooling": 1000},
                "tiny": {"requests": 8, "pooling": 20}},
    "chaos-plan": {"full": {"requests": 60, "pooling": 1000},
                   "tiny": {"requests": 12, "pooling": 20}},
}

WORKLOADS = tuple(SIZES)


def derive(seed: int, *key: str) -> int:
    """A 31-bit seed for one named input stream of workload seed ``seed``."""
    text = ":".join((str(seed),) + key).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


@dataclass
class Op:
    """One operation: its name, verdict and output digest."""

    name: str
    ok: bool
    reason: str = ""
    digest: str = ""


@dataclass
class Outcome:
    """Everything one workload run produced, for the run's record."""

    ops: list[Op] = field(default_factory=list)
    #: Simulated resilience counts (identical under speed-only changes).
    resilience: dict[str, float] = field(default_factory=dict)


class CheckFailed(Exception):
    """An output failed the benchmark's correctness check."""


# -- digests -----------------------------------------------------------------
def _update_array(h, array) -> None:
    import numpy as np

    array = np.ascontiguousarray(array)
    h.update(str(array.dtype).encode())
    h.update(array.tobytes())


def result_digest(result) -> str:
    """Digest of a RunResult's simulated columns.

    Covers everything FULL and AGGREGATE trace modes (and every kernel)
    must agree on bit for bit; it leaves out which kernel ran.
    """
    h = hashlib.sha256(result.label.encode())
    for column in (
        result.e2e, result.cpu, result.request_ids, result.status,
        result.degraded, result.retries, result.attempts, result.hedged,
        result.deadline_exceeded, result.workloads,
    ):
        _update_array(h, column)
    for kind in ("latency", "embedded", "cpu"):
        for bucket, column in result.stack_columns(kind).items():
            h.update(bucket.encode())
            _update_array(h, column)
    for means in (result.mean_cpu_by_shard(), result.mean_per_shard_op_time()):
        h.update(repr(sorted((k, v.hex()) for k, v in means.items())).encode())
    h.update(repr((result.incomplete_requests, result.aborted_rpcs)).encode())
    return h.hexdigest()[:12]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- output check ------------------------------------------------------------
def check_replay(result, expected: int, healthy: bool = True) -> None:
    """Raise :class:`CheckFailed` unless ``result`` is a sound replay.

    A healthy replay completes every request; a faulted one accounts for
    every request as completed or incomplete.  Either way every completed
    request has finite, positive ``e2e`` and ``cpu``.
    """
    import numpy as np

    completed = len(result)
    if healthy and (completed != expected or result.incomplete_requests):
        raise CheckFailed(
            f"{result.label}: {completed}/{expected} requests completed"
        )
    if completed + len(result.incomplete_requests) != expected:
        raise CheckFailed(
            f"{result.label}: {completed} completed + "
            f"{len(result.incomplete_requests)} incomplete != {expected}"
        )
    for name in ("e2e", "cpu"):
        column = getattr(result, name)
        if not (np.all(np.isfinite(column)) and np.all(column > 0.0)):
            raise CheckFailed(f"{result.label}: non-finite or non-positive {name}")


def check_vectorized(result) -> None:
    if result.kernel_used != "vectorized" or result.kernel_fallback is not None:
        raise CheckFailed(
            f"{result.label}: kernel {result.kernel_used!r} "
            f"(fallback {result.kernel_fallback!r}), expected vectorized"
        )


# -- set-up ------------------------------------------------------------------
def setup() -> dict:
    """Import the library (every subsystem a workload touches, so no
    import lands in a timed region) and construct the paper's three
    models, which every workload takes as its first argument."""
    import repro.chaos  # noqa: F401
    import repro.resilience  # noqa: F401
    import repro.serving.columnar  # noqa: F401
    from repro.models import drm1, drm2, drm3

    return {"DRM1": drm1(), "DRM2": drm2(), "DRM3": drm3()}


# -- workloads ---------------------------------------------------------------
class Pending:
    """A workload's products, checked and digested by :meth:`check` only
    after the timed region ends, so the output check is not timed."""

    def __init__(self):
        self._items: list = []
        self.resilience: dict[str, float] = {}

    def result(self, name: str, result, check) -> None:
        """A RunResult, verified by ``check(result)``."""
        def verify() -> str:
            check(result)
            return result_digest(result)

        self._items.append((name, verify, result))

    def value(self, name: str, verify) -> None:
        """Any other output: ``verify()`` raises CheckFailed or returns
        the output's digest."""
        self._items.append((name, verify, None))

    def failed(self, names, exc: BaseException) -> None:
        reason = f"{type(exc).__name__}: {exc}"

        def verify() -> str:
            raise CheckFailed(reason)

        for name in names:
            self._items.append((name, verify, None))

    def check(self, corrupt: bool = False) -> Outcome:
        """Run every check.  ``corrupt`` first poisons one latency of the
        first replay result, so the self-test can show the check
        counting it as failed."""
        outcome = Outcome(resilience=dict(self.resilience))
        for name, verify, result in self._items:
            if corrupt and result is not None and len(result):
                corrupt = False
                result.e2e[0] = math.nan
            try:
                digest = verify()
            except CheckFailed as exc:
                outcome.ops.append(Op(name, False, str(exc)))
                continue
            outcome.ops.append(Op(name, True, "", digest))
        return outcome


def suite(pending: Pending, tag: str, model, settings, check) -> dict:
    """``run_suite`` over one model's paper matrix, each configuration's
    result one op (named ``tag/label``).  If the suite raises, every
    configuration of the model counts as a failed op."""
    from repro.experiments import run_suite
    from repro.experiments.configs import paper_configurations

    try:
        results = run_suite(model, settings)
    except Exception as exc:  # counted as failed ops; the run goes on
        pending.failed(
            [f"{tag}/{c.label}" for c in paper_configurations(model.name)], exc
        )
        return {}
    for label, result in results.items():
        pending.result(f"{tag}/{label}", result, check)
    return results


def paper_sweep(models: dict, seed: int, size: dict) -> Pending:
    """Closed-loop serial replay of the DRM1/2/3 paper matrix on the
    vectorized kernel with AGGREGATE tracing (26 configurations)."""
    from repro.experiments import SuiteSettings, TraceMode
    from repro.serving import ServingConfig

    pending = Pending()

    def check(result) -> None:
        check_vectorized(result)
        check_replay(result, size["requests"])

    for name, model in models.items():
        settings = SuiteSettings(
            num_requests=size["requests"],
            request_seed=derive(seed, name, "requests"),
            pooling_requests=size["pooling"],
            pooling_seed=derive(seed, name, "pooling"),
            serving=ServingConfig(seed=derive(seed, name, "serving")),
            trace_mode=TraceMode.AGGREGATE,
            kernel="vectorized",
        )
        suite(pending, name, model, settings, check)
    return pending


def figures(models: dict, seed: int, size: dict) -> Pending:
    """Every generator in ``repro.experiments.figures``, fed through the
    library's default ``ServingConfig`` (only its seed is set)."""
    from repro.compression import compress_model
    from repro.experiments import (
        SuiteSettings,
        figures as gen,
        run_configuration,
        suite_requests,
    )
    from repro.experiments.configs import (
        ShardingConfiguration,
        build_plan,
        paper_configurations,
    )
    from repro.requests import ReplaySchedule
    from repro.serving import ServingConfig
    from repro.sharding import SINGULAR, estimate_pooling_factors
    from repro.simulation.platform import SC_SMALL

    pending = Pending()
    serving_seed = derive(seed, "figures", "serving")
    pooling_seed = derive(seed, "figures", "pooling")

    def settings(**overrides) -> SuiteSettings:
        base = dict(
            num_requests=size["requests"],
            request_seed=derive(seed, "figures", "requests"),
            pooling_requests=size["pooling"],
            pooling_seed=pooling_seed,
            serving=ServingConfig(seed=serving_seed),
        )
        base.update(overrides)
        return SuiteSettings(**base)

    def replay(op: str, model, plan, requests, serving, schedule=None):
        try:
            result = run_configuration(model, plan, requests, serving, schedule)
        except Exception as exc:  # counted as a failed op; the run goes on
            pending.failed([op], exc)
            return None
        pending.result(op, result, lambda r: check_replay(r, len(requests)))
        return result

    def check(result) -> None:
        check_replay(result, size["requests"])

    serial = {
        name: suite(pending, f"serial/{name}", model, settings(), check)
        for name, model in models.items()
    }
    batch_one = ServingConfig(seed=serving_seed).with_batch_size(10**9)
    single_batch = {
        name: suite(pending, f"single-batch/{name}", models[name],
                    settings(serving=batch_one), check)
        for name in ("DRM1", "DRM2")
    }
    qps = suite(
        pending, "qps/DRM1", models["DRM1"],
        settings(
            serving=ServingConfig(seed=serving_seed, service_workers=2),
            schedule=ReplaySchedule.open_loop(
                25.0, seed=derive(seed, "figures", "arrivals")
            ),
        ),
        check,
    )

    drm1 = models["DRM1"]
    requests = suite_requests(drm1, settings())
    pooling = estimate_pooling_factors(
        drm1, num_requests=size["pooling"], seed=pooling_seed
    )
    lb8 = build_plan(drm1, ShardingConfiguration("load-bal", 8), pooling)
    large = replay("platform/SC-Large", drm1, lb8, requests,
                   ServingConfig(seed=serving_seed))
    small = replay("platform/SC-Small", drm1, lb8, requests,
                   ServingConfig(seed=serving_seed, sparse_platform=SC_SMALL))
    compressed, report = compress_model(drm1)
    base = replay(
        "compression/uncompressed", drm1,
        build_plan(drm1, ShardingConfiguration(SINGULAR)), requests,
        ServingConfig(seed=serving_seed),
    )
    comp = replay(
        "compression/compressed", compressed,
        build_plan(compressed, ShardingConfiguration(SINGULAR)), requests,
        ServingConfig(seed=serving_seed),
    )

    table2_plans = {
        c.label: build_plan(drm1, c, pooling)
        for c in paper_configurations("DRM1")
        if c.strategy != SINGULAR
    }
    serial_pair = {name: serial[name] for name in ("DRM1", "DRM2")}
    generators = [
        ("fig1", lambda: gen.fig1_model_growth()),
        ("fig4", lambda: gen.fig4_operator_attribution(
            {name: serial[name][SINGULAR] for name in models}, models)),
        ("fig5", lambda: gen.fig5_table_size_distribution(models)),
        ("table2", lambda: gen.table2_sharding_results(
            drm1, table2_plans, pooling)),
        ("fig6_drm1", lambda: gen.fig6_overheads(serial["DRM1"], "DRM1")),
        ("fig6_drm2", lambda: gen.fig6_overheads(serial["DRM2"], "DRM2")),
        ("fig7", lambda: gen.fig7_overheads_drm3(serial["DRM3"])),
        ("fig8a", lambda: gen.fig8a_e2e_latency_stacks(serial["DRM1"])),
        ("fig8b", lambda: gen.fig8b_embedded_stacks(serial["DRM1"])),
        ("fig9", lambda: gen.fig9_cpu_stacks(serial["DRM1"])),
        ("fig10", lambda: gen.fig10_per_shard_by_net(serial["DRM1"])),
        ("fig11", lambda: gen.fig11_drm3_per_shard(serial["DRM3"])),
        ("fig12", lambda: gen.fig12_per_shard_by_strategy(serial["DRM1"])),
        ("fig13", lambda: gen.fig13_batching_latency(serial_pair, single_batch)),
        ("fig14", lambda: gen.fig14_batching_cpu(serial_pair, single_batch)),
        ("fig15", lambda: gen.fig15_platforms(large, small)),
        ("fig16", lambda: gen.fig16_qps_overheads(qps)),
        ("table3", lambda: gen.table3_compression(base, comp, report)),
    ]
    for name, call in generators:
        op = f"figure/{name}"
        try:
            artifact = call()
        except Exception as exc:  # a missing input raises here too
            pending.failed([op], exc)
            continue
        pending.value(op, functools.partial(_artifact_digest, artifact))
    return pending


def _artifact_digest(artifact) -> str:
    if not artifact.text.strip():
        raise CheckFailed(f"{artifact.name}: empty artifact text")
    return text_digest(artifact.text)


def chaos_plan(models: dict, seed: int, size: dict) -> Pending:
    """Plan a co-located diurnal DRM1+DRM2 mix over three candidates, then
    two availability sweeps: a host crash with healing at 1-3 replicas,
    and a correlated domain crash under a retry+hedge policy."""
    from repro.chaos import CorrelatedFailure, HealingPolicy, HostCrash
    from repro.experiments import ShardingConfiguration, SuiteSettings, TraceMode
    from repro.planning import CandidateSpace, CapacityPlanner
    from repro.resilience import ResiliencePolicy
    from repro.serving import ServingConfig
    from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix

    pending = Pending()
    mix = WorkloadMix((
        Workload(
            "ranking", models["DRM1"],
            PiecewiseRateArrivals.diurnal(50.0, seed=derive(seed, "chaos", "a1")),
            request_seed=derive(seed, "chaos", "r1"),
        ),
        Workload(
            "retrieval", models["DRM2"],
            PiecewiseRateArrivals.diurnal(
                30.0, trough_fraction=0.5, seed=derive(seed, "chaos", "a2")
            ),
            request_seed=derive(seed, "chaos", "r2"),
        ),
    ))
    expected = size["requests"] * len(mix.workloads)
    configurations = (
        ShardingConfiguration("singular"),
        ShardingConfiguration("load-bal", 4),
        ShardingConfiguration("load-bal", 8),
    )
    # The SLA is 1.5x the slowest request of the mix's singular baseline.
    # At 60 requests per tenant a p99 is one request, and the planner's
    # default (1.5x the merged p99, checked per tenant) leaves some seeds
    # with no candidate, not even singular, inside it: "no feasible plan"
    # would then be a property of the sample, not of the planner.
    planner = CapacityPlanner(
        baseline_quantile=100.0,
        space=CandidateSpace(configurations=configurations),
        settings=SuiteSettings(
            num_requests=size["requests"],
            pooling_requests=size["pooling"],
            pooling_seed=derive(seed, "chaos", "pooling"),
            serving=ServingConfig(seed=derive(seed, "chaos", "serving")),
            trace_mode=TraceMode.AGGREGATE,
        ),
    )

    sink: dict = {}
    try:
        plan = planner.plan(mix, results_sink=sink)
    except Exception as exc:  # counted as failed ops
        pending.failed([f"plan/{c.label}" for c in configurations], exc)
        return pending
    for label, result in sink.items():
        pending.result(f"plan/{label}", result, lambda r: check_replay(r, expected))
    pending.value("plan/choice", functools.partial(_plan_digest, plan))
    if not plan.feasible:
        return pending

    def sweep(tag: str, replicas: tuple[int, ...], **kwargs):
        ops = [f"{tag}/healthy"] + [f"{tag}/r{count}" for count in replicas]
        try:
            assessment = planner.assess_availability(
                mix, plan, replica_counts=replicas, **kwargs
            )
        except Exception as exc:  # counted as failed ops
            pending.failed(ops, exc)
            return None
        pending.value(ops[0], functools.partial(_healthy_digest, assessment))
        for outcome in assessment.outcomes:
            pending.result(
                f"{tag}/r{outcome.replicas}", outcome.result,
                lambda r: check_replay(r, expected, healthy=False),
            )
        pending.value(f"{tag}/retention", functools.partial(_retention_digest, assessment))
        return assessment

    sweep(
        "crash", (1, 2, 3),
        experiments=(HostCrash(shard=0, at=0.1),),
        healing=HealingPolicy(
            check_interval=0.05, consecutive_misses=2, recovery_lag=0.25
        ),
    )
    correlated = sweep(
        "correlated", (1, 2),
        experiments=(CorrelatedFailure(domain=0, at=0.05),),
        domains=2, placement="spread",
        policy=ResiliencePolicy(
            rpc_timeout=5e-3, max_attempts=3, backoff_base=1e-4,
            backoff_jitter=0.5, hedge_quantile=95.0,
        ),
    )
    if correlated is not None:
        results = [outcome.result for outcome in correlated.outcomes]
        attempts = sum(int(r.attempts.sum()) for r in results)
        completed = sum(int((r.status == 0).sum()) for r in results)
        pending.resilience = {
            "attempts": attempts,
            "hedged": sum(int(r.hedged.sum()) for r in results),
            "useful_frac": completed / attempts if attempts else 0.0,
        }
    return pending


def _plan_digest(plan) -> str:
    if not plan.feasible:
        raise CheckFailed("the planner found no feasible plan")
    chosen = plan.chosen
    return text_digest(repr((
        chosen.label, chosen.utilization_target, chosen.total_servers,
        float(chosen.total_memory_bytes).hex(),
    )))


def _healthy_digest(assessment) -> str:
    p99 = assessment.baseline_p99
    if not (math.isfinite(p99) and p99 > 0.0):
        raise CheckFailed(f"healthy p99 {p99!r} is not finite and positive")
    return text_digest(f"{p99.hex()}:{assessment.slo_latency.hex()}")


def _retention_digest(assessment) -> str:
    retention = [o.report.slo_retention for o in assessment.outcomes]
    if any(a > b for a, b in zip(retention, retention[1:])):
        raise CheckFailed(f"slo_retention decreases with replicas: {retention}")
    return text_digest(repr([float(r).hex() for r in retention]))


RUNNERS = {
    "paper-sweep": paper_sweep,
    "figures": figures,
    "chaos-plan": chaos_plan,
}
