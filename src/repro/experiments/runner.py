"""Experiment runner: simulate configurations, collect attributed results.

One :class:`RunResult` holds everything the figure generators need for one
(model, sharding configuration, serving configuration) cell: the
per-request columns (E2E latency, aggregate CPU, batch/RPC counts,
operator CPU by category, stacks, flags, per-shard and per-(shard, net)
demand) in a :class:`~repro.tracing.columns.ResultColumns`, the store
both trace modes write, plus -- in FULL mode only -- the per-request
attributions, the one output no figure reads.  Traces are attributed
incrementally as requests complete and raw spans are freed, so full
sweeps stay memory-bounded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Hashable
from typing import Callable, TypeVar

import numpy as np

from repro.models.config import ModelConfig
from repro.requests.generator import Request, RequestGenerator
from repro.requests.replayer import ReplayMode, ReplaySchedule
from repro.serving.simulator import ClusterSimulation, ServingConfig
from repro.sharding.plan import ShardingPlan
from repro.sharding.pooling import estimate_pooling_factors
from repro.tracing.aggregate import AggregatingTracer, TraceMode
from repro.tracing.attribution import RequestAttribution, attribute_request
from repro.tracing.columns import ResultColumns, sequential_sum
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.workload import MixedStream, WorkloadMix
from repro.experiments.configs import (
    ShardingConfiguration,
    build_plan,
    mix_configurations,
    paper_configurations,
)

#: A per-shard column key: a shard index, or a ``(shard, net name)`` pair.
Key = TypeVar("Key", bound=Hashable)

#: Environment knob: request count per configuration in suites/benches.
REQUESTS_ENV = "REPRO_REQUESTS"
DEFAULT_REQUESTS = 200

#: Environment knob: vectorized-kernel chunk size (requests per columnar
#: batch).  The fast path materializes per-request cost arrays one chunk
#: at a time, so peak memory is O(chunk), not O(sweep) -- the default
#: keeps million-request sweeps flat while amortizing numpy dispatch.
CHUNK_ENV = "REPRO_CHUNK"
DEFAULT_CHUNK = 2048


def _env_positive_int(env: str, default: int) -> int:
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{env} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{env} must be >= 1, got {raw!r}"
        )
    return value


def default_num_requests() -> int:
    """Request count per configuration: ``REPRO_REQUESTS`` if set.

    Malformed or non-positive values fail fast with a message naming the
    variable and the offending value, instead of a bare ``ValueError``
    surfacing from ``int()`` deep inside a sweep.
    """
    return _env_positive_int(REQUESTS_ENV, DEFAULT_REQUESTS)


def default_chunk_size() -> int:
    """Vectorized-kernel chunk size: ``REPRO_CHUNK`` if set.

    Validated exactly like ``REPRO_REQUESTS``.  Chunking changes only
    how many requests are columnarized per numpy pass, never the replay
    arithmetic, so any chunk size yields bit-identical results."""
    return _env_positive_int(CHUNK_ENV, DEFAULT_CHUNK)


class RunResult:
    """Attributed measurements for one simulated configuration.

    Storage is **columnar**: every per-request column lives in one
    :class:`ResultColumns`, filled row by row as requests complete (by
    :meth:`add` in FULL mode; AGGREGATE mode adopts the tracer's store).
    Figure generation therefore reads ready-made arrays instead of
    rebuilding them from the list of :class:`RequestAttribution`
    dataclasses on every access.  The full attributions are retained
    (FULL mode only) for ad-hoc inspection; every figure input is a
    column, so figures read identically from either mode.
    """

    def __init__(
        self,
        model_name: str,
        label: str,
        plan: ShardingPlan,
        expected_requests: int = 0,
        workload_labels: tuple[str, ...] | None = None,
        plans: list[ShardingPlan] | None = None,
    ):
        self.model_name = model_name
        self.label = label
        self.plan = plan
        #: One plan per co-located workload; ``[plan]`` for classic runs.
        self.plans = list(plans) if plans is not None else [plan]
        #: Display labels of the workloads sharing this run; classic
        #: single-model runs carry one label (the model name), and every
        #: request's ``workloads`` entry indexes into this tuple.
        self.workload_labels = (
            tuple(workload_labels) if workload_labels else (model_name,)
        )
        self.attributions: list[RequestAttribution] = []
        #: DES kernel that actually produced these columns ("reference",
        #: "batched", or "vectorized"); None until the runner sets it.
        self.kernel_used: str | None = None
        #: Why a ``kernel="vectorized"`` run fell back to the batched
        #: kernel (a stable reason string from
        #: :mod:`repro.serving.columnar`); None when no fallback happened.
        self.kernel_fallback: str | None = None
        #: Requests that never completed (an aborted or fault-saturated
        #: replay); ids only -- they have no row in the columns.
        self.incomplete_requests: tuple[int, ...] = ()
        #: Fault/heal transitions of the replay (``ChaosEvent`` tuples;
        #: empty for healthy runs).
        self.chaos_timeline: tuple = ()
        #: Replay-level resilience counters (attempts, hedges,
        #: budget_denied, deadline_exceeded, aborted_attempts); empty
        #: without an active :class:`~repro.resilience.ResiliencePolicy`.
        self.resilience_stats: dict[str, int] = {}
        #: In-flight RPC attempts aborted by mid-service crashes
        #: (0 on healthy runs).
        self.aborted_rpcs: int = 0
        #: Every per-request column, in completion order: written by
        #: :meth:`add` in FULL mode, adopted from the tracer in AGGREGATE.
        self.columns = ResultColumns(expected_requests)

    def add(
        self,
        attribution: RequestAttribution,
        workload: int = 0,
        degraded: int = 0,
        retries: int = 0,
        attempts: int = 0,
        hedged: int = 0,
        deadline_exceeded: int = 0,
    ) -> None:
        """Append one completed request's attribution."""
        self.attributions.append(attribution)
        # attribute_request builds each stack dict in bucket order.
        self.columns.append(
            attribution.request_id,
            workload,
            attribution.e2e,
            attribution.cpu_total,
            attribution.num_batches,
            attribution.rpcs,
            attribution.sparse_op_cpu,
            attribution.dense_op_cpu,
            (
                *attribution.latency_stack.values(),
                *attribution.embedded_stack.values(),
                *attribution.cpu_stack.values(),
            ),
            attribution.per_shard_cpu,
            attribution.per_shard_op_time,
            {
                self.columns.net_key(shard, net): value
                for (shard, net), value in attribution.per_shard_net_op_time.items()
            },
            (degraded, retries) if degraded or retries else None,
            (attempts, hedged, deadline_exceeded)
            if attempts or hedged or deadline_exceeded
            else None,
        )

    def __len__(self) -> int:
        return self.columns.count

    # -- columnar accessors (no per-access rebuild) -----------------------
    @property
    def e2e(self) -> np.ndarray:
        return self.columns.e2e[: len(self)]

    @property
    def cpu(self) -> np.ndarray:
        return self.columns.cpu[: len(self)]

    @property
    def num_batches(self) -> np.ndarray:
        """Per-request batch count (Section VI-F's batching axis)."""
        return self.columns.num_batches[: len(self)]

    @property
    def rpcs(self) -> np.ndarray:
        """Per-request count of client RPCs issued (0 on singular plans)."""
        return self.columns.rpcs[: len(self)]

    @property
    def sparse_op_cpu(self) -> np.ndarray:
        """Per-request sparse-operator CPU-seconds, summed over shards."""
        return self.columns.sparse_op_cpu[: len(self)]

    @property
    def dense_op_cpu(self) -> np.ndarray:
        """Per-request dense (non-sparse) operator CPU-seconds."""
        return self.columns.dense_op_cpu[: len(self)]

    # -- chaos columns (both trace modes) ----------------------------------
    @property
    def request_ids(self) -> np.ndarray:
        """Per-row request id, in completion order.  Under fault injection
        completion order diverges from arrival order, and this column is
        what maps a row back to its arrival time (availability timelines
        index ``arrival_times[request_ids]``)."""
        return self.columns.request_ids[: len(self)]

    @property
    def status(self) -> np.ndarray:
        """Per-request outcome: 0 = full response, 1 = degraded (at least
        one sparse RPC found no live replica and the request was served
        dense-only for that net).  All zeros on healthy runs."""
        return self.columns.status[: len(self)]

    @property
    def degraded(self) -> np.ndarray:
        """Per-request count of degraded (dense-only) sparse RPCs."""
        return self.columns.degraded[: len(self)]

    @property
    def retries(self) -> np.ndarray:
        """Per-request count of RPC failovers (dead host -> live replica),
        including mid-service aborts."""
        return self.columns.retries[: len(self)]

    # -- resilience columns (both trace modes) -----------------------------
    @property
    def attempts(self) -> np.ndarray:
        """Per-request count of policy-issued RPC attempts (first sends,
        hedges, and timeout retries).  All zeros without an active
        :class:`~repro.resilience.ResiliencePolicy`."""
        return self.columns.attempts[: len(self)]

    @property
    def hedged(self) -> np.ndarray:
        """Per-request count of hedged (speculative duplicate) attempts
        actually issued."""
        return self.columns.hedged[: len(self)]

    @property
    def deadline_exceeded(self) -> np.ndarray:
        """Per-request flag: 1 when the request completed past the
        policy's deadline."""
        return self.columns.deadline_exceeded[: len(self)]

    def stack_columns(self, kind: str) -> dict[str, np.ndarray]:
        """One array per bucket for ``kind`` in {latency, embedded, cpu}."""
        return self.columns.stack_columns(kind)

    # -- per-workload views ------------------------------------------------
    @property
    def workloads(self) -> np.ndarray:
        """Per-request workload index (into ``workload_labels``), in
        completion order -- all zeros for single-workload runs."""
        return self.columns.workloads[: len(self)]

    def workload_mask(self, label: str) -> np.ndarray:
        """Boolean mask selecting one workload's requests."""
        return self.workloads == self.workload_labels.index(label)

    def split_by_workload(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Split any per-request column into ``{workload label: values}``."""
        workloads = self.workloads
        return {
            label: values[workloads == index]
            for index, label in enumerate(self.workload_labels)
        }

    def per_workload_e2e(self) -> dict[str, np.ndarray]:
        """E2E latency split by workload (the mix-figure accessor)."""
        return self.split_by_workload(self.e2e)

    @property
    def embedded_totals(self) -> np.ndarray:
        """Per-request embedded-portion totals (sum of embedded buckets)."""
        columns = self.stack_columns("embedded")
        total = np.zeros(len(self))
        for column in columns.values():
            total += column
        return total

    def adopt_aggregate(self, tracer: AggregatingTracer) -> None:
        """Take over an :class:`AggregatingTracer`'s columns.

        The tracer attributed every completed request straight into its
        own :class:`ResultColumns`, so adoption is a pointer handoff -- no
        per-request dataclasses were ever built.  Every column comes
        along, the per-shard and per-(shard, net) demand columns
        included, so every accessor and every figure reads identically in
        both trace modes; only ``attributions`` stays empty.  The store
        is shared, not copied, so the tracer must not finalize further
        requests.
        """
        self.columns = tracer.columns

    # -- per-shard demand (both trace modes) -------------------------------
    def _mean_shard_columns(
        self, cols: dict[Key, np.ndarray], workload: str | None
    ) -> dict[Key, float]:
        """Per-key column means over completed requests, sorted by key.

        Sums are strictly sequential in completion order
        (:func:`~repro.tracing.columns.sequential_sum`), reproducing the
        historical per-attribution Python accumulation bit-for-bit;
        untouched requests contribute exact ``+0.0`` terms, which never
        perturb a float sum.
        """
        count = len(self)
        if count == 0 or not cols:
            return {}
        if workload is None:
            return {
                key: sequential_sum(cols[key][:count]) / count
                for key in sorted(cols)
            }
        mask = self.workload_mask(workload)
        selected = int(np.count_nonzero(mask))
        if selected == 0:
            return {}
        return {
            key: sequential_sum(cols[key][:count][mask]) / selected
            for key in sorted(cols)
        }

    def mean_cpu_by_shard(self, workload: str | None = None) -> dict[int, float]:
        """Mean per-request CPU-seconds by shard (``MAIN_SHARD`` = -1).

        The replication planner's demand signal, available in FULL *and*
        AGGREGATE trace modes.  With ``workload`` set, only that tenant's
        requests (label column) are averaged -- the per-tenant demand of a
        co-located mix.  ``{}`` when no matching request completed.
        """
        return self._mean_shard_columns(self.columns.shard_cpu, workload)

    def mean_per_shard_op_time(self, workload: str | None = None) -> dict[int, float]:
        """Mean per-shard sparse-operator time (both trace modes); ``{}``
        when no matching request completed."""
        return self._mean_shard_columns(self.columns.shard_op, workload)

    def mean_per_shard_net_op_time(self) -> dict[tuple[int, str], float]:
        """Mean per-(shard, net) sparse-operator time, sorted by
        ``(shard, net name)`` (both trace modes, Figure 10); ``{}`` when
        no request completed."""
        return self._mean_shard_columns(self.columns.net_op_columns(), None)


def run_configuration(
    model: ModelConfig,
    plan: ShardingPlan,
    requests: list[Request],
    serving: ServingConfig | None = None,
    schedule: ReplaySchedule | None = None,
) -> RunResult:
    """Simulate one configuration and attribute every request.

    In ``TraceMode.FULL`` every completed request's spans are popped and
    attributed into a retained :class:`RequestAttribution`; in
    ``TraceMode.AGGREGATE`` the tracer attributes bucket sums straight
    into the columnar arrays and the result adopts them wholesale --
    identical columns, no span or dataclass retention.

    ``serving.kernel == "vectorized"`` (the default) dispatches eligible
    runs (serial closed-loop, chaos-free, AGGREGATE) to the columnar
    replay engine (:func:`repro.serving.columnar.run_vectorized`) --
    bit-identical columns, no event loop; ineligible runs fall back to
    the batched kernel with the reason recorded on
    ``RunResult.kernel_fallback``.
    """
    schedule = schedule or ReplaySchedule.serial()
    serving = serving or ServingConfig()
    kernel_fallback: str | None = None
    if serving.kernel == "vectorized":
        from repro.serving.columnar import run_vectorized, vectorized_ineligibility

        kernel_fallback = vectorized_ineligibility(serving, schedule)
        if kernel_fallback is None:
            collector, cluster = run_vectorized(
                model, plan, requests, serving, default_chunk_size()
            )
            result = RunResult(
                model_name=model.name,
                label=plan.label,
                plan=plan,
                expected_requests=0,
            )
            result.adopt_aggregate(collector)
            result.kernel_used = "vectorized"
            result.chaos_timeline = cluster.chaos_timeline
            return result
        serving = serving.with_kernel("batched")
    aggregate = serving.trace_mode is TraceMode.AGGREGATE
    cluster = ClusterSimulation(
        model, plan, serving,
        tracer=AggregatingTracer(expected_requests=len(requests)) if aggregate else None,
    )
    result = RunResult(
        model_name=model.name,
        label=plan.label,
        plan=plan,
        # In aggregate mode the tracer owns the (right-sized) columns and
        # the result adopts them, so don't preallocate a second set here.
        expected_requests=0 if aggregate else len(requests),
    )
    if schedule.mode is ReplayMode.SERIAL:
        replay = partial(cluster.run_serial, requests)
    else:
        replay = partial(cluster.run_open_loop, requests, schedule)
    return _replay_into(result, cluster, replay, kernel_fallback)


def _replay_into(
    result: RunResult,
    cluster: ClusterSimulation,
    replay: Callable[[], None],
    kernel_fallback: str | None,
    workload_ids: np.ndarray | None = None,
) -> RunResult:
    """Attribute every completion of ``replay()`` into ``result``.

    Shared by the single-model and co-located runners.  ``workload_ids``
    maps request ids to workload indices; ``None`` reads as workload 0
    for every request, as in :meth:`AggregatingTracer.finalize_request`.
    """
    tracer = cluster.tracer
    chaos_flags = cluster.chaos_flags
    res_flags = cluster.resilience_flags
    if isinstance(tracer, AggregatingTracer):
        tracer.workload_ids = workload_ids
        tracer.chaos_flags = chaos_flags
        tracer.resilience_flags = res_flags
        cluster.on_complete = tracer.finalize_request
    else:
        def on_complete(request_id: int) -> None:
            flags = chaos_flags.get(request_id) if chaos_flags else None
            rflags = res_flags.get(request_id) if res_flags else None
            result.add(
                attribute_request(tracer.pop_request(request_id)),
                workload=0 if workload_ids is None else int(workload_ids[request_id]),
                degraded=flags[0] if flags else 0,
                retries=flags[1] if flags else 0,
                attempts=rflags[0] if rflags else 0,
                hedged=rflags[1] if rflags else 0,
                deadline_exceeded=rflags[2] if rflags else 0,
            )

        cluster.on_complete = on_complete
    replay()
    if isinstance(tracer, AggregatingTracer):
        result.adopt_aggregate(tracer)
    result.kernel_used = cluster.config.kernel
    result.kernel_fallback = kernel_fallback
    result.incomplete_requests = tuple(cluster.dropped_requests)
    result.chaos_timeline = cluster.chaos_timeline
    result.resilience_stats = cluster.resilience_stats
    result.aborted_rpcs = cluster.chaos_aborted
    return result


@dataclass(frozen=True)
class SuiteSettings:
    """Shared settings for a paper-style sweep over configurations."""

    num_requests: int = 0  # 0 -> default_num_requests()
    request_seed: int = 3
    pooling_requests: int = 1000
    pooling_seed: int = 42
    serving: ServingConfig = field(default_factory=ServingConfig)
    schedule: ReplaySchedule = field(default_factory=ReplaySchedule.serial)
    trace_mode: TraceMode | None = None
    """Overrides ``serving.trace_mode`` when set; None keeps it."""

    kernel: str | None = None
    """Overrides ``serving.kernel`` when set (one of
    :data:`repro.simulation.engine.KERNELS`); None keeps it.  See
    :attr:`ServingConfig.kernel <repro.serving.simulator.ServingConfig.kernel>`
    for what each kernel does."""

    arrivals: ArrivalProcess | None = None
    """Overrides ``schedule`` with any workload-subsystem arrival process
    (diurnal, MMPP, constant-rate, ...) when set; None keeps the
    schedule.  The classic serial / fixed-QPS spellings stay on
    ``schedule`` and replay byte-identical streams either way.  With a
    timed process set, request timestamps are the arrival times
    themselves (matching ``Workload.sample``), so the generator's
    diurnal request-size modulation tracks the arrival curve instead of
    the default 5-day linspace window."""

    def resolved_requests(self) -> int:
        return self.num_requests or default_num_requests()

    def resolved_serving(self) -> ServingConfig:
        """The serving config with the suite-level trace-mode and kernel
        overrides applied."""
        serving = self.serving
        if self.trace_mode is not None and self.trace_mode is not serving.trace_mode:
            serving = serving.with_trace_mode(self.trace_mode)
        if self.kernel is not None and self.kernel != serving.kernel:
            serving = serving.with_kernel(self.kernel)
        return serving

    def resolved_schedule(self) -> ReplaySchedule:
        """The replay schedule, with ``arrivals`` applied when set."""
        if self.arrivals is None:
            return self.schedule
        return ReplaySchedule.from_arrivals(self.arrivals)


def suite_requests(model: ModelConfig, settings: SuiteSettings) -> list[Request]:
    generator = RequestGenerator(model, seed=settings.request_seed)
    count = settings.resolved_requests()
    if settings.arrivals is not None:
        times = settings.arrivals.arrival_times(count)
        if times is not None:
            # Timed arrival process: timestamps are the arrival times, so
            # the diurnal size modulation tracks the arrival curve
            # (Workload.sample semantics).  Serial arrivals fall through
            # to the classic evenly-sampled window.
            return generator.generate_batch(np.asarray(times, dtype=np.float64))
    return generator.generate_many(count)


def run_suite(
    model: ModelConfig,
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
) -> dict[str, RunResult]:
    """Run the paper's configuration matrix for one model.

    Every configuration replays the *same* request sample (the paper's
    replayer preprocesses and caches requests before sending).
    """
    settings = settings or SuiteSettings()
    configurations = configurations or paper_configurations(model.name)
    requests = suite_requests(model, settings)
    pooling = estimate_pooling_factors(
        model, num_requests=settings.pooling_requests, seed=settings.pooling_seed
    )
    serving = settings.resolved_serving()
    schedule = settings.resolved_schedule()
    results: dict[str, RunResult] = {}
    for configuration in configurations:
        plan = build_plan(model, configuration, pooling)
        results[plan.label] = run_configuration(
            model, plan, requests, serving, schedule
        )
    return results


# -- multi-model workload mixes ----------------------------------------------
def run_mix_configuration(
    mix: "WorkloadMix",
    plans: list[ShardingPlan],
    stream: "MixedStream",
    serving: ServingConfig | None = None,
    label: str | None = None,
) -> RunResult:
    """Simulate one co-located deployment of a workload mix.

    ``plans[w]`` shards workload ``w``'s model; all tenants share the
    simulated hosts (``ClusterSimulation.colocated``), so the mix's
    queueing contention is simulated.  The returned :class:`RunResult`
    carries a per-workload label column in completion order -- filled by
    the attribution hook in FULL mode and by the aggregating tracer in
    AGGREGATE mode, bit-identically (``stream.workload_ids`` is indexed
    by request id either way, since merged ids are stream positions).
    """
    if len(plans) != len(mix.workloads):
        raise ValueError(
            f"got {len(plans)} plans for {len(mix.workloads)} workloads"
        )
    serving = serving or ServingConfig()
    kernel_fallback: str | None = None
    if serving.kernel == "vectorized":
        # Co-located tenants share host queues, so per-request costs are
        # no longer closed-form -- the mix path always takes the batched
        # kernel and records why.
        from repro.serving.columnar import REASON_MIX

        kernel_fallback = REASON_MIX
        serving = serving.with_kernel("batched")
    aggregate = serving.trace_mode is TraceMode.AGGREGATE
    cluster = ClusterSimulation.colocated(
        [(workload.model, plan) for workload, plan in zip(mix.workloads, plans)],
        serving,
        tracer=AggregatingTracer(expected_requests=len(stream)) if aggregate else None,
    )
    result = RunResult(
        model_name="+".join(workload.model.name for workload in mix.workloads),
        label=label or " + ".join(plan.label for plan in plans),
        plan=plans[0],
        expected_requests=0 if aggregate else len(stream),
        workload_labels=mix.labels(),
        plans=plans,
    )
    return _replay_into(
        result, cluster, partial(cluster.run_stream, stream), kernel_fallback,
        workload_ids=stream.workload_ids,
    )


def mix_stream(mix: "WorkloadMix", settings: SuiteSettings) -> "MixedStream":
    """Sample a mix's merged request stream once per sweep (the mix-side
    analogue of :func:`suite_requests`)."""
    return mix.sample(settings.resolved_requests())


def _mix_sweep_context(
    mix: "WorkloadMix",
    settings: SuiteSettings | None,
    configurations: tuple[ShardingConfiguration, ...] | None,
):
    """Shared sweep preamble of the serial and parallel mix runners.

    One definition on purpose: the serial == parallel identity holds only
    while both runners default configurations, sample the stream, and
    estimate poolings identically.
    """
    settings = settings or SuiteSettings()
    configurations = configurations or mix_configurations(
        workload.model.name for workload in mix.workloads
    )
    stream = mix_stream(mix, settings)
    poolings = [
        estimate_pooling_factors(
            workload.model,
            num_requests=settings.pooling_requests,
            seed=settings.pooling_seed,
        )
        for workload in mix.workloads
    ]
    return configurations, stream, poolings, settings.resolved_serving()


def run_mix_suite(
    mix: "WorkloadMix",
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
) -> dict[str, RunResult]:
    """Run a configuration sweep for a co-located workload mix.

    Each configuration is applied to *every* workload's model (so it must
    be valid for all of them); every configuration replays the same
    merged stream, mirroring :func:`run_suite`.  ``settings.num_requests``
    is the per-workload request count.
    """
    configurations, stream, poolings, serving = _mix_sweep_context(
        mix, settings, configurations
    )
    results: dict[str, RunResult] = {}
    for configuration in configurations:
        plans = [
            build_plan(workload.model, configuration, pooling)
            for workload, pooling in zip(mix.workloads, poolings)
        ]
        results[configuration.label] = run_mix_configuration(
            mix, plans, stream, serving, label=configuration.label
        )
    return results
