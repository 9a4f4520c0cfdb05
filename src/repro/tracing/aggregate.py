"""Span-free aggregate tracing: the sweep fast path (ROADMAP perf rung).

Full tracing materializes ~180 :class:`~repro.tracing.span.Span` objects
per request and attributes them post-hoc with several passes per request
(:func:`~repro.tracing.attribution.attribute_request`).  That is the right
tool for trace rendering and span inspection, but it dominates the cost
of sweeps that only consume the per-request result *columns* -- which is
every figure, per-shard breakdowns (paper Figures 10-12) included.

:class:`AggregatingTracer` is the span-free alternative: it implements the
same ``record_interval`` entry point the simulator drives, but folds each
interval straight into per-request bucket accumulators (ring-buffered
per in-flight request and reused) and, on request completion, attributes
those sums straight into a :class:`~repro.tracing.columns.ResultColumns`
-- the same store :class:`~repro.experiments.runner.RunResult` holds in
FULL mode, which the result then adopts.  No ``Span`` is ever
constructed and no per-request dataclass is retained.

Equivalence contract (regression-tested): for any simulation, AGGREGATE
mode produces **bit-identical** ``e2e``/``cpu``/stack columns to FULL
mode.  Every accumulation below therefore mirrors the float-operation
*order* of ``attribute_request``:

* intervals are folded in recording order, which is the order
  ``attribute_request`` iterates the span list;
* the bounding batch / bounding RPC use strict ``>`` running maxima,
  matching ``max()``'s first-of-equals tie-break over recording order;
* request-level serde seeds each per-batch serde accumulator (the request
  deserialization is recorded before any batch span) and the response
  serialization is added last, reproducing the interleaved order of the
  full pass;
* residuals use the same ``max(0.0, ...)`` clamps on identically
  associated sums.
"""

from __future__ import annotations

import enum

from repro.core.types import OpCategory
from repro.tracing.attribution import AttributionError
from repro.tracing.columns import ResultColumns
from repro.tracing.span import MAIN_SHARD, Layer


class TraceMode(enum.Enum):
    """How much trace detail a simulation records."""

    FULL = "full"
    """Materialize every span; per-request attributions are retained, so
    trace rendering and span inspection are available."""

    AGGREGATE = "aggregate"
    """Span-free: every per-request result column -- E2E/CPU/stacks,
    batch and RPC counts, operator CPU by category, and the per-shard and
    per-(shard, net) demand columns -- is produced bit-identical to FULL;
    only the retained attributions (and spans) are missing."""


# Hot-loop locals: enum attribute lookups are not free in CPython.
_SERDE = Layer.SERDE
_OPERATOR = Layer.OPERATOR
_NET_OVERHEAD = Layer.NET_OVERHEAD
_RPC_CLIENT = Layer.RPC_CLIENT
_EMBEDDED = Layer.EMBEDDED
_BATCH = Layer.BATCH
_SERVICE = Layer.SERVICE
_SPARSE = OpCategory.SPARSE

# Indices into a live-RPC accumulator entry [ops, serde, overhead, service].
_R_OPS, _R_SERDE, _R_OVERHEAD, _R_SERVICE = 0, 1, 2, 3


class _RequestState:
    """Bucket accumulators for one in-flight request (pooled/reused)."""

    __slots__ = (
        "cpu_ops",
        "cpu_serde",
        "cpu_service",
        "sparse_op_cpu",
        "dense_op_cpu",
        "shard_cpu",
        "shard_op",
        "shard_net_op",
        "head_serde",
        "tail_serde",
        "e2e",
        "service_count",
        "num_batches",
        "best_batch",
        "best_batch_dur",
        "batch_dense",
        "batch_embedded",
        "batch_serde",
        "batch_overhead",
        "batch_sparse",
        "rpcs",
        "best_rpc",
        "best_rpc_dur",
        "rpc_live",
        "rpc_free",
    )

    def __init__(self):
        self.shard_cpu: dict[int, float] = {}
        self.shard_op: dict[int, float] = {}
        self.shard_net_op: dict[int, float] = {}  # by ResultColumns.net_key
        self.batch_dense: list[float] = []
        self.batch_embedded: list[float] = []
        self.batch_serde: list[float] = []
        self.batch_overhead: list[float] = []
        self.batch_sparse: list[float] = []
        self.rpc_live: dict[int, list[float]] = {}
        self.rpc_free: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.shard_cpu.clear()
        self.shard_op.clear()
        self.shard_net_op.clear()
        self.cpu_ops = 0.0
        self.cpu_serde = 0.0
        self.cpu_service = 0.0
        self.sparse_op_cpu = 0.0
        self.dense_op_cpu = 0.0
        self.head_serde = 0.0
        self.tail_serde = 0.0
        self.e2e = 0.0
        self.service_count = 0
        self.num_batches = 0
        self.best_batch = -1
        self.best_batch_dur = -1.0
        del self.batch_dense[:]
        del self.batch_embedded[:]
        del self.batch_serde[:]
        del self.batch_overhead[:]
        del self.batch_sparse[:]
        self.rpcs = 0
        self.best_rpc = None
        self.best_rpc_dur = -1.0
        self.rpc_live.clear()

    def grow_batches(self, index: int) -> None:
        """Ensure per-batch accumulators cover batch ``index``.

        New serde slots seed with the request-level head serde (request
        deserialization precedes every batch span), so the bounding
        batch's final serde sum reproduces the full pass's interleaved
        addition order: head, then that batch's serde spans, then tail.
        """
        head = self.head_serde
        while len(self.batch_dense) <= index:
            self.batch_dense.append(0.0)
            self.batch_embedded.append(0.0)
            self.batch_serde.append(head)
            self.batch_overhead.append(0.0)
            self.batch_sparse.append(0.0)

    def rpc_entry(self, rpc_id: int) -> list[float]:
        entry = self.rpc_live.get(rpc_id)
        if entry is None:
            if self.rpc_free:
                entry = self.rpc_free.pop()
                entry[0] = entry[1] = entry[2] = entry[3] = 0.0
            else:
                entry = [0.0, 0.0, 0.0, 0.0]
            self.rpc_live[rpc_id] = entry
        return entry


class AggregatingTracer:
    """Accumulates bucket sums per request; emits columnar attributions.

    Drop-in replacement for :class:`~repro.tracing.span.Tracer` on the
    simulator side (same ``record_interval`` signature, same drain/assert
    API).  Completion is driven by :meth:`finalize_request`, which plays
    the role ``pop_request`` + ``attribute_request`` play in FULL mode:
    it attributes the request's accumulated sums into the next row of
    :attr:`columns` and recycles the in-flight state.
    """

    def __init__(self, expected_requests: int = 0):
        self.spans_recorded = 0
        self._live: dict[int, _RequestState] = {}
        self._pool: list[_RequestState] = []
        #: Optional request-id -> workload-index mapping (any integer
        #: indexable, e.g. a ``MixedStream.workload_ids`` array whose
        #: positions are request ids).  ``None`` labels every request as
        #: workload 0 -- the single-workload suites.
        self.workload_ids = None
        #: Optional request-id -> ``[degraded, retries]`` mapping (the
        #: chaos runtime's flags dict).  ``None`` -- the healthy case --
        #: leaves the status/degraded/retries columns all-zero.
        self.chaos_flags = None
        #: Optional request-id -> ``[attempts, hedged, deadline_exceeded]``
        #: mapping (the resilience runtime's flags dict).  ``None`` -- no
        #: active policy -- leaves those columns all-zero.
        self.resilience_flags = None
        # One-entry lookup cache: spans arrive in per-request bursts
        # (serial replay is a 100% hit), and the dict probe per span is
        # measurable at millions of spans per sweep.
        self._last_id: int | None = None
        self._last_state: _RequestState | None = None
        #: The finished rows; ``RunResult.adopt_aggregate`` takes it over.
        self.columns = ResultColumns(expected_requests)

    # -- recording (hot path) ---------------------------------------------
    def record_interval(
        self,
        request_id: int,
        shard: int,
        server,
        layer: Layer,
        name: str,
        start: float,
        end: float,
        cpu: float = 0.0,
        category: OpCategory | None = None,
        net: str | None = None,
        batch: int | None = None,
        rpc_id: int | None = None,
    ) -> None:
        if request_id == self._last_id:
            state = self._last_state
        else:
            state = self._live.get(request_id)
            if state is None:
                if self._pool:
                    state = self._pool.pop()
                    state.reset()
                else:
                    state = _RequestState()
                self._live[request_id] = state
            self._last_id = request_id
            self._last_state = state
        # Durations from wall-stamped endpoints, exactly as a Span stores
        # them -- with nonzero skew, (end+skew)-(start+skew) can differ
        # from end-start in the last ulp, and FULL mode sees the former.
        skew = server.clock_skew
        duration = (end + skew) - (start + skew)
        if duration < 0.0:
            raise ValueError(f"span {name}: end {end} precedes start {start}")
        self.spans_recorded += 1
        # Per-shard CPU demand, accumulated in recording order -- the same
        # float-addition order attribute_request uses over the span list,
        # so the per-shard columns are bit-identical to FULL mode.
        shard_cpu = state.shard_cpu
        shard_cpu[shard] = shard_cpu.get(shard, 0.0) + cpu

        if layer is _SERDE:
            state.cpu_serde += cpu
            if shard == MAIN_SHARD:
                if rpc_id is None:
                    if batch is not None:
                        if batch >= len(state.batch_serde):
                            state.grow_batches(batch)
                        state.batch_serde[batch] += duration
                    elif state.batch_dense:
                        state.tail_serde += duration
                    else:
                        state.head_serde += duration
                # else: RPC response deser on IO threads -- covered by the
                # EMBEDDED window in the E2E stack (cpu counted above).
            else:
                state.rpc_entry(rpc_id)[_R_SERDE] += duration
        elif layer is _OPERATOR:
            state.cpu_ops += cpu
            if category is _SPARSE:
                state.sparse_op_cpu += cpu
            else:
                state.dense_op_cpu += cpu
            if shard == MAIN_SHARD:
                if batch is not None:
                    if batch >= len(state.batch_dense):
                        state.grow_batches(batch)
                    if category is _SPARSE:
                        state.batch_sparse[batch] += duration
                    else:
                        state.batch_dense[batch] += duration
            else:
                state.rpc_entry(rpc_id)[_R_OPS] += duration
                shard_op = state.shard_op
                shard_op[shard] = shard_op.get(shard, 0.0) + duration
                if net is None:
                    raise AttributionError(f"span {name}: shard operator without a net")
                key = self.columns.net_key(shard, net)
                net_op = state.shard_net_op
                net_op[key] = net_op.get(key, 0.0) + duration
        elif layer is _NET_OVERHEAD:
            state.cpu_service += cpu
            if shard == MAIN_SHARD:
                if batch is not None:
                    if batch >= len(state.batch_overhead):
                        state.grow_batches(batch)
                    state.batch_overhead[batch] += duration
            else:
                state.rpc_entry(rpc_id)[_R_OVERHEAD] += duration
        elif layer is _RPC_CLIENT:
            state.rpcs += 1
            entry = state.rpc_live.pop(rpc_id, None)
            if entry is None:
                entry = [0.0, 0.0, 0.0, 0.0]
            # Strict > keeps the first-recorded maximum, matching max()
            # over the span list in recording order.
            if duration > state.best_rpc_dur:
                if state.best_rpc is not None:
                    state.rpc_free.append(state.best_rpc)
                state.best_rpc_dur = duration
                state.best_rpc = entry
            else:
                state.rpc_free.append(entry)
        elif layer is _EMBEDDED:
            if batch is not None:
                if batch >= len(state.batch_embedded):
                    state.grow_batches(batch)
                state.batch_embedded[batch] += duration
        elif layer is _BATCH:
            state.num_batches += 1
            if duration > state.best_batch_dur:
                state.best_batch_dur = duration
                state.best_batch = batch
        elif layer is _SERVICE:
            state.cpu_service += cpu
            if shard == MAIN_SHARD:
                state.service_count += 1
                state.e2e = duration
            else:
                state.rpc_entry(rpc_id)[_R_SERVICE] = duration

    # -- columnar attribution (request completion) ------------------------
    def finalize_request(self, request_id: int) -> None:
        """Attribute one completed request's sums into the output columns."""
        state = self._live.pop(request_id, None)
        if state is None:
            raise AttributionError("no spans for request")
        if request_id == self._last_id:
            self._last_id = None
            self._last_state = None
        try:
            if state.service_count != 1:
                raise AttributionError(
                    f"expected exactly one service span on shard {MAIN_SHARD}, "
                    f"found {state.service_count}"
                )
            if state.num_batches == 0:
                raise AttributionError(f"request {request_id}: no batch spans")

            bounding = state.best_batch
            dense = state.batch_dense[bounding]
            embedded = state.batch_embedded[bounding]
            serde = state.batch_serde[bounding] + state.tail_serde
            overhead = state.batch_overhead[bounding]
            e2e = state.e2e
            # Same association as summing the stack dict in bucket order
            # (RPC Service Function still zero at that point).
            accounted = 0.0 + dense + embedded + serde + 0.0 + overhead
            rpc_service = max(0.0, e2e - accounted)

            if state.rpcs == 0:
                # Singular: the embedded portion is the bounding batch's
                # local sparse ops themselves.
                emb_sparse = state.batch_sparse[bounding]
                emb_serde = emb_service = emb_overhead = emb_network = 0.0
            else:
                best = state.best_rpc
                emb_sparse = best[_R_OPS]
                emb_serde = best[_R_SERDE]
                emb_overhead = best[_R_OVERHEAD]
                shard_service = best[_R_SERVICE]
                emb_service = max(
                    0.0, shard_service - emb_sparse - emb_serde - emb_overhead
                )
                # Skew-safe: both terms are same-server durations.
                emb_network = max(0.0, state.best_rpc_dur - shard_service)

            cpu_ops = state.cpu_ops
            cpu_serde = state.cpu_serde
            cpu_service = state.cpu_service
            cpu_total = 0 + cpu_ops + cpu_serde + cpu_service

            workload_ids = self.workload_ids
            chaos_flags = self.chaos_flags
            resilience_flags = self.resilience_flags
            self.columns.append(
                request_id,
                0 if workload_ids is None else int(workload_ids[request_id]),
                e2e,
                cpu_total,
                state.num_batches,
                state.rpcs,
                state.sparse_op_cpu,
                state.dense_op_cpu,
                (
                    dense, embedded, serde, rpc_service, overhead,
                    emb_sparse, emb_serde, emb_service, emb_overhead, emb_network,
                    cpu_ops, cpu_serde, cpu_service,
                ),
                state.shard_cpu,
                state.shard_op,
                state.shard_net_op,
                None if chaos_flags is None else chaos_flags.get(request_id),
                None if resilience_flags is None else resilience_flags.get(request_id),
            )
        finally:
            self._pool.append(state)

    @property
    def count(self) -> int:
        return self.columns.count

    # -- lifecycle / parity with Tracer ------------------------------------
    def in_flight(self) -> int:
        """Number of requests whose accumulators are still live."""
        return len(self._live)

    def request_ids(self) -> list[int]:
        return sorted(self._live)

    def drain_incomplete(self) -> list[int]:
        """Free accumulators of requests that never completed."""
        stale = sorted(self._live)
        for request_id in stale:
            self._pool.append(self._live.pop(request_id))
        self._last_id = None
        self._last_state = None
        return stale

    def assert_drained(self) -> None:
        """Raise if any request's accumulators are still live."""
        if self._live:
            held = sorted(self._live)
            raise RuntimeError(
                f"tracer still holds accumulators for {len(held)} request(s): "
                f"{held[:8]}{'...' if len(held) > 8 else ''}"
            )

    def clear(self) -> None:
        self._live.clear()
        self._last_id = None
        self._last_state = None
