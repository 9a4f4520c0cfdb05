"""The per-request result columns both trace modes write.

:class:`ResultColumns` is the one definition of the columnar layout a
:class:`~repro.experiments.runner.RunResult` exposes: E2E latency,
aggregate CPU, request id, workload index, the chaos flags (status,
degraded, retries), the resilience flags (attempts, hedged,
deadline_exceeded), the 13 stack columns, and the per-shard CPU-demand
and sparse-op-time columns.  FULL mode writes it from each retained
:class:`~repro.tracing.attribution.RequestAttribution`
(``RunResult.add``); AGGREGATE mode writes it from the span-free bucket
sums (:meth:`~repro.tracing.aggregate.AggregatingTracer.finalize_request`)
and the result adopts the tracer's store as is.

Every array starts zero-filled and grows by doubling, so a row a request
never writes (a flag column of an unflagged request, a shard column of a
shard the request never touched) reads exactly 0.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.tracing.attribution import CPU_BUCKETS, E2E_BUCKETS, EMBEDDED_BUCKETS

#: Stack kind -> its buckets, in column order.
STACK_BUCKETS: dict[str, tuple[str, ...]] = {
    "latency": E2E_BUCKETS,
    "embedded": EMBEDDED_BUCKETS,
    "cpu": CPU_BUCKETS,
}

#: ``(kind, bucket)`` of each stack value a row carries, in the order
#: :meth:`ResultColumns.append` takes them.
STACK_KEYS: tuple[tuple[str, str], ...] = tuple(
    (kind, bucket) for kind, buckets in STACK_BUCKETS.items() for bucket in buckets
)

#: Per-row scalar columns and their dtypes.
_ROW_COLUMNS: dict[str, type] = {
    "e2e": np.float64,
    "cpu": np.float64,
    "request_ids": np.int64,
    "workloads": np.int64,
    "status": np.int64,
    "degraded": np.int64,
    "retries": np.int64,
    "attempts": np.int64,
    "hedged": np.int64,
    "deadline_exceeded": np.int64,
}


class ResultColumns:
    """Preallocated per-request columns, one row per completed request.

    Rows are in completion order.  The arrays are backing storage: their
    length is the capacity, and only the first :attr:`count` rows are
    results.
    """

    e2e: np.ndarray
    cpu: np.ndarray
    #: Maps a completion-order row back to its request (under fault
    #: injection completion order is not arrival order).
    request_ids: np.ndarray
    #: Index into the run's workload labels; 0 for single-workload runs.
    workloads: np.ndarray
    status: np.ndarray
    degraded: np.ndarray
    retries: np.ndarray
    attempts: np.ndarray
    hedged: np.ndarray
    deadline_exceeded: np.ndarray

    def __init__(self, expected_rows: int = 0) -> None:
        capacity = max(int(expected_rows), 16)
        self.count = 0
        for name, dtype in _ROW_COLUMNS.items():
            setattr(self, name, np.zeros(capacity, dtype=dtype))
        #: One array per :data:`STACK_KEYS` entry, in that order.
        self.stacks = {key: np.zeros(capacity) for key in STACK_KEYS}
        #: Per-shard columns keyed by shard index (``MAIN_SHARD`` = -1):
        #: CPU-seconds by shard and sparse-operator time by sparse shard.
        #: Created on a shard's first row.
        self.shard_cpu: dict[int, np.ndarray] = {}
        self.shard_op: dict[int, np.ndarray] = {}

    def append(
        self,
        request_id: int,
        workload: int,
        e2e: float,
        cpu: float,
        stack: Sequence[float],
        shard_cpu: Mapping[int, float],
        shard_op: Mapping[int, float],
        chaos: Sequence[int] | None = None,
        resilience: Sequence[int] | None = None,
    ) -> None:
        """Write one completed request's row.

        ``stack`` holds the 13 stack values in :data:`STACK_KEYS` order.
        ``chaos`` is the request's ``[degraded, retries]`` and
        ``resilience`` its ``[attempts, hedged, deadline_exceeded]``;
        ``None`` leaves those columns 0.
        """
        index = self.count
        if index == len(self.e2e):
            self._grow()
        self.e2e[index] = e2e
        self.cpu[index] = cpu
        self.request_ids[index] = request_id
        self.workloads[index] = workload
        if chaos is not None:
            degraded, retries = chaos
            self.status[index] = 1 if degraded else 0
            self.degraded[index] = degraded
            self.retries[index] = retries
        if resilience is not None:
            attempts, hedged, deadline_exceeded = resilience
            self.attempts[index] = attempts
            self.hedged[index] = hedged
            self.deadline_exceeded[index] = deadline_exceeded
        for column, value in zip(self.stacks.values(), stack):
            column[index] = value
        capacity = len(self.e2e)
        _scatter(self.shard_cpu, shard_cpu, index, capacity)
        _scatter(self.shard_op, shard_op, index, capacity)
        self.count = index + 1

    def _grow(self) -> None:
        """Double the capacity, keeping the written rows."""
        count = self.count
        capacity = 2 * count

        def grown(array: np.ndarray) -> np.ndarray:
            out = np.zeros(capacity, dtype=array.dtype)
            out[:count] = array[:count]
            return out

        for name in _ROW_COLUMNS:
            setattr(self, name, grown(getattr(self, name)))
        self.stacks = {key: grown(column) for key, column in self.stacks.items()}
        for columns in (self.shard_cpu, self.shard_op):
            for shard, column in columns.items():
                columns[shard] = grown(column)

    def stack_columns(self, kind: str) -> dict[str, np.ndarray]:
        """The written rows of each ``kind`` bucket's column."""
        return {
            bucket: self.stacks[kind, bucket][: self.count]
            for bucket in STACK_BUCKETS[kind]
        }


def _scatter(
    columns: dict[int, np.ndarray],
    values: Mapping[int, float],
    index: int,
    capacity: int,
) -> None:
    """Write ``values`` (shard -> value) into row ``index`` of the
    per-shard ``columns``, creating a zero column for a new shard."""
    for shard, value in values.items():
        column = columns.get(shard)
        if column is None:
            column = columns[shard] = np.zeros(capacity)
        column[index] = value
