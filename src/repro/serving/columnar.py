"""Columnar plan builder and driver for the ``vectorized`` replay kernel.

This module is the serving-side half of the vectorized fast path (the
evaluator half lives in :mod:`repro.simulation.vectorized`): it decides
*whether* a run is eligible for columnar replay
(:func:`vectorized_ineligibility`), transposes per-request execution
plans into per-chunk numpy columns (:func:`build_chunk_plans`), and
drives whole request lists through the evaluator
(:func:`run_vectorized`).

Bit-exactness
=============

:func:`build_chunk_plans` produces, for every (request, net, batch,
shard-slot), the *same float64 bits* as
:meth:`ClusterSimulation._request_plans
<repro.serving.simulator.ClusterSimulation._request_plans>`: every numpy
expression below keeps the exact left-associated operation order of the
scalar code it mirrors, integer accumulators stay integers until the
same int->float points, and zero-count terms contribute exact ``+0.0``
no-ops precisely where the scalar code *skips* them (adding ``+0.0`` to
a non-negative float accumulator never changes its bits).  Plans with
row-partitioned tables (``TableAssignment.num_parts > 1``) fall back to
calling the scalar plan builder per request -- the partition-split
multinomials are keyed per-(request, table) substreams, so the scalar
path is already vectorization-agnostic -- and only the transposition is
columnar.

Memory flatness
===============

Chunking bounds peak memory at O(chunk_size), not O(num_requests): no
per-request state outlives its chunk, the integer count matrices are
kept in a small bounded LRU (so a multi-configuration sweep over one
request sample reuses them across configurations without holding every
chunk), and -- unlike the scalar builder -- nothing is memoized *on*
the request objects.  Finished cost columns are likewise held in a
bounded LRU (``_PLANS_CACHE``) so repeated replays of the same
(requests, plan, config) triple -- benchmark iterations, figure
regeneration -- skip the build pass; both caches evict oldest-first and
their entry sizes are bounded by ``REPRO_CHUNK``.
"""

from __future__ import annotations

from collections import OrderedDict, deque

import numpy as np

from repro.core.types import US
from repro.models.config import FeatureScope, ModelConfig
from repro.requests.generator import Request, request_payload_bytes
from repro.requests.replayer import ReplayMode, ReplaySchedule
from repro.serving.simulator import ClusterSimulation, ServingConfig, _Tenant
from repro.sharding.plan import ShardingPlan
from repro.simulation.costmodel import ranking_response_bytes
from repro.simulation.vectorized import (
    ChunkPlans,
    NetColumns,
    SweepEvaluator,
    TargetColumns,
    VectorizedColumns,
)
from repro.tracing.aggregate import TraceMode

__all__ = [
    "build_chunk_plans",
    "run_vectorized",
    "vectorized_ineligibility",
]

#: Stable fallback-reason strings, asserted by the gating tests.
REASON_OPEN_LOOP = "open-loop replay (queueing contention)"
REASON_CHAOS = "chaos fault schedule"
REASON_RESILIENCE = "resilience policy active"
REASON_FULL_TRACE = "FULL trace mode (span retention)"
REASON_SHALLOW_MAIN = "main worker pool shallower than max_batches"
REASON_SHALLOW_SPARSE = "sparse worker pool shallower than max_batches"
REASON_MIX = "co-located workload mix"


def vectorized_ineligibility(
    serving: ServingConfig, schedule: ReplaySchedule
) -> str | None:
    """Why this run cannot take the columnar path (``None`` = eligible).

    The vectorized evaluator assumes the serial closed-loop regime the
    paper's figures are produced in: exactly one request in flight (so
    worker pools never queue as long as they are at least
    ``max_batches`` deep), no fault injection, and AGGREGATE tracing
    (the evaluator folds straight into aggregate columns; FULL span
    retention has no columnar equivalent).  Everything here is a pure
    function of the *configuration* -- never of the request sample --
    so the same sweep always takes the same path.
    """
    if schedule.mode is not ReplayMode.SERIAL:
        return REASON_OPEN_LOOP
    if serving.chaos is not None:
        return REASON_CHAOS
    if serving.resilience is not None and not serving.resilience.is_empty:
        # A live policy supervises per-attempt timers on the event loop;
        # an *empty* policy installs no runtime and stays eligible.
        return REASON_RESILIENCE
    if serving.trace_mode is not TraceMode.AGGREGATE:
        return REASON_FULL_TRACE
    if min(serving.service_workers, serving.main_platform.cores) < serving.max_batches:
        return REASON_SHALLOW_MAIN
    if min(serving.service_workers, serving.sparse_platform.cores) < serving.max_batches:
        return REASON_SHALLOW_SPARSE
    return None


# -- chunk-level integer bundles (config-independent, LRU-memoized) -----------
class _ChunkBundle:
    """Per-chunk integer data shared by every configuration of a sweep.

    Everything here is a pure function of (requests, batch policy):
    per-request item counts, per-table per-batch id-count matrices, and
    the batch-count grouping.  Cost columns (which depend on the
    sharding plan and platforms) are rebuilt per configuration from
    these exact integers.
    """

    __slots__ = ("first", "model", "items", "total_ids", "ndraws", "groups")

    def __init__(self, requests: list[Request], model: ModelConfig,
                 size: int, max_batches: int) -> None:
        self.first = requests[0]
        self.model = model
        count = len(requests)
        self.items = np.fromiter(
            (request.num_items for request in requests), np.int64, count
        )
        self.total_ids = np.fromiter(
            (request.total_ids for request in requests), np.int64, count
        )
        self.ndraws = np.fromiter(
            (len(request.draws) for request in requests), np.int64, count
        )
        nb = np.minimum(-(-self.items // size), max_batches)
        by_count: dict[int, list[int]] = {}
        for position, batches in enumerate(nb.tolist()):
            by_count.setdefault(batches, []).append(position)
        #: One entry per distinct batch count B, ascending:
        #: (positions, items_g, edges (Rg, B+1), items_pb (Rg, B),
        #:  counts {table -> (Rg, B) int64; absent tables omitted}).
        self.groups = [
            self._build_group(requests, batches, positions)
            for batches, positions in sorted(by_count.items())
        ]

    def _build_group(
        self, requests: list[Request], batches: int, positions: list[int]
    ):
        group_requests = [requests[position] for position in positions]
        items_g = self.items[np.array(positions, dtype=np.int64)]
        # Batch edges: round(index * num_items / B) is int-exact in
        # float64 (the dividend is far below 2**53) and np.round is the
        # same round-half-even as builtin round().
        index = np.arange(batches, dtype=np.int64)
        left = np.round((items_g[:, None] * index[None, :]) / batches).astype(np.int64)
        edges = np.concatenate([left, items_g[:, None]], axis=1)
        items_pb = edges[:, 1:] - edges[:, :-1]

        # Per-table count matrices, one pass over the chunk's draws.
        # USER-scoped draws broadcast their total over every batch;
        # ITEM-scoped draws slice a per-item cumsum at the batch edges
        # (identical integers to ClusterSimulation._slice_counts).
        user_totals: dict[str, np.ndarray] = {}
        item_rows: dict[str, list[int]] = {}
        item_counts: dict[str, list[np.ndarray]] = {}
        for row, request in enumerate(group_requests):
            for name, draw in request.draws.items():
                if draw.per_item_counts is None:
                    column = user_totals.get(name)
                    if column is None:
                        column = user_totals[name] = np.zeros(
                            len(group_requests), np.int64
                        )
                    column[row] = draw.total_ids
                else:
                    item_rows.setdefault(name, []).append(row)
                    item_counts.setdefault(name, []).append(draw.per_item_counts)
        counts: dict[str, np.ndarray] = {}
        for name, column in user_totals.items():
            counts[name] = np.repeat(column[:, None], batches, axis=1)
        for name, rows in item_rows.items():
            matrix = counts.get(name)
            if matrix is None:
                matrix = counts[name] = np.zeros(
                    (len(group_requests), batches), np.int64
                )
            row_index = np.array(rows, dtype=np.int64)
            lengths = items_g[row_index]
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            flat = np.concatenate(
                [np.asarray(c, dtype=np.int64) for c in item_counts[name]]
            )
            prefix = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)
            np.cumsum(flat, out=prefix[1:])
            at_edges = prefix[offsets[:-1, None] + edges[row_index]]
            matrix[row_index] = at_edges[:, 1:] - at_edges[:, :-1]
        return positions, items_g, edges, items_pb, counts


_BUNDLE_CACHE: OrderedDict[tuple, _ChunkBundle] = OrderedDict()
#: Small on purpose: one bundle is O(chunk tables); the cache exists so
#: a multi-configuration sweep reuses the current chunk's integers, not
#: to retain a whole sweep.
_BUNDLE_CACHE_MAX = 4


def _chunk_bundle(
    requests: list[Request], model: ModelConfig, size: int, max_batches: int
) -> _ChunkBundle:
    key = (
        requests[0].request_id, requests[-1].request_id, len(requests),
        model.name, size, max_batches,
    )
    bundle = _BUNDLE_CACHE.get(key)
    # Identity re-check: request ids are only unique per sample, so two
    # sweeps over different samples must not share bundles.
    if bundle is not None and bundle.first is requests[0] and bundle.model is model:
        _BUNDLE_CACHE.move_to_end(key)
        return bundle
    bundle = _ChunkBundle(requests, model, size, max_batches)
    _BUNDLE_CACHE[key] = bundle
    while len(_BUNDLE_CACHE) > _BUNDLE_CACHE_MAX:
        _BUNDLE_CACHE.popitem(last=False)
    return bundle


# -- built-plan cache ---------------------------------------------------------
#: Finished ChunkPlans, keyed per (chunk, model, plan label) with deep
#: verification on hit: the cost columns are a pure function of
#: (requests, plan, serving config), so repeated sweeps over one request
#: sample -- the figures pipeline re-running configurations, benchmark
#: iterations -- skip the columnarization pass entirely.  Entries are
#: evicted LRU; worst-case retention is _PLANS_CACHE_MAX chunks of cost
#: columns (~60 MB each at the default 2048-request chunk on the largest
#: paper configuration), and ``REPRO_CHUNK`` bounds the per-entry size.
_PLANS_CACHE: OrderedDict[tuple, tuple] = OrderedDict()
#: One full paper sweep (11 configurations) plus headroom.
_PLANS_CACHE_MAX = 12


def _cached_chunk_plans(
    sim: ClusterSimulation, tenant: _Tenant, requests: list[Request], build
) -> ChunkPlans:
    key = (
        requests[0].request_id, requests[-1].request_id, len(requests),
        tenant.model.name, tenant.plan.label,
    )
    hit = _PLANS_CACHE.get(key)
    if hit is not None:
        first, plan, config, plans = hit
        # Identity + deep equality: request ids are only unique per
        # sample, plan labels only per sweep, and the cost columns
        # depend on the full serving config -- dataclass equality
        # verifies all of it exactly.
        if (
            first is requests[0]
            and (plan is tenant.plan or plan == tenant.plan)
            and (config is sim.config or config == sim.config)
        ):
            _PLANS_CACHE.move_to_end(key)
            return plans
    plans = build(sim, tenant, requests)
    _PLANS_CACHE[key] = (requests[0], tenant.plan, sim.config, plans)
    while len(_PLANS_CACHE) > _PLANS_CACHE_MAX:
        _PLANS_CACHE.popitem(last=False)
    return plans


# -- columnar plan building ---------------------------------------------------
def _scatter(destination: list, positions: list[int], rows: list) -> None:
    # C-level scatter: map(__setitem__) avoids a Python-level loop over
    # thousands of chunk positions per (slot, field).
    _consume(map(destination.__setitem__, positions, rows))


_consume = deque(maxlen=0).extend


def build_chunk_plans(
    sim: ClusterSimulation, tenant: _Tenant, requests: list[Request]
) -> ChunkPlans:
    """Transpose one chunk's execution plans into evaluator columns.

    Bit-for-bit equal to calling ``sim._request_plans`` per request (see
    the module docstring); requests are grouped by batch count so every
    numpy expression runs over rectangular (request, batch) matrices.
    """
    config = sim.config
    model = tenant.model
    cm = config.cost_model
    size = config.batch_size or model.profile.batch_size
    bundle = _chunk_bundle(requests, model, size, config.max_batches)
    count = len(requests)

    rc_main = config.main_platform.relative_clock
    denom_main = sim._serde_denom_main
    denom_sparse = sim._serde_denom_sparse
    items_f = bundle.items.astype(np.float64)
    payload = (
        256.0
        + model.profile.dense_feature_bytes * items_f
        + 8.0 * bundle.total_ids.astype(np.float64)
        + 24.0 * bundle.ndraws.astype(np.float64)
    )
    head = (
        cm.serde_fixed
        + (cm.serde_per_table * bundle.ndraws.astype(np.float64)) / rc_main
        + payload / denom_main
    )
    # serde_time(tables=0): the per-table term is an exact +0.0 no-op.
    tail = cm.serde_fixed + (64.0 + 8.0 * items_f) / denom_main

    singular = tenant.plan.is_singular
    nb_list = [0] * count
    nets = [NetColumns() for _ in model.nets]
    if not singular:
        for net_index, net_cfg in enumerate(model.nets):
            nets[net_index].targets = [
                TargetColumns(shard.index)
                for shard, _ in tenant.net_routing[net_cfg.name]
            ]
    placeholder: list = [None] * count
    for net_columns in nets:
        # Every position is scattered exactly once (the groups partition
        # the chunk), so plain placeholders beat per-request empties.
        net_columns.overhead = placeholder.copy()
        net_columns.dense = placeholder.copy()
        net_columns.local = placeholder.copy()
        for target in net_columns.targets:
            target.rows = placeholder.copy()

    serde_fixed = cm.serde_fixed
    dispatch_fixed = cm.rpc_dispatch_fixed
    sls_dispatch = cm.sls_dispatch_per_table
    tbl_client = np.asarray(tenant.serde_tbl_client, dtype=np.float64)
    tbl_server = np.asarray(tenant.serde_tbl_server, dtype=np.float64)
    per_id_main = tenant.per_id_main
    per_id_sparse = tenant.per_id_sparse

    for positions, _items_g, _edges, items_pb, counts in bundle.groups:
        batches = items_pb.shape[1]
        for position in positions:
            nb_list[position] = batches
        items_pb_f = items_pb.astype(np.float64)
        for net_index, net_cfg in enumerate(model.nets):
            net_columns = nets[net_index]
            net_tables = model.tables_for_net(net_cfg.name)
            n_net = len(net_tables)
            micros = net_cfg.dense_us_fixed + net_cfg.dense_us_per_item * items_pb_f
            dense = micros * US / rc_main
            _scatter(net_columns.dense, positions, dense.tolist())

            if singular:
                net_columns.singular_overhead = cm.net_overhead(n_net + 12)
                gather = np.zeros(items_pb.shape)
                # Tables outer, batches inner -- the scalar builder's
                # transposed accumulation order; absent tables are
                # skipped identically, zero counts add exact +0.0.
                for table in net_tables:
                    table_counts = counts.get(table.name)
                    if table_counts is None:
                        continue
                    gather += table_counts * per_id_main[table.name]
                local = sls_dispatch * n_net + gather
                _scatter(net_columns.local, positions, local.tolist())
                continue

            n_names = np.zeros(items_pb.shape, np.int64)
            for table in net_tables:
                table_counts = counts.get(table.name)
                if table_counts is None:
                    continue
                n_names += table_counts > 0
            active_targets = np.zeros(items_pb.shape, np.int64)
            for slot, (_shard, pairs) in enumerate(tenant.net_routing[net_cfg.name]):
                ids = np.zeros(items_pb.shape, np.int64)
                ntab = np.zeros(items_pb.shape, np.int64)
                resp_extra = np.zeros(items_pb.shape, np.int64)
                gather = np.zeros(items_pb.shape)
                has_item = np.zeros(items_pb.shape, bool)
                for table, _assignment in pairs:
                    table_counts = counts.get(table.name)
                    if table_counts is None:
                        continue
                    mask = table_counts > 0
                    ids += table_counts
                    ntab += mask
                    gather += table_counts * per_id_sparse[table.name]
                    dim4 = table.dim * 4
                    if table.scope is FeatureScope.ITEM:
                        has_item |= mask
                        resp_extra += mask * (24 + items_pb * dim4)
                    else:
                        resp_extra += mask * (24 + dim4)
                active = ntab > 0
                segments = np.where(has_item, items_pb, 1)
                req_bytes = 64.0 + ids * 8.0 + ntab * (segments * 4.0 + 24.0)
                resp_bytes = 64.0 + resp_extra
                client_tbl = tbl_client[ntab]
                server_tbl = tbl_server[ntab]
                cst = serde_fixed + client_tbl + req_bytes / denom_main + dispatch_fixed
                sdes = serde_fixed + server_tbl + req_bytes / denom_sparse
                sov = cm.net_overhead_fixed + cm.net_overhead_per_op * (ntab + 2)
                slw = sls_dispatch * ntab + gather
                srs = serde_fixed + server_tbl + resp_bytes / denom_sparse
                crd = serde_fixed + client_tbl + resp_bytes / denom_main
                active_targets += active
                target = net_columns.targets[slot]
                # One prebuilt evaluator row per request: stack the nine
                # per-batch cost planes request-major (axis=1 keeps the
                # result C-contiguous) and let a single tolist emit
                # every request's (9, batches) nested list.  The active
                # plane becomes float 0.0/1.0 -- the evaluator only
                # tests its truthiness.
                stacked = np.stack((
                    active, cst, sdes, sov, slw, srs, crd,
                    req_bytes, resp_bytes,
                ), axis=1)
                _scatter(target.rows, positions, stacked.tolist())
            overhead = cm.net_overhead_fixed + cm.net_overhead_per_op * (
                n_net + 12 + active_targets
            )
            overhead = overhead + cm.fill_per_table * (n_net - n_names)
            _scatter(net_columns.overhead, positions, overhead.tolist())

    return ChunkPlans(
        singular,
        [request.request_id for request in requests],
        nb_list,
        head.tolist(),
        tail.tolist(),
        nets,
    )


_COST_FIELDS = ("cst", "sdes", "sov", "slw", "srs", "crd", "reqb", "respb")
_PLAN_FIELDS = (
    "client_ser_total", "server_deser", "server_overhead", "sls_work",
    "server_resp_ser", "client_resp_deser", "req_bytes", "resp_bytes",
)


def _scalar_chunk_plans(
    sim: ClusterSimulation, tenant: _Tenant, requests: list[Request]
) -> ChunkPlans:
    """Per-request scalar fallback for plans with row-partitioned tables.

    The partition-split multinomials are keyed per (request, table)
    substreams inside ``_request_plans``, so building plans one request
    at a time is exactly the reference computation; only the
    transposition into evaluator columns is new.  (Not memory-flat to
    the same degree: ``_request_plans`` memoizes slice counts on the
    request objects, like every scalar-kernel sweep does.)
    """
    model = tenant.model
    cm = sim.config.cost_model
    main_platform = sim.config.main_platform
    names = [net_cfg.name for net_cfg in model.nets]
    singular = tenant.plan.is_singular
    nets = [NetColumns() for _ in names]
    slot_of: list[dict[int, int]] = []
    if not singular:
        for net_index, name in enumerate(names):
            routing = tenant.net_routing[name]
            nets[net_index].targets = [
                TargetColumns(shard.index) for shard, _ in routing
            ]
            slot_of.append(
                {shard.index: slot for slot, (shard, _) in enumerate(routing)}
            )
    rids: list[int] = []
    nb_list: list[int] = []
    heads: list[float] = []
    tails: list[float] = []
    for request in requests:
        batches = sim._batches(tenant, request)
        plans = sim._request_plans(tenant, request, batches)
        num_batches = len(batches)
        rids.append(request.request_id)
        nb_list.append(num_batches)
        heads.append(
            cm.serde_time(
                request_payload_bytes(model, request),
                main_platform,
                tables=len(request.draws),
            )
        )
        tails.append(
            cm.serde_time(ranking_response_bytes(request.num_items), main_platform)
        )
        for net_index, name in enumerate(names):
            net_columns = nets[net_index]
            per_batch = plans[name]
            net_columns.dense.append([plan.dense_total for plan in per_batch])
            if singular:
                net_columns.singular_overhead = per_batch[0].overhead
                net_columns.local.append([plan.local_work for plan in per_batch])
                continue
            net_columns.overhead.append([plan.overhead for plan in per_batch])
            slots = len(net_columns.targets)
            active = [[False] * num_batches for _ in range(slots)]
            columns = {
                field: [[0.0] * num_batches for _ in range(slots)]
                for field in _COST_FIELDS
            }
            for batch_index, plan in enumerate(per_batch):
                for lookup in plan.targets:
                    slot = slot_of[net_index][lookup.shard.index]
                    active[slot][batch_index] = True
                    for field, attr in zip(_COST_FIELDS, _PLAN_FIELDS):
                        columns[field][slot][batch_index] = getattr(lookup, attr)
            for slot in range(slots):
                target = net_columns.targets[slot]
                target.rows.append(
                    (active[slot],)
                    + tuple(columns[field][slot] for field in _COST_FIELDS)
                )
    return ChunkPlans(singular, rids, nb_list, heads, tails, nets)


def _has_partitions(plan: ShardingPlan) -> bool:
    if plan.is_singular:
        return False
    return any(
        assignment.num_parts > 1
        for shard in plan.shards
        for assignment in shard.assignments
    )


# -- driver -------------------------------------------------------------------
def run_vectorized(
    model: ModelConfig,
    plan: ShardingPlan,
    requests: list[Request],
    serving: ServingConfig,
    chunk_size: int,
) -> tuple[VectorizedColumns, ClusterSimulation]:
    """Replay ``requests`` serially through the columnar evaluator.

    Constructs the same :class:`ClusterSimulation` a DES run would (so
    every substream -- clock skews, fabric jitter -- is primed
    identically), then replays chunk by chunk.  The returned collector
    holds the finished aggregate columns (``RunResult.adopt_aggregate``
    consumes it); the cluster is returned for its timeline accessors.
    """
    collector = VectorizedColumns(len(requests), [net.name for net in model.nets])
    cluster = ClusterSimulation(model, plan, serving, tracer=collector)
    tenant = cluster.tenants[0]
    evaluator = SweepEvaluator(
        cluster.fabric,
        cluster.config.main_platform,
        cluster.config.sparse_platform,
        cluster.config.cost_model,
        cluster.main.clock_skew,
        [server.clock_skew for server in cluster.sparse_servers],
        collector,
    )
    build = _scalar_chunk_plans if _has_partitions(plan) else build_chunk_plans
    now = 0.0
    for start in range(0, len(requests), chunk_size):
        chunk = requests[start : start + chunk_size]
        plans = _cached_chunk_plans(cluster, tenant, chunk, build)
        now = evaluator.replay_chunk(plans, now)
    return collector, cluster
