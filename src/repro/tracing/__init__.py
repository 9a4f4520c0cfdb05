"""Cross-layer distributed tracing: spans, tracer, attribution.

Two trace modes (:class:`~repro.tracing.aggregate.TraceMode`):
``AGGREGATE`` (the default) accumulates bucket sums span-free and emits
every result column; ``FULL`` also materializes spans and retains
per-request attributions, with bit-identical columns -- only span
readers (trace rendering, ad-hoc attribution inspection) ask for it.
"""

from repro.tracing.aggregate import AggregatingTracer, TraceMode
from repro.tracing.attribution import (
    CPU_BUCKETS,
    CPU_OPS,
    CPU_SERVICE,
    DENSE_OPS,
    E2E_BUCKETS,
    EMBEDDED_BUCKETS,
    EMBEDDED_PORTION,
    NET_OVERHEAD,
    NETWORK_LATENCY,
    RPC_SERDE,
    RPC_SERVICE,
    SPARSE_OPS,
    AttributionError,
    RequestAttribution,
    attribute_request,
)
from repro.tracing.span import MAIN_SHARD, Layer, Span, Tracer
from repro.tracing.visualize import render_trace, trace_summary

__all__ = [
    "AggregatingTracer",
    "AttributionError",
    "CPU_BUCKETS",
    "CPU_OPS",
    "CPU_SERVICE",
    "DENSE_OPS",
    "E2E_BUCKETS",
    "EMBEDDED_BUCKETS",
    "EMBEDDED_PORTION",
    "Layer",
    "MAIN_SHARD",
    "NET_OVERHEAD",
    "NETWORK_LATENCY",
    "RPC_SERDE",
    "RPC_SERVICE",
    "RequestAttribution",
    "SPARSE_OPS",
    "Span",
    "TraceMode",
    "Tracer",
    "attribute_request",
    "render_trace",
    "trace_summary",
]
