"""Inspect one request through the cross-layer distributed tracer.

Replays a single ranking request against a 4-shard load-balanced DRM1
deployment, renders the Figure-3-style timeline, and prints the three
attribution breakdowns the paper derives from such traces: the E2E
latency stack, the embedded-portion stack of the bounding shard (with the
skew-safe network-latency derivation), and the aggregate CPU stack.

Run:  python examples/trace_inspection.py
"""

from repro.core.types import US
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.models import drm1
from repro.requests import RequestGenerator
from repro.serving import ClusterSimulation, ServingConfig, TraceMode
from repro.sharding import estimate_pooling_factors
from repro.tracing import attribute_request, render_trace


def print_stack(title: str, stack: dict[str, float]) -> None:
    total = sum(stack.values()) or 1.0
    print(f"\n{title} (total {total / US:.1f} us)")
    for bucket, value in stack.items():
        bar = "#" * int(40 * value / total)
        print(f"  {bucket:<34} {value / US:>9.1f} us  {bar}")


def main() -> None:
    model = drm1()
    pooling = estimate_pooling_factors(model, num_requests=300, seed=42)
    plan = build_plan(model, ShardingConfiguration("load-bal", 4), pooling)

    # Clock skew is injected deliberately: the attribution below is
    # invariant to it (Section IV-B's duration-difference method).  The
    # trace is rendered from spans, so this replay retains them (FULL).
    config = ServingConfig(
        seed=1, clock_skew_sigma=0.05, trace_mode=TraceMode.FULL
    )
    cluster = ClusterSimulation(model, plan, config)
    request = RequestGenerator(model, seed=3).generate(0)
    cluster.run_serial([request])

    spans = cluster.tracer.for_request(request.request_id)
    print(f"request 0: {request.num_items} items, {request.total_ids} sparse ids, "
          f"{len(spans)} trace spans across {plan.num_shards + 1} servers\n")
    print(render_trace(spans, width=96))

    attribution = attribute_request(spans)
    print_stack("E2E latency stack (Figure 8a)", attribution.latency_stack)
    print_stack(
        "Embedded-portion stack, bounding shard (Figure 8b)",
        attribution.embedded_stack,
    )
    print_stack("Aggregate CPU stack (Figure 9)", attribution.cpu_stack)
    print(
        f"\nnote: servers were given ~50 ms of clock skew; the network-latency"
        f" bucket ({attribution.embedded_stack['Network Latency'] / US:.1f} us)"
        f" is derived from same-server durations, so the skew cancels."
    )


if __name__ == "__main__":
    main()
