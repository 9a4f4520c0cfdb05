"""Figure 3: example distributed trace (cross-layer timeline).

Regenerates the paper's example trace: the main shard executes dense
layers, issues asynchronous RPC ops whose windows overlap the sparse
shards' serde + service + SLS work, then joins before the interaction
layers.  Asserts the structural properties the paper reads off the trace.
"""

from repro.analysis import save_artifact
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.requests import RequestGenerator
from repro.serving import ClusterSimulation, ServingConfig, TraceMode
from repro.tracing import Layer, MAIN_SHARD, render_trace


def trace_one_request(suites):
    model = suites.models["DRM1"]
    request = RequestGenerator(model, seed=3).generate(0)
    plan = build_plan(
        model, ShardingConfiguration("load-bal", 4), suites.pooling("DRM1")
    )
    # The timeline is drawn from spans, so this replay retains them.
    sim = ClusterSimulation(
        model, plan, ServingConfig(seed=1, trace_mode=TraceMode.FULL)
    )
    sim.run_serial([request])
    return sim.tracer.for_request(0)


def test_fig03_trace_visualization(benchmark, suites):
    spans = trace_one_request(suites)
    text = benchmark(lambda: render_trace(spans, width=96))
    print("\n" + text)
    save_artifact("fig03_example_trace.txt", text)

    # All inference flows through the main shard; sparse shards only see
    # their RPC windows.
    assert "main request" in text and "sparse shard 1" in text

    # The async RPC windows overlap the sparse shards' service time: every
    # shard-side service span falls inside some outstanding-RPC client span.
    clients = [s for s in spans if s.layer is Layer.RPC_CLIENT]
    shard_services = [
        s for s in spans if s.layer is Layer.SERVICE and s.shard != MAIN_SHARD
    ]
    assert clients and shard_services
    for service in shard_services:
        client = next(c for c in clients if c.rpc_id == service.rpc_id)
        assert client.duration > service.duration  # network on both sides

    # Sparse shards are queried asynchronously, in parallel: their service
    # windows overlap each other within a batch.
    starts = sorted((s.start, s.end) for s in shard_services)
    overlapping = sum(
        1 for (s1, e1), (s2, _) in zip(starts, starts[1:]) if s2 < e1
    )
    assert overlapping > 0
