"""Quickstart: shard a recommendation model and measure serving overheads.

Walks the library's core loop end to end:

1. build the paper's DRM1 model (synthetic, calibrated to Table II);
2. prove that sharded numeric execution matches singular execution on a
   reduced-scale materialization;
3. simulate serial serving for singular vs 8-shard load-balanced and
   print the latency/compute overheads (a single cell of Figure 6).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.dlrm import MaterializedModel
from repro.experiments import run_configuration
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.models import drm1
from repro.requests import RequestGenerator, materialize_numeric
from repro.serving import ServingConfig
from repro.sharding import DistributedModel, estimate_pooling_factors, singular_plan
from repro.workloads import SerialArrivals, Workload
from repro.core.types import GIB


def main() -> None:
    model = drm1()
    print(
        f"model {model.name}: {len(model.tables)} embedding tables, "
        f"{model.sparse_bytes / GIB:.1f} GiB sparse capacity "
        f"({model.sparse_fraction:.1%} of the model)"
    )

    # --- numeric equivalence at reduced scale --------------------------------
    tiny = MaterializedModel.build(drm1(scale=1e-6), max_rows=64, seed=7)
    pooling_tiny = estimate_pooling_factors(tiny.config, num_requests=100, seed=9)
    plan_tiny = build_plan(
        tiny.config, ShardingConfiguration("load-bal", 4), pooling_tiny
    )
    distributed = DistributedModel(tiny, plan_tiny)
    request = materialize_numeric(
        tiny.config, RequestGenerator(tiny.config, seed=21).generate(0), seed=5
    )
    singular_scores = tiny.forward(request)
    distributed_scores = distributed.forward(request)
    max_diff = float(np.abs(singular_scores - distributed_scores).max())
    print(
        f"numeric check: distributed scores match singular "
        f"(max |diff| = {max_diff:.2e} over {len(singular_scores)} items, "
        f"{distributed.rpc_op_count} RPC ops in the rewritten graph)"
    )

    # --- serving simulation ---------------------------------------------------
    # The workload subsystem owns what arrives and when: serial blocking
    # replay here; swap the arrival process (PoissonArrivals,
    # PiecewiseRateArrivals.diurnal, MMPPArrivals) or co-locate several
    # workloads with WorkloadMix -- see examples/diurnal_colocation.py.
    workload = Workload("drm1-serial", model, SerialArrivals(), request_seed=3)
    requests = workload.generator().generate_many(150)
    pooling = estimate_pooling_factors(model, num_requests=500, seed=42)
    serving = ServingConfig(seed=1)

    base = run_configuration(model, singular_plan(model), requests, serving)
    plan = build_plan(model, ShardingConfiguration("load-bal", 8), pooling)
    dist = run_configuration(model, plan, requests, serving)

    print(f"\nserial serving, {len(requests)} sampled requests:")
    print(f"{'quantile':>8} {'singular':>12} {'load-bal 8':>12} {'overhead':>10}")
    for q in (50, 90, 99):
        b = np.percentile(base.e2e, q)
        d = np.percentile(dist.e2e, q)
        print(f"{'P' + str(q):>8} {b * 1e3:>10.3f}ms {d * 1e3:>10.3f}ms {(d - b) / b:>+9.1%}")
    cpu_overhead = (
        np.percentile(dist.cpu, 50) - np.percentile(base.cpu, 50)
    ) / np.percentile(base.cpu, 50)
    print(f"aggregate CPU overhead at P50: {cpu_overhead:+.1%} "
          f"(the cost of {int(np.mean(dist.rpcs))} RPCs/request)")


if __name__ == "__main__":
    main()
