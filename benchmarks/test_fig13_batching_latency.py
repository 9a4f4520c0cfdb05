"""Figure 13: latency stacks for default- vs single-batch replay.

Paper targets: with one batch per request, the sparse operators carry the
whole request's work, so distributed inference benefits much more from
parallelization -- the 8-shard balanced configurations approach (in the
paper, cross) the singular latency, and DRM1 (larger requests, more
batches by default) is affected more strongly than DRM2.
"""

from repro.analysis import save_artifact
from repro.experiments import figures
from repro.sharding import SINGULAR


def test_fig13_batching_latency(benchmark, suites):
    default_results = {"DRM1": suites.serial("DRM1"), "DRM2": suites.serial("DRM2")}
    single_results = {
        "DRM1": suites.single_batch("DRM1"),
        "DRM2": suites.single_batch("DRM2"),
    }
    artifact = benchmark(
        lambda: figures.fig13_batching_latency(default_results, single_results)
    )
    print("\n" + artifact.text)
    save_artifact("fig13_batching_latency.txt", artifact.text)

    overheads = artifact.data["p50_overheads"]
    for label in ("load-bal 8 shards", "cap-bal 8 shards"):
        # Single-batch shrinks the distributed latency overhead...
        assert (
            overheads["DRM1/single-batch"][label]
            < 0.85 * overheads["DRM1/default"][label]
        ), label
        # ...to a near-crossover level (paper: crosses below singular; our
        # Table-II-calibrated pooling stops just short -- see the pooling
        # ablation for the crossover).
        assert overheads["DRM1/single-batch"][label] < 0.15, label

    # "DRM1's larger requests result in more batches compared to DRM2":
    # the mechanism behind DRM1's stronger batching interaction.
    import numpy as np

    drm1_batches = np.mean(default_results["DRM1"][SINGULAR].num_batches)
    drm2_batches = np.mean(default_results["DRM2"][SINGULAR].num_batches)
    print(f"mean batches/request: DRM1 {drm1_batches:.2f}, DRM2 {drm2_batches:.2f}")
    assert drm1_batches > 1.3 * drm2_batches
