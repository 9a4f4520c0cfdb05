"""Ablation: trace-driven caching and the paging-from-disk alternative.

Section IX points at Bandana-style access-trace analyses ("table placement
and frequency-based caching are valuable directions"), and Sections I/X
name SSD paging as the other way to serve over-DRAM models.  This ablation
(1) builds the cache-hit curves for DRM1's hottest table, and (2) compares
paging's expected SSD stall per request against the measured embedded-
portion cost of distributed inference.
"""

import numpy as np

from repro.analysis import format_table, save_artifact
from repro.analysis.caching import cache_curve
from repro.requests import RequestGenerator
from repro.requests.access_trace import collect_access_trace
from repro.serving.paging import assess_paging, paging_vs_distributed_stall
from repro.sharding import SINGULAR
from repro.tracing import EMBEDDED_PORTION


def build_artifacts(suites):
    model = suites.models["DRM1"]
    requests = RequestGenerator(model, seed=3).generate_many(150)
    trace = collect_access_trace(model, requests, seed=7)
    hot_table = max(trace.accesses, key=lambda name: len(trace.accesses[name]))
    curve = cache_curve(trace, hot_table)

    # Distributed embedded-portion cost (8-shard load-bal vs singular).
    results = suites.serial("DRM1")
    singular_emb = np.mean(
        results[SINGULAR].stack_columns("latency")[EMBEDDED_PORTION]
    )
    distributed_emb = np.mean(
        results["load-bal 8 shards"].stack_columns("latency")[EMBEDDED_PORTION]
    )
    added = distributed_emb - singular_emb

    paging_rows = []
    for coverage in (0.05, 0.10, 0.25, 0.50):
        assessment = assess_paging(model, trace, coverage)
        paging_rows.append(
            (
                coverage,
                round(assessment.hit_rate, 3),
                round(assessment.expected_stall_per_request * 1e6, 1),
                round(paging_vs_distributed_stall(assessment, added), 1),
            )
        )
    return curve, paging_rows, added, hot_table


def test_ablation_caching_and_paging(benchmark, suites):
    curve, paging_rows, added, hot_table = benchmark.pedantic(
        lambda: build_artifacts(suites), rounds=1, iterations=1
    )
    curve_text = format_table(
        ["policy", "cache fraction (of working set)", "hit rate"],
        [(p.policy, p.cache_fraction, round(p.hit_rate, 3)) for p in curve],
        title=f"Cache-hit curves for {hot_table} (DRM1's hottest table)",
    )
    paging_text = format_table(
        ["resident coverage", "hit rate", "SSD stall/request (us)",
         "stall vs distributed-added (x)"],
        paging_rows,
        title=f"Paging vs distributed (distributed adds {added * 1e6:.0f} us embedded)",
    )
    print("\n" + curve_text + "\n\n" + paging_text)
    save_artifact("ablation_caching_paging.txt", curve_text + "\n\n" + paging_text)

    # Frequency (offline-optimal) dominates LRU at every size.
    by_policy = {}
    for point in curve:
        by_policy.setdefault(point.policy, {})[point.cache_fraction] = point.hit_rate
    for fraction, freq_rate in by_policy["frequency"].items():
        assert freq_rate >= by_policy["lru"][fraction] - 0.02

    # Hit rates grow monotonically with cache size.
    rates = [rate for _, rate in sorted(by_policy["frequency"].items())]
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))

    # Paging's expected stall exceeds the distributed embedded overhead by
    # an order of magnitude until coverage is high: distribution is the
    # latency-safer path for over-DRAM models (the paper's §I position).
    stall_ratio_low_coverage = paging_rows[0][3]
    assert stall_ratio_low_coverage > 5.0
