"""One cold measurement: a fresh interpreter runs one workload once.

Started by ``perfbench/run.py``, never by hand.  Prints one JSON record
as its last stdout line: set-up and wall time, peak RSS, calibration
times, every op's verdict and digest, and (``--trace``) the per-layer
breakdown.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process; Linux's monotonic clock is system-wide, so
``setup_s`` covers interpreter start, the ``repro`` import and model
construction.
"""

import argparse
import heapq
import json
import os
import resource
import sys
import time

#: Loop iterations of each of the two calibration halves.
CALIBRATION_OPS = 100_000


def calibrate() -> float:
    """Seconds for a fixed heap-push/pop loop: a host-speed probe timed in
    this process.  It runs once just before and once just after the
    workload, outside both timed regions; ``run.py`` scales the run's
    median times by the median of the two halves' sum."""
    start = time.perf_counter()
    heap: list = []
    x = 12345
    for i in range(CALIBRATION_OPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def tail_percentile(ops: int) -> int:
    """The percentile ``runner.op_tail_s`` reports: the highest one with
    at least ten ops beyond it, else the median.  Fixed by the op count,
    so it is recorded next to the metric, not reported as one."""
    return max(50, int(100 * (1 - 10 / max(ops, 1))))


def layer_breakdown(recorder, wall: float, outcome) -> dict:
    """Per-layer metrics of one traced run; self times plus ``other``
    sum to ``wall``."""
    import numpy as np
    from shims import COUNT_METRICS, SELF_TIME_METRIC

    metrics = {
        metric: recorder.self_s.get(layer, 0.0)
        for layer, metric in SELF_TIME_METRIC.items()
    }
    metrics["trace.other_s"] = wall - sum(metrics.values())
    for name in COUNT_METRICS:
        metrics[name] = recorder.counts.get(name, 0)
    durations = recorder.op_durations or [0.0]
    metrics["runner.op_p50_s"] = float(np.percentile(durations, 50))
    metrics["runner.op_tail_s"] = float(
        np.percentile(durations, tail_percentile(len(durations)))
    )
    for name in ("attempts", "hedged", "useful_frac"):
        metrics[f"resilience.{name}"] = outcome.resilience.get(name, 0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    import workloads

    models = workloads.setup()
    setup_s = time.monotonic() - args.spawned_at
    recorder = None
    if args.trace:
        import shims

        recorder = shims.install()
    calib_before_s = calibrate()
    size = workloads.SIZES[args.workload][args.size]
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        pending = workloads.RUNNERS[args.workload](models, args.seed, size)
    except Exception as exc:  # raised outside any op: the run's ops fail
        pending = workloads.Pending()
        pending.failed(["workload"], exc)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calib_after_s = calibrate()
    outcome = pending.check(corrupt=args.corrupt)

    record = {
        "pid": os.getpid(),
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calib_s": calib_before_s + calib_after_s,
        "calib_before_s": calib_before_s,
        "calib_after_s": calib_after_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [[op.name, op.ok, op.reason, op.digest] for op in outcome.ops],
        "resilience": outcome.resilience,
        "numpy": sys.modules["numpy"].__version__,
    }
    if recorder is not None:
        record["layers"] = layer_breakdown(recorder, wall_s, outcome)
        record["missing_entry_points"] = recorder.missing
        record["op_tail_pct"] = tail_percentile(len(recorder.op_durations))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
