"""Performance-benchmark artifact writer.

Perf work needs a tracked trajectory, not one-off timings: the throughput
benchmark (``benchmarks/test_perf_throughput.py``) records
simulated-requests-per-second and its companion metrics into a
``BENCH_throughput.json``, and CI uploads the file as an artifact.
Comparing the committed JSON across commits is the repo's regression
story for the simulation fast path.

Only a deliberate recording run (``REPRO_BENCH_RECORD=1``) writes the
committed ``results/BENCH_*.json``; every other run -- the tier-1 suite,
CI smokes -- writes single-shot numbers to the git-ignored
``results/smoke/``, so a test run never rewrites the trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from repro.analysis.report import save_artifact

#: Environment knob: ``1`` writes the committed ``results/BENCH_*.json``;
#: unset (or anything else) writes under :data:`SMOKE_DIR`.
RECORD_ENV = "REPRO_BENCH_RECORD"
#: Subdirectory of the results directory that smoke runs write to.
SMOKE_DIR = "smoke"


def record_benchmark(
    name: str, metrics: dict[str, object], results_dir: str | None = None
) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    The file lands in the results directory (as
    :func:`~repro.analysis.report.save_artifact` resolves it) when
    ``REPRO_BENCH_RECORD=1`` and in its ``smoke/`` subdirectory otherwise.  ``metrics`` must be
    JSON-serializable.  A small environment header (python version,
    platform, request-count knob, wall time) is added so numbers from
    different machines are not compared blindly.
    """
    filename = f"BENCH_{name}.json"
    if os.environ.get(RECORD_ENV) != "1":
        filename = os.path.join(SMOKE_DIR, filename)
    payload = {
        "benchmark": name,
        # Benchmark artifacts are *about* the host, so the wall-clock
        # timestamp below is deliberate, not a replay hazard.
        "recorded_at_unix": time.time(),  # detlint: disable=DET003 -- host timestamp
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repro_requests": os.environ.get("REPRO_REQUESTS"),
        "repro_trace_mode": os.environ.get("REPRO_TRACE_MODE"),
        "metrics": metrics,
    }
    return save_artifact(
        filename, json.dumps(payload, indent=2, sort_keys=True),
        results_dir=results_dir,
    )


def load_benchmark(path: str) -> dict[str, object]:
    """Read back a benchmark artifact written by :func:`record_benchmark`."""
    with open(path) as handle:
        return json.load(handle)
