"""Benchmark runner: cold-process runs of one workload, medians reported.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Each measurement is a fresh interpreter (``perfbench/child.py``) that
imports ``repro``, builds the models, and runs the workload once, so no
in-process cache survives from one measurement to the next.  Children
run one after another, never concurrently, until ``--seconds`` have
passed (and at least :data:`MIN_RUNS` have finished).  Every child gets:

* ``REPRO_*`` cleared from its environment (prior values are recorded);
* ``TMPDIR`` and the bytecode cache pointing into a per-run temporary
  directory under ``.perfbench_tmp/`` in the current directory, removed
  afterwards;
* one thread for numeric libraries (no fan-out on a shared host);
* ``PYTHONHASHSEED=0``, so str-keyed dicts and sets lay out the same in
  every child (the simulated output never depends on it).

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``: medians over the children).  ``wall_s`` and ``setup_s``
are host-speed normalised: each child also times a fixed interpreter
loop (``child.calibrate``), and the run's median times are scaled by
:data:`CALIB_REF_S` over the median loop time, i.e. reported as seconds
on a host that runs the loop in :data:`CALIB_REF_S`.  Load from other
tenants of a shared host slows the loop and the workload alike, so this
keeps a busy period from reading as a regression; the raw times are in
the record.  ``--trace 1`` alternates untraced and traced children and
reports the per-layer breakdown of the traced child with the median
wall time, plus the tracing overhead.

``--seed n`` selects input set ``n % INPUT_SETS``; the workload derives
every request, arrival and serving seed from it.  Every op is checked
(``workloads.py``) and digested; digests must agree across the run's
children, traced or not, and with the digests recorded for that input
set in ``perfbench/digests.json``.  An op failing any of these counts in
``failed``; with no recorded digests for the input set, every op fails.
The last stdout line is the result object; the line before it is the
full record (provenance, calibration, raw per-child numbers, failures).
A benchmark error (a child that crashes, a missing source tree) exits
non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import shims  # noqa: E402  (no repro import at module level)
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

#: The number of input sets, all of them recorded in ``digests.json``.
INPUT_SETS = 128
MIN_RUNS = 3
#: Children are killed once this much of the run has passed, so the
#: whole run ends within 180 s.
RUN_LIMIT_S = 165.0
#: No new child starts once this much time has passed.
START_LIMIT_S = 100.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: The calibration loop's time on the reference host (a quiet 2-core
#: x86-64 Xeon, Python 3.11): ``wall_s`` and ``setup_s`` read as raw
#: seconds there.
CALIB_REF_S = 0.116


class BenchmarkError(Exception):
    """The benchmark itself could not run (not an op failure)."""


def child_env(tmp: str) -> tuple[dict, dict]:
    """The child's environment, and the ``REPRO_*`` values it cleared."""
    cleared = {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"),
        TMPDIR=tmp,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env, cleared


def spawn(args, env: dict, traced: bool, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one child to completion and return its record."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.input_seed),
        "--size", args.size, "--spawned-at", repr(time.monotonic()),
    ]
    if traced:
        command.append("--trace")
    if args.corrupt:
        command.append("--corrupt")
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(args, env: dict) -> list[dict]:
    """Children, one at a time, until ``--seconds`` have passed."""
    records: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        timeout = RUN_LIMIT_S - (time.monotonic() - start)
        records.append(spawn(args, env, traced, timeout))
        counts = [sum(1 for r in records if r["traced"] is flag) for flag in (False, True)]
        enough = counts[0] >= MIN_RUNS and (not args.trace or counts[1] >= MIN_RUNS)
        elapsed = time.monotonic() - start
        if (enough and elapsed >= args.seconds) or elapsed >= START_LIMIT_S:
            return records


def recorded_digests(args) -> dict | None:
    """The per-op digests recorded for this workload, size and input set."""
    try:
        with open(DIGESTS) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    entry = table.get(digest_key(args.workload, args.size))
    if entry is None or str(args.input_seed) not in entry["seeds"]:
        return None
    return dict(zip(entry["ops"], entry["seeds"][str(args.input_seed)].split()))


def digest_key(workload: str, size: str) -> str:
    params = workloads.SIZES[workload][size]
    return workload + "|" + ",".join(f"{k}={params[k]}" for k in sorted(params))


def verdicts(records: list[dict], reference: dict | None) -> tuple[int, list]:
    """Count ops and list failures: an op fails its check, its digest
    differs from the reference, or a child never reached it (the
    workload raised outside any op).  The reference is the recorded
    digests; ``None`` (the unrecorded ``tiny`` size only) makes it the
    first child's."""
    if reference is None:
        reference = {name: digest for name, _, _, digest in records[0]["ops"]}
    expected = set(reference)
    attempted = 0
    failures = []
    for index, record in enumerate(records):
        seen = set()
        for name, ok, reason, digest in record["ops"]:
            attempted += 1
            seen.add(name)
            if not ok:
                failures.append((index, name, reason))
            elif name not in reference:
                failures.append((index, name, "no recorded digest"))
            elif reference[name] != digest:
                failures.append((index, name, f"digest {digest} != {reference[name]}"))
        for name in sorted(expected - seen):
            attempted += 1
            failures.append((index, name, "op missing from this run"))
    return attempted, failures


def provenance(args, cleared: dict, numpy_version: str) -> dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                source.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest()[:16],
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": args.workload,
        "seed": args.seed,
        "input_set": args.input_seed,
        "size": workloads.SIZES[args.workload][args.size],
        "cleared_repro_env": cleared,
    }


def summarize(args, records: list[dict]) -> tuple[dict, dict]:
    """The result's metrics and the record's raw numbers."""
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    raw = {
        key: [r[key] for r in plain]
        for key in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s", "calib_s")
    }
    if not args.trace:
        # A ratio of medians: one child's loop time is too noisy to scale
        # that child's times by, but the run's median tracks host load.
        speed = CALIB_REF_S / statistics.median(raw["calib_s"])
        scale = {"wall_s": speed, "setup_s": speed, "peak_rss_mb": 1.0}
        metrics = {
            name: {"value": statistics.median(raw[name]) * scale[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        return metrics, raw
    # The traced child with the median wall time supplies the breakdown,
    # so its self times and ``other`` sum exactly to its wall time.
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    layers = dict(chosen["layers"])
    untraced_wall = statistics.median(raw["wall_s"])
    layers["trace.wall_s"] = chosen["wall_s"]
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_frac"] = (
        statistics.median([r["wall_s"] for r in traced]) / untraced_wall - 1.0
    )
    raw["traced_wall_s"] = [r["wall_s"] for r in traced]
    raw["missing_entry_points"] = chosen["missing_entry_points"]
    raw["op_tail_pct"] = chosen["op_tail_pct"]
    metrics = {
        name: {"value": layers[name], "unit": unit}
        for name, unit in per_layer_units().items()
    }
    return metrics, raw


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit."""
    units = {name: "s" for name in shims.SELF_TIME_METRIC.values()}
    units.update({name: "count" for name in shims.COUNT_METRICS})
    units.update({
        "trace.other_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_frac": "fraction",
        "runner.op_p50_s": "s",
        "runner.op_tail_s": "s",
        "resilience.attempts": "count",
        "resilience.hedged": "count",
        "resilience.useful_frac": "fraction",
    })
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="workload size; 'tiny' is for the self-test",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="poison one result before the check (self-test only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.input_seed = args.seed % INPUT_SETS
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    scratch_root = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        env, cleared = child_env(tmp)
        records = measure(args, env)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    recorded = None
    if args.size == "full":
        # An unrecorded input set fails every op, so it cannot pass unseen.
        recorded = recorded_digests(args) or {}
    attempted, failures = verdicts(records, recorded)
    metrics, raw = summarize(args, records)
    failed = len(failures)
    record = {
        "provenance": provenance(args, cleared, records[0]["numpy"]),
        "digest_reference": (
            "first child (tiny size)" if recorded is None
            else "recorded" if recorded else "none recorded for this input set"
        ),
        "runs": len(records),
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "calibration": {
            "probe": "heap push/pop loop, timed in each child before and "
                     "after the workload; the medians of wall_s and setup_s "
                     "are scaled by calib_ref_s / calib_s_median",
            "calib_ref_s": CALIB_REF_S,
            "calib_s_median": statistics.median(raw["calib_s"]),
            "raw_wall_s_median": statistics.median(raw["wall_s"]),
            "raw_setup_s_median": statistics.median(raw["setup_s"]),
        },
        "raw": raw,
        "failures": failures[:50],
    }
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:12s} {'failed_frac':24s} {failed / attempted:.6g} fraction"
          f" ({failed}/{attempted})")
    if not args.trace:
        for name in ("wall_s", "setup_s"):
            print(f"{args.workload:12s} {'raw ' + name:24s} "
                  f"{statistics.median(raw[name]):.6g} s (not normalised)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
