"""Self-test of the benchmark.  Usage (from the repository root)::

    python3 perfbench/selftest.py

At the tiny size, for every workload: ``--trace 0`` and ``--trace 1``
each exit 0 and print a result with exactly the four result keys and
every metric ``BENCHMARK.json`` names, with its unit, and no failed op;
a ``--corrupt`` run counts the poisoned result as failed.  Finally, a
directory holding only ``BENCHMARK.json`` and the benchmark's files makes
the benchmark exit non-zero without printing a result.  Exits 1 on the
first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def bench(spec: dict, cwd: str, workload: str, trace: int, *extra: str):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc, label: str) -> dict:
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result keys {sorted(result)}",
    )
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{workload} --trace {trace}"
                result = result_of(bench(spec, ROOT, workload, trace, "--size", "tiny"), label)
                expect(result["correct"] and result["failed"] == 0,
                       f"{label}: {result['failed']} failed ops")
                wanted = {m["name"]: m["unit"] for m in spec[key]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                expect(got == wanted, f"{label}: metrics {got} != {wanted}")
                print(f"ok  {label}: {len(got)} metrics, {result['attempted']} ops")
            label = f"{workload} --corrupt"
            result = result_of(
                bench(spec, ROOT, workload, 0, "--size", "tiny", "--corrupt"), label
            )
            expect(not result["correct"] and result["failed"] >= 1,
                   f"{label}: corrupted result not counted as failed")
            print(f"ok  {label}: {result['failed']}/{result['attempted']} failed")

        scratch_root = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch_root, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in spec["paths"]:
                shutil.copytree(
                    os.path.join(ROOT, path), os.path.join(bare, path),
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            proc = bench(spec, bare, spec["workloads"][0]["name"], 0)
            expect(proc.returncode != 0, "bare directory: exit 0")
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            expect('"correct"' not in last, "bare directory: printed a result")
            print("ok  bare directory: exits", proc.returncode, "without a result")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                os.rmdir(scratch_root)
            except OSError:
                pass
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
