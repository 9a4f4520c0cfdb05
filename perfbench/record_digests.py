"""Record the per-op output digests ``run.py`` checks against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py --seeds 0-127

Runs each workload once per input set (``run.INPUT_SETS`` of them) in a
cold child (as ``run.py`` does) and rewrites ``perfbench/digests.json``.  Refuses to record a run whose
output check fails.  Re-record only for a change that is meant to alter
simulated output; a speed-only change must leave every digest equal.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range(f"0-{run.INPUT_SETS - 1}"))
    parser.add_argument(
        "--workloads", nargs="+", default=list(workloads.WORKLOADS),
        choices=workloads.WORKLOADS,
    )
    args = parser.parse_args()
    try:
        with open(run.DIGESTS) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    os.makedirs(".perfbench_tmp", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=".perfbench_tmp")
    try:
        env, _ = run.child_env(tmp)
        for workload in args.workloads:
            key = run.digest_key(workload, "full")
            entry = {"ops": None, "seeds": {}}
            for seed in args.seeds:
                child_args = argparse.Namespace(
                    workload=workload, input_seed=seed, size="full", corrupt=False
                )
                record = run.spawn(child_args, env, traced=False)
                bad = [op for op in record["ops"] if not op[1]]
                if bad:
                    print(f"{workload} seed {seed}: check failed: {bad[:3]}",
                          file=sys.stderr)
                    return 1
                names = [op[0] for op in record["ops"]]
                if entry["ops"] is None:
                    entry["ops"] = names
                elif entry["ops"] != names:
                    print(f"{workload} seed {seed}: op list differs", file=sys.stderr)
                    return 1
                entry["seeds"][str(seed)] = " ".join(op[3] for op in record["ops"])
                print(f"{workload} seed {seed}: {len(names)} ops", flush=True)
            table[key] = entry
            with open(run.DIGESTS, "w") as handle:
                json.dump(table, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
