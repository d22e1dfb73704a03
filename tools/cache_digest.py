"""Digest the structure-constant cache that one workload's items leave.

    python3 tools/cache_digest.py --workload WORKLOAD --seeds N [N ...] \\
        --parent PARENT --change CHANGE

For every seed and each checkout in turn, a fresh process imports dyalg
from ``CHECKOUT/src`` and the seeded items from
``CHECKOUT/benchmark/workloads.py`` (seeded as ``benchmark/worker.py``
seeds them), runs every check, and reports the SHA-256 of the sorted
``algebra._CACHE``: one line ``repr((cache key, sorted constants))`` per
entry, sorted.  Equal digests mean that both
checkouts computed the same structure constants for the same products.

Prints one JSON object: the workload, the seeds, each side's digest, item
count and verdict per seed, and whether the digests are identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys


def cache_digest() -> str:
    """SHA-256 of the sorted entries of ``dyalg.algebra._CACHE``."""
    from dyalg import algebra
    lines = sorted(repr((key, sorted(constants.items())))
                   for key, constants in algebra._CACHE.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_items(workload: str, seed: int) -> dict:
    """Run every seeded item of ``workload`` in this process."""
    import workloads
    items = workloads.ITEMS[workload](random.Random(f"{workload}:{seed}"))
    correct = all(check() == expected for _, check, expected in items)
    return {"items": len(items), "correct": correct,
            "entries": len(sys.modules["dyalg.algebra"]._CACHE),
            "sha256": cache_digest()}


def run_side(checkout: str, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(checkout, d) for d in ("src", "benchmark")))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", workload,
         str(seed)], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_items(args.one[0], int(args.one[1]))))
        return 0
    if not (args.workload and args.seeds and args.parent and args.change):
        parser.error("--workload, --seeds, --parent and --change are required")
    sides = {"parent": args.parent, "change": args.change}
    record = {"workload": args.workload, "seeds": args.seeds}
    for side, checkout in sides.items():
        record[side] = {str(seed): run_side(checkout, args.workload, seed)
                        for seed in args.seeds}
    record["identical"] = all(
        record["parent"][str(s)]["sha256"] == record["change"][str(s)]["sha256"]
        for s in args.seeds)
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
