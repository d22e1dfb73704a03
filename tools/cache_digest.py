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
It also counts how often each straightening rule fired (EXCHANGE, ACT_MU,
COCYCLE, PUSH_MU) and how many working graphs were copied
(``rewrite._Term.copy``), and how many cache entries were straightened
(``straightened``, the calls ``algebra.compose_basis`` makes of
``rewrite.straighten_graph``) and how many were read off a cached
slot-permuted or reversed mate (``read_off_mate``, the other entries):
a reversed mate of (s, t) is (p.τt, p.τs) for a slot permutation p, τ
being time reversal, ``algebra._reverse_key``.

A change that asks for fewer (or other) products can never give an equal
digest, so each seed also compares the caches key by key (``keys``): how
many keys both sides hold (``common``), how many only the parent or only
the change holds (``parent_only``, ``change_only``), and whether every
common key has equal constants on both sides (``common_equal``).

Prints one JSON object: the workload, the seeds, each side's digest, item
count, verdict, rule firings, copies, straightened entries and entries read
off a mate per seed, the key comparison per seed, whether the digests are
identical (``identical``) and whether the rule firings are
(``firings_identical``).
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


def cache_entries() -> dict[str, str]:
    """SHA-256 of each entry's sorted constants, by the entry's key."""
    from dyalg import algebra
    return {repr(key): hashlib.sha256(
                repr(sorted(constants.items())).encode()).hexdigest()
            for key, constants in algebra._CACHE.items()}


def compare_entries(parent: dict, change: dict) -> dict:
    """Key counts of two :func:`cache_entries` maps, and whether they agree
    on every key both hold."""
    common = parent.keys() & change.keys()
    return {"common": len(common),
            "parent_only": len(parent.keys() - common),
            "change_only": len(change.keys() - common),
            "common_equal": all(parent[k] == change[k] for k in common)}


RULES = ("exchange", "act_mu", "cocycle", "push_mu")


def _counted(counts: dict, name: str, function):
    def wrapped(*args):
        counts[name] += 1
        return function(*args)
    return wrapped


def _counted_entries(counts: dict, function):
    """``function`` (``rewrite.straighten_graph``), counting the calls that
    fill a structure-constant cache entry: those from ``compose_basis``."""
    from dyalg import algebra
    code = algebra.compose_basis.__code__

    def wrapped(*args):
        if sys._getframe(1).f_code is code:
            counts["straightened"] += 1
        return function(*args)
    return wrapped


def run_items(workload: str, seed: int) -> dict:
    """Run every seeded item of ``workload`` in this process, counting the
    rule firings, the working-graph copies and the straightened entries."""
    import workloads
    from dyalg import rewrite
    counts = dict.fromkeys(RULES + ("copy", "straightened"), 0)
    for rule in RULES:
        name = f"_apply_{rule}"
        setattr(rewrite, name, _counted(counts, rule, getattr(rewrite, name)))
    rewrite._Term.copy = _counted(counts, "copy", rewrite._Term.copy)
    rewrite.straighten_graph = _counted_entries(counts,
                                                rewrite.straighten_graph)
    items = workloads.ITEMS[workload](random.Random(f"{workload}:{seed}"))
    correct = all(check() == expected for _, check, expected in items)
    entries = len(sys.modules["dyalg.algebra"]._CACHE)
    return {"items": len(items), "correct": correct,
            "entries": entries,
            "sha256": cache_digest(),
            "constants": cache_entries(),
            "firings": {rule: counts[rule] for rule in RULES},
            "copies": counts["copy"],
            "straightened": counts["straightened"],
            "read_off_mate": entries - counts["straightened"]}


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
    record["keys"] = {str(s): compare_entries(
        record["parent"][str(s)].pop("constants"),
        record["change"][str(s)].pop("constants")) for s in args.seeds}
    for field, name in (("sha256", "identical"),
                        ("firings", "firings_identical")):
        record[name] = all(record["parent"][str(s)][field]
                           == record["change"][str(s)][field]
                           for s in args.seeds)
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
