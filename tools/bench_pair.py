"""Fold parent and change benchmark runs of one workload into one record.

    python3 tools/bench_pair.py --workload WORKLOAD --pr N \\
        --parent PARENT/.bench_results --change CHANGE/.bench_results \\
        [--also WORKLOAD ...] [--attach NAME=FILE ...]

``--parent`` and ``--change`` each name result files written by
``benchmark/run.py`` or directories holding them.  Only untraced runs
(``--trace 0``) of the workload count.  Each side's runs are sorted by the
time in their provenance and paired in that order, so that alternating
parent/change runs pair up; paired runs must share a seed.

For every end-to-end metric of the repository's ``BENCHMARK.json`` the
record holds each side's median and quartiles, the distance between the
parent's quartiles, and the pairs the change won and lost (a tie counts
for neither side).  It also holds the host, the Python version, each
side's ``source_sha256`` (the digest of ``src/`` that ``run.py`` records)
and whether every run was correct.  The record is written to
``BENCH_<pr>.json`` in the working directory.

``--also`` folds further workloads of the same runs the same way, each
into ``also[WORKLOAD]``, e.g. workloads that should not move.  ``--attach``
stores a JSON file, such as the output of ``time_command.py``, under
``attached[NAME]``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
HOST_FIELDS = ("cpu_model", "nproc")


def load_runs(paths: list[str], workload: str) -> list[dict]:
    """The untraced runs of ``workload`` among ``paths``, in run order."""
    files = []
    for path in paths:
        files += (sorted(glob.glob(os.path.join(path, "*.json")))
                  if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        with open(name) as fh:
            raw = json.load(fh)
        prov = raw["provenance"]
        if prov["workload"] == workload and prov["trace"] == 0:
            runs.append({"file": os.path.basename(name),
                         "provenance": prov, "result": raw["result"]})
    runs.sort(key=lambda r: (r["provenance"]["started_utc"], r["file"]))
    return runs


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def only(values: set, what: str):
    if len(values) != 1:
        raise ValueError(f"runs differ in {what}: {sorted(map(str, values))}")
    return values.pop()


def side_summary(runs: list[dict]) -> dict:
    return {"runs": len(runs),
            "seeds": [r["provenance"]["seed"] for r in runs],
            "source_sha256": only({r["provenance"]["source_sha256"]
                                   for r in runs}, "source_sha256"),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs)}


def fold(parent: list[dict], change: list[dict], end_to_end: list[dict],
         workload: str, pr: int) -> dict:
    if not parent or len(parent) != len(change):
        raise ValueError(f"need as many parent runs as change runs, at "
                         f"least one: {len(parent)} vs {len(change)}")
    for p, c in zip(parent, change):
        if p["provenance"]["seed"] != c["provenance"]["seed"]:
            raise ValueError(f"paired runs differ in seed: {p['file']} vs "
                             f"{c['file']}")
    runs = parent + change
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        sign = 1 if spec["better"] == "lower" else -1
        before, after = ([r["result"]["metrics"][name]["value"] for r in side]
                         for side in (parent, change))
        spread = quartiles(before)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "parent": spread,
            "change": quartiles(after),
            "parent_quartile_spread": spread["q3"] - spread["q1"],
            "pairs": len(before),
            "pairs_won": sum(sign * (b - a) > 0
                             for b, a in zip(before, after)),
            "pairs_lost": sum(sign * (a - b) > 0
                              for b, a in zip(before, after))}
    return {"pr": pr, "workload": workload,
            "host": {f: only({r["provenance"][f] for r in runs}, f)
                     for f in HOST_FIELDS},
            "python": only({r["provenance"]["python"] for r in runs},
                           "python"),
            "run_seconds": only({r["provenance"]["seconds"] for r in runs},
                                "seconds"),
            "parent": side_summary(parent), "change": side_summary(change),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--also", nargs="+", default=[], metavar="WORKLOAD")
    parser.add_argument("--attach", nargs="+", default=[],
                        metavar="NAME=FILE")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    def fold_workload(workload: str) -> dict:
        return fold(load_runs(args.parent, workload),
                    load_runs(args.change, workload), end_to_end, workload,
                    args.pr)

    try:
        record = fold_workload(args.workload)
        if args.also:
            record["also"] = {w: fold_workload(w) for w in args.also}
        if args.attach:
            record["attached"] = {}
            for item in args.attach:
                name, sep, path = item.partition("=")
                if not sep:
                    raise ValueError(f"--attach wants NAME=FILE: {item}")
                with open(path) as fh:
                    record["attached"][name] = json.load(fh)
    except ValueError as exc:
        print(f"bench_pair: {exc}", file=sys.stderr)
        return 2
    with open(f"BENCH_{args.pr}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
