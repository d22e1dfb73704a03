"""Time one dyalg command at two checkouts, in alternating fresh processes.

    python3 tools/time_command.py --pairs N --parent PARENT --change CHANGE \\
        -- ARGS...

First compiles both checkouts' ``src/`` to bytecode (``python3 -m
compileall``), so that no run pays for compiling dyalg.  Then runs
``python3 -S -m dyalg.cli ARGS`` with ``PARENT/src`` and with
``CHANGE/src`` on the path, N times each in alternation, the parent first
in the odd pairs and the change first in the even ones, so that neither
side always pays for the warm-up.  Prints one JSON object: the command, the
side that ran first in each pair, each side's wall times in seconds with
their median and quartiles, the pairs the change won and lost, whether
every run exited 0, and whether every stdout was the same byte for byte
(with its SHA-256).

The children start with ``-S``, as ``benchmark/run.py`` starts them: the
``site`` start-up of an installed Python (the path hooks of other packages;
73 ms of a 92 ms bare start on the machine the benchmark was defined on) is
not dyalg's work, so without ``-S`` it would hide dyalg's own import and
computation.  Wall times are measured, not rescaled for the host's speed,
so only pairs taken back to back compare.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

from bench_pair import quartiles


def _env(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    # the children read the bytecode that compile_sources() wrote
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_sources(checkout: str) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(checkout, "src")], env=_env(checkout),
                   stdout=subprocess.DEVNULL, check=True)


def run_once(checkout: str, args: list[str]) -> tuple[float, int, bytes]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-S", "-m", "dyalg.cli", *args],
                          env=_env(checkout), capture_output=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("args", nargs="+")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        compile_sources(checkout)
    times = {side: [] for side in sides}
    codes, outputs, first = set(), set(), []
    for pair in range(args.pairs):
        order = ("change", "parent") if pair % 2 else ("parent", "change")
        first.append(order[0])
        for side in order:
            seconds, code, stdout = run_once(sides[side], args.args)
            times[side].append(seconds)
            codes.add(code)
            outputs.add(stdout)
    before, after = times["parent"], times["change"]
    record = {"command": ["dyalg", *args.args], "pairs": args.pairs,
              "first": first,
              "exit_ok": codes == {0},
              "stdout_identical": len(outputs) == 1,
              "stdout_sha256": sorted(hashlib.sha256(o).hexdigest()
                                      for o in outputs),
              "pairs_won": sum(a < b for b, a in zip(before, after)),
              "pairs_lost": sum(a > b for b, a in zip(before, after))}
    for side in sides:
        record[side] = {"wall_s": times[side], **quartiles(times[side])}
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
