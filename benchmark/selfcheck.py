"""Checks of the benchmark itself.

    python3 benchmark/selfcheck.py

1. Failure accounting: one deliberately wrong expected answer per library
   workload, and one corrupted CLI reference, must each count as a failed
   item, so the failure ratio rises above 0.
2. Tracing reach: the wrappers must see calls made inside the package,
   ``AlgebraElement.__mul__`` calling ``compose_basis`` and ``cohomology``
   calling ``hochschild_d``.
3. Without the dyalg sources next to it, run.py must exit non-zero
   without printing a result.

Exits with 1 if any check fails.  Takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import cli_workload
import run


def check(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    return ok


def main() -> int:
    with open(cli_workload.REFERENCE) as fh:
        reference = json.load(fh)
    work_parent = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_parent)
    ok = True
    try:
        for workload in ("products", "dsquared", "realize", "gauge"):
            r = run.library_round(workload, 1, work_dir, trace=False, flip=0)
            failed = r["verdicts"].count(False)
            ok &= check(f"wrong answer counted ({workload})", failed == 1,
                        f"fail_ratio {failed}/{len(r['verdicts'])}")

        traced = run.library_round("products", 1, work_dir, trace=True)
        reach = traced["trace"]["algebra.mul"]["children"].get(
            "algebra.compose_basis", 0)
        ok &= check("wrappers reach __mul__ -> compose_basis", reach > 0,
                    f"{reach} nested calls")

        name, variant = "cohomology-trivial-w4", 0
        summary_path = os.path.join(work_dir, "spans.json")
        child = run.cli_process(
            "run", ["--trace", summary_path, "--"]
            + cli_workload.argv_of(name, variant, work_dir), work_dir)
        with open(summary_path) as fh:
            summary = json.load(fh)
        reach = summary["cohomology.differential_columns"]["children"].get(
            "algebra.hochschild_d", 0)
        ok &= check("wrappers reach cohomology -> hochschild_d", reach > 0,
                    f"{reach} nested calls")
        good = cli_workload.check_output(name, variant, child["code"],
                                         child["stdout"], reference)
        ok &= check("traced CLI bytes equal the reference", not good,
                    "; ".join(good) or "identical")
        wrong = copy.deepcopy(reference)
        entry = wrong[name][str(variant)]
        entry["stdout"] = entry["stdout"].replace('"dim_H": 0', '"dim_H": 1',
                                                  1)
        bad = cli_workload.check_output(name, variant, child["code"],
                                        child["stdout"], wrong)
        ok &= check("corrupted CLI reference counted", bool(bad),
                    "; ".join(bad))

        bare = os.path.join(work_dir, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", "products",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=180)
        ok &= check("no sources: non-zero exit, no result",
                    proc.returncode != 0 and not proc.stdout,
                    f"exit {proc.returncode}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
