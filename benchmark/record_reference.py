"""Record the reference output of every ``cli`` command and input variant.

    python3 benchmark/record_reference.py

Runs each command of the ``cli`` workload once per input variant, untraced,
and writes its exit code and stdout to ``reference/cli.json``.  The file
was recorded at the commit that defined the benchmark; recording it again
at a later commit would make the byte-for-byte check compare that commit
with itself, so do it only when the benchmark's commands change.
"""

import json
import os
import shutil
import tempfile

import cli_workload
import run


def main() -> None:
    reference = {name: {} for name in cli_workload.command_names()}
    work_parent = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    for variant in range(cli_workload.VARIANTS):
        variants = {name: variant for name in reference}
        work_dir = tempfile.mkdtemp(dir=work_parent)
        try:
            setup = run.cli_process("inputs",
                                    [work_dir, json.dumps(variants)],
                                    work_dir)
            assert setup["code"] == 0, "input set-up failed"
            for name in reference:
                child = run.spawn(["-m", "dyalg.cli"] + cli_workload.argv_of(
                    name, variant, work_dir))
                reference[name][str(variant)] = {
                    "exit": child["code"],
                    "stdout": child["stdout"].decode()}
                print(f"{name} variant {variant}: exit {child['code']}, "
                      f"{child['t_end'] - child['t_start']:.2f} s", flush=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(cli_workload.REFERENCE), exist_ok=True)
    with open(cli_workload.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
