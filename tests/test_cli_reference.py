"""The CLI's byte contract: every (command, variant) input of the benchmark's
``cli`` workload reproduces its recorded exit code and stdout byte for byte.

The inputs and argument lists come from ``benchmark/cli_workload.py``, and
each command runs in a fresh ``python -S -m dyalg.cli`` process, as the
benchmark runs it."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "benchmark"


def _load(path: pathlib.Path):
    """Execute a benchmark file as a fresh module, not registered in
    ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOAD = _load(BENCHMARK / "cli_workload.py")
REFERENCE = json.loads((BENCHMARK / "reference" / "cli.json").read_text())
NAMES = WORKLOAD.command_names()


def test_reference_covers_every_command_and_variant():
    assert len(NAMES) == 24 and sorted(REFERENCE) == sorted(NAMES)
    variants = [str(v) for v in range(WORKLOAD.VARIANTS)]
    assert all(sorted(REFERENCE[name]) == variants for name in NAMES)


@pytest.fixture(scope="module")
def work_dirs(tmp_path_factory):
    """One directory of input files per variant."""
    dirs = []
    for variant in range(WORKLOAD.VARIANTS):
        work_dir = tmp_path_factory.mktemp(f"cli-variant-{variant}")
        WORKLOAD.write_inputs(str(work_dir),
                              {name: variant for name in NAMES})
        dirs.append(str(work_dir))
    return dirs


@pytest.mark.parametrize("name", NAMES)
def test_cli_output_matches_reference(name, work_dirs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for variant, work_dir in enumerate(work_dirs):
        argv = WORKLOAD.argv_of(name, variant, work_dir)
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "dyalg.cli", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE)
        want = REFERENCE[name][str(variant)]
        assert (proc.returncode, proc.stdout) == (
            want["exit"], want["stdout"].encode()), f"variant {variant}"
