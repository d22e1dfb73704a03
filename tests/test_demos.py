"""The demos print the same bytes: each ``demos/*.py`` runs in a fresh
interpreter with ``src`` on the path, exits 0, and its stdout has the
SHA-256 pinned here.  A change that alters what a demo prints must update
the pin on purpose."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_diagrams_and_nested_sets.py":
        "6e48a27f92b304d533c1dc246c06a07ed07a7ecce8b7b4c1b29da8e489a7e23c",
    "02_normal_ordering.py":
        "c0e0a23a70a7f9692d85e0bb4421ea54dd989c143fc2fe2212615dc035a451b9",
    "03_yang_baxter_and_casimirs.py":
        "64670766f1fdb18abe22aac099cd0909eb82cd6ac8e48abff195bd124862c8a6",
    "04_hochschild_cohomology.py":
        "236f41ee6768961f25c174dee766163ea08fa6e0588ac4d8554f41bb92ca7243",
    "05_realizations.py":
        "4d98b2b5a294870e279cb25925ec40b399683f7544e071a614729b79097e1c60",
    "06_twists_and_gauges.py":
        "bbae8034847b362c84a555c70dbaa6aaad3bc410c363f07969e84c480e2e1fa8",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_pinned_bytes(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
