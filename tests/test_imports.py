"""The import footprint of a cold dyalg process, and the lazy public API.

Each footprint check runs in a fresh ``python3 -S`` interpreter (as the
benchmark starts its children) and compares sets of loaded module names,
not times."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import dyalg

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the public names of dyalg before its exports became lazy
PUBLIC = sorted("""
    AlgebraElement DYModuleData Diagram GaugeObstruction GradedSeries
    KacMoodyBorel LieBialgebraData MonodromyMismatch RootCone RootConeMod
    SPLIT Split TRIVIAL Trivial TruncationOverflow adjoint_module alpha_map
    alt associator_2jet beta_map borel_sl2 build_central_family
    build_kac_moody_borel build_test_family build_unit_family
    check_associator_axioms check_coxeter_family cohomology_table
    compatible compose_basis decompose_cocycle dim_formula drinfeld_double
    embed_slots enumerate_basis evaluate expand_to_assoc
    face_map filter_window forget_split gauge hochschild_d
    hochschild_target_dim is_invariant kappa kappa_alpha
    lie_multilinear_basis maximal_nested_sets mns_union omega pbw_decompose
    quotient_allowed quotient_diagram r_matrix random_term rho_tilde_b
    rho_tilde_pair sl2_irrep slot_permute solve_gauge solve_local_monodromy
    straighten symmetrizer tensor_module term_from_json term_to_json
    trivial_module triple_exponential twist_conjugate
    twist_equation_residual validate_bialgebra validate_bialgebra_windowed
    validate_dy_module wedge_multilinear_dim
""".split())


def loaded_after(code: str) -> set[str]:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def dyalg_submodules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("dyalg.")}


def test_import_dyalg_loads_no_submodule():
    assert dyalg_submodules(loaded_after("import dyalg")) == set()


def test_import_cli_loads_only_the_front_door():
    modules = loaded_after("import dyalg.cli")
    assert dyalg_submodules(modules) == {"dyalg.cli"}
    assert modules.isdisjoint({"dataclasses", "typing", "inspect"})


def test_nested_sets_command_does_not_load_the_algebra(tmp_path):
    dia = tmp_path / "a3.json"
    dia.write_text(json.dumps(
        {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    modules = loaded_after(
        "from dyalg.cli import main\n"
        f"assert main(['nested-sets', {str(dia)!r}]) == 0")
    assert "dyalg.diagrams" in modules
    assert "dyalg.algebra" not in modules


def test_verify_cybe_loads_only_the_algebra_it_runs():
    modules = loaded_after("from dyalg.cli import main\n"
                           "assert main(['verify', 'cybe']) == 0")
    assert {"dyalg.suites", "dyalg.algebra"} <= modules
    assert modules.isdisjoint(
        {"dyalg.bialgebra", "dyalg.kacmoody", "dyalg.cohomology"})


def test_parsed_commands_leave_shutil_unloaded(tmp_path):
    # argparse's stock formatter imports shutil (with bz2 and lzma) for the
    # terminal width; a command that parses prints no help and needs none
    elt = tmp_path / "kappa.json"
    elt.write_text(json.dumps({"n": 1, "monoid": {"kind": "trivial"},
                               "terms": [{"coeff": "1", "coactions": [1],
                                          "actions": [1], "perm": [1],
                                          "decor": [0]}]}))
    for args in (["verify", "cybe"], ["face", str(elt), "1"]):
        modules = loaded_after(f"from dyalg.cli import main\n"
                               f"assert main({args!r}) == 0")
        assert modules.isdisjoint({"shutil", "bz2", "lzma"}), args


def test_public_names_are_unchanged():
    assert sorted(dyalg.__all__) == PUBLIC


def test_each_name_is_its_home_module_attribute():
    for name in PUBLIC:
        value = getattr(dyalg, name)
        assert value.__module__ == f"dyalg.{dyalg._EXPORTS[name]}", name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from dyalg import *", namespace)
    assert {name: namespace.get(name) for name in PUBLIC} == {
        name: getattr(dyalg, name) for name in PUBLIC}


def test_unknown_name_and_submodules():
    with pytest.raises(AttributeError):
        dyalg.no_such_name
    with pytest.raises(ImportError):
        from dyalg import no_such_name  # noqa: F401
    from dyalg import linalg
    assert linalg is sys.modules["dyalg.linalg"]
