import json
import subprocess
import sys

import pytest

from dyalg.algebra import AlgebraElement, kappa, omega, r_matrix
from dyalg.bialgebra import borel_sl2


def run_cli(args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "dyalg.cli", *args],
        capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(proc.stderr or proc.stdout)
    return proc


def test_multiply_round_trip(tmp_path):
    k = kappa(1, 1)
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(k.to_json()))
    right.write_text(json.dumps(k.to_json()))
    proc = run_cli(["multiply", str(left), str(right)], check=True)
    data = json.loads(proc.stdout)
    coeffs = {t["coeff"] for t in data["terms"]}
    assert coeffs == {"2", "-1"}


def test_multiply_unit(tmp_path):
    from dyalg.algebra import AlgebraElement
    unit = tmp_path / "unit.json"
    k = tmp_path / "k.json"
    unit.write_text(json.dumps(AlgebraElement.unit(1).to_json()))
    k.write_text(json.dumps(kappa(1, 1).to_json()))
    proc = run_cli(["multiply", str(unit), str(k)], check=True)
    assert json.loads(proc.stdout) == kappa(1, 1).to_json()


def test_mismatch_exit_code(tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(kappa(1, 1).to_json()))
    right.write_text(json.dumps(omega(2, 1, 2).to_json()))
    proc = run_cli(["multiply", str(left), str(right)])
    assert proc.returncode == 3


def _one_strand(monoid, coeff="1", decor=0):
    return json.dumps({
        "n": 1, "monoid": {"kind": monoid},
        "terms": [{"coeff": coeff, "coactions": [1], "actions": [1],
                   "perm": [1], "decor": [decor]}]})


@pytest.mark.parametrize("command, text", [
    ("multiply", "{ not json"),
    ("dH", '{"n": 1}'),
    ("dH", "[1, 2]"),
    ("dH", _one_strand("trivial", coeff="1/0")),
    ("dH", _one_strand("split", decor=7)),
    ("multiply", _one_strand("trivial", decor=3)),
    ("dH", _one_strand("split", decor=[[0]])),
], ids=["malformed-json", "missing-key", "not-an-object", "zero-denominator",
        "split-decoration-7", "trivial-decoration-3",
        "split-decoration-nested-list"])
def test_parse_error_exit_code(tmp_path, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    args = {"multiply": [str(bad), str(bad)], "dH": [str(bad)]}[command]
    proc = run_cli([command, *args])
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: ")


_TRIVIAL = {"kind": "trivial"}


def _unit(n, monoid=_TRIVIAL):
    return {"n": n, "monoid": monoid,
            "terms": [{"coeff": "1", "coactions": [0] * n,
                       "actions": [0] * n, "perm": [], "decor": []}]}


def _key_element(n, monoid, **fields):
    """An element of one basis key: one strand on slot 1 unless ``fields``
    say otherwise."""
    term = {"coeff": "1", "coactions": [1] + [0] * (n - 1),
            "actions": [1] + [0] * (n - 1), "perm": [1], "decor": [0]}
    return {"n": n, "monoid": monoid, "terms": [{**term, **fields}]}


def _series(n, order, monoid, parts):
    return {"n": n, "order": order, "monoid": monoid, "parts": parts}


@pytest.mark.parametrize("command, data, message", [
    ("dH", {"n": "x", "monoid": _TRIVIAL, "terms": []},
     "n must be a non-negative integer, got 'x'"),
    ("dH", {"n": 1.5, "monoid": _TRIVIAL, "terms": []},
     "n must be a non-negative integer, got 1.5"),
    ("dH", {"n": True, "monoid": _TRIVIAL, "terms": []},
     "n must be a non-negative integer, got True"),
    ("dH", {"n": -1, "monoid": _TRIVIAL, "terms": []},
     "n must be a non-negative integer, got -1"),
    ("solve-gauge", _series(2, 2, _TRIVIAL, {"0": _unit(1)}),
     "part 0 is not in the series' algebra (n = 2, trivial monoid)"),
    ("solve-gauge", _series(1, 2, {"kind": "split"}, {"0": _unit(1)}),
     "part 0 is not in the series' algebra (n = 1, split monoid)"),
    ("solve-gauge", _series(2, -1, _TRIVIAL, {}),
     "order must be a non-negative integer, got -1"),
    ("nested-sets", {"vertices": [1, "a"], "edges": []},
     "vertex 'a' is not a non-negative integer"),
    ("nested-sets", {"vertices": [True, 2], "edges": [[True, 2]]},
     "vertex True is not a non-negative integer"),
    ("dH", _key_element(2, _TRIVIAL, coactions=[-1, 1], actions=[0, 0],
                        perm=[], decor=[]),
     "coactions entry must be a non-negative integer, got -1"),
    ("dH", _key_element(1, _TRIVIAL, coactions=[True], perm=[True]),
     "coactions entry must be a non-negative integer, got True"),
    ("face", _key_element(1, _TRIVIAL, perm=[1.0]),
     "perm entry must be a non-negative integer, got 1.0"),
    ("cohomology", {"kind": "root_cone", "rank": 1.5, "cap": 1},
     "rank must be a non-negative integer, got 1.5"),
    ("dH", _key_element(1, {"kind": "root_cone", "rank": 2, "cap": True},
                        decor=[[0, 0]]),
     "cap must be a non-negative integer, got True"),
    ("dH", _key_element(1, {"kind": "root_cone_mod", "rank": 2, "cap": 1,
                            "allowed": [[0, 0], [0.5, 0.5]]},
                        decor=[[0, 0]]),
     "allowed coordinate must be a non-negative integer, got 0.5"),
], ids=["n-string", "n-float", "n-bool", "n-negative", "part-slot-count",
        "part-monoid", "order-negative", "vertex-string", "vertex-bool",
        "key-negative", "key-bool", "key-float", "rank-float", "cap-bool",
        "allowed-float"])
def test_malformed_integers_are_parse_errors(tmp_path, command, data,
                                             message):
    ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
    ok.write_text(json.dumps(_series(2, 2, _TRIVIAL, {"0": _unit(2)})))
    bad.write_text(json.dumps(data))
    args = {"solve-gauge": [str(ok), str(bad)], "face": [str(bad), "0"],
            "cohomology": ["--monoid", json.dumps(data)]
            }.get(command, [str(bad)])
    proc = run_cli([command, *args])
    assert proc.returncode == 2
    assert proc.stderr == f"parse error: ValueError: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("monoid", ['{bad', '{"kind": "nope"}', '[1]'],
                         ids=["malformed-json", "unknown-kind", "not-object"])
def test_malformed_monoid_is_parse_error(monoid):
    proc = run_cli(["cohomology", "--monoid", monoid])
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: ")
    assert proc.stdout == ""


def test_invalid_bialgebra_exit_code(tmp_path):
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps(kappa(1, 1).to_json()))
    bad = borel_sl2().to_json()
    bad["bracket"][0][0][1] = "1"  # breaks antisymmetry
    bia = tmp_path / "bia.json"
    bia.write_text(json.dumps(bad))
    proc = run_cli(["realize", str(elt), str(bia)])
    assert proc.returncode == 4


def _short_vectors(data):
    data["bracket"] = [[vec[:1] for vec in plane] for plane in data["bracket"]]


def _missing_row(data):
    del data["cobracket"][1][1]


def _short_weights(data):
    data["weights"] = data["weights"][:1]


def _string_weight(data):
    data["weights"] = [["x"], [1]]


def _nested_weight(data):
    data["weights"] = [[0], [[1]]]


@pytest.mark.parametrize("malform, message", [
    (_short_vectors, "bracket must be 2 x 2 x 2"),
    (_missing_row, "cobracket must be 2 matrices of 2 x 2"),
    (_short_weights, "1 weights for dimension 2"),
    (_string_weight,
     "weight 0 entry 0 must be a non-negative integer, got 'x'"),
    (_nested_weight,
     "weight 1 entry 0 must be a non-negative integer, got [1]"),
], ids=["short-bracket-vectors", "missing-cobracket-row", "short-weights",
        "string-weight", "nested-weight"])
def test_malformed_bialgebra_is_parse_error(tmp_path, malform, message):
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps(kappa(1, 1).to_json()))
    data = borel_sl2().to_json()
    malform(data)
    bia = tmp_path / "bia.json"
    bia.write_text(json.dumps(data))
    proc = run_cli(["realize", str(elt), str(bia)])
    assert proc.returncode == 2
    assert proc.stderr == f"parse error: ValueError: {message}\n"


def test_realize_kappa(tmp_path):
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps(kappa(1, 1).to_json()))
    bia = tmp_path / "bia.json"
    bia.write_text(json.dumps(borel_sl2().to_json()))
    proc = run_cli(["realize", str(elt), str(bia)], check=True)
    matrix = json.loads(proc.stdout)["matrix"]
    assert matrix[1][1] == "6"  # hand-checked contraction entry


def test_nested_sets_command(tmp_path):
    dia = tmp_path / "a3.json"
    dia.write_text(json.dumps(
        {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    proc = run_cli(["nested-sets", str(dia)], check=True)
    assert json.loads(proc.stdout)["count"] == 5


def test_quotient_command(tmp_path):
    dia = tmp_path / "a3.json"
    dia.write_text(json.dumps(
        {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    proc = run_cli(["quotient-diagram", str(dia), "2"], check=True)
    assert json.loads(proc.stdout) == {"vertices": [1, 3],
                                       "edges": [[1, 3]]}


def test_km_build_command(tmp_path):
    gcm = tmp_path / "gcm.json"
    gcm.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]], "cap": 2}))
    proc = run_cli(["km-build", str(gcm)], check=True)
    data = json.loads(proc.stdout)
    assert data["dim"] == 7 and data["windowed_validation"] == "ok"


def test_km_build_rejects_bad_gcm(tmp_path):
    gcm = tmp_path / "gcm.json"
    gcm.write_text(json.dumps(
        {"cartan": [[2, -1, -2], [-1, 2, -1], [-1, -1, 2]], "cap": 2}))
    proc = run_cli(["km-build", str(gcm)])
    assert proc.returncode == 4


@pytest.mark.parametrize("gcm, code", [
    pytest.param({"cartan": [[2, -1]]}, 4, id="not-square"),
    pytest.param({"cartan": [[3]], "symmetrizers": [1]}, 4, id="diagonal-3"),
    pytest.param({"cartan": [[2, -1], [-1, 2]], "symmetrizers": [-1, -1]}, 4,
                 id="negative-symmetrizers"),
    pytest.param({"cartan": [[2]], "symmetrizers": [1.5]}, 4,
                 id="float-symmetrizer"),
    pytest.param({"cartan": [[2]], "symmetrizers": [1, 2]}, 4,
                 id="symmetrizer-too-many"),
    pytest.param({"cartan": [[2, -1], [-1, 2]], "symmetrizers": [0, 0]}, 4,
                 id="zero-symmetrizers"),
    pytest.param({"cartan": [[2, -1], [-1]]}, 4, id="ragged"),
    pytest.param({"cartan": [[2, -1], [-1, 2]], "cap": "2"}, 2,
                 id="string-cap"),
    pytest.param({"cartan": [[2]], "cap": 0}, 4, id="cap-zero"),
    pytest.param({"cartan": [[2]], "cap": -1}, 4, id="cap-negative"),
    pytest.param({"cartan": []}, 4, id="empty-cartan"),
])
def test_km_build_malformed_input(tmp_path, gcm, code):
    path = tmp_path / "gcm.json"
    path.write_text(json.dumps(gcm))
    proc = run_cli(["km-build", str(path)])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def test_verify_suites_and_unknown():
    proc = run_cli(["verify", "cybe"], check=True)
    assert json.loads(proc.stdout)["assertions"][0]["ok"]
    proc = run_cli(["verify", "no-such-suite"])
    assert proc.returncode == 2


def test_deterministic_output(tmp_path):
    dia = tmp_path / "a3.json"
    dia.write_text(json.dumps(
        {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    one = run_cli(["nested-sets", str(dia)], check=True).stdout
    two = run_cli(["nested-sets", str(dia)], check=True).stdout
    assert one == two


def test_config_file_sets_text_format(tmp_path):
    dia = tmp_path / "a3.json"
    dia.write_text(json.dumps(
        {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "text", "no-such-flag": 1}))
    via_config = run_cli(["--config", str(config), "nested-sets", str(dia)],
                         check=True).stdout
    via_flag = run_cli(["--format", "text", "nested-sets", str(dia)],
                       check=True).stdout
    assert via_config.startswith("count: 5\nnested_sets:\n")
    assert via_config == via_flag


def test_dh_and_face_commands(tmp_path):
    elt = tmp_path / "k.json"
    elt.write_text(json.dumps(kappa(1, 1).to_json()))
    proc = run_cli(["dH", str(elt)], check=True)
    from dyalg.algebra import AlgebraElement, hochschild_d
    got = AlgebraElement.from_json(json.loads(proc.stdout))
    assert got == hochschild_d(kappa(1, 1))
    proc = run_cli(["invariant-check", str(elt)], check=True)
    assert json.loads(proc.stdout) == {"invariant": False}


def test_associator_check_command():
    proc = run_cli(["--max-degree", "2", "associator-check"], check=True)
    assert all(r["ok"] for r in json.loads(proc.stdout))


# each case has an explicit id, so adding a case or changing a message
# renames no other case; the first ten keep the names pytest gave them
# when the ids were still generated from list position and message
@pytest.mark.parametrize("args, message", [
    pytest.param(["nested-sets", "{empty}"], "empty diagram",
                 id="args0-empty diagram"),
    pytest.param(["--max-degree", "4", "associator-check"],
                 "size guard: order <= 3",
                 id="args1-size guard: order <= 3"),
    pytest.param(["--max-degree", "-1", "associator-check"],
                 "order must be a non-negative integer, got -1",
                 id="args2-order must be a non-negative integer, got -1"),
    pytest.param(["solve-gauge", "{zero}", "{zero}"],
                 "twist must start at the unit",
                 id="args3-twist must start at the unit"),
    pytest.param(["--window", "-1", "cohomology"],
                 "window must be a non-negative integer, got -1",
                 id="args4-window must be a non-negative integer, got -1"),
    pytest.param(["--max-degree", "4", "--window", "3", "cohomology",
                  "--monoid", '{{"kind": "split"}}'],
                 "size guard: strand degree <= 4, window <= 8 and target "
                 "slice dimension <= 200000",
                 id="args5-size guard: strand degree <= 4, window <= 8 and "
                    "target slice dimension <= 200000"),
    pytest.param(["realize", "{nothing}", "{borel}"],
                 "a 0-slot element acts on no module",
                 id="args6-a 0-slot element acts on no module"),
    pytest.param(["realize", "{scalar}", "{borel}"],
                 "a 0-slot element acts on no module",
                 id="args7-a 0-slot element acts on no module"),
    pytest.param(["coxeter-check", "{empty}"], "empty diagram",
                 id="args8-empty diagram"),
    pytest.param(["--max-degree", "-1", "coxeter-check", "{a1}"],
                 "order must be a non-negative integer, got -1",
                 id="args9-order must be a non-negative integer, got -1"),
])
def test_invalid_input_exits_4_without_traceback(tmp_path, args, message):
    files = {
        "empty": {"vertices": [], "edges": []},
        "a1": {"vertices": [1], "edges": []},
        "zero": {"n": 2, "order": 2, "monoid": {"kind": "trivial"},
                 "parts": {}},
        "nothing": {"n": 0, "monoid": {"kind": "trivial"}, "terms": []},
        "scalar": (2 * AlgebraElement.unit(0)).to_json(),
        "borel": borel_sl2().to_json()}
    for name, data in files.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    proc = run_cli([a.format(**files) for a in args])
    assert proc.returncode == 4
    assert proc.stderr == f"validation failure: {message}\n"
    assert proc.stdout == ""


def test_refused_cohomology_run_computes_nothing(monkeypatch, capsys):
    # the guard refuses every requested strand degree before any is computed
    from dyalg import cli, cohomology
    calls = []
    built = cohomology.differential_columns
    monkeypatch.setattr(cohomology, "differential_columns",
                        lambda *args: calls.append(args) or built(*args))
    for args in (["--max-degree", "4", "--window", "4", "cohomology",
                  "--monoid", '{"kind": "split"}'],
                 ["--max-degree", "5", "--window", "3", "cohomology"]):
        assert cli.main(args) == 4
        assert calls == []
    assert capsys.readouterr().out == ""
    assert cli.main(["--max-degree", "1", "--window", "2", "cohomology"]) == 0
    assert calls


def test_gauge_obstruction_exits_1(tmp_path):
    from dyalg.cohomology import harmonic_complement
    from dyalg.monoids import SPLIT
    from dyalg.series import GradedSeries
    j0 = GradedSeries.one(2, 2, SPLIT)
    mu = harmonic_complement(2, 2, SPLIT)[1][0]
    left, right = tmp_path / "j0.json", tmp_path / "j1.json"
    left.write_text(json.dumps(j0.to_json()))
    right.write_text(json.dumps(
        (j0 + GradedSeries.of_element(mu, 2)).to_json()))
    proc = run_cli(["solve-gauge", str(left), str(right)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("assertion failure: obstruction")
    assert "Traceback" not in proc.stderr


def test_coxeter_check_command(tmp_path):
    dia = tmp_path / "a2.json"
    dia.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]]}))
    proc = run_cli(["coxeter-check", str(dia)], check=True)
    summary = json.loads(proc.stdout)
    assert all(v["failures"] == 0 for v in summary.values())


def test_config_value_of_wrong_type_is_parse_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"window": "x"}))
    proc = run_cli(["--config", str(config), "cohomology"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: ")
    config.write_text(json.dumps({"format": "yaml"}))
    proc = run_cli(["--config", str(config), "associator-check"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: ")


def test_config_ignores_keys_that_are_not_global_flags(tmp_path):
    dia = tmp_path / "a3.json"
    dia.write_text(json.dumps(
        {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fn": 1, "command": "verify"}))
    via_config = run_cli(["--config", str(config), "nested-sets", str(dia)],
                         check=True).stdout
    plain = run_cli(["nested-sets", str(dia)], check=True).stdout
    assert via_config == plain


def test_command_line_flag_beats_config(tmp_path, monkeypatch, capsys):
    from dyalg import cli, suites
    monkeypatch.setitem(suites.SUITES, "seed-echo", lambda seed: {
        "seed": seed, "assertions": [{"ok": True}]})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3}))

    def seed_of(args):
        assert cli.main(args) == 0
        return json.loads(capsys.readouterr().out)["seed"]

    assert seed_of(["--config", str(config), "verify", "seed-echo"]) == 3
    assert seed_of(["--config", str(config), "--seed", "5", "verify",
                    "seed-echo"]) == 5
    assert seed_of(["--seed", "5", "--config", str(config), "verify",
                    "seed-echo"]) == 5


COMMANDS = ("multiply", "dH", "face", "invariant-check", "cohomology",
            "nested-sets", "quotient-diagram", "realize", "km-build",
            "associator-check", "solve-gauge", "coxeter-check", "verify")


@pytest.mark.parametrize("columns", ["30", "80", "200"])
def test_help_and_errors_match_stock_argparse(columns, monkeypatch, capsys):
    import argparse
    from dyalg import cli
    monkeypatch.setenv("COLUMNS", columns)

    def texts():
        out = []
        for args in (["--help"], *([c, "--help"] for c in COMMANDS),
                     ["--format", "xml", "verify", "cybe"]):
            with pytest.raises(SystemExit) as exit_:
                cli.main(args)
            out.append((args, exit_.value.code, capsys.readouterr()))
        return out

    lazy = texts()
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    stock = texts()
    assert lazy == stock
    # the top-level help lists every subcommand, and the error is argparse's
    assert all(c in stock[0][2].out for c in COMMANDS)
    assert stock[-1][1] == 2 and "invalid choice: 'xml'" in stock[-1][2].err
