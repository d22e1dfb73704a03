"""Batch command-line front door.

Subcommands parse JSON inputs, run one computation, and emit deterministic
JSON or aligned text.  Exit codes: 0 ok, 1 assertion failure, 2 parse
error, 3 algebra mismatch, 4 validation failure.

Each command imports the modules it runs inside its own function, so a
process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

OK, FAIL, PARSE, MISMATCH, INVALID = 0, 1, 2, 3, 4


def _decode(read, decode):
    """``decode(read())``.  An unreadable file, malformed JSON, JSON of the
    wrong shape, or a zero denominator is a parse error."""
    try:
        return decode(read())
    except (OSError, LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        print(f"parse error: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(PARSE)


def _load(path: str, decode):
    """Decode the JSON file ``path`` with ``decode`` (see :func:`_decode`)."""
    def read():
        with open(path) as fh:
            return json.load(fh)
    return _decode(read, decode)


def _object(data) -> dict:
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    return data


def _gcm(data) -> tuple:
    cap = data.get("cap", 2)
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise TypeError(f"cap must be an integer, got {cap!r}")
    return data["cartan"], cap, data.get("symmetrizers")


def _emit(data, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _emit_text(data)


def _emit_text(data, indent: int = 0) -> None:
    pad = " " * indent
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 2)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}{v}")
    else:
        print(f"{pad}{data}")


def cmd_multiply(args) -> int:
    from .algebra import AlgebraElement
    x = _load(args.left, AlgebraElement.from_json)
    y = _load(args.right, AlgebraElement.from_json)
    if x.n != y.n or x.monoid.key() != y.monoid.key():
        print("algebra mismatch", file=sys.stderr)
        return MISMATCH
    _emit((x * y).to_json(), args.format)
    return OK


def cmd_dh(args) -> int:
    from .algebra import AlgebraElement, hochschild_d
    x = _load(args.element, AlgebraElement.from_json)
    _emit(hochschild_d(x).to_json(), args.format)
    return OK


def cmd_face(args) -> int:
    from .algebra import AlgebraElement, face_map
    x = _load(args.element, AlgebraElement.from_json)
    if not 0 <= args.index <= x.n + 1:
        print("face index out of range", file=sys.stderr)
        return MISMATCH
    _emit(face_map(args.index, x).to_json(), args.format)
    return OK


def cmd_invariant_check(args) -> int:
    from .algebra import AlgebraElement, is_invariant
    x = _load(args.element, AlgebraElement.from_json)
    flag = is_invariant(x)
    _emit({"invariant": flag}, args.format)
    return OK


def cmd_cohomology(args) -> int:
    from .cohomology import _size_guard, cohomology_table
    from .monoids import TRIVIAL, monoid_from_json
    monoid = (_decode(lambda: json.loads(args.monoid), monoid_from_json)
              if args.monoid else TRIVIAL)
    degrees = range(1, args.max_degree + 1)
    for deg in degrees:  # refuse before computing any strand degree
        _size_guard(deg, args.window, monoid)
    rows = []
    for deg in degrees:
        rows.extend(cohomology_table(deg, args.window, monoid))
    flagged = [r for r in rows if r["n"] <= 1 and r["dim_H"] != 0]
    _emit({"table": rows,
           "low_degree_findings": flagged or "none"}, args.format)
    return OK if not flagged else FAIL


def cmd_nested_sets(args) -> int:
    from .diagrams import Diagram, maximal_nested_sets
    dia = _load(args.diagram, Diagram.from_json)
    mns = maximal_nested_sets(dia)
    out = {"count": len(mns),
           "nested_sets": [sorted(sorted(m) for m in f) for f in mns]}
    _emit(out, args.format)
    return OK


def cmd_quotient_diagram(args) -> int:
    from .diagrams import Diagram, quotient_diagram
    dia = _load(args.diagram, Diagram.from_json)
    quot = quotient_diagram(dia, set(args.vertices))
    _emit(quot.to_json(), args.format)
    return OK


def cmd_realize(args) -> int:
    from .algebra import AlgebraElement
    from .bialgebra import (LieBialgebraData, adjoint_module, evaluate,
                            trivial_module, validate_bialgebra)
    x = _load(args.element, AlgebraElement.from_json)
    bia = _load(args.bialgebra, LieBialgebraData.from_json)
    report = validate_bialgebra(bia)
    if report:
        _emit({"validation": report}, args.format)
        return INVALID
    mods = []
    for name in args.modules or ["adjoint"] * x.n:
        if name == "adjoint":
            mods.append(adjoint_module(bia))
        elif name == "trivial":
            mods.append(trivial_module(bia))
        else:
            print(f"unknown module {name!r}", file=sys.stderr)
            return PARSE
    if len(mods) != x.n:
        print("module count must match slots", file=sys.stderr)
        return MISMATCH
    matrix = evaluate(x, mods)
    _emit({"matrix": [[str(c) for c in row] for row in matrix]}, args.format)
    return OK


def cmd_km_build(args) -> int:
    from .kacmoody import build_kac_moody_borel, validate_bialgebra_windowed
    cartan, cap, symmetrizers = _load(args.gcm, _gcm)
    borel = build_kac_moody_borel(cartan, cap, symmetrizers)
    report = validate_bialgebra_windowed(borel, cap)
    _emit({"dim": borel.dim, "basis": borel.basis_names,
           "weights": borel.weights,
           "windowed_validation": report or "ok"}, args.format)
    return OK if not report else INVALID


def cmd_associator_check(args) -> int:
    from .twists import associator_2jet, check_associator_axioms
    phi = associator_2jet(args.max_degree)
    report = check_associator_axioms(phi, args.max_degree)
    _emit(report, args.format)
    return OK if all(r["ok"] for r in report) else FAIL


def cmd_solve_gauge(args) -> int:
    from .series import GradedSeries
    from .twists import solve_gauge
    j1 = _load(args.left, GradedSeries.from_json)
    j2 = _load(args.right, GradedSeries.from_json)
    phi = GradedSeries.one(3, j1.order, j1.monoid)
    u = solve_gauge(j1, j2, phi)
    _emit(u.to_json(), args.format)
    return OK


def cmd_coxeter_check(args) -> int:
    from .coxeter import (build_central_family, build_unit_family,
                          check_coxeter_family)
    from .diagrams import Diagram
    dia = _load(args.diagram, Diagram.from_json)
    fam = (build_central_family(dia, args.max_degree) if args.family ==
           "central" else build_unit_family(dia, args.max_degree))
    report = check_coxeter_family(fam, dia, args.max_degree)
    summary = {}
    for row in report:
        entry = summary.setdefault(row["check"], {"count": 0, "failures": 0})
        entry["count"] += 1
        entry["failures"] += 0 if row["ok"] else 1
    _emit(summary, args.format)
    return OK if all(v["failures"] == 0 for v in summary.values()) else FAIL


def cmd_verify(args) -> int:
    from . import suites
    if args.suite not in suites.SUITES:
        print(f"unknown suite {args.suite!r}; known: "
              f"{', '.join(sorted(suites.SUITES))}", file=sys.stderr)
        return PARSE
    results = suites.SUITES[args.suite](seed=args.seed)
    _emit(results, args.format)
    return OK if all(r["ok"] for r in results["assertions"]) else FAIL


def _apply_config(parser: argparse.ArgumentParser, flags: list,
                  config: dict) -> None:
    """Make the values in ``config`` of the global ``flags`` (argparse
    actions) the parser's defaults, so that a flag given on the command line
    still wins.  Each value is checked as the same text on the command line
    would be: converted through the option's type and matched against its
    choices.  Other keys are ignored."""
    actions = {a.dest: a for a in flags}
    defaults = {}
    for key, raw in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            continue
        try:
            value = (action.type or str)(str(raw))
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{value!r} is not one of "
                                 f"{', '.join(map(repr, action.choices))}")
        except ValueError as exc:
            print(f"parse error: config key {key!r}: {exc}", file=sys.stderr)
            raise SystemExit(PARSE)
        defaults[action.dest] = value
    parser.set_defaults(**defaults)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, reading the terminal width when it first
    formats text instead of when it is built.  argparse builds one in every
    ``add_argument`` only to check the nargs, and the stock constructor
    imports ``shutil`` (with ``bz2`` and ``lzma``) for the width; the width
    itself is the stock formatter's, so the text is the stock text."""

    def __init__(self, prog):
        super().__init__(prog, width=0)
        del self._width, self._max_help_position

    def __getattr__(self, name):
        if name not in ("_width", "_max_help_position"):
            raise AttributeError(name)
        stock = argparse.HelpFormatter(self._prog)
        self._width = stock._width
        self._max_help_position = stock._max_help_position
        return getattr(self, name)


def main(argv=None) -> int:
    new_parser = functools.partial(argparse.ArgumentParser,
                                   formatter_class=_HelpFormatter)
    config_parser = new_parser(add_help=False)
    config_parser.add_argument(
        "--config", default=None,
        help="JSON file with defaults for --format, --seed, --max-degree "
             "and --window; flags given on the command line win")
    parser = new_parser(
        prog="dyalg",
        description="exact computations in diagram algebras",
        parents=[config_parser])
    flags = [
        parser.add_argument("--format", choices=("json", "text"),
                            default="json"),
        parser.add_argument("--seed", type=int, default=0),
        parser.add_argument("--max-degree", type=int, default=2),
        parser.add_argument("--window", type=int, default=3)]
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=new_parser)

    p = sub.add_parser("multiply", help="product of two element files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_multiply)

    p = sub.add_parser("dH", help="Hochschild differential of an element")
    p.add_argument("element")
    p.set_defaults(fn=cmd_dh)

    p = sub.add_parser("face", help="single face map of an element")
    p.add_argument("element")
    p.add_argument("index", type=int)
    p.set_defaults(fn=cmd_face)

    p = sub.add_parser("invariant-check", help="commutant invariance test")
    p.add_argument("element")
    p.set_defaults(fn=cmd_invariant_check)

    p = sub.add_parser("cohomology", help="cohomology table vs oracle")
    p.add_argument("--monoid", default=None,
                   help="monoid JSON string; default undecorated")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("nested-sets", help="maximal nested sets of a diagram")
    p.add_argument("diagram")
    p.set_defaults(fn=cmd_nested_sets)

    p = sub.add_parser("quotient-diagram", help="quotient by a subdiagram")
    p.add_argument("diagram")
    p.add_argument("vertices", nargs="+", type=int)
    p.set_defaults(fn=cmd_quotient_diagram)

    p = sub.add_parser("realize", help="evaluate an element on modules")
    p.add_argument("element")
    p.add_argument("bialgebra")
    p.add_argument("--modules", nargs="*", default=None,
                   help="module names: adjoint or trivial, one per slot")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("km-build", help="build a truncated Kac-Moody Borel")
    p.add_argument("gcm", help='JSON: {"cartan": [[2,...]], "cap": 2}')
    p.set_defaults(fn=cmd_km_build)

    p = sub.add_parser("associator-check",
                       help="axioms of the quadratic-jet associator")
    p.set_defaults(fn=cmd_associator_check)

    p = sub.add_parser("solve-gauge", help="gauge between two twist files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_solve_gauge)

    p = sub.add_parser("coxeter-check", help="axiom report for a family")
    p.add_argument("diagram")
    p.add_argument("--family", choices=("unit", "central"), default="central")
    p.set_defaults(fn=cmd_coxeter_check)

    p = sub.add_parser("verify", help="run a named assertion suite")
    p.add_argument("suite")
    p.set_defaults(fn=cmd_verify)

    config = config_parser.parse_known_args(argv)[0].config
    if config:
        _apply_config(parser, flags, _load(config, _object))
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # a GaugeObstruction (a failed check, not bad input) can only come
        # from an imported dyalg.twists, so no import is needed to test it
        twists = sys.modules.get("dyalg.twists")
        failed = twists is not None and isinstance(exc,
                                                   twists.GaugeObstruction)
        print(f"{'assertion' if failed else 'validation'} failure: {exc}",
              file=sys.stderr)
        return FAIL if failed else INVALID


if __name__ == "__main__":
    raise SystemExit(main())
