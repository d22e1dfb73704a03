"""The ``cli`` workload: dyalg commands, each in a fresh process.

Every command that reads input files, and every ``verify`` suite (through
``--seed``), has ``VARIANTS`` seeded input variants.  A run draws one variant
per command from its seed, so the run's seed decides the inputs while
every input the program can see has a recorded reference output in
``reference/cli.json`` (exit code and stdout, byte for byte, recorded with
``record_reference.py`` at the commit that defined the benchmark).

Modes of this file, run in a fresh interpreter:

    python3 benchmark/cli_workload.py inputs PASSES.json DIR VARIANTS_JSON
        write the input files of the chosen variants (the set-up);
    python3 benchmark/cli_workload.py run PASSES.json [--trace SUMMARY.json]
            -- ARGS...
        run ``dyalg.cli.main(ARGS)``, as ``python3 -m dyalg.cli ARGS``
        does, optionally with the span wrappers installed.

Both modes run the host-speed sampler (``hostspeed.py``) from before dyalg
is imported until the end, and write its pass times to PASSES.json.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "cli.json")
VARIANTS = 4

SUITES = ("cybe", "tt-relations", "kappa-central", "coproduct-omega",
          "d-squared", "cohomology", "realization", "gauge-roundtrip",
          "nested-sets", "coxeter-axioms", "associator-axioms")

# The cohomology windows are cut down from the ones a full sweep would use:
# strand degree 3 on the cone monoid at window 3 takes about a minute, too
# long for a process that is run many times per measurement.
SPLIT = '{"kind": "split"}'
CONE = '{"kind": "root_cone", "rank": 2, "cap": 1}'
COHOMOLOGY = {
    "cohomology-trivial-w3": ["--max-degree", "3", "--window", "3",
                              "cohomology"],
    "cohomology-split-w2": ["--max-degree", "3", "--window", "2",
                            "cohomology", "--monoid", SPLIT],
    "cohomology-cone-w3": ["--max-degree", "2", "--window", "3",
                           "cohomology", "--monoid", CONE],
    "cohomology-trivial-w4": ["--max-degree", "2", "--window", "4",
                              "cohomology"],
}

# command name -> argv; "{name}" stands for an input file of the variant
FILE_COMMANDS = {
    "multiply": ["multiply", "{left}", "{right}"],
    "dH": ["dH", "{element}"],
    "face": ["face", "{element}", "{index}"],
    "realize": ["realize", "{element}", "{bialgebra}"],
    "solve-gauge": ["solve-gauge", "{left}", "{right}"],
    "coxeter-check": ["--max-degree", "2", "coxeter-check", "{diagram}",
                      "--family", "{family}"],
    "nested-sets": ["nested-sets", "{diagram}"],
    "km-build": ["km-build", "{gcm}"],
}


def command_names() -> list[str]:
    return ([f"verify-{s}" for s in SUITES] + list(COHOMOLOGY)
            + list(FILE_COMMANDS) + ["associator-check"])


def choose_variants(seed: int) -> dict[str, int]:
    rng = random.Random(f"cli:{seed}")
    return {name: rng.randrange(VARIANTS) for name in command_names()}


def argv_of(name: str, variant: int, work_dir: str) -> list[str]:
    """The dyalg arguments of one command; input files live in work_dir."""
    if name.startswith("verify-"):
        return ["--seed", str(variant), "verify", name[len("verify-"):]]
    if name in COHOMOLOGY:
        return list(COHOMOLOGY[name])
    if name == "associator-check":
        return ["--max-degree", "3", "associator-check"]
    with open(os.path.join(work_dir, f"{name}.json")) as fh:
        values = json.load(fh)["args"]
    return [a.format(**values) for a in FILE_COMMANDS[name]]


def check_output(name: str, variant: int, code: int, stdout: bytes,
                 reference: dict) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    problems = []
    want = reference[name][str(variant)]
    if code != want["exit"]:
        problems.append(f"exit {code}, reference {want['exit']}")
    if stdout != want["stdout"].encode():
        problems.append("stdout differs from the reference bytes")
    if name in COHOMOLOGY and not problems:
        for row in json.loads(stdout)["table"]:
            want_h = 0 if row["n"] <= 1 else row["oracle"]
            if want_h is not None and row["dim_H"] != want_h:
                problems.append(f"dim_H {row['dim_H']} != {want_h} at "
                                f"n={row['n']} degree={row['strand_degree']}")
    return problems


# -- input files (run in the set-up process) ---------------------------------


def _element_file(work_dir, name, key, element):
    path = os.path.join(work_dir, f"{name}-{key}.json")
    with open(path, "w") as fh:
        json.dump(element, fh)
    return path


def write_inputs(work_dir: str, variants: dict[str, int]) -> None:
    from fractions import Fraction

    from dyalg.algebra import AlgebraElement, enumerate_basis
    from dyalg.bialgebra import borel_sl2
    from dyalg.diagrams import Diagram
    from dyalg.monoids import SPLIT as SPLIT_MONOID, TRIVIAL
    from dyalg.series import GradedSeries
    from dyalg.twists import gauge

    def combination(rng, n, degree, monoid, size):
        keys = enumerate_basis(n, degree, monoid)
        return AlgebraElement(n, monoid, {
            k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for k in rng.sample(keys, min(size, len(keys)))})

    for name, variant in variants.items():
        if name not in FILE_COMMANDS:
            continue
        rng = random.Random(f"{name}:{variant}")
        files = {}
        if name == "multiply":
            files["left"] = combination(rng, 2, 1, TRIVIAL, 4).to_json()
            files["right"] = combination(rng, 2, 2, TRIVIAL, 6).to_json()
        elif name == "dH":
            files["element"] = combination(rng, 2, 2, SPLIT_MONOID,
                                           6).to_json()
        elif name == "face":
            files["element"] = combination(rng, 2, 2, TRIVIAL, 6).to_json()
        elif name == "realize":
            files["element"] = (combination(rng, 1, 1, TRIVIAL, 1)
                                + combination(rng, 1, 2, TRIVIAL, 2)).to_json()
            files["bialgebra"] = borel_sl2().to_json()
        elif name == "solve-gauge":
            parts = {d: combination(rng, 1, d, SPLIT_MONOID, 1)
                     for d in (1, 2)}
            u = GradedSeries.one(1, 2, SPLIT_MONOID) + GradedSeries(
                1, 2, SPLIT_MONOID, parts)
            j0 = GradedSeries.one(2, 2, SPLIT_MONOID)
            files["left"] = j0.to_json()
            files["right"] = gauge(u, j0).to_json()
        elif name == "coxeter-check":
            files["diagram"] = Diagram.path(2).to_json()
        elif name == "nested-sets":
            verts = list(range(1, 6))
            edges = [[i, j] for i in verts for j in verts
                     if i < j and (j == i + 1 or rng.random() < 0.3)]
            files["diagram"] = {"vertices": verts, "edges": edges}
        elif name == "km-build":
            files["gcm"] = {"cartan": [[[2]], [[2, -1], [-1, 2]],
                                       [[2, -1], [-2, 2]],
                                       [[2, -2], [-2, 2]]][variant],
                            "cap": 2}
        args = {key: _element_file(work_dir, name, key, data)
                for key, data in files.items()}
        if name == "face":
            args["index"] = str(rng.randint(0, 3))
        if name == "coxeter-check":
            args["family"] = ("central", "unit")[variant % 2]
        with open(os.path.join(work_dir, f"{name}.json"), "w") as fh:
            json.dump({"args": args}, fh)


def _run(summary_path: str | None, args: list[str]) -> int:
    tracer = None
    if summary_path is not None:
        import tracer as tracing
        tracer = tracing.install()
    import dyalg.cli
    try:
        code = dyalg.cli.main(args)
    except SystemExit as exc:  # _load exits with the parse-error code
        code = exc.code
    sys.stdout.flush()
    if tracer is not None:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


def _main(argv: list[str]) -> int:
    import hostspeed
    sampler = hostspeed.Sampler()
    sampler.start()
    mode, passes_path = argv[0], argv[1]
    try:
        if mode == "inputs":
            write_inputs(argv[2], json.loads(argv[3]))
            code = 0
        elif mode == "run":
            sep = argv.index("--")
            summary_path = (argv[argv.index("--trace") + 1]
                            if "--trace" in argv[:sep] else None)
            code = _run(summary_path, argv[sep + 1:])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sampler.stop()
        sampler.take()
        with open(passes_path, "w") as fh:
            json.dump(sampler.passes, fh)
    return code


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    raise SystemExit(_main(sys.argv[1:]))
