"""Named assertion suites for the batch front door.

Each suite runs a fixed set of exact checks and returns machine-readable
pass/fail rows.  The suites are smaller cousins of the full acceptance
tests so they stay interactive.  Each suite imports what it runs, so that
``dyalg verify SUITE`` loads only the modules of that suite."""

from __future__ import annotations

import random
from fractions import Fraction


def _row(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def suite_cybe(seed: int = 0) -> dict:
    from .algebra import r_matrix
    r12, r13, r23 = (r_matrix(3, 1, 2), r_matrix(3, 1, 3), r_matrix(3, 2, 3))
    lhs = (r12.commutator(r13) + r12.commutator(r23)
           + r13.commutator(r23))
    return {"suite": "cybe",
            "assertions": [_row("classical-Yang-Baxter", lhs.is_zero())]}


def suite_tt(seed: int = 0) -> dict:
    from .algebra import omega
    rows = []
    rows.append(_row("[O12,O13+O23]",
                     omega(3, 1, 2).commutator(
                         omega(3, 1, 3) + omega(3, 2, 3)).is_zero()))
    rows.append(_row("[O12,O34]",
                     omega(4, 1, 2).commutator(omega(4, 3, 4)).is_zero()))
    return {"suite": "tt-relations", "assertions": rows}


def suite_kappa_central(seed: int = 0) -> dict:
    from .algebra import AlgebraElement, enumerate_basis, kappa
    k = kappa(1, 1)
    rows = []
    for deg in range(4):
        ok = all((k * AlgebraElement.basis(1, b)
                  - AlgebraElement.basis(1, b) * k).is_zero()
                 for b in enumerate_basis(1, deg))
        rows.append(_row(f"kappa-central-degree-{deg}", ok))
    ksum = kappa(2, 1) + kappa(2, 2)
    ok = all(ksum.commutator(AlgebraElement.basis(2, b)).is_zero()
             for deg in range(3) for b in enumerate_basis(2, deg))
    rows.append(_row("kappa-sum-central-two-slots", ok))
    return {"suite": "kappa-central", "assertions": rows}


def suite_coproduct_omega(seed: int = 0) -> dict:
    from .algebra import face_map, omega
    rows = []
    om = {(i, j): omega(3, i, j) for i in range(1, 4)
          for j in range(1, 4) if i != j}
    base = omega(2, 1, 2)
    expected = {
        0: om[(2, 3)],
        1: om[(1, 3)] + om[(2, 3)],
        2: om[(1, 2)] + om[(1, 3)],
        3: om[(1, 2)],
    }
    for k, want in expected.items():
        rows.append(_row(f"face-{k}-of-omega", face_map(k, base) == want))
    return {"suite": "coproduct-omega", "assertions": rows}


def suite_d_squared(seed: int = 0) -> dict:
    from .algebra import AlgebraElement, enumerate_basis, hochschild_d
    rows = []
    for n in (1, 2):
        for deg in (0, 1, 2):
            ok = all(hochschild_d(hochschild_d(
                AlgebraElement.basis(n, b))).is_zero()
                for b in enumerate_basis(n, deg))
            rows.append(_row(f"d-squared-n{n}-deg{deg}", ok))
    return {"suite": "d-squared", "assertions": rows}


def suite_cohomology(seed: int = 0) -> dict:
    from .cohomology import cohomology_table
    from .monoids import TRIVIAL
    rows = []
    for deg in (1, 2):
        for r in cohomology_table(deg, 2, TRIVIAL):
            if r["n"] <= 1:
                rows.append(_row(f"H{r['n']}-vanishes-deg{deg}",
                                 r["dim_H"] == 0,
                                 f"dim={r['dim_H']}"))
            elif r["oracle"] is not None:
                rows.append(_row(f"H{r['n']}-oracle-deg{deg}",
                                 bool(r["match"]),
                                 f"dim={r['dim_H']} oracle={r['oracle']}"))
    return {"suite": "cohomology", "assertions": rows}


def suite_realization(seed: int = 0) -> dict:
    from .algebra import kappa
    from .bialgebra import (adjoint_module, borel_sl2, dense_of_sparse,
                            evaluate, evaluate_slices, matmul)
    from .terms import random_term, straighten
    rng = random.Random(seed)
    bia = borel_sl2()
    adj = adjoint_module(bia)
    rows = []
    k = kappa(1, 1)
    rows.append(_row("kappa-squared-matrices",
                     evaluate(k * k, [adj])
                     == matmul(evaluate(k, [adj]), evaluate(k, [adj]))))
    ok = True
    for _ in range(10):
        slices = random_term(1, rng, max_nodes=5)
        elt = straighten(slices, 1)
        direct = dense_of_sparse(evaluate_slices(slices, 1, bia, [adj]),
                                 [adj])
        ok = ok and direct == evaluate(elt, [adj])
    rows.append(_row("random-terms-match-direct-evaluation", ok))
    return {"suite": "realization", "assertions": rows}


def suite_gauge_roundtrip(seed: int = 0) -> dict:
    from .algebra import AlgebraElement, enumerate_basis
    from .monoids import SPLIT
    from .series import GradedSeries
    from .twists import gauge, solve_gauge
    rng = random.Random(seed)
    rows = []
    order = 2
    one3 = GradedSeries.one(3, order, SPLIT)
    j0 = GradedSeries.one(2, order, SPLIT)
    ok = True
    for _ in range(3):
        parts = {}
        for d in (1, 2):
            keys = enumerate_basis(1, d, SPLIT)
            parts[d] = AlgebraElement(
                1, SPLIT, {keys[rng.randrange(len(keys))]:
                           Fraction(rng.randint(1, 3))})
        u = GradedSeries.one(1, order, SPLIT) + GradedSeries(
            1, order, SPLIT, parts)
        ok = ok and solve_gauge(j0, gauge(u, j0), one3) == u
    rows.append(_row("gauge-roundtrip-order-2", ok))
    return {"suite": "gauge-roundtrip", "assertions": rows}


def suite_nested_sets(seed: int = 0) -> dict:
    from .diagrams import Diagram, maximal_nested_sets
    rows = []
    for n, want in ((1, 1), (2, 2), (3, 5)):
        got = len(maximal_nested_sets(Diagram.path(n)))
        rows.append(_row(f"path-{n}-count", got == want,
                         f"got={got} want={want}"))
    return {"suite": "nested-sets", "assertions": rows}


def suite_coxeter(seed: int = 0) -> dict:
    from .coxeter import build_central_family, check_coxeter_family
    from .diagrams import Diagram
    dia = Diagram.path(2)
    fam = build_central_family(dia, 2)
    report = check_coxeter_family(fam, dia, 2)
    rows = [_row("central-family-axioms",
                 all(r["ok"] for r in report),
                 f"{len(report)} residual rows")]
    return {"suite": "coxeter-axioms", "assertions": rows}


def suite_associator(seed: int = 0) -> dict:
    from .twists import associator_2jet, check_associator_axioms
    report = check_associator_axioms(associator_2jet(3), 3)
    rows = [_row(f"associator-{r['check']}", r["ok"]) for r in report]
    return {"suite": "associator-axioms", "assertions": rows}


SUITES = {
    "cybe": suite_cybe,
    "tt-relations": suite_tt,
    "kappa-central": suite_kappa_central,
    "coproduct-omega": suite_coproduct_omega,
    "d-squared": suite_d_squared,
    "cohomology": suite_cohomology,
    "realization": suite_realization,
    "gauge-roundtrip": suite_gauge_roundtrip,
    "nested-sets": suite_nested_sets,
    "coxeter-axioms": suite_coxeter,
    "associator-axioms": suite_associator,
}
