import itertools

import pytest

from dyalg.coxeter import (build_central_family, build_test_family,
                           build_unit_family, check_coxeter_family,
                           subdiagram_pairs)
from dyalg.diagrams import (Diagram, lift_subdiagram, maximal_nested_sets,
                            quotient_diagram)
from dyalg.monoids import RootCone
from dyalg.series import GradedSeries

A2 = Diagram.path(2)
A3 = Diagram.path(3)


def test_unit_family_passes_everything_on_a3():
    fam = build_unit_family(A3, 2)
    report = check_coxeter_family(fam, A3, 2)
    assert report and all(r["ok"] for r in report)
    checks = {r["check"] for r in report}
    assert checks == {"twist-equation", "gauge-relation", "orientation",
                      "transitivity", "vertical", "factorisation"}


def test_central_family_passes_everything():
    for dia in (A2, A3):
        fam = build_central_family(dia, 2)
        report = check_coxeter_family(fam, dia, 2)
        assert all(r["ok"] for r in report), [r for r in report
                                              if not r["ok"]][:3]


def test_central_family_exercises_all_five_nested_sets():
    fam = build_central_family(A3, 2)
    full = frozenset(A3.vertices)
    top = {f for (b, b0, f) in fam["twists"] if b == full and not b0}
    assert len(top) == 5
    fac_rows = [r for r in check_coxeter_family(fam, A3, 2)
                if r["check"] == "factorisation"]
    assert fac_rows and all(r["ok"] for r in fac_rows)


def test_decorated_family_per_pair_axioms():
    fam = build_test_family(A2, RootCone(2, 8), window=2, order=2)
    report = check_coxeter_family(fam, A2, 2)
    for r in report:
        if r["check"] in ("twist-equation", "gauge-relation", "orientation",
                          "transitivity"):
            assert r["ok"], r


def test_seeded_orientation_violation_reported():
    from dyalg.algebra import kappa
    fam = build_central_family(A2, 2)
    (b, b0, f, g) = next(k for k in fam["dcp"] if k[2] != k[3])
    bump = GradedSeries.of_element(kappa(1, 1), 2)
    fam["dcp"][(b, b0, f, g)] = fam["dcp"][(b, b0, f, g)] + bump
    report = check_coxeter_family(fam, A2, 2)
    assert any(r["check"] == "orientation" and not r["ok"] for r in report)


def test_missing_entries_raise():
    fam = build_central_family(A2, 2)
    full = frozenset(A2.vertices)
    key = next(k for k in fam["twists"] if k[0] == full and not k[1])
    del fam["twists"][key]
    with pytest.raises(KeyError):
        check_coxeter_family(fam, A2, 2)


def _closure(dia, member, b0):
    """Member plus every component of b0 reachable through adjacency,
    iterated until nothing more attaches."""
    comps = dia.induced(b0).components()
    out = set(member)
    changed = True
    while changed:
        changed = False
        for c in comps:
            if not c <= out and any(dia.has_edge(i, j)
                                    for i in out for j in c):
                out |= c
                changed = True
    return frozenset(out)


def _diagrams_up_to(n_max):
    """One diagram on 1..n per isomorphism class, for n <= n_max."""
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            canon = min(tuple(sorted(tuple(sorted((perm[i - 1], perm[j - 1])))
                                     for i, j in edges))
                        for perm in itertools.permutations(range(1, n + 1)))
            if canon not in seen:
                seen.add(canon)
                yield Diagram.make(range(1, n + 1), edges)


def test_gauge_lift_is_the_iterated_closure():
    # the components of b0 are pairwise non-adjacent, so one pass of the
    # closure, which is lift_subdiagram, already reaches all of them
    diagrams = grown = 0
    for dia in _diagrams_up_to(5):
        diagrams += 1
        for b, b0 in subdiagram_pairs(dia):
            quot = quotient_diagram(dia.induced(b), b0)
            if not quot.vertices:
                continue
            for f in maximal_nested_sets(quot):
                for member in f:
                    lift = lift_subdiagram(member, dia, b0)
                    assert lift == _closure(dia, member, b0)
                    grown += lift != member
    # 52 isomorphism classes; a lift takes in some component 26,669 times
    assert (diagrams, grown) == (52, 26669)
