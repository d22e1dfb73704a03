import itertools
import random

import pytest

from dyalg.diagrams import (Diagram, compatible, connected_subdiagrams,
                            lift_subdiagram, maximal_nested_sets, mns_union,
                            orthogonal, quotient_diagram)


def is_nested_set(members, dia: Diagram) -> bool:
    """The oracle for maximal_nested_sets: connected, pairwise compatible
    members that include every connected component."""
    ms = [frozenset(m) for m in members]
    for m in ms:
        if not dia.induced(m).is_connected():
            return False
    for m1, m2 in itertools.combinations(ms, 2):
        if not compatible(m1, m2, dia):
            return False
    return all(c in ms for c in dia.components())


def test_compatibility_on_a3():
    a3 = Diagram.path(3)
    assert compatible({1}, {3}, a3)
    assert not compatible({1}, {2, 3}, a3)
    assert compatible({2}, {2}, a3)
    with pytest.raises(ValueError):
        compatible({1}, {9}, a3)


def test_compatible_symmetric():
    a4 = Diagram.path(4)
    subs = connected_subdiagrams(a4)
    for b1, b2 in itertools.combinations(subs, 2):
        assert compatible(b1, b2, a4) == compatible(b2, b1, a4)


def test_maximal_nested_set_counts():
    for n, want in ((1, 1), (2, 2), (3, 5), (4, 14)):
        assert len(maximal_nested_sets(Diagram.path(n))) == want


def test_maximal_nested_sets_cardinality_and_structure():
    for n in (2, 3, 4):
        dia = Diagram.path(n)
        for f in maximal_nested_sets(dia):
            assert len(f) == n
            assert is_nested_set(f, dia)


def test_nested_sets_product_over_components():
    # two disjoint paths: counts multiply, every member family splits
    dia = Diagram.make([1, 2, 3, 10, 11], [(1, 2), (2, 3), (10, 11)])
    mns = maximal_nested_sets(dia)
    assert len(mns) == 5 * 2
    comps = set(dia.components())
    for f in mns:
        assert comps <= f


def test_nested_set_closed_under_removing_non_components():
    dia = Diagram.path(3)
    for f in maximal_nested_sets(dia):
        comps = set(dia.components())
        for member in f:
            if member in comps:
                continue
            assert is_nested_set(f - {member}, dia)


def test_quotient_examples():
    a3 = Diagram.path(3)
    q = quotient_diagram(a3, {2})
    assert q.to_json() == {"vertices": [1, 3], "edges": [[1, 3]]}
    q = quotient_diagram(a3, {3})
    assert q.to_json() == {"vertices": [1, 2], "edges": [[1, 2]]}
    assert quotient_diagram(a3, set()) == a3
    with pytest.raises(ValueError):
        quotient_diagram(a3, {1, 2, 3})


def _quotient_reference(dia: Diagram, sub: frozenset) -> Diagram:
    # independent re-spelling of the definition
    comps = dia.induced(sub).components()
    verts = dia.vertices - sub
    edges = []
    for i in sorted(verts):
        for j in sorted(verts):
            if i >= j:
                continue
            direct = dia.has_edge(i, j)
            through = any(
                not orthogonal(frozenset([i]), c, dia)
                and not orthogonal(frozenset([j]), c, dia) for c in comps)
            if direct or through:
                edges.append((i, j))
    return Diagram.make(verts, edges)


def test_quotient_against_reference_on_random_diagrams():
    rng = random.Random(20240809)
    for _ in range(50):
        nv = rng.randint(2, 6)
        verts = list(range(1, nv + 1))
        edges = [e for e in itertools.combinations(verts, 2)
                 if rng.random() < 0.5]
        dia = Diagram.make(verts, edges)
        size = rng.randint(0, nv - 1)
        sub = frozenset(rng.sample(verts, size))
        assert quotient_diagram(dia, sub) == _quotient_reference(dia, sub)


def test_mns_union_restriction_and_injectivity_on_a3_chains():
    dia = Diagram.path(3)
    verts = sorted(dia.vertices)
    chains = []
    for r2 in range(1, 4):
        for b2 in itertools.combinations(verts, r2):
            for r1 in range(1, r2):
                for b1 in itertools.combinations(b2, r1):
                    for r0 in range(r1):
                        for b0 in itertools.combinations(b1, r0):
                            chains.append((frozenset(b2), frozenset(b1),
                                           frozenset(b0)))
    assert chains
    for b2, b1, b0 in chains:
        quot_big = quotient_diagram(dia.induced(b2), b0)
        quot_up = quotient_diagram(dia.induced(b2), b1)
        quot_down = quotient_diagram(dia.induced(b1), b0)
        if not quot_up.vertices or not quot_down.vertices:
            continue
        seen = {}
        for f in maximal_nested_sets(quot_up):
            for g in maximal_nested_sets(quot_down):
                union = mns_union(f, g, dia, b2, b1, b0)
                assert union in set(maximal_nested_sets(quot_big))
                # restriction recovers the lower factor
                restricted = frozenset(m for m in union
                                       if m <= quot_down.vertices)
                assert restricted == frozenset(g)
                assert union not in seen, "union must be injective"
                seen[union] = (f, g)


def test_mns_union_chain_mismatch():
    dia = Diagram.path(3)
    with pytest.raises(ValueError):
        mns_union(frozenset(), frozenset(), dia,
                  frozenset({1}), frozenset({2}), frozenset())


def test_json_round_trip():
    dia = Diagram.make([3, 1, 2], [(1, 2), (2, 3)])
    assert Diagram.from_json(dia.to_json()) == dia


def test_diagrams_are_values_and_validated():
    dia = Diagram.make([1, 2, 3], [(1, 2), (2, 3)])
    same = Diagram.make([3, 2, 1], [(3, 2), (2, 1)])
    assert dia == same and hash(dia) == hash(same)
    assert {dia: "a3"}[same] == "a3"
    assert dia != Diagram.make([1, 2, 3], [(1, 2)])
    with pytest.raises(ValueError):
        Diagram.make([1, 2, 3], [(1, 2, 3)])  # not a pair
    with pytest.raises(ValueError):
        Diagram.make([1, 2], [(2, 3)])  # leaves the vertex set
