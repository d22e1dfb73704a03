"""Diagrams (simple undirected graphs), nested sets, and quotient diagrams.

Subdiagrams are always full subgraphs, so a subdiagram is identified with
its vertex set.  Two subdiagrams are compatible when one contains the other
or they are orthogonal (disjoint and not joined by any edge).  A nested set
is a pairwise compatible family of connected subdiagrams containing every
connected component; the maximal ones index the chamber combinatorics used
by the gauge and twist layer.
"""

from __future__ import annotations

import itertools


class Diagram:
    """A simple graph: a frozenset of vertices and a frozenset of edges, each
    a frozenset pair.  Equal vertex and edge sets make equal diagrams."""

    def __init__(self, vertices: frozenset, edges: frozenset):
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {set(e)} is not a pair")
            if not e <= vertices:
                raise ValueError(f"edge {set(e)} leaves the vertex set")
        self.vertices = vertices
        self.edges = edges

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        data = self.to_json()
        return f"Diagram.make({data['vertices']}, {data['edges']})"

    @staticmethod
    def make(vertices, edges) -> "Diagram":
        return Diagram(frozenset(vertices),
                       frozenset(frozenset(e) for e in edges))

    @staticmethod
    def path(n: int) -> "Diagram":
        """The type-A path 1 - 2 - ... - n."""
        return Diagram.make(range(1, n + 1),
                            [(i, i + 1) for i in range(1, n)])

    def has_edge(self, i, j) -> bool:
        return frozenset((i, j)) in self.edges

    def induced(self, vertices) -> "Diagram":
        vs = frozenset(vertices)
        if not vs <= self.vertices:
            raise ValueError("vertex not in diagram")
        return Diagram(vs, frozenset(e for e in self.edges if e <= vs))

    def neighbors(self, v) -> set:
        return {w for e in self.edges if v in e for w in e if w != v}

    def components(self) -> list[frozenset]:
        """Connected components as vertex sets, sorted."""
        remaining = set(self.vertices)
        comps = []
        while remaining:
            seed = next(iter(remaining))
            comp, frontier = {seed}, [seed]
            while frontier:
                v = frontier.pop()
                for w in self.neighbors(v):
                    if w not in comp:
                        comp.add(w)
                        frontier.append(w)
            comps.append(frozenset(comp))
            remaining -= comp
        return sorted(comps, key=sorted)

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def to_json(self) -> dict:
        return {"vertices": sorted(self.vertices),
                "edges": sorted(sorted(e) for e in self.edges)}

    @staticmethod
    def from_json(data: dict) -> "Diagram":
        vertices, edges = data["vertices"], data["edges"]
        for v in itertools.chain(vertices, *edges):
            if type(v) is not int or v < 0:
                raise ValueError(f"vertex {v!r} is not a non-negative integer")
        return Diagram.make(vertices, edges)


def orthogonal(b1: frozenset, b2: frozenset, dia: Diagram) -> bool:
    """Disjoint vertex sets with no connecting edge of the ambient diagram."""
    if b1 & b2:
        return False
    return not any(dia.has_edge(i, j) for i in b1 for j in b2)


def compatible(b1, b2, dia: Diagram) -> bool:
    """One contains the other, or they are orthogonal.

    >>> a3 = Diagram.path(3)
    >>> compatible({1}, {3}, a3), compatible({1}, {2, 3}, a3)
    (True, False)
    """
    b1, b2 = frozenset(b1), frozenset(b2)
    if not (b1 <= dia.vertices and b2 <= dia.vertices):
        raise ValueError("vertex not in diagram")
    return b1 <= b2 or b2 <= b1 or orthogonal(b1, b2, dia)


def connected_subdiagrams(dia: Diagram) -> list[frozenset]:
    """All nonempty connected full subdiagrams, as vertex sets."""
    out = []
    vs = sorted(dia.vertices)
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            if dia.induced(sub).is_connected():
                out.append(frozenset(sub))
    return out


def maximal_nested_sets(dia: Diagram) -> list[frozenset]:
    """All maximal nested sets, each a frozenset of vertex sets.

    Maximal nested sets are the maximal cliques of the compatibility graph
    on connected subdiagrams, enumerated by Bron-Kerbosch; fine for up to
    ~8 vertices.  The connected components are compatible with everything,
    so they sit in every maximal clique automatically.
    """
    if not dia.vertices:
        raise ValueError("empty diagram")
    cands = connected_subdiagrams(dia)
    adj = {c: {d for d in cands if d != c and compatible(c, d, dia)}
           for c in cands}
    found: list[frozenset] = []

    def bron_kerbosch(clique: set, pool: set, seen: set) -> None:
        if not pool and not seen:
            found.append(frozenset(clique))
            return
        for v in sorted(pool, key=sorted):
            bron_kerbosch(clique | {v}, pool & adj[v], seen & adj[v])
            pool = pool - {v}
            seen = seen | {v}

    bron_kerbosch(set(), set(cands), set())
    return sorted(found, key=lambda f: sorted(sorted(m) for m in f))


def quotient_diagram(dia: Diagram, sub) -> Diagram:
    """The diagram induced on the complement of ``sub``.

    Vertices: those outside ``sub``.  Vertices i != j are joined iff they
    are adjacent in the ambient diagram, or both are non-orthogonal to a
    common connected component of ``sub``.

    >>> sorted(sorted(e) for e in quotient_diagram(Diagram.path(3), {2}).edges)
    [[1, 3]]
    """
    sub = frozenset(sub)
    if sub == dia.vertices:
        raise ValueError("quotient by full diagram")
    if not sub <= dia.vertices:
        raise ValueError("vertex not in diagram")
    comps = dia.induced(sub).components()
    verts = dia.vertices - sub
    edges = set()
    for i, j in itertools.combinations(sorted(verts), 2):
        if dia.has_edge(i, j):
            edges.add((i, j))
            continue
        for c in comps:
            if (not orthogonal(frozenset([i]), c, dia)
                    and not orthogonal(frozenset([j]), c, dia)):
                edges.add((i, j))
                break
    return Diagram.make(verts, edges)


def lift_subdiagram(cbar: frozenset, dia: Diagram, sub) -> frozenset:
    """Lift a connected subdiagram of ``dia/sub`` back into ``dia``:
    its vertices together with every component of ``sub`` it is attached to.
    """
    sub = frozenset(sub)
    comps = dia.induced(sub).components()
    lift = set(cbar)
    for c in comps:
        if not orthogonal(frozenset(cbar), c, dia):
            lift |= c
    return frozenset(lift)


def mns_union(f, g, dia: Diagram, b2, b1, b0) -> frozenset:
    """Combine maximal nested sets on nested quotients.

    ``f`` lives on b2/b1, ``g`` on b1/b0 (b0 inside b1 inside b2, vertex
    sets of subdiagrams of ``dia``); the result lives on b2/b0 and restricts
    back to ``g`` on b1/b0.
    """
    b2, b1, b0 = frozenset(b2), frozenset(b1), frozenset(b0)
    if not (b0 <= b1 and b1 <= b2):
        raise ValueError("chain mismatch")
    big = quotient_diagram(dia.induced(b2), b0)
    lifted = {lift_subdiagram(c, big, b1 - b0) for c in f}
    return frozenset(lifted) | frozenset(g)
