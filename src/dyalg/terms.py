"""Slice terms: composites of generators awaiting straightening.

A term on n module slots is a list of slices applied left to right (in time
order) to the object (legs (x) V_1 (x) ... (x) V_n), with the open bialgebra
legs kept as an ordered prefix.  Slices:

    ("coaction", k)        emit a new leg at the right end of the prefix
    ("action", k)          consume the rightmost leg on slot k
    ("mu",)                combine the two rightmost legs (left one first)
    ("delta",)             split the rightmost leg into two (left, right)
    ("perm", sigma)        move the leg at position q to position sigma(q)
    ("decor", j, alpha)    decoration idempotent on the leg at position j

A term is an endomorphism of the module slots when its leg count returns
to zero; only those can be straightened to the canonical basis.  Slice terms
are the one way into straightening: the graph builder
(:func:`dyalg.rewrite.term_graph`) and the slice form of a basis key
(:func:`dyalg.rewrite.slices_of_key`) live in :mod:`dyalg.rewrite` beside
the engine, and products of basis keys go through the same slice form.
"""

from __future__ import annotations

import random

from .monoids import DecorationMonoid, TRIVIAL
from .rewrite import Scheduler, straighten_graph, term_graph
from .algebra import AlgebraElement


def straighten(slices: list, n: int, monoid: DecorationMonoid = TRIVIAL,
               scheduler: Scheduler | None = None) -> AlgebraElement:
    """Normal ordering of a slice term to the canonical basis."""
    graph = term_graph(slices, n)
    if graph is None:
        return AlgebraElement.zero(n, monoid)
    terms = straighten_graph(graph, monoid, scheduler)
    return AlgebraElement(n, monoid, terms)


def random_term(n: int, rng: random.Random, max_nodes: int = 6,
                monoid: DecorationMonoid = TRIVIAL) -> list:
    """A random endomorphism-typed slice term with at most ``max_nodes``
    generator nodes (permutations and decorations not counted)."""
    slices: list = []
    p = 0
    nodes = 0
    budget = rng.randint(2, max_nodes)
    while nodes < budget:
        if p > budget - nodes - 1:
            # must start draining to finish within budget
            moves = ["action"]
        else:
            moves = ["coaction"]
            if p >= 1:
                moves.append("action")
            if p >= 2:
                moves.extend(["mu", "perm"])
            if p >= 1:
                moves.append("delta")
            if p >= 1 and not monoid.is_trivial():
                moves.append("decor")
        move = rng.choice(moves)
        if move == "coaction":
            slices.append(("coaction", rng.randint(1, n)))
            p += 1
            nodes += 1
        elif move == "action":
            slices.append(("action", rng.randint(1, n)))
            p -= 1
            nodes += 1
        elif move == "mu":
            slices.append(("mu",))
            p -= 1
            nodes += 1
        elif move == "delta":
            slices.append(("delta",))
            p += 1
            nodes += 1
        elif move == "perm":
            sigma = list(range(1, p + 1))
            rng.shuffle(sigma)
            slices.append(("perm", tuple(sigma)))
        else:
            alpha = rng.choice(monoid.elements())
            slices.append(("decor", rng.randint(1, p), alpha))
    # drain any leftover legs with actions
    while p > 0:
        slices.append(("action", rng.randint(1, n)))
        p -= 1
    return slices
