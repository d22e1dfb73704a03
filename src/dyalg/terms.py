"""Slice terms: serializable composites of generators awaiting straightening.

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
to zero; only those can be straightened to the canonical basis.
"""

from __future__ import annotations

import random

from .monoids import DecorationMonoid, TRIVIAL, monoid_from_json
from .permutations import block_starts
from .rewrite import _Term, Scheduler, straighten_graph
from .algebra import AlgebraElement, Key


def leg_count(slices: list, n: int) -> int:
    """Final number of open legs; raises on ill-typed composites."""
    p = 0
    for sl in slices:
        kind = sl[0]
        if kind == "coaction":
            _check_slot(sl[1], n)
            p += 1
        elif kind == "action":
            _check_slot(sl[1], n)
            if p < 1:
                raise ValueError("action with no open leg")
            p -= 1
        elif kind == "mu":
            if p < 2:
                raise ValueError("bracket needs two open legs")
            p -= 1
        elif kind == "delta":
            if p < 1:
                raise ValueError("cobracket needs an open leg")
            p += 1
        elif kind == "perm":
            if sorted(sl[1]) != list(range(1, p + 1)):
                raise ValueError("permutation does not match leg count")
        elif kind == "decor":
            if not 1 <= sl[1] <= p:
                raise ValueError("decoration position out of range")
        else:
            raise ValueError(f"unknown slice kind {kind!r}")
    return p


def _check_slot(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"slot {k} out of range 1..{n}")


def slices_of_key(key: Key, decorated: bool) -> list:
    """The slice form of a basis key (see :mod:`dyalg.algebra`).

    The coactions come first, in slot-block order, so the prefix lists the
    legs by coaction position.  The actions are applied slot by slot and,
    within a slot, from the last action position to the first; since an
    action consumes the rightmost leg, one permutation moves the leg of the
    r-th applied action (counting from 0) to prefix position N - r.  With
    ``decorated`` set, each strand's decoration sits on that position.
    """
    co, ac, perm, dec = key
    N = len(perm)
    applied = [p for start, a in zip(block_starts(ac), ac)
               for p in reversed(range(start, start + a))]
    target = [0] * N  # prefix position of the leg with action position p
    for r, p in enumerate(applied):
        target[p] = N - r
    slices: list = [("coaction", k + 1)
                    for k, c in enumerate(co) for _ in range(c)]
    slices.append(("perm", tuple(target[s - 1] for s in perm)))
    if decorated:
        slices.extend(("decor", target[p], dec[p]) for p in applied)
    slices.extend(("action", k + 1)
                  for k, a in enumerate(ac) for _ in range(a))
    return slices


def term_graph(slices: list, n: int) -> _Term:
    """Build the rewriting graph of an endomorphism-typed slice term."""
    if leg_count(slices, n) != 0:
        raise ValueError("term is not an endomorphism of the module slots")
    t = _Term(n)
    prefix: list = []  # producer port per open leg, leftmost first
    decor: dict = {}
    for sl in slices:
        kind = sl[0]
        if kind == "coaction":
            cid = t.fresh("c")
            t.lines[sl[1] - 1].append(cid)
            prefix.append(("c", cid))
        elif kind == "action":
            aid = t.fresh("a")
            t.lines[sl[1] - 1].append(aid)
            prod = prefix.pop()
            t.connect(prod, ("a", aid), decor.pop(prod, None))
        elif kind == "mu":
            mid = t.fresh("m")
            y = prefix.pop()
            x = prefix.pop()
            t.connect(x, ("m", mid, 0), decor.pop(x, None))
            t.connect(y, ("m", mid, 1), decor.pop(y, None))
            prefix.append(("m", mid))
        elif kind == "delta":
            did = t.fresh("d")
            x = prefix.pop()
            t.connect(x, ("d", did), decor.pop(x, None))
            prefix.extend([("d", did, 0), ("d", did, 1)])
        elif kind == "perm":
            sigma = sl[1]
            new = [None] * len(prefix)
            for q, prod in enumerate(prefix):
                new[sigma[q] - 1] = prod
            prefix = new
        elif kind == "decor":
            prod = prefix[sl[1] - 1]
            old = decor.get(prod)
            if old is not None and old != sl[2]:
                # orthogonal idempotents compose to zero: encode by a
                # decoration pair that no monoid element matches
                decor[prod] = None
                return None
            decor[prod] = sl[2]
    return t


def straighten(slices: list, n: int, monoid: DecorationMonoid = TRIVIAL,
               scheduler: Scheduler | None = None) -> AlgebraElement:
    """Normal ordering of a slice term to the canonical basis."""
    graph = term_graph(slices, n)
    if graph is None:
        return AlgebraElement.zero(n, monoid)
    terms = straighten_graph(graph, monoid, scheduler)
    return AlgebraElement(n, monoid, terms)


def term_to_json(slices: list, n: int,
                 monoid: DecorationMonoid = TRIVIAL) -> dict:
    nodes = []
    for sl in slices:
        node = {"kind": sl[0]}
        if sl[0] in ("coaction", "action"):
            node["slot"] = sl[1]
        elif sl[0] == "perm":
            node["perm"] = list(sl[1])
        elif sl[0] == "decor":
            node["position"] = sl[1]
            node["alpha"] = list(sl[2]) if isinstance(sl[2], tuple) else sl[2]
        nodes.append(node)
    return {"n": n, "monoid": monoid.to_json(), "nodes": nodes}


def term_from_json(data: dict) -> tuple[list, int, DecorationMonoid]:
    slices = []
    for node in data["nodes"]:
        kind = node["kind"]
        if kind in ("coaction", "action"):
            slices.append((kind, node["slot"]))
        elif kind in ("mu", "delta"):
            slices.append((kind,))
        elif kind == "perm":
            slices.append((kind, tuple(node["perm"])))
        elif kind == "decor":
            alpha = node["alpha"]
            slices.append((kind, node["position"],
                           tuple(alpha) if isinstance(alpha, list) else alpha))
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    monoid = monoid_from_json(data["monoid"])
    return slices, data["n"], monoid


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
