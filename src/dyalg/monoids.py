"""Strand decoration monoids.

Every strand of a normally ordered diagram carries one element of a fixed
decoration monoid D.  Multiplying diagrams pushes decorations through
bracket and cobracket nodes: a bracket adds the decorations of its two
inputs, a cobracket emitted below a decorated strand enumerates the finite
set of two-part decompositions.  The four monoids used here:

* ``Trivial``      -- one element; undecorated diagrams.
* ``Split``        -- the idempotent monoid {0, 1} (0 = distinguished
                      sub-bialgebra, 1 = complement); 0+0=0 and any sum
                      involving 1 is 1, so 1 decomposes as (0,1), (1,0)
                      and (1,1).
* ``RootCone``     -- the free cone N^l truncated at a total-weight cap;
                      sums that would exceed the cap raise, they are never
                      silently dropped.
* ``RootConeMod``  -- RootCone together with a finite allowed set (the
                      nonnegative roots of a root system plus 0); elements
                      outside the allowed set generate the ideal killed by
                      the quotient projection.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from .permutations import _natural


@functools.cache
def _cone_decompositions(a: tuple) -> tuple:
    """All ordered pairs (b, c) of multiweights with b + c = a.  The cap of
    a cone plays no part: every part of a weight within the cap is within
    it too."""
    ranges = [range(x + 1) for x in a]
    return tuple((b, tuple(x - y for x, y in zip(a, b)))
                 for b in itertools.product(*ranges))


class TruncationOverflow(ValueError):
    """A decoration sum exceeded the configured weight cap."""


class DecorationMonoid:
    """Interface shared by the concrete monoids below.  A monoid is a value:
    two monoids are equal when they are of the same class and have the same
    :meth:`key`."""

    name: str = "abstract"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"{type(self).__name__}{self.key()[1:]}"

    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def elements(self) -> list:
        """All monoid elements, in canonical order (finite by construction)."""
        raise NotImplementedError

    def decompositions(self, a) -> Sequence[tuple]:
        """All ordered pairs (b, c) with b + c = a."""
        raise NotImplementedError

    def is_trivial(self) -> bool:
        return False

    def key(self):
        """Hashable identity used by structure-constant caches."""
        return (self.name,)

    def to_json(self) -> dict:
        return {"kind": self.name}


class Trivial(DecorationMonoid):
    name = "trivial"

    def zero(self):
        return 0

    def add(self, a, b):
        return 0

    def elements(self):
        return [0]

    def decompositions(self, a):
        return [(0, 0)]

    def is_trivial(self):
        return True


class Split(DecorationMonoid):
    name = "split"

    def zero(self):
        return 0

    def add(self, a, b):
        return a | b

    def elements(self):
        return [0, 1]

    def decompositions(self, a):
        if a == 0:
            return [(0, 0)]
        return [(0, 1), (1, 0), (1, 1)]


class RootCone(DecorationMonoid):
    """Multiweights in N^rank with total weight bounded by ``cap``."""

    name = "root_cone"

    def __init__(self, rank: int, cap: int):
        self.rank = rank
        self.cap = cap

    def zero(self):
        return (0,) * self.rank

    def add(self, a, b):
        c = tuple(x + y for x, y in zip(a, b))
        if sum(c) > self.cap:
            raise TruncationOverflow(
                f"decoration weight {sum(c)} exceeds cap {self.cap}")
        return c

    def elements(self):
        out = []
        for total in range(self.cap + 1):
            for c in itertools.product(range(total + 1), repeat=self.rank):
                if sum(c) == total:
                    out.append(c)
        return out

    def decompositions(self, a):
        return _cone_decompositions(a)

    def key(self):
        return (self.name, self.rank, self.cap)

    def to_json(self):
        return {"kind": self.name, "rank": self.rank, "cap": self.cap}


class RootConeMod(DecorationMonoid):
    """RootCone plus the finite set of allowed decorations R+ u {0}.

    Arithmetic happens in the ambient cone; :func:`quotient_allowed` is the
    projection that kills every diagram with a strand outside the allowed
    set.
    """

    name = "root_cone_mod"

    def __init__(self, rank: int, cap: int, allowed: frozenset):
        self.rank = rank
        self.cap = cap
        self.allowed = allowed
        for a in allowed:
            if len(a) != self.rank or sum(a) > self.cap:
                raise ValueError(f"allowed element {a} violates rank/cap")

    def _cone(self) -> RootCone:
        return RootCone(self.rank, self.cap)

    def zero(self):
        return (0,) * self.rank

    def add(self, a, b):
        return self._cone().add(a, b)

    @functools.cached_property
    def _sorted_allowed(self) -> tuple:
        return tuple(sorted(self.allowed))

    def elements(self):
        return list(self._sorted_allowed)

    def decompositions(self, a):
        return _cone_decompositions(a)

    def is_allowed(self, a) -> bool:
        return a in self.allowed

    def key(self):
        return (self.name, self.rank, self.cap, self._sorted_allowed)

    def to_json(self):
        return {"kind": self.name, "rank": self.rank, "cap": self.cap,
                "allowed": [list(a) for a in self._sorted_allowed]}


TRIVIAL = Trivial()
SPLIT = Split()


def monoid_from_json(data: dict) -> DecorationMonoid:
    kind = data["kind"]
    if kind == "trivial":
        return TRIVIAL
    if kind == "split":
        return SPLIT
    if kind not in ("root_cone", "root_cone_mod"):
        raise ValueError(f"unknown monoid kind {kind!r}")
    rank, cap = _natural(data["rank"], "rank"), _natural(data["cap"], "cap")
    if kind == "root_cone":
        return RootCone(rank, cap)
    allowed = set()
    for a in data["allowed"]:
        if type(a) is not list:
            raise ValueError(f"allowed entry must be a list, got {a!r}")
        allowed.add(tuple([_natural(x, "allowed coordinate") for x in a]))
    return RootConeMod(rank, cap, frozenset(allowed))
