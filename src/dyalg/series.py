"""Degree-truncated series over the diagram algebras.

A series holds homogeneous components indexed by strand degree, up to a
truncation order; components beyond the order are unknown and silently
absent.  Arithmetic truncates to the smaller order of the operands.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import AlgebraElement, add_product, face_map, slot_permute
from .monoids import DecorationMonoid, TRIVIAL
from .permutations import _natural


class GradedSeries:
    __slots__ = ("n", "monoid", "order", "parts")

    def __init__(self, n: int, order: int,
                 monoid: DecorationMonoid = TRIVIAL,
                 parts: dict[int, AlgebraElement] | None = None):
        self.n = n
        self.order = _natural(order, "order")
        self.monoid = monoid
        self.parts = {}
        for d, x in (parts or {}).items():
            if x.n != n or x.monoid != monoid:
                raise ValueError(f"part {d} is not in the series' algebra "
                                 f"(n = {n}, {monoid.name} monoid)")
            if d <= order and not x.is_zero():
                if x.degrees() - {d}:
                    raise ValueError("component is not homogeneous")
                self.parts[d] = x

    @staticmethod
    def one(n: int, order: int,
            monoid: DecorationMonoid = TRIVIAL) -> "GradedSeries":
        return GradedSeries(n, order, monoid,
                            {0: AlgebraElement.unit(n, monoid)})

    @staticmethod
    def zero(n: int, order: int,
             monoid: DecorationMonoid = TRIVIAL) -> "GradedSeries":
        return GradedSeries(n, order, monoid)

    @staticmethod
    def of_element(x: AlgebraElement, order: int) -> "GradedSeries":
        parts = {d: x.graded_component(d) for d in x.degrees()}
        return GradedSeries(x.n, order, x.monoid, parts)

    def component(self, d: int) -> AlgebraElement:
        return self.parts.get(d, AlgebraElement.zero(self.n, self.monoid))

    def truncate(self, order: int) -> "GradedSeries":
        return GradedSeries(self.n, min(order, self.order), self.monoid,
                            {d: x for d, x in self.parts.items()
                             if d <= order})

    def __add__(self, other: "GradedSeries", sign: int = 1
                ) -> "GradedSeries":
        order = min(self.order, other.order)
        return GradedSeries(self.n, order, self.monoid, {
            d: self.component(d).__add__(other.component(d), sign)
            for d in range(order + 1)})

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self.__add__(other, -1)

    def __rmul__(self, scalar) -> "GradedSeries":
        if isinstance(scalar, (int, Fraction)):
            return GradedSeries(self.n, self.order, self.monoid,
                                {d: scalar * x for d, x in self.parts.items()})
        return NotImplemented

    def __mul__(self, other) -> "GradedSeries":
        if isinstance(other, (int, Fraction)):
            return other * self
        order = min(self.order, other.order)
        parts = {}
        # one integer accumulator per degree, over the lcm of its products
        for d in range(order + 1):
            xys = [(x, other.parts[d - e]) for e, x in self.parts.items()
                   if d - e in other.parts]
            den = math.lcm(*[x.den * y.den for x, y in xys])
            acc: dict = {}
            for x, y in xys:
                add_product(acc, x, y, den // (x.den * y.den))
            parts[d] = AlgebraElement.from_integers(self.n, self.monoid, acc,
                                                    den)
        return GradedSeries(self.n, order, self.monoid, parts)

    def _power_sum(self, coeff) -> "GradedSeries":
        """1 + sum over k >= 1 of coeff(k) * self**k, for a series with no
        degree-0 part (so the powers vanish past the order)."""
        out = power = GradedSeries.one(self.n, self.order, self.monoid)
        for k in range(1, self.order + 1):
            power = power * self
            if not power.parts:
                break
            out = out + coeff(k) * power
        return out

    def inverse(self) -> "GradedSeries":
        """Inverse of a series whose degree-0 part is the unit."""
        if self.component(0) != AlgebraElement.unit(self.n, self.monoid):
            raise ValueError("leading term is not the unit")
        rest = GradedSeries(self.n, self.order, self.monoid,
                            {d: x for d, x in self.parts.items() if d > 0})
        return rest._power_sum(lambda k: Fraction((-1) ** k))

    def exp(self) -> "GradedSeries":
        """Exponential of a series with no degree-0 part."""
        if self.parts.get(0):
            raise ValueError("exponent must have zero constant term")
        return self._power_sum(lambda k: Fraction(1, math.factorial(k)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return all(self.component(d) == other.component(d)
                   for d in range(order + 1))

    def is_zero(self) -> bool:
        return not self.parts

    def __repr__(self) -> str:
        if not self.parts:
            return f"O(deg>{self.order})"
        bits = [f"[{d}] {x}" for d, x in sorted(self.parts.items())]
        return " + ".join(bits) + f" + O(deg>{self.order})"

    def map_components(self, fn, n_new: int | None = None) -> "GradedSeries":
        parts = {d: fn(x) for d, x in self.parts.items()}
        return GradedSeries(n_new if n_new is not None else self.n,
                            self.order, self.monoid, parts)

    def to_json(self) -> dict:
        return {"n": self.n, "order": self.order,
                "monoid": self.monoid.to_json(),
                "parts": {str(d): x.to_json()
                          for d, x in sorted(self.parts.items())}}

    @staticmethod
    def from_json(data: dict) -> "GradedSeries":
        from .monoids import monoid_from_json
        n = _natural(data["n"], "n")
        monoid = monoid_from_json(data["monoid"])
        parts = {}
        for d, x in data["parts"].items():
            if not (d.isdecimal() and str(int(d)) == d):
                raise ValueError("part key must be a non-negative integer "
                                 "in decimal without leading zeros, "
                                 f"got {d!r}")
            parts[int(d)] = AlgebraElement.from_json(x)
        return GradedSeries(n, data["order"], monoid, parts)


def series_face(i: int, s: GradedSeries) -> GradedSeries:
    return s.map_components(lambda x: face_map(i, x), n_new=s.n + 1)


def series_slot_permute(s: GradedSeries, perm: tuple) -> GradedSeries:
    return s.map_components(lambda x: slot_permute(x, perm))
