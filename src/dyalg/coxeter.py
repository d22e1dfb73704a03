"""Coxeter-type families of relative twists over a diagram.

A family assigns to nested pairs of subdiagrams and maximal nested sets on
their quotients: associators, relative twists, and the connecting gauges.
The checker recomputes every axiom residual at a fixed truncation order:
relative twist equations, the gauge relations, orientation, transitivity,
factorisation, and vertical decomposition of twists along chains.

Decorated elements live in a cone monoid; identities for windowed sums of
decorated one-strand diagrams hold exactly below the weight window and the
checker filters residuals accordingly (the window is part of the family
data).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import AlgebraElement, cone_elements, filter_window, kappa
from .diagrams import (Diagram, lift_subdiagram, maximal_nested_sets,
                       mns_union, quotient_diagram)
from .monoids import TRIVIAL, RootCone
from .series import GradedSeries
from .twists import gauge, residual_row, twist_equation_residual


def subdiagram_pairs(dia: Diagram) -> list[tuple[frozenset, frozenset]]:
    """Nested pairs (B, B0) of subdiagram vertex sets with B0 proper."""
    if not dia.vertices:
        raise ValueError("empty diagram")
    verts = sorted(dia.vertices)
    out = []
    for r in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            b = frozenset(sub)
            for r0 in range(r):
                for sub0 in itertools.combinations(sorted(b), r0):
                    out.append((b, frozenset(sub0)))
    return out


def check_coxeter_family(data: dict, dia: Diagram,
                         order: int) -> list[dict]:
    """Axiom residual report for a family.

    ``data`` holds "phi": {B: 3-slot series}, "twists": {(B, B0, F):
    2-slot series}, "dcp": {(B, B0, F, G): 1-slot series}, and optionally
    "window" for decorated residual filtering.  Missing entries referenced
    by an axiom raise KeyError.
    """
    window = data.get("window")
    phis, dcp = data["phi"], data["dcp"]
    report = []

    def row(check: str, indices, resid: GradedSeries) -> None:
        resid = resid.truncate(order)
        if window is not None:
            resid = resid.map_components(lambda x: filter_window(x, window))
        report.append(residual_row(check, resid,
                                   indices=tuple(map(sorted, indices))))

    # twist equations; the same sorted pass groups each pair's twists in
    # str(F) order, the order of the chain rows
    by_pair: dict = {}
    for (b, b0, f), j in sorted(data["twists"].items(),
                                key=lambda kv: (sorted(map(sorted, kv[0][:2])),
                                                str(kv[0][2]))):
        row("twist-equation", (b, b0),
            twist_equation_residual(j, phis[b], phis[b0]))
        by_pair.setdefault((b, b0), {})[f] = j
    pairs = sorted(by_pair, key=lambda p: (sorted(p[0]), sorted(p[1])))
    gauges = {}
    for b, b0 in pairs:
        fam = by_pair[b, b0]
        mns = sorted(fam, key=lambda f: sorted(sorted(m) for m in f))
        u = gauges[b, b0] = {(f, g): dcp[(b, b0, f, g)]
                            for f, g in itertools.product(mns, repeat=2)}
        for f, g in itertools.product(mns, repeat=2):
            row("gauge-relation", (b, b0), gauge(u[f, g], fam[g]) - fam[f])
            row("orientation", (b, b0), u[f, g] * u[g, f]
                - GradedSeries.one(1, order, u[f, g].monoid))
        for f, g, h in itertools.product(mns, repeat=3):
            row("transitivity", (b, b0), u[h, f] - u[h, g] * u[g, f])
    # chains b > b1 > b2: vertical decomposition and factorisation
    for (b, b1), (b1b, b2) in itertools.product(pairs, repeat=2):
        if b1b != b1 or (b, b1) == (b1b, b2):
            continue
        if (b, b2) not in by_pair:
            raise KeyError("missing twists for composed pair")
        upper, lower, total = by_pair[b, b1], by_pair[b1, b2], by_pair[b, b2]
        for f1, f2 in itertools.product(upper, lower):
            f_union = mns_union(f1, f2, dia, b, b1, b2)
            if f_union not in total:
                raise KeyError("missing twist at a union nested set")
            row("vertical", (b, b1, b2),
                total[f_union] - upper[f1] * lower[f2])
            for g1, g2 in itertools.product(upper, lower):
                g_union = mns_union(g1, g2, dia, b, b1, b2)
                row("factorisation", (b, b1, b2),
                    gauges[b, b2][f_union, g_union]
                    - gauges[b, b1][f1, g1] * gauges[b1, b2][f2, g2])
    return report


def build_unit_family(dia: Diagram, order: int, monoid=None) -> dict:
    """The trivial weak structure: unit associators, twists and gauges.

    Satisfies every axiom exactly; exercises the full indexing machinery
    (all nested pairs, maximal nested sets, unions along chains).
    """
    monoid = monoid or TRIVIAL
    return _family_from_gauges(
        dia, monoid, order,
        lambda support: GradedSeries.one(1, order, monoid))


def build_central_family(dia: Diagram, order: int) -> dict:
    """Gauges built from series in the central Casimir strand.

    Per-subdiagram central gauges commute, so the connecting-gauge axioms
    (orientation, transitivity, factorisation) and the per-pair rows
    (twist equation for the trivial associator, gauge relations) hold
    exactly.  Vertical decomposition of the twists themselves requires a
    genuine relative twist and is not satisfied by gauged-trivial data.
    """
    def gauge_of(support: frozenset) -> GradedSeries:
        c = Fraction(1, 1 + sum(support))
        k = GradedSeries.of_element(kappa(1, 1), order)
        return GradedSeries.one(1, order, TRIVIAL) + c * k + (c * c) * (k * k)

    return _family_from_gauges(dia, TRIVIAL, order, gauge_of)


def build_test_family(dia: Diagram, monoid: RootCone, window: int,
                      order: int) -> dict:
    """A decorated family synthesized by gauging the trivial solution.

    Gauges are series in windowed sums of decorated Casimir strands over a
    subdiagram's cone.  The per-pair axioms hold exactly; vertical
    decomposition requires a genuine relative twist and is not claimed.
    """
    def kappa_sum(support: frozenset) -> AlgebraElement:
        out = AlgebraElement.zero(1, monoid)
        for alpha in cone_elements(monoid, set(support), window):
            if sum(alpha) == 0:
                continue
            out = out + kappa(1, 1, monoid, decor=alpha)
        return out

    def gauge_of(support: frozenset) -> GradedSeries:
        c = Fraction(1, 1 + sum(support))
        one = GradedSeries.one(1, order, monoid)
        return one + c * GradedSeries.of_element(kappa_sum(support), order)

    family = _family_from_gauges(dia, monoid, order, gauge_of)
    family["window"] = window
    return family


def _family_from_gauges(dia: Diagram, monoid, order: int,
                        gauge_of) -> dict:
    def u_of_nested_set(b0: frozenset, f) -> GradedSeries:
        out = GradedSeries.one(1, order, monoid)
        for member in sorted(f, key=sorted):
            out = out * gauge_of(lift_subdiagram(member, dia, b0))
        return out

    phis = {}
    twists = {}
    dcp = {}
    one3 = GradedSeries.one(3, order, monoid)
    for b, b0 in subdiagram_pairs(dia):
        phis.setdefault(b, one3)
        phis.setdefault(b0, one3)
        us, inverses = {}, {}
        for f in maximal_nested_sets(quotient_diagram(dia.induced(b), b0)):
            u = u_of_nested_set(b0, f)
            us[f] = u
            inverses[f] = u.inverse()
            twists[(b, b0, f)] = gauge(u, GradedSeries.one(2, order, monoid))
        for f, g in itertools.product(us, repeat=2):
            dcp[(b, b0, f, g)] = us[f] * inverses[g]
    return {"phi": phis, "twists": twists, "dcp": dcp, "window": None}
