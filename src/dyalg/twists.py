"""Associators, relative twists, gauges, and the rigidity solvers.

Everything is truncated-series arithmetic over the diagram algebras.  The
gauge solver reconstructs, degree by degree, the unique gauge between two
solutions of the relative twist equation; the obstruction at each degree is
a cocycle whose harmonic part must vanish, and a nonzero harmonic part is
reported instead of being absorbed.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, beta_map, hochschild_d, omega
from .cohomology import NotClosed, decompose_cocycle
from .monoids import SPLIT, TRIVIAL
from .series import GradedSeries, series_face, series_slot_permute


def associator_2jet(order: int) -> GradedSeries:
    """1 + (commutator of the two adjacent symmetrized crossings)/24."""
    om12 = omega(3, 1, 2)
    om23 = omega(3, 2, 3)
    jet = Fraction(1, 24) * om12.commutator(om23)
    one = GradedSeries.one(3, order)
    return one + GradedSeries.of_element(jet, order)


def residual_row(check: str, series: GradedSeries, **fields) -> dict:
    """One axiom-report row: the residual's term count per degree, its
    first term (in the canonical key order) and whether it vanishes.
    ``fields`` (such as the indices of a family row) follow the name."""
    by_degree = {}
    first = None
    for d in sorted(series.parts):
        x = series.parts[d]
        by_degree[d] = len(x.num)
        if first is None:
            key, coeff = x.sorted_terms()[0]
            first = {"degree": d, "coeff": str(coeff), "key": repr(key)}
    return {"check": check, **fields, "ok": series.is_zero(),
            "residual_terms": by_degree, "first_offender": first}


def _split_top(s: GradedSeries, *others: GradedSeries
               ) -> tuple[GradedSeries, AlgebraElement]:
    """``(low, high)`` with s = low + high, for a residual that is a
    polynomial in the face images of s and of ``others``.

    N is the residual's order (the smallest order among s and ``others``)
    and m the lowest positive degree present in any of them up to N.  A
    component of s of degree above N - m can meet only degree-0 parts
    below order N, so when every degree-0 part is the unit it enters the
    residual linearly, through the alternating sum of its faces,
    ``hochschild_d``.  ``high`` is the sum of those components up to N and
    ``low`` keeps the others at s's order; with a degree-0 part other than
    the unit, or no positive degree at all, ``high`` is zero.
    """
    series = (s, *others)
    order = min(t.order for t in series)
    degrees = [d for t in series for d in t.parts if 0 < d <= order]
    high = AlgebraElement.zero(s.n, s.monoid)
    if not degrees or any(t.component(0) != AlgebraElement.unit(t.n, t.monoid)
                          for t in series):
        return s, high
    top = order - min(degrees)
    for d, x in s.parts.items():
        if top < d <= order:
            high = high + x
    return GradedSeries(s.n, s.order, s.monoid, {
        d: x for d, x in s.parts.items() if d <= top}), high


def check_associator_axioms(phi: GradedSeries, order: int | None = None
                            ) -> list[dict]:
    """Pentagon, both hexagons, duality, leading-terms shape, and the 2-jet
    condition, each reported with residual sizes per degree.  The crossings
    and the 2-jet are lifted to the associator's monoid by summing each
    strand over all decorations.

    When Φ's degree-0 part is not the unit, Φ has no inverse: the report
    then holds only the "shape" row, which fails, and the "pentagon" row,
    and leaves out the rows that need Φ⁻¹."""
    if phi.n != 3:
        raise ValueError("associator must live in 3 slots")
    order = phi.order if order is None else order
    if order > 3:
        raise ValueError("size guard: order <= 3")
    lift = {TRIVIAL: lambda x: x, SPLIT: beta_map}.get(phi.monoid)
    if lift is None:
        raise ValueError(f"no associator check on {phi.monoid!r}")
    phi = phi.truncate(order)
    report = [residual_row("shape", phi.truncate(1)
                           - GradedSeries.one(3, 1, phi.monoid))]

    # faces 0-4 of Phi are Phi^{2,3,4}, Phi^{12,3,4}, Phi^{1,23,4},
    # Phi^{1,2,34} and Phi^{1,2,3}; Phi's top degrees enter through
    # f3 + f1 - f0 - f2 - f4 = -d (see _split_top)
    low, high = _split_top(phi)
    f = [series_face(i, low) for i in range(5)]
    report.append(residual_row("pentagon", f[3] * f[1] - f[0] * f[2] * f[4]
                               - GradedSeries.of_element(hochschild_d(high),
                                                         phi.order)))

    if phi.component(0) != AlgebraElement.unit(3, phi.monoid):
        return report
    phi_inv = phi.inverse()
    # exp(Omega/2) once in two slots; faces are algebra maps, so its faces
    # 0-3 are exp of the crossings 23, (12)3, 1(23) and 12; 13 permutes 12
    e2 = (Fraction(1, 2) * GradedSeries.of_element(
        lift(omega(2, 1, 2)), order)).exp()
    e = [series_face(i, e2) for i in range(4)]
    p = series_slot_permute
    e13 = p(e[3], (1, 3, 2))
    # Drinfeld's hexagons with Phi^{312} and (Phi^{231})^-1: p moves slot k
    # to slot perm[k-1], so Phi^{312} (first factor in slot 3) is (3, 1, 2)
    hex1 = e[1] - (p(phi, (3, 1, 2)) * e13 * p(phi_inv, (1, 3, 2))
                   * e[0] * phi)
    report.append(residual_row("hexagon1", hex1))
    hex2 = e[2] - (p(phi_inv, (2, 3, 1)) * e13 * p(phi, (2, 1, 3))
                   * e[3] * phi_inv)
    report.append(residual_row("hexagon2", hex2))
    duality = series_slot_permute(phi, (3, 2, 1)) - phi_inv
    report.append(residual_row("duality", duality))
    jet = phi - GradedSeries(3, order, phi.monoid, {
        d: lift(x) for d, x in associator_2jet(order).parts.items()})
    report.append(residual_row("2jet", jet.truncate(2)))
    return report


# ---------------------------------------------------------------------------
# twists and gauges


def twist_conjugate(phi: GradedSeries, j: GradedSeries) -> GradedSeries:
    """The twisted associator J^23 J^{1,23} Phi (J^{12,3})^-1 (J^12)^-1;
    faces are algebra maps, so J is inverted once, then embedded."""
    if j.component(0) != AlgebraElement.unit(j.n, j.monoid):
        raise ValueError("twist must start at the unit")
    j_inv = j.inverse()
    return (series_face(0, j) * series_face(2, j) * phi
            * series_face(1, j_inv) * series_face(3, j_inv))


def twist_equation_residual(j: GradedSeries, phi_big: GradedSeries,
                            phi_small: GradedSeries) -> GradedSeries:
    """Residual of the relative twist equation in product form,
    J^23 J^{1,23} Phi_big - Phi_small J^12 J^{12,3}, where J^23, J^{12,3},
    J^{1,23} and J^12 are faces 0, 1, 2 and 3 of J.  J's top degrees
    enter through f0 - f1 + f2 - f3 = d (see ``_split_top``)."""
    low, high = _split_top(j, phi_big, phi_small)
    f = [series_face(i, low) for i in range(4)]
    return (f[0] * f[2] * phi_big - phi_small * f[3] * f[1]
            + GradedSeries.of_element(hochschild_d(high), j.order))


def gauge(u: GradedSeries, j: GradedSeries) -> GradedSeries:
    """(u (x) u) J (coproduct of u)^-1; a left group action on twists."""
    if u.n != 1 or j.n != 2:
        raise ValueError("gauge needs a 1-slot series acting on a 2-slot one")
    if u.component(0) != AlgebraElement.unit(1, u.monoid):
        raise ValueError("non-unit leading term")
    # the product drops every degree above j's order; the coproduct (face
    # 1) is an algebra map: it carries u^-1 to (du)^-1
    u = u.truncate(j.order)
    return (series_face(2, u) * series_face(0, u) * j
            * series_face(1, u.inverse()))


class GaugeObstruction(ValueError):
    """The inputs are not gauge equivalent: nonzero harmonic obstruction."""


def solve_gauge(j1: GradedSeries, j2: GradedSeries, phi: GradedSeries,
                order: int | None = None,
                phi_small: GradedSeries | None = None) -> GradedSeries:
    """The unique gauge u with gauge(u, j1) = j2, built degree by degree.

    Both inputs must satisfy the relative twist equation for ``phi`` (with
    ``phi_small`` defaulting to ``phi``) to the working order, which none
    of the four may fall short of; the discrepancy at each degree is
    closed, and its harmonic part must vanish or
    :class:`GaugeObstruction` is raised.
    """
    order = min(j1.order, j2.order) if order is None else order
    phi_small = phi if phi_small is None else phi_small
    for name, s in (("j1", j1), ("j2", j2), ("phi", phi),
                    ("phi_small", phi_small)):
        if s.order < order:
            raise ValueError(f"order {order} exceeds the order {s.order} "
                             f"of {name}")
    j1, j2 = j1.truncate(order), j2.truncate(order)
    for j in (j1, j2):
        if j.component(0) != AlgebraElement.unit(2, j.monoid):
            raise ValueError("twist must start at the unit")
        if not twist_equation_residual(j, phi, phi_small).truncate(
                order).is_zero():
            raise ValueError("inputs violate twist equation")
    u = GradedSeries.one(1, order, j1.monoid)
    for k in range(1, order + 1):
        diff = j2 - gauge(u, j1.truncate(k))
        if not diff.truncate(k - 1).is_zero():
            raise AssertionError("lower-degree discrepancy left behind")
        eta = diff.component(k)
        if eta.is_zero():
            continue
        try:
            v, mu = decompose_cocycle(eta)
        except NotClosed as exc:
            raise ValueError("inputs violate twist equation") from exc
        if not mu.is_zero():
            raise GaugeObstruction(
                "obstruction: inputs not gauge-equivalent solutions")
        u = (GradedSeries.one(1, order, j1.monoid)
             + GradedSeries.of_element(v, order)) * u
    if gauge(u, j1) != j2:
        raise AssertionError("gauge reconstruction failed to close")
    return u
