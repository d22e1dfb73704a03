"""Seeded inputs and known answers for the library workloads.

Every workload function takes a ``random.Random`` and returns a list of items
``(label, check, expected)``: ``check()`` computes a verdict with dyalg and
the item passes when the verdict equals ``expected``.  Building the list is
the workload's set-up (bases, modules, seeded inputs); running the checks is
the measured part.  These functions never call a product, a face map or an
evaluator, so the structure-constant and face-shape caches are still cold
when the first check runs.

Item counts are fixed per stratum (slot count, monoid, degree pattern) and
only the members of a stratum are drawn from the seed, so every seed asks
for about the same amount of work.
"""

from __future__ import annotations

from fractions import Fraction

from dyalg.algebra import (AlgebraElement, enumerate_basis, hochschild_d,
                           rho_tilde_b)
from dyalg.bialgebra import (abelian_bialgebra, adjoint_module, borel_sl2,
                             dense_of_sparse, evaluate, evaluate_slices,
                             matmul, tensor_module)
from dyalg.cohomology import harmonic_complement
from dyalg.kacmoody import build_kac_moody_borel
from dyalg.monoids import RootCone, SPLIT, TRIVIAL
from dyalg.series import GradedSeries
from dyalg.terms import random_term, straighten
from dyalg.twists import GaugeObstruction, gauge, solve_gauge


# -- products: criterion 02 on seeded combinations of basis triples -----------

# (n, monoid, highest total degree, checks per degree pattern)
PRODUCT_STRATA = ((1, TRIVIAL, 5, 1), (2, TRIVIAL, 4, 1),
                  (1, SPLIT, 4, 1), (2, SPLIT, 3, 1))


def _degree_patterns(total: int):
    return [(a, b, c) for a in range(1, total + 1)
            for b in range(1, total + 1) for c in range(1, total + 1)
            if a + b + c <= total]


def _combination(rng, n, keys, monoid):
    """A seeded combination of every key in ``keys``, all coefficients
    nonzero, so each product meets every basis triple of its degrees."""
    return AlgebraElement(n, monoid, {
        k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for k in keys})


def _associative(x, y, z, deg_xy):
    xy = x * y
    return xy.degrees() <= {deg_xy} and xy * z == x * (y * z)


def products(rng) -> list:
    items = []
    for n, monoid, total, count in PRODUCT_STRATA:
        bases = {d: enumerate_basis(n, d, monoid) for d in range(1, total)}
        for a, b, c in _degree_patterns(total):
            for _ in range(count):
                x, y, z = (_combination(rng, n, bases[d], monoid)
                           for d in (a, b, c))
                items.append((f"assoc n={n} {monoid.name} {a}{b}{c}",
                              lambda x=x, y=y, z=z, d=a + b:
                              _associative(x, y, z, d), True))
    return items


# -- dsquared: criterion 07, first half --------------------------------------

DSQUARED_MONOIDS = (TRIVIAL, SPLIT, RootCone(2, 1))
# (n, strand degree) -> elements drawn per (coaction, action) composition
# pair; the cost of d depends on that pair, so fixing the count per pair
# fixes the work and leaves only the permutation and decorations to the seed
DSQUARED_STRATA = {(1, 1): 2, (1, 2): 6, (1, 3): 20, (2, 1): 1, (2, 2): 2,
                   (2, 3): 4, (3, 1): 1, (3, 2): 1, (3, 3): 1}


def dsquared(rng) -> list:
    items = []
    for monoid in DSQUARED_MONOIDS:
        for (n, deg), count in DSQUARED_STRATA.items():
            groups = {}
            for key in enumerate_basis(n, deg, monoid):
                groups.setdefault(key[:2], []).append(key)
            for shape in sorted(groups):
                group = groups[shape]
                for key in rng.sample(group, min(count, len(group))):
                    x = AlgebraElement.basis(n, key, monoid)
                    items.append((f"d2 n={n} deg={deg} {monoid.name}",
                                  lambda x=x: hochschild_d(hochschild_d(x))
                                  .is_zero(), True))
    return items


# -- realize: criteria 03 and 08, decorated realization -----------------------

# (module, slot counts, terms).  Every term has four generator nodes and
# straightens to keys with sum(2 ** degree) == 8, i.e. two degree-2 keys or
# an equivalent mix: the cost of evaluation grows like dim ** degree per key,
# and without this filter one seed can draw a term that costs ten times the
# median.
REALIZE_TERMS = (("adj", (1, 2), 12), ("adj(x)adj", (1,), 3),
                 ("abelian", (1, 2), 8))
REALIZE_NODES = 4
REALIZE_COST = 8
# criterion 08 pairs (total degree <= 3), two seeded combinations each
REALIZE_PRODUCT_DEGREES = ((1, 1), (1, 2), (2, 1)) * 2


def _term_of_cost(rng, n):
    while True:
        slices = random_term(n, rng, max_nodes=REALIZE_NODES)
        nodes = sum(sl[0] not in ("perm", "decor") for sl in slices)
        if nodes == REALIZE_NODES and sum(
                2 ** len(k[2]) for k in straighten(slices, n).terms
        ) == REALIZE_COST:
            return slices


def _slices_agree(slices, n, bia, mods):
    direct = dense_of_sparse(evaluate_slices(slices, n, bia, mods), mods)
    return direct == evaluate(straighten(slices, n), mods)


def _multiplicative(x, y, mods):
    return evaluate(x * y, mods) == matmul(evaluate(x, mods),
                                           evaluate(y, mods))


def _decorated(x, cone, mods):
    return evaluate(rho_tilde_b(x, cone, {1, 2}, 2), mods) == evaluate(x,
                                                                       mods)


def realize(rng) -> list:
    b = borel_sl2()
    adj = adjoint_module(b)
    a1 = abelian_bialgebra(1)
    fleet = {"adj": (b, adj), "adj(x)adj": (b, tensor_module(adj, adj)),
             "abelian": (a1, adjoint_module(a1))}
    items = []
    for label, slot_counts, count in REALIZE_TERMS:
        bia, mod = fleet[label]
        for _ in range(count):
            n = rng.choice(slot_counts)
            slices = _term_of_cost(rng, n)
            items.append((f"slices {label} n={n}",
                          lambda s=slices, n=n, bia=bia, mods=[mod] * n:
                          _slices_agree(s, n, bia, mods), True))
    keys = {d: enumerate_basis(1, d) for d in (1, 2)}
    for d1, d2 in REALIZE_PRODUCT_DEGREES:
        x, y = (_combination(rng, 1, keys[d], TRIVIAL) for d in (d1, d2))
        items.append((f"multiplicative {d1}{d2}",
                      lambda x=x, y=y: _multiplicative(x, y, [adj]), True))
    km_adj = adjoint_module(build_kac_moody_borel([[2, -1], [-1, 2]], 2))
    cone = RootCone(2, 4)
    # degree 1 only: one degree-2 key alone takes seconds on this module
    x = _combination(rng, 1, keys[1], TRIVIAL)
    items.append(("decorated deg=1",
                  lambda: _decorated(x, cone, [km_adj]), True))
    return items


# -- gauge: criterion 09 ------------------------------------------------------

GAUGE_ORDER = 3
GAUGE_ROUND_TRIPS = 3


def _round_trip(u, j0, one3):
    return solve_gauge(j0, gauge(u, j0), one3) == u


def _obstructed(index, scale):
    _, elts = harmonic_complement(2, 2, SPLIT)
    perturbed = (gauge(GradedSeries.one(1, 2, SPLIT),
                       GradedSeries.one(2, 2, SPLIT))
                 + GradedSeries.of_element(scale * elts[index % len(elts)],
                                           2))
    try:
        solve_gauge(GradedSeries.one(2, 2, SPLIT), perturbed,
                    GradedSeries.one(3, 2, SPLIT), order=2)
    except GaugeObstruction:
        return "GaugeObstruction"
    return "solved"


def gauge_items(rng) -> list:
    order = GAUGE_ORDER
    one3 = GradedSeries.one(3, order, SPLIT)
    j0 = GradedSeries.one(2, order, SPLIT)
    keys = {d: enumerate_basis(1, d, SPLIT) for d in range(1, order + 1)}
    items = []
    for _ in range(GAUGE_ROUND_TRIPS):
        parts = {d: _combination(rng, 1, rng.sample(keys[d], 2), SPLIT)
                 for d in range(1, order + 1)}
        u = (GradedSeries.one(1, order, SPLIT)
             + GradedSeries(1, order, SPLIT, parts))
        items.append(("gauge round trip",
                      lambda u=u: _round_trip(u, j0, one3), True))
    index = rng.randrange(64)
    scale = Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 3))
    items.append(("harmonic obstruction",
                  lambda: _obstructed(index, scale), "GaugeObstruction"))
    return items


ITEMS = {"products": products, "dsquared": dsquared, "realize": realize,
         "gauge": gauge_items}
