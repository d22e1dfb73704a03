import random
from fractions import Fraction

import pytest

from dyalg import algebra
from dyalg.algebra import AlgebraElement, compose_basis, enumerate_basis, \
    kappa
from dyalg.monoids import RootCone, SPLIT, TRIVIAL
from dyalg.rewrite import (RandomScheduler, Scheduler, ScriptedScheduler,
                           term_graph)
from dyalg.terms import random_term, straighten, term_from_json, term_to_json


def test_casimir_square():
    k = kappa(1, 1)
    sq = k * k
    id2 = ((2,), (2,), (1, 2), (0, 0))
    tw = ((2,), (2,), (2, 1), (0, 0))
    assert sq.terms == {id2: Fraction(2), tw: Fraction(-1)}


def test_unit_composition():
    k = kappa(1, 1)
    unit = AlgebraElement.unit(1)
    assert unit * k == k and k * unit == k


def test_grading_additivity():
    rng = random.Random(5)
    for _ in range(30):
        d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
        b1 = rng.choice(enumerate_basis(1, d1))
        b2 = rng.choice(enumerate_basis(1, d2))
        prod = compose_basis(1, b1, b2)
        assert all(len(k[2]) == d1 + d2 for k in prod)


def test_already_normal_terms_pass_through():
    sl = [("coaction", 1), ("action", 1)]
    assert straighten(sl, 1) == kappa(1, 1)


def test_bracket_elimination_no_bracket_left():
    # coaction pair feeding a bracket into an action: straighten must
    # produce pure two-action diagrams
    sl = [("coaction", 1), ("coaction", 1), ("mu",), ("action", 1)]
    elt = straighten(sl, 1)
    assert elt.degrees() == {2}
    for key in elt.terms:
        assert sum(key[0]) == 2 and sum(key[1]) == 2


def test_schedule_independence_and_trace_replay():
    rng = random.Random(17)
    for trial in range(25):
        n = rng.choice([1, 2])
        slices = random_term(n, rng, max_nodes=6)
        record = []
        ref = straighten(slices, n, scheduler=Scheduler(record=record))
        replay = straighten(slices, n,
                            scheduler=ScriptedScheduler(record))
        assert replay == ref
        for s in range(4):
            alt = straighten(slices, n,
                             scheduler=RandomScheduler(seed=97 * trial + s))
            assert alt == ref


def test_decorated_straightening_split():
    k0 = kappa(1, 1, SPLIT, decor=0)
    k1 = kappa(1, 1, SPLIT, decor=1)
    assert k0.commutator(k1).is_zero()
    # idempotent orthogonality: a strand cannot carry two decorations
    sl = [("coaction", 1), ("decor", 1, 0), ("decor", 1, 1), ("action", 1)]
    assert straighten(sl, 1, SPLIT).is_zero()
    sl = [("coaction", 1), ("decor", 1, 1), ("action", 1)]
    assert straighten(sl, 1, SPLIT) == k1


def test_undecorated_strand_expands_over_monoid():
    sl = [("coaction", 1), ("action", 1)]
    got = straighten(sl, 1, SPLIT)
    assert got == kappa(1, 1, SPLIT, decor=0) + kappa(1, 1, SPLIT, decor=1)


def test_quotient_monoid_drops_non_allowed():
    from dyalg.monoids import RootConeMod
    mod = RootConeMod(1, 4, frozenset({(0,), (1,)}))
    sl = [("coaction", 1), ("decor", 1, (1,)), ("action", 1),
          ("coaction", 1), ("decor", 1, (1,)), ("action", 1)]
    elt = straighten(sl, 1, mod)
    # the exchange terms merging the two strands into weight (2,) must die
    for key in elt.terms:
        assert all(d in mod.allowed for d in key[3])


def test_term_json_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        slices = random_term(2, rng, max_nodes=5)
        data = term_to_json(slices, 2)
        back, n, monoid = term_from_json(data)
        assert back == slices and n == 2


def test_ill_typed_terms_rejected():
    with pytest.raises(ValueError):
        term_graph([("action", 1)], 1)
    with pytest.raises(ValueError):
        term_graph([("coaction", 1)], 1)  # open leg left
    with pytest.raises(ValueError):
        term_graph([("coaction", 1), ("mu",)], 1)
    with pytest.raises(ValueError):
        straighten([("coaction", 1), ("perm", (2, 1)), ("action", 1)], 1)


def test_structure_constant_cache_transparent():
    b = enumerate_basis(1, 2)[1]
    first = compose_basis(1, b, b)
    second = compose_basis(1, b, b)
    assert first == second and first is second


def test_structure_constant_cache_is_transparent_and_integer():
    rng = random.Random(6)
    pairs = []
    for monoid in (TRIVIAL, SPLIT, RootCone(2, 1)):
        for _ in range(70):
            n = rng.choice((1, 2))
            s, t = (rng.choice(enumerate_basis(n, rng.randint(0, 2), monoid))
                    for _ in range(2))
            pairs.append((n, s, t, monoid))
    warm = [compose_basis(*pair) for pair in pairs]
    assert all(type(c) is int and c
               for constants in warm for c in constants.values())
    for pair, constants in zip(pairs, warm):
        algebra._CACHE.clear()
        assert compose_basis(*pair) == constants
    for monoid in (TRIVIAL, SPLIT, RootCone(2, 1)):
        keys = [k for deg in range(3) for k in enumerate_basis(2, deg, monoid)]
        elements = [AlgebraElement(2, monoid, {
            k: Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 7)))
            for k in rng.sample(keys, 3)}) for _ in range(6)]
        pairs = [(x, y) for x in elements for y in elements]
        for x, y in pairs:
            x * y
        warm = [(x * y).to_json() for x, y in pairs]
        cold = []
        for x, y in pairs:
            algebra._CACHE.clear()
            cold.append((x * y).to_json())
        assert cold == warm
