import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from dyalg import algebra
from dyalg.algebra import (AlgebraElement, alpha_map, alt, beta_map,
                           compose_basis, cone_elements, dim_formula,
                           embed_slots, enumerate_basis, face_map,
                           filter_window, forget_split, hochschild_d,
                           is_invariant, kappa, kappa_alpha, omega,
                           quotient_allowed, r_matrix, rho_tilde_b,
                           rho_tilde_pair, slot_permute)
from dyalg.monoids import RootCone, RootConeMod, SPLIT, TRIVIAL
from dyalg.permutations import compositions, inverse, sign
from dyalg.series import GradedSeries
from dyalg.twists import gauge, solve_gauge

FACE_MONOIDS = (TRIVIAL, SPLIT, RootCone(2, 1))


def test_dimension_formulas():
    for deg in range(5):
        assert len(enumerate_basis(1, deg)) == dim_formula(1, deg)
    for deg in range(4):
        assert len(enumerate_basis(2, deg)) == dim_formula(2, deg)
        assert (len(enumerate_basis(2, deg, SPLIT))
                == dim_formula(2, deg) * 2 ** deg)
    # the cohomology slice dimensions: one decoration per strand
    for monoid in (TRIVIAL, SPLIT, RootCone(2, 1), RootCone(1, 2),
                   RootConeMod(2, 1, frozenset({(0, 0), (1, 0)}))):
        for n, deg in itertools.product(range(1, 5), range(4)):
            assert (dim_formula(n, deg) * len(monoid.elements()) ** deg
                    == len(enumerate_basis(n, deg, monoid))), (monoid, n, deg)


def test_face_map_of_casimir():
    k = kappa(1, 1)
    want = (embed_slots(k, 2, {1: 1}) + embed_slots(k, 2, {1: 2})
            + r_matrix(2, 1, 2) + r_matrix(2, 2, 1))
    assert face_map(1, k) == want
    assert face_map(0, k) == embed_slots(k, 2, {1: 2})
    assert face_map(2, k) == embed_slots(k, 2, {1: 1})


def test_hochschild_of_casimir_is_minus_omega():
    assert hochschild_d(kappa(1, 1)) == -1 * omega(2, 1, 2)


def test_d_squared_zero_sweep():
    for n in (1, 2):
        for deg in (0, 1, 2):
            for b in enumerate_basis(n, deg):
                x = AlgebraElement.basis(n, b)
                assert hochschild_d(hochschild_d(x)).is_zero()


# The strand form: a key as per-slot lists of strands (named by coaction
# position), coaction blocks and action blocks, plus a decoration per strand.
# The package maps keys through position shapes instead; this independent
# form is the reference for the face maps and the slot maps.


def _structured(key):
    co, ac, perm, dec = key
    co_list, q = [], 0
    for c in co:
        co_list.append(list(range(q + 1, q + c + 1)))
        q += c
    inv = inverse(perm)
    ac_list, p = [], 0
    for a in ac:
        ac_list.append([inv[p + i] for i in range(a)])
        p += a
    decor = {inv[p0]: dec[p0] for p0 in range(len(dec))}
    return co_list, ac_list, decor


def _key_of_structured(co_list, ac_list, decor):
    strand_q = {s: q for q, s in
                enumerate((s for block in co_list for s in block), 1)}
    perm = [0] * len(strand_q)
    dec = [None] * len(strand_q)
    for p, s in enumerate((s for block in ac_list for s in block), 1):
        perm[strand_q[s] - 1] = p
        dec[p - 1] = decor[s]
    return (tuple(map(len, co_list)), tuple(map(len, ac_list)), tuple(perm),
            tuple(dec))


def _reference_slot_map(x, n_new, targets):
    """Old slot k moves to new slot targets[k-1]; the other slots stay
    empty."""
    out = {}
    for key, c in x.terms.items():
        co_list, ac_list, decor = _structured(key)
        new_co = [[] for _ in range(n_new)]
        new_ac = [[] for _ in range(n_new)]
        for k, t in enumerate(targets):
            new_co[t - 1] = co_list[k]
            new_ac[t - 1] = ac_list[k]
        k2 = _key_of_structured(new_co, new_ac, decor)
        out[k2] = out.get(k2, Fraction(0)) + c
    return AlgebraElement(n_new, x.monoid, out)


def _face_splits(blocks, i):
    """The blocks after the i-th face: an empty block inserted for i = 0
    and i = len(blocks) + 1, otherwise block i split in two in every
    order-preserving way."""
    if i == 0:
        return [[[]] + blocks]
    if i == len(blocks) + 1:
        return [blocks + [[]]]
    block = blocks[i - 1]
    return [blocks[:i - 1] + [list(take), [s for s in block if s not in take]]
            + blocks[i:]
            for r in range(len(block) + 1)
            for take in itertools.combinations(block, r)]


def _reference_face(i, x):
    """The i-th face map strand by strand: slot i's coaction strands and
    its action strands each split in two in every order-preserving way."""
    out = {}
    for key, c in x.terms.items():
        co_list, ac_list, decor = _structured(key)
        for new_co in _face_splits(co_list, i):
            for new_ac in _face_splits(ac_list, i):
                k2 = _key_of_structured(new_co, new_ac, decor)
                out[k2] = out.get(k2, Fraction(0)) + c
    return AlgebraElement(x.n + 1, x.monoid, out)


def _small_basis_elements(max_n=2, max_degree=3):
    for monoid in FACE_MONOIDS:
        for n in range(1, max_n + 1):
            for deg in range(max_degree + 1):
                for key in enumerate_basis(n, deg, monoid):
                    yield AlgebraElement.basis(n, key, monoid)


def _rational_combinations(seed, count):
    rng = random.Random(seed)
    for monoid in FACE_MONOIDS:
        for n in (1, 2):
            keys = [k for deg in range(4)
                    for k in enumerate_basis(n, deg, monoid)]
            for _ in range(count):
                yield AlgebraElement(n, monoid, {
                    k: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                    for k in rng.sample(keys, rng.randint(1, 5))})


def _assert_fraction_terms(x):
    assert all(type(c) is Fraction for c in x.terms.values())


def test_face_maps_match_strandwise_reference():
    elements = itertools.chain(_small_basis_elements(),
                               _rational_combinations(seed=7, count=15))
    for x in elements:
        want_d = AlgebraElement.zero(x.n + 1, x.monoid)
        for i in range(x.n + 2):
            want = _reference_face(i, x)
            got = face_map(i, x)
            assert got == want, (i, x)
            _assert_fraction_terms(got)
            want_d = want_d + (-1) ** i * want
        got_d = hochschild_d(x)
        assert got_d == want_d, x
        _assert_fraction_terms(got_d)


def test_slot_maps_match_strandwise_reference():
    three_slots = (x for x in _small_basis_elements(max_n=3, max_degree=2)
                   if x.n == 3)
    elements = itertools.chain(_small_basis_elements(), three_slots,
                               _rational_combinations(seed=7, count=15))
    for x in elements:
        for perm in itertools.permutations(range(1, x.n + 1)):
            got = slot_permute(x, perm)
            assert got == _reference_slot_map(x, x.n, perm), (perm, x)
            _assert_fraction_terms(got)
        for n_new in (x.n, x.n + 1):
            for targets in itertools.permutations(range(1, n_new + 1), x.n):
                got = embed_slots(x, n_new, dict(enumerate(targets, 1)))
                assert got == _reference_slot_map(x, n_new, targets), (
                    targets, x)
                _assert_fraction_terms(got)
        want = AlgebraElement.zero(x.n, x.monoid)
        for perm in itertools.permutations(range(1, x.n + 1)):
            want = want + sign(perm) * _reference_slot_map(x, x.n, perm)
        assert alt(x) == Fraction(1, math.factorial(x.n)) * want, x
    # one of the 3-slot keys above has two empty slots, and the two
    # permutations that differ by swapping them cancel
    assert alt(kappa(3, 1)).is_zero()


def _halves_of(cache):
    """The half keys that the shape entries of ``cache`` are paired from:
    ``(kind, arg, composition)`` for every face or placement of each
    regrouping and both compositions of each entry."""
    return {(kind, arg, comp) for (kind, signed), entries in cache.items()
            for arg, _ in signed for pair in entries for comp in pair}


def test_face_shape_cache_is_transparent_and_small():
    cache, halves = algebra._FACE_SHAPES, algebra._HALVES
    cache.clear()
    halves.clear()
    met = set()
    for x in _small_basis_elements():
        dx = hochschild_d(x)
        assert hochschild_d(dx).is_zero()
        met |= {(co, ac) for y in (x, dx) for co, ac, _, _ in y.terms}
    # d fills only its own regrouping, one entry per (co, ac) pair it met,
    # and keeps no shape whose face signs cancel
    assert set(cache) == {("faces", tuple((i, (-1) ** i)
                                          for i in range(n + 2)))
                          for n in (1, 2, 3)}
    assert all(set(entries) <= met for entries in cache.values())
    assert all(shape[-1] for entries in cache.values()
               for shapes in entries.values() for shape in shapes)
    # the halves are keyed by the face i and one composition alone: the
    # permutation and the decorations must stay out of them too
    assert set(halves) == _halves_of(cache)
    d_halves = dict(halves)
    cache.clear()
    for x in _small_basis_elements():
        for i in range(x.n + 2):
            face_map(i, x)
    # an entry is keyed by the face i and (co, ac): the permutation and the
    # decorations must stay out of it
    pairs = {(co, ac) for m in (1, 2, 3) for deg in range(4)
             for co in compositions(deg, m) for ac in compositions(deg, m)}
    assert all(kind == "faces" and len(signed) == 1 and set(entries) <= pairs
               for (kind, signed), entries in cache.items())
    triples = sum(len(co) + 2 for co, _ in pairs)
    assert sum(map(len, cache.values())) <= triples
    # the single faces read the halves of d's faces without rebuilding them,
    # and add only the halves that their own entries pair
    assert all(halves[k] is v for k, v in d_halves.items())
    assert set(halves) == set(d_halves) | _halves_of(cache)

    def maps(x):
        perms = list(itertools.permutations(range(1, x.n + 1)))
        return ([lambda i=i: face_map(i, x) for i in range(x.n + 2)]
                + [lambda: hochschild_d(x), lambda: alt(x)]
                + [lambda p=p: slot_permute(x, p) for p in perms])

    # cold shapes over warm halves, warm shapes over cold halves, and both
    # cold give what the warm caches give
    clears = (cache.clear, halves.clear,
              lambda: (halves.clear(), cache.clear()))
    for x in itertools.chain(_small_basis_elements(max_degree=2),
                             _rational_combinations(seed=11, count=5)):
        warm = [f().to_json() for f in maps(x)]
        for clear in clears:
            cold = []
            for f in maps(x):
                clear()
                cold.append(f().to_json())
            assert cold == warm
        assert set(halves) == _halves_of(cache)


def test_netted_differential_is_the_alternating_sum_of_faces():
    # every (co, ac) pair with n <= 3 and strand degree <= 3, empty slots
    # included, where most face shapes coincide; the permutation and the
    # decorations are seeded
    rng = random.Random(16)
    for monoid in FACE_MONOIDS:
        decors = list(monoid.elements())
        for n in (1, 2, 3):
            for deg in range(4):
                for co in compositions(deg, n):
                    for ac in compositions(deg, n):
                        key = (co, ac,
                               tuple(rng.sample(range(1, deg + 1), deg)),
                               tuple(rng.choice(decors) for _ in range(deg)))
                        x = AlgebraElement.basis(n, key, monoid)
                        want = AlgebraElement.zero(n + 1, monoid)
                        for i in range(n + 2):
                            want = want + (-1) ** i * face_map(i, x)
                        assert hochschild_d(x) == want, key


def _regroupings(n):
    """Every regrouping of n slots that the package builds: each face, the
    Hochschild differential, each slot permutation, alt, and each placement
    into n + 1 slots."""
    perms = list(itertools.permutations(range(1, n + 1)))
    yield from (("faces", ((i, 1),)) for i in range(n + 2))
    yield "faces", tuple((i, (-1) ** i) for i in range(n + 2))
    yield from (("slots", ((inverse(p), 1),)) for p in perms)
    yield "slots", tuple((inverse(p), sign(p)) for p in perms)
    for targets in itertools.permutations(range(1, n + 2), n):
        placement = [0] * (n + 1)
        for k, t in enumerate(targets, 1):
            placement[t - 1] = k
        yield "slots", ((tuple(placement), 1),)


def _reference_regrouping(x, regrouping):
    kind, signed = regrouping
    n_new = x.n + 1 if kind == "faces" else len(signed[0][0])
    out = AlgebraElement.zero(n_new, x.monoid)
    for arg, sgn in signed:
        if kind == "faces":
            out = out + sgn * _reference_face(arg, x)
        else:
            targets = [arg.index(k) + 1 for k in range(1, x.n + 1)]
            out = out + sgn * _reference_slot_map(x, n_new, targets)
    return out


def _full_shapes(regrouping, co, ac):
    """The netted shapes of a regrouping with both maps spelled out, as
    ``{(co2, ac2, qinv, pinv): weight}``, from the blocks of positions."""
    kind, signed = regrouping
    co_blocks, ac_blocks = (
        [list(range(sum(comp[:k]), sum(comp[:k + 1])))
         for k in range(len(comp))] for comp in (co, ac))
    out = {}
    for arg, sgn in signed:
        if kind == "faces":
            pairs = itertools.product(_face_splits(co_blocks, arg),
                                      _face_splits(ac_blocks, arg))
        else:
            pairs = [([co_blocks[s - 1] if s else [] for s in arg],
                      [ac_blocks[s - 1] if s else [] for s in arg])]
        for new_co, new_ac in pairs:
            shape = (tuple(map(len, new_co)), tuple(map(len, new_ac)),
                     tuple(itertools.chain(*new_co)),
                     tuple(itertools.chain(*new_ac)))
            out[shape] = out.get(shape, 0) + sgn
    return {shape: w for shape, w in out.items() if w}


def _seeded_decorations(rng, monoid, deg):
    """Decorations of deg strands, two of them different when deg >= 2."""
    decors, dec = list(monoid.elements()), ()
    while len(set(dec)) < min(deg, 2):
        dec = tuple(rng.choice(decors) for _ in range(deg))
    return dec


def test_shapes_store_none_exactly_for_identity_maps():
    # a shape's class is (coaction order kept, action order kept); the
    # seeded keys give images through every class, with decorations that a
    # reordering of the action positions moves
    rng = random.Random(28)
    monoids = (SPLIT, RootCone(2, 1))
    cache = algebra._FACE_SHAPES
    cache.clear()
    classes = set()
    moved = {monoid: set() for monoid in monoids}
    for n, deg in itertools.product((1, 2, 3), range(4)):
        identity = tuple(range(deg))
        for co, ac in itertools.product(compositions(deg, n), repeat=2):
            perm = tuple(rng.sample(range(1, deg + 1), deg))
            keys = {monoid: (co, ac, perm,
                             _seeded_decorations(rng, monoid, deg))
                    for monoid in monoids}
            for regrouping in _regroupings(n):
                for monoid, key in keys.items():
                    want = _reference_regrouping(
                        AlgebraElement.basis(n, key, monoid), regrouping)
                    got = algebra._shape_keys({key: 1}, regrouping)
                    assert got == want.num and want.den == 1, (
                        regrouping, key)
                full = {}
                for co2, ac2, qinv, pmap, pinv, w in cache[regrouping][co, ac]:
                    assert qinv != identity and pinv != identity
                    assert (pmap is None) == (pinv is None)
                    if pinv is not None:
                        assert [pinv[p - 1] for p in pmap] == list(identity)
                    full[co2, ac2, qinv or identity, pinv or identity] = w
                    kept = (qinv is None, pinv is None)
                    classes.add(kept)
                    for monoid, (_, _, _, dec) in keys.items():
                        if pinv and tuple(dec[p] for p in pinv) != dec:
                            moved[monoid].add(kept)
                reference = _full_shapes(regrouping, co, ac)
                assert full == reference, (regrouping, co, ac)
                assert list(full) == list(reference), (regrouping, co, ac)
    assert classes == {(True, True), (True, False), (False, True),
                       (False, False)}
    # a reordering of the action positions moved the decorations of both
    # monoids, with and without a reordering of the coaction positions
    assert all(kept == {(True, False), (False, False)}
               for kept in moved.values())


def _reference_product(x, y):
    """x * y as the Fraction sum of cs * ct * c over the structure
    constants, with no integer scaling and no unit or zero shortcut."""
    out = {}
    for ks, cs in x.terms.items():
        for kt, ct in y.terms.items():
            for k, c in compose_basis(x.n, ks, kt, x.monoid).items():
                out[k] = out.get(k, Fraction(0)) + cs * ct * c
    return {k: c for k, c in out.items() if c}


def _product_factors(seed, count):
    """Seeded pairs of combinations of degree <= 2 with denominators 1, 2,
    3 and 7, among them units, scaled units, single terms and zeros."""
    rng = random.Random(seed)
    for monoid in FACE_MONOIDS:
        for n in (1, 2):
            keys = [k for deg in range(3)
                    for k in enumerate_basis(n, deg, monoid)]
            specials = [AlgebraElement.unit(n, monoid),
                        AlgebraElement.zero(n, monoid),
                        Fraction(2, 3) * AlgebraElement.unit(n, monoid),
                        AlgebraElement.basis(n, rng.choice(keys), monoid)]

            def combination():
                return AlgebraElement(n, monoid, {
                    k: Fraction(rng.choice((-3, -2, -1, 1, 2, 5)),
                                rng.choice((1, 2, 3, 7)))
                    for k in rng.sample(keys, rng.randint(1, 4))})

            for special in specials:
                yield special, combination()
                yield combination(), special
            for _ in range(count):
                yield combination(), combination()


def _cancelling_pair(n, monoid, rng):
    """x = (q a - p b) / 3 and y = t / 7 for basis keys a, b, t such that
    a * t and b * t share a key k, with coefficients p and q there: the k
    terms of x * y cancel."""
    keys = [k for deg in (1, 2) for k in enumerate_basis(n, deg, monoid)]
    while True:
        a, b, t = rng.sample(keys, 3)
        at, bt = compose_basis(n, a, t, monoid), compose_basis(n, b, t, monoid)
        shared = sorted(set(at) & set(bt), key=repr)
        if shared:
            k = shared[0]
            x = AlgebraElement(n, monoid, {a: Fraction(bt[k], 3),
                                           b: Fraction(-at[k], 3)})
            return x, Fraction(1, 7) * AlgebraElement.basis(n, t, monoid), k


def test_product_matches_fraction_reference():
    pairs = list(_product_factors(seed=8, count=28))
    assert len(pairs) >= 200
    for x, y in pairs:
        got = x * y
        assert got.terms == _reference_product(x, y)
        _assert_fraction_terms(got)
    rng = random.Random(9)
    for monoid in FACE_MONOIDS:
        for n in (1, 2):
            x, y, k = _cancelling_pair(n, monoid, rng)
            got = x * y
            assert k not in got.terms and not got.is_zero()
            assert got.terms == _reference_product(x, y)
            _assert_fraction_terms(got)


def test_unit_terms_of_a_product_cancel():
    # (c 1 + x)(y + d 1) with a strand degree 1 key a in x and y, and
    # c y_a + d x_a = 0: the two unit terms c y and d x cancel at a, and no
    # other product has strand degree 1
    rng = random.Random(28)
    c, d = Fraction(2, 3), Fraction(-5, 7)
    for monoid in FACE_MONOIDS:
        for n in (1, 2):
            a = rng.choice(enumerate_basis(n, 1, monoid))
            b, t = rng.sample([k for deg in (1, 2)
                               for k in enumerate_basis(n, deg, monoid)
                               if k != a], 2)
            one = AlgebraElement.unit(n, monoid)
            x = c * one + AlgebraElement(n, monoid, {a: -c / d,
                                                     b: Fraction(1, 2)})
            y = AlgebraElement(n, monoid, {a: 1, t: Fraction(3, 2)}) + d * one
            got = x * y
            assert a not in got.terms and got.counit() == c * d
            assert got.terms == _reference_product(x, y)
            _assert_fraction_terms(got)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hochschild_of_zero_and_unit(n):
    for monoid in FACE_MONOIDS:
        zero = hochschild_d(AlgebraElement.zero(n, monoid))
        assert zero == AlgebraElement.zero(n + 1, monoid)
        # n + 2 faces each send the unit to the unit with sign (-1)^i
        want = (AlgebraElement.unit(n + 1, monoid) if n % 2
                else AlgebraElement.zero(n + 1, monoid))
        assert hochschild_d(AlgebraElement.unit(n, monoid)) == want


def test_face_map_of_rational_multiple():
    rng = random.Random(5)
    for monoid in FACE_MONOIDS:
        for key in rng.sample(enumerate_basis(2, 2, monoid), 6):
            x = AlgebraElement.basis(2, key, monoid)
            for q in (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2)):
                for i in range(4):
                    got = face_map(i, q * x)
                    assert got == q * face_map(i, x)
                    _assert_fraction_terms(got)


def test_cosimplicial_identities():
    rng = random.Random(1)
    for _ in range(10):
        deg = rng.randint(0, 2)
        b = rng.choice(enumerate_basis(1, deg))
        x = AlgebraElement.basis(1, b)
        for i in range(3):
            for j in range(i + 1, 4):
                lhs = face_map(j, face_map(i, x))
                rhs = face_map(i, face_map(j - 1, x))
                assert lhs == rhs


def test_face_map_is_algebra_homomorphism():
    rng = random.Random(2)
    for _ in range(8):
        b1 = rng.choice(enumerate_basis(1, rng.randint(0, 2)))
        b2 = rng.choice(enumerate_basis(1, rng.randint(0, 2)))
        x = AlgebraElement.basis(1, b1)
        y = AlgebraElement.basis(1, b2)
        for i in range(3):
            assert face_map(i, x * y) == face_map(i, x) * face_map(i, y)


def test_omega_symmetric_and_alt():
    om = omega(2, 1, 2)
    assert slot_permute(om, (2, 1)) == om
    assert alt(om).is_zero()
    r = r_matrix(2, 1, 2)
    assert alt(r) == Fraction(1, 2) * (r - r_matrix(2, 2, 1))
    x = AlgebraElement.basis(2, enumerate_basis(2, 2)[5])
    assert alt(alt(x)) == alt(x)


def test_invariance():
    assert is_invariant(omega(2, 1, 2))
    assert not is_invariant(r_matrix(2, 1, 2))
    assert is_invariant(AlgebraElement.unit(2))
    # sums of symmetrized crossings are invariant; a lone Casimir strand
    # is central in its own algebra but not invariant
    assert is_invariant(omega(3, 1, 2) + omega(3, 1, 3))
    assert not is_invariant(kappa(1, 1))


def test_alpha_beta_maps():
    k = kappa(1, 1)
    assert alpha_map(k) == kappa(1, 1, SPLIT, decor=0)
    assert beta_map(k) == (kappa(1, 1, SPLIT, decor=0)
                           + kappa(1, 1, SPLIT, decor=1))
    # algebra homomorphism on products
    assert alpha_map(k * k) == alpha_map(k) * alpha_map(k)
    assert beta_map(k * k) == beta_map(k) * beta_map(k)


def test_forget_split():
    x = kappa(1, 1, SPLIT, decor=0) + 3 * kappa(1, 1, SPLIT, decor=1)
    assert forget_split(x, "id") == kappa(1, 1)
    assert forget_split(x, "zero") == 3 * kappa(1, 1)


def _filter_total(x, bound):
    return AlgebraElement(x.n, x.monoid, {
        k: c for k, c in x.terms.items()
        if sum(sum(d) for d in k[3]) <= bound})


def test_rho_tilde_homomorphism_within_window():
    cone = RootCone(2, 12)
    window = 3
    k = kappa(1, 1)
    lhs = rho_tilde_b(k, cone, {1, 2}, window) * rho_tilde_b(
        k, cone, {1, 2}, window)
    rhs = rho_tilde_b(k * k, cone, {1, 2}, window)
    # contributions to a term of total weight T need factor decorations of
    # weight <= T, so the product of windowed sums is complete below the
    # factor window in total weight
    assert _filter_total(lhs, window) == _filter_total(rhs, window)


def test_rho_tilde_injective_on_small_degrees():
    cone = RootCone(2, 6)
    seen = {}
    for b in enumerate_basis(1, 2):
        img = rho_tilde_b(AlgebraElement.basis(1, b), cone, {1}, 2)
        key = tuple(sorted(img.terms.items()))
        assert key not in seen
        seen[key] = b


def test_rho_tilde_pair_supports():
    cone = RootCone(2, 6)
    x = kappa(1, 1, SPLIT, decor=0) + kappa(1, 1, SPLIT, decor=1)
    img = rho_tilde_pair(x, cone, {1}, {1, 2}, 2)
    decs = {k[3][0] for k in img.terms}
    small = set(cone_elements(cone, {1}, 2))
    assert small <= decs
    assert all(d in small or d[1] > 0 for d in decs)


def test_quotient_projection():
    mod = RootConeMod(2, 4, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    cone = RootCone(2, 4)
    x = kappa(1, 1, cone, decor=(2, 0)) + kappa(1, 1, cone, decor=(1, 1))
    q = quotient_allowed(x, mod)
    assert q == kappa(1, 1, mod, decor=(1, 1))


def test_decorated_commutation_statements():
    cone = RootCone(2, 8)
    # [kappa_0, kappa_alpha] = 0
    assert kappa_alpha((0, 0), cone).commutator(
        kappa_alpha((1, 0), cone)).is_zero()
    # windowed sums over a sub-cone commute with their members
    window = 3
    for support in ({1}, {1, 2}):
        total = AlgebraElement.zero(1, cone)
        for b in cone_elements(cone, support, window):
            total = total + kappa_alpha(b, cone)
        for alpha in cone_elements(cone, support, 1):
            comm = kappa_alpha(alpha, cone).commutator(total)
            assert filter_window(comm, window - sum(alpha)).is_zero()
    # rank-2 sublattice variant: doubled first coordinate
    window = 4
    sub = [a for a in cone_elements(cone, {1, 2}, window) if a[0] % 2 == 0]
    total = AlgebraElement.zero(1, cone)
    for b in sub:
        total = total + kappa_alpha(b, cone)
    alpha = (2, 0)
    comm = kappa_alpha(alpha, cone).commutator(total)
    kept = filter_window(comm, window - sum(alpha))
    kept = AlgebraElement(1, cone, {
        k: c for k, c in kept.terms.items()
        if all(d in set(sub) for d in k[3])})
    assert kept.is_zero()


def test_element_json_round_trip():
    x = Fraction(2, 3) * kappa(1, 1, SPLIT, decor=1) - 5 * kappa(
        1, 1, SPLIT, decor=0)
    assert AlgebraElement.from_json(x.to_json()) == x
    y = omega(2, 1, 2) * omega(2, 1, 2)
    assert AlgebraElement.from_json(y.to_json()) == y


def test_mismatch_errors():
    with pytest.raises(ValueError):
        kappa(1, 1) * omega(2, 1, 2)
    with pytest.raises(ValueError):
        kappa(1, 1) + kappa(1, 1, SPLIT, decor=0)
    with pytest.raises(ValueError):
        r_matrix(2, 1, 1)
    for i in (-1, 3, 4):
        with pytest.raises(ValueError, match="face index"):
            face_map(i, kappa(1, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: AlgebraElement.basis(2, ((1,), (1,), (1,), (0,))),
     "composition length != slot count"),
    (lambda: AlgebraElement.basis(1, ((1,), (2,), (1,), (0,))),
     "inconsistent strand counts"),
    (lambda: AlgebraElement.basis(1, ((2,), (2,), (1, 1), (0, 0))),
     "perm is not a permutation"),
    (lambda: slot_permute(omega(2, 1, 2), (1, 1)), "bad slot permutation"),
    (lambda: embed_slots(omega(2, 1, 2), 3, {1: 1}),
     "mapping must cover source slots"),
    (lambda: embed_slots(omega(2, 1, 2), 3, {1: 2, 2: 2}),
     "bad target slots"),
    (lambda: r_matrix(2, 1, 3), "slot out of range"),
    (lambda: kappa(2, 3), "slot out of range"),
    (lambda: alpha_map(kappa(1, 1, SPLIT, decor=0)),
     "source must be undecorated"),
    (lambda: cone_elements(RootCone(2, 1), {1}, 2),
     "window exceeds monoid cap"),
    (lambda: rho_tilde_pair(kappa(1, 1, SPLIT, decor=0), RootCone(2, 2),
                            {1}, {2}, 1), "supports not nested"),
    (lambda: AlgebraElement.basis(1, ((1,), (1,), (1,), ((9, 9),))),
     r"decor entry \(9, 9\) is a decoration outside the trivial monoid"),
    (lambda: kappa(1, 1, SPLIT, decor=7),
     "decor entry 7 is a decoration outside the split monoid"),
    (lambda: r_matrix(2, 1, 2, SPLIT, decor=2),
     "decor entry 2 is a decoration outside the split monoid"),
    (lambda: kappa_alpha((1,), RootCone(2, 2)),
     r"decor entry \(1,\) is a decoration outside the root_cone monoid"),
    (lambda: kappa_alpha((4, 1), PAIR_MONOIDS[3]),
     r"decor entry \(4, 1\) is a decoration outside the root_cone_mod"),
], ids=["composition-length", "strand-counts", "not-a-permutation",
        "slot-permutation", "uncovered-mapping", "repeated-targets",
        "r-matrix-slot", "kappa-slot", "alpha-of-split", "cone-window",
        "supports-not-nested", "basis-decoration", "kappa-decoration",
        "r-matrix-decoration", "cone-decoration", "mod-decoration"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_counit():
    x = AlgebraElement.unit(2) + 3 * omega(2, 1, 2)
    assert x.counit() == 1


# -- outputs pinned by hash --------------------------------------------------

# (n, monoid, highest total degree) of the seeded associativity strata
PRODUCT_STRATA = ((1, TRIVIAL, 5), (2, TRIVIAL, 4), (1, SPLIT, 4),
                  (2, SPLIT, 3))
PAIR_MONOIDS = (TRIVIAL, SPLIT, RootCone(2, 2),
                RootConeMod(2, 4, frozenset({(0, 0), (1, 0), (0, 1),
                                             (1, 1)})))


def _digest(elements) -> str:
    data = json.dumps([x.to_json() for x in elements], sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def _strata_products(seed):
    """x y, y z, (x y) z and x (y z) for one seeded combination of every
    basis key per factor degree, over every degree pattern of each
    stratum."""
    rng = random.Random(seed)
    out = []
    for n, monoid, total in PRODUCT_STRATA:
        bases = {d: enumerate_basis(n, d, monoid) for d in range(1, total)}
        for a, b, c in itertools.product(range(1, total), repeat=3):
            if a + b + c > total:
                continue
            x, y, z = (AlgebraElement(n, monoid, {
                k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.randint(1, 3))
                for k in bases[d]}) for d in (a, b, c))
            xy, yz = x * y, y * z
            out += [xy, yz, xy * z, x * yz]
    return out


def _seeded_pairs(seed, count):
    """``count`` seeded pairs per monoid and slot count, of degree <= 2 and
    with denominators 1, 2, 3, 7 and 14; units and zeros among them."""
    rng = random.Random(seed)
    for monoid in PAIR_MONOIDS:
        for n in (1, 2):
            keys = [k for deg in range(3)
                    for k in enumerate_basis(n, deg, monoid)]

            def combination():
                pick = rng.randrange(8)
                if pick == 0:
                    return AlgebraElement.zero(n, monoid)
                if pick == 1:
                    return Fraction(rng.randint(-3, 3), rng.choice(
                        (1, 2, 7))) * AlgebraElement.unit(n, monoid)
                return AlgebraElement(n, monoid, {
                    k: Fraction(rng.randint(-9, 9),
                                rng.choice((1, 2, 3, 7, 14)))
                    for k in rng.sample(keys,
                                        min(len(keys), rng.randint(1, 5)))})

            for _ in range(count):
                yield combination(), combination()


def _pair_results(seed, count):
    out = []
    for x, y in _seeded_pairs(seed, count):
        out += [x * y, x + y, x - y, Fraction(-7, 6) * x,
                y.graded_component(1)]
    return out


def _gauge_results(seed, round_trips):
    """Criterion 09's round trips: the gauged twist, the inverse of the
    gauge and the solved gauge."""
    rng = random.Random(seed)
    order = 3
    one3 = GradedSeries.one(3, order, SPLIT)
    j0 = GradedSeries.one(2, order, SPLIT)
    out = []
    for _ in range(round_trips):
        parts = {}
        for d in range(1, order + 1):
            keys = enumerate_basis(1, d, SPLIT)
            parts[d] = AlgebraElement(1, SPLIT, {
                k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for k in rng.sample(keys, 2)})
        u = (GradedSeries.one(1, order, SPLIT)
             + GradedSeries(1, order, SPLIT, parts))
        j = gauge(u, j0)
        solved = solve_gauge(j0, j, one3)
        assert solved == u
        out += [x for s in (j, u.inverse(), solved)
                for _, x in sorted(s.parts.items())]
    return out


def test_outputs_pinned_by_hash():
    # digests of to_json recorded with Fraction coefficients, before the
    # elements held integer numerators over one denominator
    pinned = {
        "strata": (_strata_products(1), 76,
                   "b989b74060ce8b66443bdca2341038d2"
                   "47ee843eec749da37113ff195f6c5d74"),
        "pairs": (_pair_results(13, 75), 3000,
                  "e460a19fce2943e405995287ee9d800e"
                  "5af04698ebb0bbb777c0452bd9cd7611"),
        "gauge": (_gauge_results(20260809, 3), 36,
                  "1110854cfcbc275128af9268e150726d"
                  "144aea433c494e1720df0f535c2e3251"),
    }
    for name, (elements, count, digest) in pinned.items():
        assert (name, len(elements), _digest(elements)) == (name, count,
                                                            digest)


# -- the representation: integer numerators over one reduced denominator ------


def _assert_reduced(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int and v for v in x.num.values())
    assert math.gcd(x.den, *x.num.values()) == 1
    assert x.terms == {k: Fraction(v, x.den) for k, v in x.num.items()}


def _operation_results(x, y):
    """x and y through every operation that builds an element."""
    out = [x + y, x - y, y - x, x * y, -x, Fraction(3, 14) * x, 7 * y,
           Fraction(0) * x, x.graded_component(1), y.graded_component(2),
           hochschild_d(x), alt(x)]
    out += [face_map(i, x) for i in range(x.n + 2)]
    out += [slot_permute(x, p)
            for p in itertools.permutations(range(1, x.n + 1))]
    out.append(embed_slots(y, x.n + 1, {k: k + 1 for k in range(1, y.n + 1)}))
    monoid = x.monoid
    if monoid == TRIVIAL:
        out += [alpha_map(x), beta_map(y)]
    elif monoid == SPLIT:
        out += [forget_split(x, "id"), forget_split(y, "zero")]
    else:
        out.append(filter_window(x, 1))
        if isinstance(monoid, RootConeMod):
            out.append(quotient_allowed(y, monoid))
    sx, sy = (GradedSeries.of_element(z, 4) for z in (x, y))
    for series in (sx * sy, sx - sy, sx + sy):
        out += series.parts.values()
    return out


def test_every_operation_keeps_one_reduced_denominator():
    dens = set()
    for x, y in _seeded_pairs(seed=21, count=6):
        results = _operation_results(x, y)
        for z in [x, y] + results:
            _assert_reduced(z)
            dens.add(z.den)
        # the series accumulators agree with the element arithmetic
        sx, sy = (GradedSeries.of_element(z, 4) for z in (x, y))
        assert sx * sy == GradedSeries.of_element(x * y, 4)
        assert sx - sy == GradedSeries.of_element(x - y, 4)
    assert {1, 2, 3, 7, 14} <= dens and max(dens) > 14


def test_equality_and_hash_are_structural():
    cases = 0
    for x, y in _seeded_pairs(seed=22, count=8):
        z = (x + y) - y
        assert z == x and hash(z) == hash(x)
        assert (z.num, z.den) == (x.num, x.den)
        cases += x.den != y.den
        w = Fraction(2, 3) * (Fraction(3, 2) * x)
        assert w == x and hash(w) == hash(x)
    assert cases > 20
    half = Fraction(1, 2) * kappa(1, 1)
    assert half + half == kappa(1, 1)
    assert (half + half).den == 1
    assert hash(half + half) == hash(kappa(1, 1))
    assert half != kappa(1, 1) and half - half == AlgebraElement.zero(1)


def _decorated_json(monoid, decor):
    return {"n": 1, "monoid": monoid.to_json(),
            "terms": [{"coeff": "1/2", "coactions": [1], "actions": [1],
                       "perm": [1], "decor": [decor]}]}


def test_from_json_rejects_decorations_outside_the_monoid():
    mod = PAIR_MONOIDS[3]
    for monoid, decor in ((SPLIT, 7), (TRIVIAL, 3), (SPLIT, [0]),
                          (RootCone(2, 2), [2, 1]), (mod, [4, 1]),
                          (RootCone(2, 2), [1]), (SPLIT, [[0]]),
                          (RootCone(2, 2), [[0], 1]), (mod, {})):
        with pytest.raises(ValueError, match="^decor entry .* is a "
                                             "decoration outside"):
            AlgebraElement.from_json(_decorated_json(monoid, decor))
    # arithmetic in a RootConeMod happens in its ambient cone of cap 4, so
    # (3, 0), which is not allowed, is still a decoration
    for monoid, decor in ((SPLIT, 1), (TRIVIAL, 0), (mod, [3, 0]),
                          (RootCone(2, 2), [1, 1])):
        x = AlgebraElement.from_json(_decorated_json(monoid, decor))
        assert x.to_json() == _decorated_json(monoid, decor)
        # and a programmatic key takes the same decorations
        dec = (tuple(decor) if isinstance(decor, list) else decor,)
        assert 2 * x == AlgebraElement.basis(1, ((1,), (1,), (1,), dec),
                                             monoid)
    # a JSON true is read as the decoration 1, and written back as 1
    x = AlgebraElement.from_json(_decorated_json(SPLIT, True))
    assert x.to_json() == _decorated_json(SPLIT, 1)
    x = AlgebraElement.from_json(_decorated_json(mod, [True, 0]))
    assert x.to_json() == _decorated_json(mod, [1, 0])
