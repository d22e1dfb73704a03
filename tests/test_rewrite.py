import itertools
import random
from fractions import Fraction

import pytest

from dyalg import algebra, rewrite
from dyalg.algebra import AlgebraElement, compose_basis, enumerate_basis, \
    kappa, quotient_allowed
from dyalg.monoids import RootCone, RootConeMod, SPLIT, TRIVIAL
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
    mod = RootConeMod(1, 4, frozenset({(0,), (1,)}))
    sl = [("coaction", 1), ("decor", 1, (1,)), ("action", 1),
          ("coaction", 1), ("decor", 1, (1,)), ("action", 1)]
    elt = straighten(sl, 1, mod)
    # the exchange terms merging the two strands into weight (2,) must die
    for key in elt.terms:
        assert all(d in mod.allowed for d in key[3])
    # (2,) splits into (1,) + (1,), which is not allowed: the quotient must
    # drop those keys from the cone result
    mod = RootConeMod(1, 4, frozenset({(0,), (2,)}))
    sl = [("coaction", 1), ("decor", 1, (2,)), ("delta",),
          ("action", 1), ("action", 1)]
    got = straighten(sl, 1, mod)
    cone = straighten(sl, 1, RootCone(1, 4))
    assert got == quotient_allowed(cone, mod)
    assert len(cone.terms) > len(got.terms)


def test_term_json_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        slices = random_term(2, rng, max_nodes=5)
        data = term_to_json(slices, 2)
        back, n, monoid = term_from_json(data)
        assert back == slices and n == 2


@pytest.mark.parametrize("monoid, node, field, value", [
    (SPLIT, None, "n", True), (SPLIT, 0, "slot", True),
    (SPLIT, 0, "slot", "1"), (SPLIT, 1, "perm", [1.0]),
    (SPLIT, 2, "position", True), (SPLIT, 2, "alpha", 5),
    (RootCone(2, 2), 2, "alpha", [0, 7]), (TRIVIAL, 2, "alpha", True),
    (SPLIT, 2, "alpha", [[0]]), (RootCone(2, 2), 2, "alpha", [[0], 1])])
def test_term_from_json_rejects_malformed_fields(monoid, node, field, value):
    zero = monoid.zero()
    data = {"n": 1, "monoid": monoid.to_json(), "nodes": [
        {"kind": "coaction", "slot": 1}, {"kind": "perm", "perm": [1]},
        {"kind": "decor", "position": 1,
         "alpha": list(zero) if isinstance(zero, tuple) else zero},
        {"kind": "action", "slot": 1}]}
    assert term_from_json(data)[0][2] == ("decor", 1, zero)
    (data if node is None else data["nodes"][node])[field] = value
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        term_from_json(data)


def test_term_from_json_rejects_unknown_node_kind():
    data = {"n": 1, "monoid": TRIVIAL.to_json(), "nodes": [{"kind": "twist"}]}
    with pytest.raises(ValueError, match="^unknown node kind 'twist'"):
        term_from_json(data)


def test_scripted_scheduler_rejects_a_trace_that_does_not_fit():
    slices = [("coaction", 1), ("action", 1), ("coaction", 1), ("action", 1)]
    record = []
    straighten(slices, 1, scheduler=Scheduler(record=record))
    assert record and record[0][0] != "mu"
    with pytest.raises(ValueError, match="^trace does not match term"):
        straighten(slices, 1, scheduler=ScriptedScheduler([("mu", 0)]))


def test_ill_typed_terms_rejected():
    with pytest.raises(ValueError):
        term_graph([("action", 1)], 1)
    with pytest.raises(ValueError):
        term_graph([("coaction", 1)], 1)  # open leg left
    with pytest.raises(ValueError):
        term_graph([("coaction", 1), ("mu",)], 1)
    with pytest.raises(ValueError):
        straighten([("coaction", 1), ("perm", (2, 1)), ("action", 1)], 1)
    for slot, n in ((0, 1), (2, 1), (0, 2), (3, 2)):
        message = rf"slot {slot} out of range 1\.\.{n}"
        with pytest.raises(ValueError, match=message):
            term_graph([("coaction", slot), ("action", 1)], n)
        with pytest.raises(ValueError, match=message):
            term_graph([("coaction", 1), ("action", slot)], n)
    with pytest.raises(ValueError, match="cobracket needs an open leg"):
        term_graph([("delta",), ("mu",)], 1)
    for position in (0, 2):
        with pytest.raises(ValueError,
                           match="decoration position out of range"):
            term_graph([("coaction", 1), ("decor", position, 0),
                        ("action", 1)], 1)
    with pytest.raises(ValueError, match="unknown slice kind 'twist'"):
        term_graph([("coaction", 1), ("twist",), ("action", 1)], 1)
    # a decoration conflict makes the term 0 only once it is well typed
    clash = [("coaction", 1), ("decor", 1, 0), ("decor", 1, 1)]
    with pytest.raises(ValueError, match="bracket needs two open legs"):
        term_graph(clash + [("mu",), ("action", 1)], 1)
    assert term_graph(clash + [("action", 1)], 1) is None
    with pytest.raises(ValueError, match="term is not an endomorphism"):
        term_graph([("coaction", 1)] + clash + [("action", 1)], 1)


def _brackets(t):
    """The bracket ids, read off the legs: every bracket has two inputs."""
    return {p[1] for p in t.wire_from if p[0] == "m"}


def _check_records(t):
    """A term's records agree with its legs: ``mus`` holds exactly the
    brackets, and the lines hold each action and coaction port once."""
    assert t.mus == _brackets(t)
    ports = [x for line in t.lines for x in line]
    assert len(ports) == len(set(ports))
    assert set(ports) == ({p for p in t.wire_from if p[0] == "a"}
                          | {p for p in t.wire_to if p[0] == "c"})


def test_rules_build_their_last_output_on_their_input(monkeypatch):
    """A rule edits copies for all its outputs but the last, which it
    builds on its input term.  PUSH_MU drops a decomposition whose
    decorations clash, so its last output is its input only when its last
    decomposition survives; otherwise no output is.  Every output's
    records agree with its legs."""
    fired = dict.fromkeys(("act_mu", "cocycle", "exchange", "push_mu"), 0)
    pushes = {True: 0, False: 0}  # by whether the last decomposition lives

    def last_survives(t, mid, monoid):
        beta, gamma = monoid.decompositions(t.dec[("m", mid)])[-1]
        return all(t.dec.get(t.wire_from[("m", mid, k)]) in (None, d)
                   for k, d in ((0, beta), (1, gamma)))

    def checked(name, rule):
        def wrapped(t, *args):
            fired[name] += 1
            kept = name != "push_mu" or last_survives(t, *args)
            if name == "push_mu":
                pushes[kept] += 1
            results = rule(t, *args)
            terms = [s for s, _ in results]
            assert all(s is not t for s in terms[:-1]), name
            if kept:
                assert terms[-1] is t, name
            else:
                assert all(s is not t for s in terms), name
            for s in terms:
                _check_records(s)
            return results
        return wrapped

    for name in fired:
        monkeypatch.setattr(rewrite, f"_apply_{name}",
                            checked(name, getattr(rewrite, f"_apply_{name}")))
    rng = random.Random(43)
    for trial in range(300):
        monoid = (TRIVIAL, SPLIT, RootCone(2, 2))[trial % 3]
        n = rng.choice((1, 2))
        slices = random_term(n, rng, max_nodes=7, monoid=monoid)
        straighten(slices, n, monoid, scheduler=RandomScheduler(seed=trial))
    assert min(fired.values()) >= 100, fired
    assert pushes[True] >= 100 and pushes[False] >= 3, pushes


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


def _straightened(n, s, t, monoid):
    """The structure constants of s after t, straightened directly from
    the slice composite, never through ``compose_basis``."""
    decorated = not monoid.is_trivial()
    return rewrite.straighten_graph(term_graph(
        rewrite.slices_of_key(t, decorated)
        + rewrite.slices_of_key(s, decorated), n), monoid)


def _counting_straightens(monkeypatch) -> list:
    calls = []
    straighten_graph = rewrite.straighten_graph

    def counted(*args):
        calls.append(args)
        return straighten_graph(*args)
    monkeypatch.setattr(rewrite, "straighten_graph", counted)
    return calls


QUOTIENT = RootConeMod(2, 1, frozenset({(0, 0), (1, 0)}))
ORBIT_CASES = (  # (monoid, slots, top strand degree of a product)
    [(TRIVIAL, n, 4) for n in (2, 3)]
    + [(monoid, n, 5 - n) for monoid in (SPLIT, RootCone(2, 1), QUOTIENT)
       for n in (2, 3)])


def _orbits(n, pairs, monoid, reversal):
    """The number of orbits of ``pairs`` under the slot permutations, and
    under the reversal ``(s, t) -> (τt, τs)`` too if ``reversal``."""
    perms = list(itertools.permutations(range(1, n + 1)))
    image = {}
    for k in {k for pair in pairs for k in pair}:
        for p in perms:
            (image[k, p],) = algebra.slot_permute(
                AlgebraElement.basis(n, k, monoid), p).num
    tau = algebra._reverse_key
    orbits = set()
    for s, t in pairs:
        mates = [(s, t), (tau(t), tau(s))] if reversal else [(s, t)]
        orbits.add(frozenset((image[a, p], image[b, p])
                             for a, b in mates for p in perms))
    return len(orbits)


@pytest.mark.parametrize("monoid,n,top", ORBIT_CASES)
def test_orbit_reads_equal_direct_straightening(monkeypatch, monoid, n, top):
    # every pair of keys of strand degree 1-2 whose product has degree at
    # most top; slot permutations and the reversal map this set onto itself,
    # so each orbit's first pair is straightened and every later pair finds
    # a mate cached, fewer straightenings than the slot orbits alone give
    monkeypatch.setattr(algebra, "_CACHE", {})
    keys = [k for d in (1, 2) for k in enumerate_basis(n, d, monoid)]
    pairs = [(s, t) for s in keys for t in keys
             if len(s[2]) + len(t[2]) <= top]
    calls = _counting_straightens(monkeypatch)
    got = [compose_basis(n, s, t, monoid) for s, t in pairs]
    assert len(algebra._CACHE) == len(pairs)
    assert len(calls) == _orbits(n, pairs, monoid, reversal=True)
    assert len(calls) < _orbits(n, pairs, monoid, reversal=False)
    monkeypatch.undo()
    for (s, t), constants in zip(pairs, got):
        assert constants == _straightened(n, s, t, monoid), (s, t)


def test_a_permuted_pair_is_read_off_its_mate(monkeypatch):
    calls = _counting_straightens(monkeypatch)
    n, monoid = 3, SPLIT
    s = ((1, 0, 1), (0, 2, 0), (2, 1), (1, 0))
    t = ((0, 1, 1), (1, 0, 1), (1, 2), (0, 1))
    for perm in itertools.permutations((1, 2, 3)):
        # only (s, t) is cached when its image under perm is asked for
        monkeypatch.setattr(algebra, "_CACHE", {})
        calls.clear()
        constants = compose_basis(n, s, t, monoid)
        (ps,), (pt,) = (algebra.slot_permute(
            AlgebraElement.basis(n, k, monoid), perm).num for k in (s, t))
        image = compose_basis(n, ps, pt, monoid)
        assert len(calls) == 1
        assert len(algebra._CACHE) == len({(s, t), (ps, pt)})
        assert AlgebraElement.from_integers(n, monoid, image, 1) == (
            algebra.slot_permute(AlgebraElement.from_integers(
                n, monoid, constants, 1), perm))


def test_a_reversed_pair_is_read_off_its_mate(monkeypatch):
    calls = _counting_straightens(monkeypatch)
    tau = algebra._reverse_key
    n, monoid = 3, SPLIT
    # s acts twice on slot 2, while τt acts on slots 2 and 3, so no slot
    # permutation maps (s, t) to a permuted (τt, τs): only the reversed
    # mate can be found
    s = ((1, 0, 1), (0, 2, 0), (2, 1), (1, 0))
    t = ((0, 1, 1), (1, 0, 1), (1, 2), (0, 1))
    for perm in itertools.permutations((1, 2, 3)):
        # only (s, t) is cached when (τt, τs) permuted by perm is asked for
        monkeypatch.setattr(algebra, "_CACHE", {})
        calls.clear()
        compose_basis(n, s, t, monoid)
        (ps,), (pt,) = (algebra.slot_permute(
            AlgebraElement.basis(n, tau(k), monoid), perm).num
            for k in (t, s))
        image = compose_basis(n, ps, pt, monoid)
        assert len(calls) == 1 and len(algebra._CACHE) == 2
        assert image == _straightened(n, ps, pt, monoid)


# (monoid, slots, top strand degree of a product): each case takes every
# pair of keys of strand degree 1-2 whose product has degree at most top.
# top 4 is every such pair; the others keep each case under about 1.5 s of
# direct straightening and the whole test under about 6 s on a 2-core host
REVERSAL_CASES = (
    [(monoid, 1, 4) for monoid in (TRIVIAL, SPLIT, RootCone(2, 1), QUOTIENT)]
    + [(TRIVIAL, n, 4) for n in (2, 3)]
    + [(monoid, 2, 3) for monoid in (SPLIT, RootCone(2, 1), QUOTIENT)]
    + [(SPLIT, 3, 3), (QUOTIENT, 3, 3), (RootCone(2, 1), 3, 2)])


def test_reversal_is_an_anti_automorphism():
    # time reversal τ turns every diagram round: s after t straightens to τ
    # of τt after τs, key by key, with no sign.  Both sides are straightened
    # directly, so the cache's reversed-mate reads are checked against
    # diagrams that never went through compose_basis
    tau = algebra._reverse_key
    for monoid, n, top in REVERSAL_CASES:
        keys = [k for d in (1, 2) for k in enumerate_basis(n, d, monoid)]
        for k in keys:
            assert tau(tau(k)) == k
            for perm in itertools.permutations(range(1, n + 1)):
                (pk,), (p_tau_k,) = (algebra.slot_permute(
                    AlgebraElement.basis(n, key, monoid), perm).num
                    for key in (k, tau(k)))
                assert tau(pk) == p_tau_k, (k, perm)
        direct = {}
        for s in keys:
            for t in keys:
                if len(s[2]) + len(t[2]) <= top:
                    direct[s, t] = _straightened(n, s, t, monoid)
        for (s, t), constants in direct.items():
            mate = direct[tau(t), tau(s)]
            assert constants == {tau(k): c for k, c in mate.items()}, (s, t)


# -- stage 3 against stepwise rewriting --------------------------------------
#
# The reference below resolves the latent cobracket trees stepwise:
# DELTA_COACT and PUSH_DELTA rewrite every tree away, one term copy per
# branch, and a readout then reads one key per decoration choice off each
# arch term.  It is kept here, apart from the package, so that the package's
# recursive readout is checked against an independent implementation.

# the positive roots of B2 and 0: not closed under decomposition, since
# (1, 2) = (1, 0) + (0, 2), so the quotient filter has work to do
B2_MOD = RootConeMod(2, 3, frozenset({(0, 0), (1, 0), (0, 1), (1, 1), (1, 2)}))


def _ref_merge(t, prod, decor):
    old = t.dec.get(prod)
    if old is None:
        t.dec[prod] = decor
        return True
    return old == decor


def _ref_delta_coact(t, did):
    coact = t.wire_from[("d", did)]
    cons0 = t.wire_to[("d", did, 0)]
    cons1 = t.wire_to[("d", did, 1)]
    d0 = t.dec.get(("d", did, 0))
    d1 = t.dec.get(("d", did, 1))
    slot, pi = t.locate(coact)
    out = []
    # c1 is first in time; + feeds output 0 from c2, - from c1
    for first_to_0, sgn in ((False, 1), (True, -1)):
        s = t.copy()
        s.disconnect(coact)
        s.wire_to.pop(("d", did, 0)), s.wire_from.pop(cons0)
        s.wire_to.pop(("d", did, 1)), s.wire_from.pop(cons1)
        s.dec.pop(("d", did, 0), None)
        s.dec.pop(("d", did, 1), None)
        c1 = ("c", s.fresh("c"))
        c2 = ("c", s.fresh("c"))
        s.lines[slot][pi:pi + 1] = [c1, c2]
        to0, to1 = (c1, c2) if first_to_0 else (c2, c1)
        s.connect(to0, cons0, d0)
        s.connect(to1, cons1, d1)
        out.append((s, sgn))
    return out


def _ref_push_delta(t, did, monoid):
    prod = t.wire_from[("d", did)]
    alpha = t.dec[prod]
    out = []
    for beta, gamma in monoid.decompositions(alpha):
        s = t.copy()
        s.dec.pop(prod)
        if (_ref_merge(s, ("d", did, 0), beta)
                and _ref_merge(s, ("d", did, 1), gamma)):
            out.append((s, 1))
    return out


def _ref_extract(t, monoid):
    co_comp, ac_comp = [], []
    co_pos, ac_pos = {}, {}
    cbase = abase = 0
    for line in t.lines:
        coacts = [x for x in line if x[0] == "c"]
        acts = [x for x in line if x[0] == "a"]
        assert line == coacts + acts
        for i, x in enumerate(coacts):
            co_pos[x] = cbase + i + 1
        for i, x in enumerate(acts):
            ac_pos[x] = abase + len(acts) - i
        cbase += len(coacts)
        abase += len(acts)
        co_comp.append(len(coacts))
        ac_comp.append(len(acts))
    perm = [0] * cbase
    strand_dec = [None] * cbase
    for prod, cons in t.wire_to.items():
        assert prod[0] == "c" and cons[0] == "a"
        perm[co_pos[prod] - 1] = ac_pos[cons]
        strand_dec[ac_pos[cons] - 1] = t.dec.get(prod)
    if monoid.is_trivial():
        return [(tuple(co_comp), tuple(ac_comp), tuple(perm),
                 (monoid.zero(),) * cbase)], 0
    keys, dropped = [], 0
    open_positions = [i for i, d in enumerate(strand_dec) if d is None]
    for choice in itertools.product(monoid.elements(),
                                    repeat=len(open_positions)):
        dec = list(strand_dec)
        for i, pos in enumerate(open_positions):
            dec[pos] = choice[i]
        if (isinstance(monoid, RootConeMod)
                and not all(monoid.is_allowed(d) for d in dec)):
            dropped += 1
            continue
        keys.append((tuple(co_comp), tuple(ac_comp), tuple(perm), tuple(dec)))
    return keys, dropped


def _ref_stage_3(sorted_terms, monoid, fired):
    out = {}
    work = list(sorted_terms)
    while work:
        t, c = work.pop()
        rooted = sorted(p[1] for p, prod in t.wire_from.items()
                        if p[0] == "d" and prod[0] == "c")
        if rooted:
            if t.wire_from[("d", rooted[0])] in t.dec:
                fired["push_delta"] += 1
                results = _ref_push_delta(t, rooted[0], monoid)
            else:
                fired["delta_coact"] += 1
                results = _ref_delta_coact(t, rooted[0])
            work.extend((s, c * c2) for s, c2 in results)
            continue
        assert all(p[0] != "d" for p in t.wire_from), "unrooted cobracket"
        keys, dropped = _ref_extract(t, monoid)
        fired["quotient_drop"] += dropped
        for key in keys:
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def test_readout_matches_stepwise_reference(monkeypatch):
    rng = random.Random(41)
    fired = dict.fromkeys(("delta_coact", "push_delta", "quotient_drop"), 0)
    nonzero = 0
    for trial in range(320):
        monoid = (TRIVIAL, SPLIT, RootCone(2, 2), B2_MOD)[trial % 4]
        n = rng.choice((1, 2))
        slices = random_term(n, rng, max_nodes=6, monoid=monoid)
        if term_graph(slices, n) is None:
            continue
        sorted_terms = []

        def record_sorted(t, _monoid, c, _out):
            if _action_coaction_pairs(t):
                return False
            sorted_terms.append((t, c))
            return True

        with monkeypatch.context() as m:
            # stages 1 and 2 through the package, stopped before stage 3
            m.setattr(rewrite, "_readout", record_sorted)
            rewrite.straighten_graph(term_graph(slices, n), monoid)
        want = _ref_stage_3(sorted_terms, monoid, fired)
        got = rewrite.straighten_graph(term_graph(slices, n), monoid)
        assert got == want, slices
        nonzero += bool(want)
    assert nonzero >= 200
    assert fired["delta_coact"] >= 500
    assert fired["push_delta"] >= 50
    assert fired["quotient_drop"] >= 20


def test_quotient_straightening_is_restricted_cone_straightening():
    allowed = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
    mod, cone = RootConeMod(2, 4, allowed), RootCone(2, 4)
    rng = random.Random(8)
    for _ in range(300):
        n = rng.choice((1, 2))
        s, t = (rng.choice(enumerate_basis(n, rng.randint(0, 2), mod))
                for _ in range(2))
        got = compose_basis(n, s, t, mod)
        full = compose_basis(n, s, t, cone)
        assert got
        assert got == {k: c for k, c in full.items()
                       if all(d in allowed for d in k[3])}


def _action_coaction_pairs(t):
    """The stage-2 measure: (action A, coaction C) pairs with A before C on
    a common line."""
    pairs = 0
    for line in t.lines:
        actions = 0
        for x in line:
            if x[0] == "a":
                actions += 1
            elif x[0] == "c":
                pairs += actions
    return pairs


def _safe_ref(t):
    """The safe EXCHANGE patterns by their definition, as (action,
    coaction) id pairs in line order: an action right before a coaction on
    a line, where no action that the coaction's leg reaches through its
    cobracket tree (followed along ``wire_to``) has a coaction after it on
    its line."""

    def fed(prod):
        cons = t.wire_to[prod]
        if cons[0] == "d":
            return fed(("d", cons[1], 0)) + fed(("d", cons[1], 1))
        return [cons]

    def inversion_free(act):
        line = next(line for line in t.lines if act in line)
        return all(x[0] == "a" for x in line[line.index(act):])

    return [(a[1], c[1]) for line in t.lines for a, c in zip(line, line[1:])
            if a[0] == "a" and c[0] == "c"
            and all(map(inversion_free, fed(c)))]


def _resolve_brackets(t, monoid):
    """Stage 1 alone: resolve the lowest bracket until none is left.  A
    rule consumes its input, so this works on a copy of ``t``."""
    work, done = [t.copy()], []
    while work:
        s = work.pop()
        if _brackets(s):
            work.extend(r for r, _ in
                        rewrite._resolve_bracket(s, min(_brackets(s)), monoid))
        else:
            done.append(s)
    return done


def test_stage_two_measure_strictly_drops(monkeypatch):
    exchange = rewrite._apply_exchange
    transitions = []

    def checked_exchange(t, act_id, coact_id):
        assert (act_id, coact_id) in _safe_ref(t)
        before = _action_coaction_pairs(t)
        results = exchange(t, act_id, coact_id)
        for s, _ in results:
            for r in _resolve_brackets(s, monoid):
                transitions.append(_action_coaction_pairs(r) < before)
        return results

    monkeypatch.setattr(rewrite, "_apply_exchange", checked_exchange)
    rng = random.Random(29)
    for trial in range(300):
        monoid = (TRIVIAL, SPLIT, RootCone(2, 2))[trial % 3]
        n = rng.choice((1, 2))
        slices = random_term(n, rng, max_nodes=6, monoid=monoid)
        straighten(slices, n, monoid, scheduler=RandomScheduler(seed=trial))
    assert len(transitions) >= 500
    assert all(transitions)


def test_one_walk_decides_the_stage():
    """On the bracket-free terms of stages 1 and 2 (each exchanged term's
    branches resolved again), ``safe_patterns`` agrees with the reference,
    ``_exchange_form`` counts the stage-2 measure, and ``_readout`` reads a
    term exactly when it is sorted."""
    rng = random.Random(67)
    seen = dict.fromkeys(("sorted", "unsorted", "unsafe"), 0)
    for trial in range(300):
        monoid = (TRIVIAL, SPLIT, RootCone(2, 2), B2_MOD)[trial % 4]
        n = rng.choice((1, 2))
        t0 = term_graph(random_term(n, rng, max_nodes=7, monoid=monoid), n)
        work = _resolve_brackets(t0, monoid) if t0 is not None else []
        while work:
            t = work.pop()
            pairs = _action_coaction_pairs(t)
            safe = t.safe_patterns()
            assert safe == _safe_ref(t)
            assert bool(safe) == (pairs > 0)
            assert rewrite._exchange_form(t)[0] == pairs
            acc = {}
            read = rewrite._readout(t, monoid, 1, acc)
            assert (not read and not acc) == (pairs > 0)
            seen["sorted" if read else "unsorted"] += 1
            seen["unsafe"] += len(safe) < sum(
                a[0] == "a" and c[0] == "c"
                for line in t.lines for a, c in zip(line, line[1:]))
            if safe:
                for r, _ in rewrite._apply_exchange(t.copy(), *safe[0]):
                    work.extend(_resolve_brackets(r, monoid))
    assert seen["sorted"] >= 1000 and seen["unsorted"] >= 1000, seen
    assert seen["unsafe"] >= 30, seen


def _stage_one_measure(t):
    """(bracket count, (bracket, cobracket) pairs with the cobracket
    reachable along legs from the bracket's output, sum over decorated
    bracket outputs of the number of brackets in the tree feeding it)."""

    def below(prod):  # cobrackets reachable from a producer port
        cons = t.wire_to[prod]
        if cons[0] == "m":
            return below(("m", cons[1]))
        if cons[0] == "d":
            return ({cons[1]} | below(("d", cons[1], 0))
                    | below(("d", cons[1], 1)))
        return set()

    def above(mid):  # brackets in the tree feeding a bracket, itself too
        return 1 + sum(above(prod[1]) for prod in
                       (t.wire_from[("m", mid, 0)], t.wire_from[("m", mid, 1)])
                       if prod[0] == "m")

    mus = _brackets(t)
    return (len(mus), sum(len(below(("m", m))) for m in mus),
            sum(above(m) for m in mus if ("m", m) in t.dec))


def test_stage_one_measure_strictly_drops(monkeypatch):
    resolve = rewrite._resolve_bracket
    transitions = []
    fired = dict.fromkeys(("act_mu", "cocycle", "push_mu"), 0)

    def checked_resolve(t, mid, monoid):
        before = _stage_one_measure(t)
        results = resolve(t, mid, monoid)
        transitions.extend(_stage_one_measure(s) < before for s, _ in results)
        return results

    def counted(name, rule):
        def wrapped(*args):
            fired[name] += 1
            return rule(*args)
        return wrapped

    monkeypatch.setattr(rewrite, "_resolve_bracket", checked_resolve)
    for name in fired:
        monkeypatch.setattr(rewrite, f"_apply_{name}",
                            counted(name, getattr(rewrite, f"_apply_{name}")))
    rng = random.Random(31)
    for trial in range(400):
        monoid = (TRIVIAL, SPLIT, RootCone(2, 2))[trial % 3]
        n = rng.choice((1, 2))
        slices = random_term(n, rng, max_nodes=7, monoid=monoid)
        straighten(slices, n, monoid, scheduler=RandomScheduler(seed=trial))
    assert len(transitions) >= 5000
    assert all(transitions)
    assert min(fired.values()) >= 100, fired


# -- netting: each bracket-free term is rewritten once per call ---------------

_OUT_PORTS = {"c": ((),), "a": (), "m": ((),), "d": ((0,), (1,))}
_IN_PORTS = {"c": (), "a": ((),), "m": ((0,), (1,)), "d": ((),)}


def _relabelled(t):
    """``t`` up to node ids: number the nodes breadth first, starting from
    the lines in order and following every leg both ways in port order,
    and rename every port and decoration by those numbers."""
    queue = [x for line in t.lines for x in line]  # nodes as (kind, id)
    new = {x: i for i, x in enumerate(queue)}
    for k, x in queue:  # the queue grows while it is read
        ends = ([t.wire_to[(k, x) + e] for e in _OUT_PORTS[k]]
                + [t.wire_from[(k, x) + e] for e in _IN_PORTS[k]])
        for y in ends:
            if y[:2] not in new:
                new[y[:2]] = len(new)
                queue.append(y[:2])
    assert len(new) == len({p[:2] for p in (*t.wire_to, *t.wire_from)})

    def port(p):
        return (p[0], new[p[:2]], *p[2:])

    return (tuple(tuple(new[x] for x in line) for line in t.lines),
            frozenset((new[x], x[0]) for x in new),
            frozenset((port(p), port(c)) for p, c in t.wire_to.items()),
            frozenset((port(p), d) for p, d in t.dec.items()))


def _straighten_unnetted(t, monoid, exchange):
    """Stages 1 and 2 by the package's rules on a plain work list, one term
    per occurrence, then the stepwise stage 3 above.  Returns the keys and
    the number of EXCHANGE steps."""
    work, sorted_terms, exchanges = [(t, 1)], [], 0
    while work:
        s, c = work.pop()
        if _brackets(s):
            results = rewrite._resolve_bracket(s, min(_brackets(s)), monoid)
        elif _action_coaction_pairs(s):
            results = exchange(s, *_safe_ref(s)[-1])
            exchanges += 1
        else:
            sorted_terms.append((s, c))
            continue
        work.extend((r, c * c2) for r, c2 in results)
    fired = dict.fromkeys(("delta_coact", "push_delta", "quotient_drop"), 0)
    return _ref_stage_3(sorted_terms, monoid, fired), exchanges


def test_netting_is_complete_and_transparent(monkeypatch):
    exchange = rewrite._apply_exchange
    handed = []  # (stage-2 measure, term up to node ids) per EXCHANGE input

    def recorded(t, act_id, coact_id):
        handed.append((_action_coaction_pairs(t), _relabelled(t)))
        return exchange(t, act_id, coact_id)

    monkeypatch.setattr(rewrite, "_apply_exchange", recorded)
    rng = random.Random(59)
    netted = unnetted = nonzero = 0
    for trial in range(320):
        monoid = (TRIVIAL, SPLIT, RootCone(2, 2), B2_MOD)[trial % 4]
        n = rng.choice((1, 2))
        slices = random_term(n, rng, max_nodes=7, monoid=monoid)
        if term_graph(slices, n) is None:
            continue
        want, steps = _straighten_unnetted(term_graph(slices, n), monoid,
                                           exchange)
        handed.clear()
        got = rewrite.straighten_graph(term_graph(slices, n), monoid,
                                       RandomScheduler(seed=trial))
        assert got == want, slices
        measures = [m for m, _ in handed]
        assert measures == sorted(measures, reverse=True), slices
        assert len({form for _, form in handed}) == len(handed), slices
        netted += len(handed)
        unnetted += steps
        nonzero += bool(want)
    assert nonzero >= 200
    assert netted >= 300
    assert unnetted - netted >= 100  # netting merged terms
