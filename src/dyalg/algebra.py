"""The graded algebras of normally ordered diagrams on n module slots.

A basis element is stored as a key ``(coactions, actions, perm, decor)``:

* ``coactions``  composition giving the number of coaction legs per slot;
  legs are numbered 1..N, slot blocks in order, first-applied leftmost;
* ``actions``    composition giving action legs per slot; within a slot the
  position-1 leg is the last action applied;
* ``perm``       one-line permutation matching coaction position q to
  action position perm[q-1];
* ``decor``      decoration per strand, indexed by action position.

An algebra element is a finite rational linear combination of such keys:
integer numerators ``num`` (none zero) over one denominator ``den`` > 0 with
``gcd(den, *num.values()) == 1``, so equal elements are stored alike and all
arithmetic is in Python ints.  ``terms`` is a Fraction view built on demand.
Multiplication straightens the composite diagram (``x * y`` is "x after y")
and is graded by the strand count N.  The diagrams form a PROP, so slot
permutations act on each algebra as automorphisms.  The PROP is self-dual:
time reversal τ, which turns every arrow round, swaps coactions with
actions, τ(co, ac, perm, dec) = (ac, co, perm⁻¹, dec') with dec'[q] =
dec[perm[q] - 1], and is an anti-automorphism.  The structure constants
are memoized per pair of keys, and a pair whose slot-permuted or reversed
mate is already memoized is read off the mate instead of straightened.
Straightening s after t never reads which coaction of t feeds which of
its actions, so for one left factor the products with every wiring
``perm`` of one right factor ``(co, ac, dec)`` are read off one run.  The
memo holds the same entries either way.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .monoids import (DecorationMonoid, RootCone, RootConeMod, SPLIT, Split,
                      TRIVIAL, Trivial, monoid_from_json)
from .permutations import (_natural, all_permutations, block_starts,
                           compositions, inverse, sign)
from . import rewrite

Key = tuple  # (coactions, actions, perm, decor)


def key_degree(key: Key) -> int:
    return len(key[2])


def sort_key(key: Key):
    co, ac, perm, dec = key
    return (len(perm), co, dec, perm, ac)


def unit_key(n: int) -> Key:
    return ((0,) * n, (0,) * n, (), ())


class AlgebraElement:
    """Immutable-by-convention linear combination of basis keys."""

    __slots__ = ("n", "monoid", "num", "den")

    def __init__(self, n: int, monoid: DecorationMonoid,
                 terms: dict | None = None):
        # the lcm of reduced denominators leaves num and den coprime
        terms = {k: c for k, c in (terms or {}).items() if c}
        self.n = n
        self.monoid = monoid
        self.den = den = math.lcm(*[c.denominator for c in terms.values()])
        self.num = {k: c.numerator * (den // c.denominator)
                    for k, c in terms.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_integers(cls, n: int, monoid: DecorationMonoid,
                      num: dict[Key, int], den: int) -> "AlgebraElement":
        """``num`` (no zero values; kept, not copied) over ``den`` > 0,
        reduced by their gcd."""
        g = math.gcd(den, *num.values())
        self = cls.__new__(cls)
        self.n = n
        self.monoid = monoid
        self.num = {k: v // g for k, v in num.items()} if g > 1 else num
        self.den = den // g
        return self

    @staticmethod
    def zero(n: int, monoid: DecorationMonoid = TRIVIAL) -> "AlgebraElement":
        return AlgebraElement.from_integers(n, monoid, {}, 1)

    @staticmethod
    def unit(n: int, monoid: DecorationMonoid = TRIVIAL) -> "AlgebraElement":
        return AlgebraElement.from_integers(n, monoid, {unit_key(n): 1}, 1)

    @staticmethod
    def basis(n: int, key: Key,
              monoid: DecorationMonoid = TRIVIAL) -> "AlgebraElement":
        _check_key(n, key, monoid)
        return AlgebraElement.from_integers(n, monoid, {key: 1}, 1)

    @property
    def terms(self) -> dict[Key, Fraction]:
        """The coefficients as Fractions, built on each access."""
        return {k: Fraction(v, self.den) for k, v in self.num.items()}

    # -- linear structure ---------------------------------------------------

    def _assert_compatible(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"slot count mismatch: {self.n} vs {other.n}")
        if self.monoid.key() != other.monoid.key():
            raise ValueError("decoration monoid mismatch")

    def __add__(self, other: "AlgebraElement", sign: int = 1
                ) -> "AlgebraElement":
        """self + sign * other, over the lcm of the two denominators."""
        self._assert_compatible(other)
        den = math.lcm(self.den, other.den)
        scale = den // self.den
        num = ({k: v * scale for k, v in self.num.items()} if scale > 1
               else dict(self.num))
        sign *= den // other.den
        for k, v in other.num.items():
            new = num.get(k, 0) + sign * v
            if new:
                num[k] = new
            else:
                del num[k]
        return AlgebraElement.from_integers(self.n, self.monoid, num, den)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.__add__(other, -1)

    def __rmul__(self, scalar) -> "AlgebraElement":
        if isinstance(scalar, (int, Fraction)):
            if not scalar:
                return AlgebraElement.zero(self.n, self.monoid)
            p = scalar.numerator
            return AlgebraElement.from_integers(
                self.n, self.monoid, {k: v * p for k, v in self.num.items()},
                self.den * scalar.denominator)
        return NotImplemented

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return other * self
        out: dict[Key, int] = {}
        add_product(out, self, other)
        return AlgebraElement.from_integers(self.n, self.monoid, out,
                                            self.den * other.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement) and self.n == other.n
                and self.monoid.key() == other.monoid.key()
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.n, self.monoid.key(), self.den,
                     frozenset(self.num.items())))

    def is_zero(self) -> bool:
        return not self.num

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return self * other - other * self

    def degrees(self) -> set[int]:
        return {key_degree(k) for k in self.num}

    def graded_component(self, deg: int) -> "AlgebraElement":
        return AlgebraElement.from_integers(
            self.n, self.monoid,
            {k: v for k, v in self.num.items() if key_degree(k) == deg},
            self.den)

    def sorted_terms(self) -> list[tuple[Key, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        bits = []
        for k, c in self.sorted_terms():
            co, ac, perm, dec = k
            body = f"<co={co}|ac={ac}|s={perm}|d={dec}>"
            bits.append(f"{c}*{body}")
        return " + ".join(bits)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "monoid": self.monoid.to_json(),
            "terms": [
                {"coeff": str(c), "coactions": list(k[0]), "actions": list(k[1]),
                 "perm": list(k[2]), "decor": [_dec_json(d) for d in k[3]]}
                for k, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "AlgebraElement":
        monoid = monoid_from_json(data["monoid"])
        n = _natural(data["n"], "n")
        terms: dict[Key, Fraction] = {}
        for t in data["terms"]:
            dec = tuple([_read_decoration(d, monoid) for d in t["decor"]])
            key = tuple(tuple([_natural(v, f"{f} entry") for v in t[f]])
                        for f in ("coactions", "actions", "perm")) + (dec,)
            _check_key(n, key, monoid)
            terms[key] = terms.get(key, 0) + _rational(t["coeff"], "coeff")
        return AlgebraElement(n, monoid, terms)


def add_product(acc: dict[Key, int], x: AlgebraElement, y: AlgebraElement,
                factor: int = 1) -> None:
    """Add ``factor * x.den * y.den * (x * y)``, an integer combination as
    every structure constant is an int, into ``acc``; zeros are removed.

    A pair with the unit key (the one key of strand degree 0) multiplies to
    the other key, so its ``cs * ct`` goes straight into ``acc`` without a
    ``compose_basis`` call.
    """
    x._assert_compatible(y)
    n, monoid = x.n, x.monoid
    for ks, cs in x.num.items():
        cs *= factor
        for kt, ct in y.num.items():
            v = cs * ct
            if not (ks[2] and kt[2]):
                k = kt if kt[2] else ks
                new = acc.get(k, 0) + v
                if new:
                    acc[k] = new
                else:
                    del acc[k]
                continue
            for k, c in compose_basis(n, ks, kt, monoid).items():
                new = acc.get(k, 0) + v * c
                if new:
                    acc[k] = new
                else:
                    del acc[k]


def _rational(value, name: str) -> Fraction:
    """``value`` read exactly: a string such as "2/3" or an int (a bool is
    not one).  A float is refused, as it is seldom the number written."""
    if type(value) is not int and not isinstance(value, str):
        raise ValueError(f"{name} must be a string or an integer, "
                         f"got {value!r}")
    return Fraction(value)


def _dec_json(d):
    return list(d) if isinstance(d, tuple) else d


_DECORATIONS: dict[DecorationMonoid, dict] = {}


def _decorations(monoid: DecorationMonoid) -> dict:
    """The decorations a key on ``monoid`` may carry, each mapped to itself,
    built once per monoid.  Arithmetic happens in the ambient cone of a
    RootConeMod, so its table is the cone's."""
    decors = _DECORATIONS.get(monoid)
    if decors is None:
        decors = _DECORATIONS[monoid] = {
            d: d for d in (RootCone(monoid.rank, monoid.cap)
                           if isinstance(monoid, RootConeMod)
                           else monoid).elements()}
    return decors


def _outside(d, monoid: DecorationMonoid) -> ValueError:
    return ValueError(f"decor entry {d!r} is a decoration outside the "
                      f"{monoid.name} monoid")


def _read_decoration(d, monoid: DecorationMonoid):
    """The member of :func:`_decorations` equal to the JSON decoration
    ``d`` (1 for true); a ValueError when there is none."""
    try:
        dec = _decorations(monoid).get(tuple(d) if isinstance(d, list) else d)
    except TypeError:  # unhashable, e.g. a list inside the list
        dec = None
    if dec is None:
        raise _outside(d, monoid)
    return dec


def _check_key(n: int, key: Key, monoid: DecorationMonoid) -> None:
    co, ac, perm, dec = key
    if len(co) != n or len(ac) != n:
        raise ValueError("composition length != slot count")
    total = sum(co)
    if sum(ac) != total or len(perm) != total or len(dec) != total:
        raise ValueError("inconsistent strand counts in key")
    if sorted(perm) != list(range(1, total + 1)):
        raise ValueError("perm is not a permutation")
    decors = _decorations(monoid)
    for d in dec:
        if d not in decors:
            raise _outside(d, monoid)


# ---------------------------------------------------------------------------
# structure constants


_CACHE: dict[tuple, dict[Key, int]] = {}
# per slot count n, the slot regrouping by p's inverse for every slot
# permutation p, in ``all_permutations`` order: it maps a mate's entry back
_BACK: dict[int, tuple] = {}


def compose_basis(n: int, s_key: Key, t_key: Key,
                  monoid: DecorationMonoid = TRIVIAL) -> dict[Key, int]:
    """Structure constants of ``s after t``, memoized.

    The composite is the slice form of t followed by that of s (see
    :func:`dyalg.rewrite.slices_of_key`), straightened.  Every rewrite rule
    has coefficient +-1, so the constants are exact Python ints.

    Slot permutations act on the n-slot algebra as automorphisms (the
    diagrams live in a PROP), so ``compose_basis(n, p.s, p.t)`` is p applied
    to ``compose_basis(n, s, t)``.  Time reversal τ (``_reverse_key``)
    turns every diagram round and is an anti-automorphism:
    ``compose_basis(n, s, t)`` is τ applied key by key to
    ``compose_basis(n, τt, τs)``, with no sign.  A miss therefore first
    looks for a cached slot-permuted mate ``(p.s, p.t)``, p running over
    the non-identity slot permutations, and maps its entry back through
    p's inverse; then for a cached reversed mate ``(p.τt, p.τs)``, p
    running over every slot permutation, and maps its entry back through
    p's inverse and then τ.  The slots of every mate and of every entry
    read off one go through the one shape kernel (``_shape_keys``); a key's
    slot images and their reversals are memoized once per key (``_orbit``)
    and the regroupings by p's inverse once per slot count (``_BACK``), so
    a miss builds no mate.

    A pair with no cached mate of either kind is read off a straightening
    run of ``s after t_id``, where t_id = (co, ac, identity, dec) for
    t = (co, ac, perm, dec).  t's coactions come first on their lines, so
    the run for t is t_id's with t's coaction legs renamed: its readout
    forms are t_id's with coaction q taking the options of t_id's coaction
    perm[q] (``rewrite.rewire_forms``), and they expand to the entry that
    straightening s after t gives, key order included.  ``_RUNS`` keeps
    the runs of the last left factor that reached this path, by ``(co, ac,
    dec)``, so each right-factor class is straightened once per left
    factor.  ``add_product`` takes all right factors of a left one in turn,
    so the runs of one factor catch nearly every repeat.  Every way stores
    the same entry.

    The cache is observationally transparent: an entry is the canonical
    straightening output of its pair, so recomputing it gives the same
    entry, whether it was straightened or read off a mate.
    """
    # the unit is the one key of strand degree 0
    if not s_key[2]:
        return {t_key: 1}
    if not t_key[2]:
        return {s_key: 1}
    mk = monoid.key()
    ck = (mk, n, s_key, t_key)
    hit = _CACHE.get(ck)
    if hit is not None:
        return hit
    (ps, rs), (pt, rt) = _orbit(s_key), _orbit(t_key)
    back = _BACK.get(n)
    if back is None:
        back = _BACK[n] = tuple(("slots", ((inverse(p), 1),))
                                for p in all_permutations(n))
    # the slot mates (p.s, p.t) for p != 1, as p = 1 gives the miss itself,
    # then the reversed mates (p.τt, p.τs) = (τ(p.t), τ(p.s)) for every p
    for i in range(1, len(ps)):
        mate = _CACHE.get((mk, n, ps[i], pt[i]))
        if mate is not None:
            out = _CACHE[ck] = _shape_keys(mate, back[i])
            return out
    for i in range(len(ps)):
        mate = _CACHE.get((mk, n, rt[i], rs[i]))
        if mate is not None:
            # p = 1 (i = 0) maps every key to itself
            out = _CACHE[ck] = {_reverse_key(k): c for k, c in (
                _shape_keys(mate, back[i]) if i else mate).items()}
            return out
    co_t, ac_t, perm_t, dec_t = t_key
    runs = _RUNS.get((mk, n, s_key))
    if runs is None:
        _RUNS.clear()
        runs = _RUNS[mk, n, s_key] = {}
    identity = tuple(range(1, len(perm_t) + 1))
    forms = runs.get((co_t, ac_t, dec_t))
    if forms is None:
        decorated = not monoid.is_trivial()
        term = rewrite.term_graph(
            rewrite.slices_of_key((co_t, ac_t, identity, dec_t), decorated)
            + rewrite.slices_of_key(s_key, decorated), n)
        forms = runs[co_t, ac_t, dec_t] = rewrite.straighten_forms(term,
                                                                  monoid)
    if perm_t != identity:
        forms = rewrite.rewire_forms(forms, co_t, perm_t)
    out = rewrite.expand_forms(forms, monoid)
    deg = key_degree(s_key) + key_degree(t_key)
    assert all(key_degree(k) == deg for k in out), "grading violated"
    _CACHE[ck] = out
    return out


# the readout forms of ``s after t_id`` for one left factor s, the last one
# that reached a run: (monoid key, n, s) -> (co, ac, dec) of t -> forms
_RUNS: dict[tuple, dict[tuple, dict]] = {}


# the slot orbit of every key a compose_basis miss has met
_ORBITS: dict[Key, tuple] = {}


def _orbit(key: Key) -> tuple:
    """``(images, reversed)``: the images p.key of ``key`` under every slot
    permutation p, in ``all_permutations`` order, and their time reversals
    τ(p.key) = p.τ(key), as τ commutes with the slot maps; memoized."""
    orbit = _ORBITS.get(key)
    if orbit is None:
        images = tuple(next(iter(_shape_keys({key: 1}, ("slots", ((p, 1),)))))
                       for p in all_permutations(len(key[0])))
        orbit = _ORBITS[key] = (images, tuple(map(_reverse_key, images)))
    return orbit


# ---------------------------------------------------------------------------
# cosimplicial structure and slot maps: regroupings of a key's positions


# the netted shapes of every regrouping: regrouping -> (co, ac) -> shapes,
# each paired from a coaction and an action half held in _HALVES
_FACE_SHAPES: dict[tuple, dict[tuple, list]] = {}
# the halves of one face or placement: (kind, arg, composition) -> halves,
# shared by every regrouping that contains that face or placement
_HALVES: dict[tuple, tuple] = {}


def _halves(kind: str, arg, comp: tuple) -> tuple:
    """The halves ``(comp2, inv, invmap)`` of one face or placement on a
    composition, one per regrouping of its slot blocks (every split of the
    face, in ``_face_blocks`` order, or the placement); memoized.  ``comp2``
    is the new composition, ``inv`` gives, per new position, the old 0-based
    one, and ``invmap`` is its inverse, in 1-based new positions; both are
    None when the order is kept.  One record serves both sides: ``(co2,
    qinv, _)`` for the coactions, ``(ac2, pinv, pmap)`` for the actions.
    """
    halves = _HALVES.get((kind, arg, comp))
    if halves is None:
        blocks = _position_blocks(comp)
        if kind == "faces":
            regrouped = _face_blocks(blocks, arg)
        else:
            regrouped = [[blocks[s - 1] if s else [] for s in arg]]
        identity = tuple(range(sum(comp)))
        halves = []
        for new in regrouped:
            inv = tuple(p for block in new for p in block)
            if inv == identity:
                halves.append((tuple(map(len, new)), None, None))
                continue
            invmap = [0] * len(inv)
            for new_p, old_p in enumerate(inv, 1):
                invmap[old_p] = new_p
            halves.append((tuple(map(len, new)), inv, tuple(invmap)))
        halves = _HALVES[kind, arg, comp] = tuple(halves)
    return halves


def _shapes(regrouping: tuple, co: tuple, ac: tuple) -> list:
    """The netted signed shapes of a regrouping on keys with compositions
    co, ac.

    ``regrouping`` is ``("faces", ((i, sign), ...))``, a signed sum of face
    maps, or ``("slots", ((placement, sign), ...))``, a signed sum of slot
    maps, each moving old slot ``placement[k]`` to new slot k+1 (a 0 leaves
    that new slot empty).  A shape is ``(co2, ac2, qinv, pmap, pinv)``,
    paired from the coaction half of co and the action half of ac (see
    ``_halves``): ``qinv`` gives, per new coaction position, the old one,
    ``pinv`` per new action position the old one, and ``pmap`` is the
    inverse of ``pinv``; None stands for an identity map.  A key maps to
    ``perm2 = (pmap[perm[q] - 1] for q in qinv)`` and ``dec2 = (dec[p] for
    p in pinv)``, so a shape is independent of the permutation and the
    decorations.  Each is followed by the sum of the signs that give it;
    those of weight 0 are dropped.
    """
    kind, signed = regrouping
    weights: dict[tuple, int] = {}
    for arg, sgn in signed:
        for (co2, qinv, _), (ac2, pinv, pmap) in itertools.product(
                _halves(kind, arg, co), _halves(kind, arg, ac)):
            shape = (co2, ac2, qinv, pmap, pinv)
            weights[shape] = weights.get(shape, 0) + sgn
    return [shape + (w,) for shape, w in weights.items() if w]


def _position_blocks(comp: tuple) -> list[list[int]]:
    """The 0-based positions of each slot of a composition."""
    return [list(range(start, start + c))
            for start, c in zip(block_starts(comp), comp)]


def _face_blocks(blocks: list, i: int) -> list:
    """The slot blocks after the i-th face map: an empty slot inserted for
    i = 0 and i = n+1, otherwise every order-preserving split of slot i."""
    if not 1 <= i <= len(blocks):
        return [blocks[:i] + [[]] + blocks[i:]]
    block = blocks[i - 1]
    return [blocks[:i - 1] + [list(take), [p for p in block if p not in take]]
            + blocks[i:]
            for r in range(len(block) + 1)
            for take in itertools.combinations(block, r)]


def _reverse_key(key: Key) -> Key:
    """Time reversal τ of a basis key: every arrow of the diagram turned
    round, so coactions and actions trade places.

    τ(co, ac, perm, dec) = (ac, co, perm⁻¹, dec'), where dec'[q] is the
    decoration of the strand at coaction position q, ``dec[perm[q] - 1]``.
    It is an involution and commutes with the slot maps.
    """
    co, ac, perm, dec = key
    return (ac, co, inverse(perm), tuple([dec[p - 1] for p in perm]))


def _shape_keys(num: dict[Key, int], regrouping: tuple) -> dict[Key, int]:
    """The integer combination ``num`` of keys mapped through a signed sum
    of regroupings (see ``_shapes``); zeros are dropped.

    The netted shapes of each ``(co, ac)`` are built once and cached in
    ``_FACE_SHAPES`` under the regrouping.  ``_shapes`` pairs them from
    halves that ``_HALVES`` keys by ``(kind, arg, composition)`` alone, so
    regroupings that share a face or a placement share its halves: face
    i's serve ``face_map(i)`` and ``hochschild_d``, a slot permutation's
    serve ``slot_permute`` and ``alt``.  A shape of weight w maps a term
    ``c * key`` to ``w * c`` times one image key.  A shape depends on
    neither the permutation nor the decorations, so regroupings whose signs
    cancel on a shape cancel on every key before any key is built.  An
    identity map of the shape (None) reuses the key's own tuples: ``perm``
    when both orders are kept, ``dec`` whenever the action order is.
    """
    cache = _FACE_SHAPES.setdefault(regrouping, {})
    out: dict[Key, int] = {}
    for (co, ac, perm, dec), c in num.items():
        shapes = cache.get((co, ac))
        if shapes is None:
            shapes = cache[co, ac] = _shapes(regrouping, co, ac)
        for co2, ac2, qinv, pmap, pinv, weight in shapes:
            if pinv is None:
                key = (co2, ac2, perm if qinv is None
                       else tuple([perm[q] for q in qinv]), dec)
            else:
                key = (co2, ac2, tuple([pmap[p - 1] for p in perm]
                                       if qinv is None else
                                       [pmap[perm[q] - 1] for q in qinv]),
                       tuple([dec[p] for p in pinv]))
            new = out.get(key, 0) + weight * c
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def _shape_sum(x: AlgebraElement, n_new: int,
               regrouping: tuple) -> AlgebraElement:
    """x mapped through a signed sum of regroupings (see ``_shapes``), on
    n_new slots: ``_shape_keys`` of its numerators over its denominator
    (weights are ints)."""
    return AlgebraElement.from_integers(
        n_new, x.monoid, _shape_keys(x.num, regrouping), x.den)


def face_map(i: int, x: AlgebraElement) -> AlgebraElement:
    """The i-th insertion/coproduct map into n+1 slots, 0 <= i <= n+1.

    i = 0 and i = n+1 insert a trivial slot; for 1 <= i <= n the strands of
    slot i distribute over the two tensor factors of the split slot in all
    ways, preserving their relative order.  Decorations ride along on their
    strands.  It is the regrouping ``("faces", ((i, 1),))`` of
    ``_shape_sum``.
    """
    n = x.n
    if not 0 <= i <= n + 1:
        raise ValueError(f"face index {i} out of range 0..{n + 1}")
    return _shape_sum(x, n + 1, ("faces", ((i, 1),)))


def hochschild_d(x: AlgebraElement) -> AlgebraElement:
    """Alternating sum of the face maps; squares to zero.

    It is one regrouping, every face i with sign (-1)**i, so equal shapes
    of different faces are netted before any key is built (``_shapes``).
    For example, for 1 <= i <= n face i's split (∅, slot i) is the same
    regrouping as face i-1's split (slot i-1, ∅), with the opposite sign;
    for i = 1 the partner is face 0, which inserts the same empty slot.
    """
    return _shape_sum(x, x.n + 1, ("faces", tuple(
        (i, (-1) ** i) for i in range(x.n + 2))))


def slot_permute(x: AlgebraElement, perm: tuple[int, ...]) -> AlgebraElement:
    """Conjugation by a permutation of the module slots: slot k moves to
    slot perm[k-1]."""
    if sorted(perm) != list(range(1, x.n + 1)):
        raise ValueError("bad slot permutation")
    return _shape_sum(x, x.n, ("slots", ((inverse(perm), 1),)))


def alt(x: AlgebraElement) -> AlgebraElement:
    """Antisymmetrization over slot permutations (a projector).

    It is one regrouping, every slot permutation p with sign(p), so two
    permutations that give the same shape (say, ones that swap two empty
    slots) cancel before any key is built.
    """
    perms = list(all_permutations(x.n))
    return Fraction(1, len(perms)) * _shape_sum(x, x.n, ("slots", tuple(
        (inverse(p), sign(p)) for p in perms)))


# ---------------------------------------------------------------------------
# distinguished elements


def r_matrix(n: int, i: int, j: int,
             monoid: DecorationMonoid = TRIVIAL, decor=None) -> AlgebraElement:
    """One strand: action on slot i, coaction on slot j (i != j)."""
    if i == j:
        raise ValueError("r-matrix slots must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("slot out of range")
    co = tuple(1 if k == j else 0 for k in range(1, n + 1))
    ac = tuple(1 if k == i else 0 for k in range(1, n + 1))
    dec = (decor if decor is not None else monoid.zero(),)
    return AlgebraElement.basis(n, (co, ac, (1,), dec), monoid)


def omega(n: int, i: int, j: int,
          monoid: DecorationMonoid = TRIVIAL) -> AlgebraElement:
    return r_matrix(n, i, j, monoid) + r_matrix(n, j, i, monoid)


def kappa(n: int, i: int, monoid: DecorationMonoid = TRIVIAL,
          decor=None) -> AlgebraElement:
    """The normally ordered Casimir on slot i: one strand, coaction then
    action on the same slot."""
    if not 1 <= i <= n:
        raise ValueError("slot out of range")
    co = tuple(1 if k == i else 0 for k in range(1, n + 1))
    dec = (decor if decor is not None else monoid.zero(),)
    return AlgebraElement.basis(n, (co, co, (1,), dec), monoid)


def kappa_alpha(alpha, monoid: DecorationMonoid, n: int = 1,
                i: int = 1) -> AlgebraElement:
    return kappa(n, i, monoid, decor=alpha)


def embed_slots(x: AlgebraElement, n_new: int,
                mapping: dict[int, int]) -> AlgebraElement:
    """Place an n-slot element into chosen slots of a larger algebra;
    unmapped target slots stay empty."""
    if sorted(mapping) != list(range(1, x.n + 1)):
        raise ValueError("mapping must cover source slots")
    if len(set(mapping.values())) != x.n or not all(
            1 <= v <= n_new for v in mapping.values()):
        raise ValueError("bad target slots")
    placement = [0] * n_new
    for k, v in mapping.items():
        placement[v - 1] = k
    return _shape_sum(x, n_new, ("slots", ((tuple(placement), 1),)))


def is_invariant(x: AlgebraElement) -> bool:
    """Invariance: the commutators with the slot-0 r-matrix sums vanish."""
    n = x.n
    r2 = r_matrix(2, 1, 2, x.monoid)
    x_up = face_map(0, x)
    r_down = AlgebraElement.zero(n + 1, x.monoid)
    r_up = AlgebraElement.zero(n + 1, x.monoid)
    for k in range(1, n + 1):
        r_down = r_down + embed_slots(r2, n + 1, {1: 1, 2: k + 1})
        r_up = r_up + embed_slots(r2, n + 1, {1: k + 1, 2: 1})
    return (r_down.commutator(x_up).is_zero()
            and r_up.commutator(x_up).is_zero())


# ---------------------------------------------------------------------------
# maps between the differently decorated algebras


def _redecorate(x: AlgebraElement, monoid: DecorationMonoid,
                pool) -> AlgebraElement:
    """Replace each strand decoration d of ``x`` by the sum of the
    decorations in ``pool(d)`` (an empty pool kills the term); the result
    is decorated by ``monoid``."""
    out: dict[Key, int] = {}
    for (co, ac, perm, dec), c in x.num.items():
        for choice in itertools.product(*map(pool, dec)):
            key = (co, ac, perm, choice)
            out[key] = out.get(key, 0) + c
    return AlgebraElement.from_integers(
        x.n, monoid, {k: v for k, v in out.items() if v}, x.den)


def _check_source(x: AlgebraElement, kind: type, name: str) -> None:
    if not isinstance(x.monoid, kind):
        raise ValueError(f"source must be {name}")


def alpha_map(x: AlgebraElement) -> AlgebraElement:
    """Undecorated -> split: every strand decorated 0."""
    _check_source(x, Trivial, "undecorated")
    return _redecorate(x, SPLIT, lambda d: (0,))


def beta_map(x: AlgebraElement) -> AlgebraElement:
    """Undecorated -> split: sum over all 0/1 decorations."""
    _check_source(x, Trivial, "undecorated")
    return _redecorate(x, SPLIT, lambda d: (0, 1))


def cone_elements(monoid: RootCone | RootConeMod, support: set[int],
                  window: int) -> list[tuple]:
    """Monoid elements supported on the given coordinate set (1-based) with
    total weight at most ``window``."""
    if window > monoid.cap:
        raise ValueError("window exceeds monoid cap")
    return [a for a in RootCone(monoid.rank, monoid.cap).elements()
            if sum(a) <= window
            and all(a[k] == 0 for k in range(monoid.rank)
                    if k + 1 not in support)]


def rho_tilde_b(x: AlgebraElement, monoid: RootCone, support: set[int],
                window: int) -> AlgebraElement:
    """Undecorated -> cone: sum strand decorations over the sub-cone on the
    given diagram support, each strand truncated at the weight window."""
    _check_source(x, Trivial, "undecorated")
    elts = cone_elements(monoid, support, window)
    return _redecorate(x, monoid, lambda d: elts)


def rho_tilde_pair(x: AlgebraElement, monoid: RootCone, small: set[int],
                   big: set[int], window: int) -> AlgebraElement:
    """Split -> cone for a nested pair of diagram supports: 0-strands sum
    over the small sub-cone, 1-strands over the big cone minus the small."""
    _check_source(x, Split, "split-decorated")
    if not small <= big:
        raise ValueError("supports not nested")
    small_elts = cone_elements(monoid, small, window)
    small_set = set(small_elts)
    big_elts = [a for a in cone_elements(monoid, big, window)
                if a not in small_set]
    return _redecorate(x, monoid,
                       lambda d: small_elts if d == 0 else big_elts)


def forget_split(x: AlgebraElement, zero_to: str = "id") -> AlgebraElement:
    """The two forgetful maps split -> undecorated.

    ``zero_to="id"``   keeps exactly the all-0 terms (1-strands die);
    ``zero_to="zero"`` keeps exactly the all-1 terms.
    """
    _check_source(x, Split, "split-decorated")
    keep = 0 if zero_to == "id" else 1
    return _redecorate(x, TRIVIAL, lambda d: (0,) if d == keep else ())


def quotient_allowed(x: AlgebraElement,
                     monoid: RootConeMod) -> AlgebraElement:
    """Project a cone-decorated element to the quotient by the ideal of
    non-allowed decorations."""
    return _redecorate(x, monoid,
                       lambda d: (d,) if monoid.is_allowed(d) else ())


def filter_window(x: AlgebraElement, window: int) -> AlgebraElement:
    """Keep terms whose strand decorations all have total weight <= window."""
    return _redecorate(x, x.monoid,
                       lambda d: (d,) if sum(d) <= window else ())


# ---------------------------------------------------------------------------
# basis enumeration


def enumerate_basis(n: int, degree: int,
                    monoid: DecorationMonoid = TRIVIAL) -> list[Key]:
    """All basis keys of the given strand degree, canonically sorted."""
    return _enumerate(n, degree, monoid, False)


def enumerate_nondegenerate(n: int, degree: int,
                            monoid: DecorationMonoid = TRIVIAL) -> list[Key]:
    """The basis keys of the given strand degree with no empty slot
    (co_k + ac_k > 0 for every slot k), canonically sorted.

    They span the normalized subcomplex of the Hochschild complex (see
    :mod:`dyalg.cohomology`).  The filter acts on the (co, ac) pairs, so
    a slice with many empty slots is never built in full."""
    return _enumerate(n, degree, monoid, True)


def _enumerate(n: int, degree: int, monoid: DecorationMonoid,
               nondegenerate: bool) -> list[Key]:
    decors = monoid.elements()
    keys = []
    comps = compositions(degree, n)
    for co in comps:
        for ac in comps:
            if nondegenerate and not all(map(operator.add, co, ac)):
                continue
            for perm in all_permutations(degree):
                for dec in itertools.product(decors, repeat=degree):
                    keys.append((co, ac, tuple(perm), tuple(dec)))
    return sorted(keys, key=sort_key)


def dim_formula(n: int, degree: int) -> int:
    """Exact dimension of the undecorated degree component."""
    from math import comb, factorial
    return comb(degree + n - 1, n - 1) ** 2 * factorial(degree)
