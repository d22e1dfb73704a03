"""The graded algebras of normally ordered diagrams on n module slots.

A basis element is stored as a key ``(coactions, actions, perm, decor)``:

* ``coactions``  composition giving the number of coaction legs per slot;
  legs are numbered 1..N, slot blocks in order, first-applied leftmost;
* ``actions``    composition giving action legs per slot; within a slot the
  position-1 leg is the last action applied;
* ``perm``       one-line permutation matching coaction position q to
  action position perm[q-1];
* ``decor``      decoration per strand, indexed by action position.

An algebra element is a finite rational linear combination of such keys in
canonical sorted order.  Multiplication straightens the composite diagram
(``x * y`` is "x after y") and is graded by the strand count N.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .monoids import (DecorationMonoid, RootCone, RootConeMod, SPLIT, Split,
                      TRIVIAL, Trivial, monoid_from_json)
from .permutations import (all_permutations, block_starts, compositions,
                           inverse, sign)
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

    __slots__ = ("n", "monoid", "terms")

    def __init__(self, n: int, monoid: DecorationMonoid,
                 terms: dict[Key, Fraction] | None = None):
        self.n = n
        self.monoid = monoid
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of_fractions(cls, n: int, monoid: DecorationMonoid,
                      terms: dict[Key, Fraction]) -> "AlgebraElement":
        """Wrap ``terms`` without copying: every value must already be a
        non-zero ``Fraction``."""
        self = cls.__new__(cls)
        self.n = n
        self.monoid = monoid
        self.terms = terms
        return self

    @staticmethod
    def zero(n: int, monoid: DecorationMonoid = TRIVIAL) -> "AlgebraElement":
        return AlgebraElement(n, monoid)

    @staticmethod
    def unit(n: int, monoid: DecorationMonoid = TRIVIAL) -> "AlgebraElement":
        return AlgebraElement(n, monoid, {unit_key(n): Fraction(1)})

    @staticmethod
    def basis(n: int, key: Key,
              monoid: DecorationMonoid = TRIVIAL) -> "AlgebraElement":
        _check_key(n, key, monoid)
        return AlgebraElement(n, monoid, {key: Fraction(1)})

    # -- linear structure ---------------------------------------------------

    def _assert_compatible(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"slot count mismatch: {self.n} vs {other.n}")
        if self.monoid.key() != other.monoid.key():
            raise ValueError("decoration monoid mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._assert_compatible(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            old = terms.get(k)
            if old is None:
                terms[k] = c
                continue
            new = old + c
            if new:
                terms[k] = new
            else:
                del terms[k]
        return AlgebraElement._of_fractions(self.n, self.monoid, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        if isinstance(scalar, (int, Fraction)):
            if not scalar:
                return AlgebraElement.zero(self.n, self.monoid)
            return AlgebraElement._of_fractions(
                self.n, self.monoid,
                {k: c * scalar for k, c in self.terms.items()})
        return NotImplemented

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return other * self
        self._assert_compatible(other)
        n, monoid = self.n, self.monoid
        if not self.terms or not other.terms:
            return AlgebraElement.zero(n, monoid)
        unit = {unit_key(n): 1}
        if self.terms == unit:
            return other
        if other.terms == unit:
            return self
        # Every structure constant is an integer, so with each factor scaled
        # to integers by the lcm of its denominators the product is summed
        # as Python ints and divided by the two scales once per output term.
        sa, left = _integer_terms(self)
        sb, right = _integer_terms(other)
        out: dict[Key, int] = {}
        for ks, cs in left:
            for kt, ct in right:
                v = cs * ct
                for k, c in compose_basis(n, ks, kt, monoid).items():
                    new = out.get(k, 0) + v * c
                    if new:
                        out[k] = new
                    else:
                        del out[k]
        scale = sa * sb
        return AlgebraElement._of_fractions(
            n, monoid, {k: Fraction(v, scale) for k, v in out.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement) and self.n == other.n
                and self.monoid.key() == other.monoid.key()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.monoid.key(),
                     tuple(sorted(self.terms.items(),
                                  key=lambda kv: sort_key(kv[0])))))

    def is_zero(self) -> bool:
        return not self.terms

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return self * other - other * self

    def degrees(self) -> set[int]:
        return {key_degree(k) for k in self.terms}

    def graded_component(self, deg: int) -> "AlgebraElement":
        return AlgebraElement(self.n, self.monoid,
                              {k: c for k, c in self.terms.items()
                               if key_degree(k) == deg})

    def counit(self) -> Fraction:
        return self.terms.get(unit_key(self.n), Fraction(0))

    def sorted_terms(self) -> list[tuple[Key, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
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
        n = data["n"]
        terms: dict[Key, Fraction] = {}
        for t in data["terms"]:
            key = (tuple(t["coactions"]), tuple(t["actions"]),
                   tuple(t["perm"]), tuple(_dec_unjson(d) for d in t["decor"]))
            _check_key(n, key, monoid)
            terms[key] = terms.get(key, Fraction(0)) + Fraction(t["coeff"])
        return AlgebraElement(n, monoid, terms)


def _integer_terms(x: AlgebraElement) -> tuple[int, list[tuple[Key, int]]]:
    """``(scale, [(key, numerator), ...])`` with ``scale`` the lcm of x's
    coefficient denominators, so that x is the terms over ``scale``."""
    scale = math.lcm(*(c.denominator for c in x.terms.values()))
    return scale, [(k, scale // c.denominator * c.numerator)
                   for k, c in x.terms.items()]


def _dec_json(d):
    return list(d) if isinstance(d, tuple) else d


def _dec_unjson(d):
    return tuple(d) if isinstance(d, list) else d


def _check_key(n: int, key: Key, monoid: DecorationMonoid) -> None:
    co, ac, perm, dec = key
    if len(co) != n or len(ac) != n:
        raise ValueError("composition length != slot count")
    total = sum(co)
    if sum(ac) != total or len(perm) != total or len(dec) != total:
        raise ValueError("inconsistent strand counts in key")
    if sorted(perm) != list(range(1, total + 1)):
        raise ValueError("perm is not a permutation")


# ---------------------------------------------------------------------------
# structure constants


_CACHE: dict[tuple, dict[Key, int]] = {}


def compose_basis(n: int, s_key: Key, t_key: Key,
                  monoid: DecorationMonoid = TRIVIAL) -> dict[Key, int]:
    """Structure constants of ``s after t``, memoized.

    The composite is the slice form of t followed by that of s (see
    :func:`dyalg.rewrite.slices_of_key`), straightened.  Every rewrite rule
    has coefficient +-1, so the constants are exact Python ints.

    The cache is observationally transparent: an entry is the canonical
    straightening output of its pair, so recomputing it gives the same
    entry.
    """
    if s_key == unit_key(n):
        return {t_key: 1}
    if t_key == unit_key(n):
        return {s_key: 1}
    ck = (monoid.key(), n, s_key, t_key)
    hit = _CACHE.get(ck)
    if hit is not None:
        return hit
    decorated = not monoid.is_trivial()
    term = rewrite.term_graph(rewrite.slices_of_key(t_key, decorated)
                              + rewrite.slices_of_key(s_key, decorated), n)
    out = rewrite.straighten_graph(term, monoid)
    deg = key_degree(s_key) + key_degree(t_key)
    assert all(key_degree(k) == deg for k in out), "grading violated"
    _CACHE[ck] = out
    return out


# ---------------------------------------------------------------------------
# cosimplicial structure and slot maps: regroupings of a key's positions


_FACE_SHAPES: dict[tuple, list] = {}
_SLOT_SHAPES: dict[tuple, list] = {}


def _shape(new_co: list, new_ac: list) -> tuple:
    """The position shape of a regrouping of a key's slot blocks.

    ``new_co`` and ``new_ac`` list, per new slot, the old 0-based coaction
    and action positions placed there, in order.  The shape is
    ``(co2, ac2, qinv, pmap, pinv)``: ``qinv`` gives, per new coaction
    position, the old one; ``pinv`` gives, per new action position, the old
    one; ``pmap`` is the inverse of ``pinv`` shifted to 1-based new
    positions.  A key then maps to ``perm2 = (pmap[perm[q] - 1] for q in
    qinv)`` and ``dec2 = (dec[p] for p in pinv)``, so a shape is
    independent of the permutation and the decorations.
    """
    pinv = tuple(p for block in new_ac for p in block)
    pmap = [0] * len(pinv)
    for new_p, old_p in enumerate(pinv, 1):
        pmap[old_p] = new_p
    return (tuple(map(len, new_co)), tuple(map(len, new_ac)),
            tuple(q for block in new_co for q in block), tuple(pmap), pinv)


def _face_shapes(i: int, co: tuple, ac: tuple) -> list:
    """The shapes of the i-th face map on keys with compositions co, ac.

    A face map only regroups the coaction and action positions of slot i.
    """
    ck = (i, co, ac)
    hit = _FACE_SHAPES.get(ck)
    if hit is None:
        ac_splits = _face_blocks(_position_blocks(ac), i)
        hit = _FACE_SHAPES[ck] = [
            _shape(new_co, new_ac)
            for new_co in _face_blocks(_position_blocks(co), i)
            for new_ac in ac_splits]
    return hit


def _slot_shapes(placement: tuple, co: tuple, ac: tuple) -> list:
    """The one shape that moves old slot ``placement[k]`` to new slot k+1;
    a 0 in ``placement`` leaves that new slot empty."""
    ck = (placement, co, ac)
    hit = _SLOT_SHAPES.get(ck)
    if hit is None:
        co_blocks, ac_blocks = _position_blocks(co), _position_blocks(ac)
        hit = _SLOT_SHAPES[ck] = [_shape(
            [co_blocks[s - 1] if s else [] for s in placement],
            [ac_blocks[s - 1] if s else [] for s in placement])]
    return hit


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


def _shape_sum(x: AlgebraElement, n_new: int, shapes,
               images) -> AlgebraElement:
    """The sum of ``sign`` times x mapped through ``shapes(arg, co, ac)``
    over ``(arg, sign)`` in images, on n_new slots.

    Every sign is +-1, so with ``scale`` the lcm of x's coefficient
    denominators every term is an integer multiple of ``1 / scale``: the
    terms are summed as Python ints and divided by ``scale`` once.
    """
    scale, terms = _integer_terms(x)
    out: dict[Key, int] = {}
    for arg, sign in images:
        for (co, ac, perm, dec), c in terms:
            v = sign * c
            for co2, ac2, qinv, pmap, pinv in shapes(arg, co, ac):
                key = (co2, ac2, tuple([pmap[perm[q] - 1] for q in qinv]),
                       tuple([dec[p] for p in pinv]))
                new = out.get(key, 0) + v
                if new:
                    out[key] = new
                else:
                    del out[key]
    return AlgebraElement._of_fractions(
        n_new, x.monoid, {k: Fraction(v, scale) for k, v in out.items()})


def face_map(i: int, x: AlgebraElement) -> AlgebraElement:
    """The i-th insertion/coproduct map into n+1 slots, 0 <= i <= n+1.

    i = 0 and i = n+1 insert a trivial slot; for 1 <= i <= n the strands of
    slot i distribute over the two tensor factors of the split slot in all
    ways, preserving their relative order.  Decorations ride along on their
    strands.  The shapes come from ``_face_shapes``; the coefficients are
    summed exactly as integers (see ``_shape_sum``).
    """
    n = x.n
    if not 0 <= i <= n + 1:
        raise ValueError(f"face index {i} out of range 0..{n + 1}")
    return _shape_sum(x, n + 1, _face_shapes, ((i, 1),))


def hochschild_d(x: AlgebraElement) -> AlgebraElement:
    """Alternating sum of the face maps; squares to zero."""
    return _shape_sum(x, x.n + 1, _face_shapes,
                      ((i, (-1) ** i) for i in range(x.n + 2)))


def slot_permute(x: AlgebraElement, perm: tuple[int, ...]) -> AlgebraElement:
    """Conjugation by a permutation of the module slots: slot k moves to
    slot perm[k-1]."""
    if sorted(perm) != list(range(1, x.n + 1)):
        raise ValueError("bad slot permutation")
    return _shape_sum(x, x.n, _slot_shapes, ((inverse(perm), 1),))


def alt(x: AlgebraElement) -> AlgebraElement:
    """Antisymmetrization over slot permutations (a projector)."""
    perms = list(all_permutations(x.n))
    return Fraction(1, len(perms)) * _shape_sum(
        x, x.n, _slot_shapes, ((inverse(p), sign(p)) for p in perms))


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
    return AlgebraElement(n, monoid, {(co, ac, (1,), dec): Fraction(1)})


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
    return AlgebraElement(n, monoid, {(co, co, (1,), dec): Fraction(1)})


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
    return _shape_sum(x, n_new, _slot_shapes, ((tuple(placement), 1),))


def is_invariant(x: AlgebraElement, small_r: AlgebraElement | None = None
                 ) -> bool:
    """Invariance: the commutators with the slot-0 r-matrix sums vanish.

    ``small_r`` is the 2-slot r-matrix used in the test (defaults to the
    zero-decorated one, which in split mode is the small sub-bialgebra
    r-matrix).
    """
    n = x.n
    r2 = small_r if small_r is not None else r_matrix(2, 1, 2, x.monoid)
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
    out: dict[Key, Fraction] = {}
    for (co, ac, perm, dec), c in x.terms.items():
        for choice in itertools.product(*map(pool, dec)):
            key = (co, ac, perm, choice)
            out[key] = out.get(key, 0) + c
    return AlgebraElement(x.n, monoid, out)


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
    big_elts = [a for a in cone_elements(monoid, big, window)
                if a not in set(small_elts)]
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


def enumerate_basis(n: int, degree: int, monoid: DecorationMonoid = TRIVIAL,
                    window: int | None = None) -> list[Key]:
    """All basis keys of the given strand degree, canonically sorted.

    For cone monoids the decoration enumeration is truncated to the weight
    window (default: the monoid cap)."""
    decors = monoid.elements()
    if window is not None:
        decors = [d for d in decors if sum(d) <= window]
    keys = []
    comps = compositions(degree, n)
    for co in comps:
        for ac in comps:
            for perm in all_permutations(degree):
                for dec in itertools.product(decors, repeat=degree):
                    keys.append((co, ac, tuple(perm), tuple(dec)))
    return sorted(keys, key=sort_key)


def dim_formula(n: int, degree: int) -> int:
    """Exact dimension of the undecorated degree component."""
    from math import comb, factorial
    return comb(degree + n - 1, n - 1) ** 2 * factorial(degree)
