"""Hochschild complexes of the diagram algebras, truncated by strand degree.

The face maps preserve the strand degree N, so the complex splits into
finite slices indexed by N; each slice is handled with exact rational
linear algebra.  Computed ranks are compared against the coinvariant
dimension oracle from :mod:`dyalg.freelie`: in cohomological degree n the
expected dimension is that of two exterior powers of the multilinear free
Lie algebra tensored with the decoration factor, taken modulo simultaneous
permutation of the strands.

Each slice C splits as a direct sum of two subcomplexes, N ⊕ D.  D is
spanned by the keys with an empty slot (no coaction and no action leg),
N by the keys with every slot non-empty
(:func:`dyalg.algebra.enumerate_nondegenerate`).  A face map never fills
an empty slot, so d(D) ⊂ D; the faces that would empty a slot of a key in
N (the outer faces 0 and n + 1, and the corner splits of face i, which
give face i - 1's shape with the opposite sign) cancel in
:func:`dyalg.algebra.hochschild_d`, so d(N) ⊂ N.  N is the normalized
cochain complex of the cosimplicial group: the common kernel of the
codegeneracies, which delete an empty slot and kill a key with legs on
it.  By the normalization theorem (Dold–Kan; Weibel, *An Introduction to
Homological Algebra*, 1994, ch. 8) its inclusion is a quasi-isomorphism,
so D ≅ C/N is acyclic.  :func:`cohomology_table` therefore eliminates
only on N and reads the ranks of d on D off dimensions.
"""

from __future__ import annotations

from . import linalg
from .algebra import (AlgebraElement, Key, alt, dim_formula, enumerate_basis,
                      enumerate_nondegenerate, hochschild_d)
from .freelie import hochschild_target_dim
from .monoids import DecorationMonoid, TRIVIAL
from .permutations import _natural


class NotClosed(ValueError):
    """Input to the cocycle decomposition is not a cocycle."""


def _coords(x: AlgebraElement, index: dict[Key, int]) -> dict[int, int]:
    """x times its denominator, in the coordinates ``index``."""
    if not x.num.keys() <= index.keys():
        raise ValueError("element outside the enumerated slice")
    return {index[k]: v for k, v in x.num.items()}


def differential_columns(n: int, degree: int, monoid: DecorationMonoid,
                         keys) -> tuple[list, list]:
    """Images of the slice basis under the differential, as sparse vectors
    in the target slice coordinates, and the slice basis; ``keys`` is the
    basis enumerator, :func:`enumerate_basis` for the whole slice or
    :func:`enumerate_nondegenerate` for the normalized subcomplex, which
    the differential maps into itself (:func:`_coords` checks it)."""
    basis = keys(n, degree, monoid)
    tindex = {k: i for i, k in enumerate(keys(n + 1, degree, monoid))}
    return ([_coords(hochschild_d(AlgebraElement.basis(n, k, monoid)), tindex)
             for k in basis], basis)


class _Slice:
    """One slice (n, strand degree, monoid): basis, index, and on first use
    the solver, a Span over the columns of d_{n-1} (d_0 is zero, see
    :func:`cohomology_table`).  The harmonic complement appends its
    candidates to that Span, so that one reduction splits a cocycle over
    [D | H]."""

    def __init__(self, n: int, degree: int, monoid: DecorationMonoid):
        self.n, self.degree, self.monoid = n, degree, monoid
        self.basis = enumerate_basis(n, degree, monoid)
        self.index = {k: i for i, k in enumerate(self.basis)}
        self.src = self._span = self._harmonic = None  # src: basis of n - 1

    def solver(self) -> linalg.Span:
        if self._span is None:
            cols, self.src = [], []
            if self.n > 1:
                cols, self.src = differential_columns(
                    self.n - 1, self.degree, self.monoid, enumerate_basis)
            self._span = linalg.Span(cols)
        return self._span

    def harmonic(self) -> list[tuple[int, AlgebraElement]]:
        """(solver column, element) per harmonic element; the column holds
        the element's numerators."""
        if self._harmonic is None:
            n, monoid, basis = self.n, self.monoid, self.basis
            # alt(p.k) = sign(p) alt(k), and a nonzero alt(k) is supported
            # on the whole slot orbit of k: a key in an earlier alt's
            # support repeats it up to sign, which add() would refuse
            cands, seen = [], set()
            for k in basis:
                if k not in seen:
                    a = alt(AlgebraElement.basis(n, k, monoid))
                    seen.update(a.num)
                    if not a.is_zero() and hochschild_d(a).is_zero():
                        cands.append(a)
            # complete from the kernel of the outgoing differential
            out_cols, _ = differential_columns(n, self.degree, monoid,
                                               enumerate_basis)
            cands += [AlgebraElement(n, monoid, {
                basis[i]: c for i, c in col.items()})
                for col in linalg.kernel(out_cols)]
            # add() appends column ncols - 1 before its pair is made
            span = self.solver()
            self._harmonic = [(span.ncols - 1, elt) for elt in cands
                              if span.add(_coords(elt, self.index))]
        return self._harmonic


# (n, strand degree, monoid key) -> _Slice; cohomology_table keeps none
_SLICES: dict[tuple, _Slice] = {}


def _slice(n: int, degree: int, monoid: DecorationMonoid) -> _Slice:
    key = (n, degree, monoid.key())
    if key not in _SLICES:
        _SLICES[key] = _Slice(n, degree, monoid)
    return _SLICES[key]


def _slice_dim(n: int, degree: int, monoid: DecorationMonoid) -> int:
    if n == 0:
        return 1 if degree == 0 else 0
    return dim_formula(n, degree) * len(monoid.elements()) ** degree


def _size_guard(degree: int, n_max: int, monoid: DecorationMonoid) -> None:
    """Refuse a :func:`cohomology_table` call that would run too long.

    Strand degree at most 4 (the oracle's limit, see
    :func:`dyalg.freelie.wedge_pair_dim`), window at most 8, and at most
    200,000 basis elements in the whole target slice n_max + 1, although
    only its non-degenerate keys are enumerated.  Cold-process times on a
    2-core Intel Xeon (target slice size in brackets), all matching the
    oracle: admitted are trivial (4, 4) [117,600] 5.1 s, trivial (3, 8)
    [163,350] 0.17 s and cone(2,1) (3, 4) [198,450] 1.2 s; refused, timed
    when every slice was eliminated in full, are cone(2,1) (4, 2) [437,400]
    24 s, split (4, 3) [470,400] 26 s, split (4, 4) 134 s, split (5, 1)
    9.3 s and trivial (1, 50) 21 s.  The degree bound is separate because
    degree weighs more than slice size; the window bound because the cost
    of a column grows with n.
    """
    _natural(degree, "strand degree")
    _natural(n_max, "window")
    if (degree > 4 or n_max > 8
            or _slice_dim(n_max + 1, degree, monoid) > 200_000):
        raise ValueError("size guard: strand degree <= 4, window <= 8 and "
                         "target slice dimension <= 200000")


def cohomology_table(degree: int, n_max: int,
                     monoid: DecorationMonoid = TRIVIAL) -> list[dict]:
    """Report rows for n = 0..n_max at one strand degree: slice dimension,
    dim ker d_n, dim im d_{n-1}, cohomology, oracle, match.

    The oracle comparison is contractual in cohomological degrees 2 and 3;
    lower degrees report the computed value with oracle None.
    :func:`_size_guard` is checked before any differential is built.

    Only the normalized subcomplex N is eliminated (see the module
    docstring): rank d_n = rank(d_n on N) + r_D(n), where r_D(n) is the
    rank of d_n on the degenerate subcomplex D.  D is acyclic and D^0 = 0,
    so r_D(0) = 0 and r_D(n) = dim D^n - r_D(n - 1), with dim D^n the
    slice dimension less the number of keys in N.
    """
    _size_guard(degree, n_max, monoid)
    # ranks[n] is the rank of d_{n-1}.  d_0 is zero: both faces out of
    # cohomological degree 0 send a scalar to the unit, so the alternating
    # sum vanishes.
    ranks, r_d = [0, 0], 0
    for n in range(1, n_max + 1):
        cols, keys = differential_columns(n, degree, monoid,
                                          enumerate_nondegenerate)
        r_d = _slice_dim(n, degree, monoid) - len(keys) - r_d
        ranks.append(linalg.sparse_rank(cols) + r_d)
    rows = []
    for n in range(n_max + 1):
        dim_n = _slice_dim(n, degree, monoid)
        ker, im_prev = dim_n - ranks[n + 1], ranks[n]
        h = ker - im_prev
        oracle = (hochschild_target_dim(n, degree, monoid)
                  if n >= 2 and degree >= 1 else None)
        rows.append({
            "strand_degree": degree, "n": n, "dim": dim_n,
            "dim_ker": ker, "dim_im": im_prev, "dim_H": h,
            "oracle": oracle,
            "match": (None if oracle is None else h == oracle),
        })
    return rows


def decompose_cocycle(eta: AlgebraElement
                      ) -> tuple[AlgebraElement, AlgebraElement]:
    """Split a cocycle as (image part, harmonic part): eta = d(v) + mu.

    The harmonic complement is spanned by antisymmetrized elements; when the
    cocycle is exact the harmonic part is zero and v is the canonical
    echelon solution (free variables zero; see :mod:`dyalg.linalg` for the
    convention).  Raises :class:`NotClosed` when d(eta) != 0.
    """
    n = eta.n
    monoid = eta.monoid
    degs = eta.degrees()
    if not degs:
        return (AlgebraElement.zero(n - 1, monoid),
                AlgebraElement.zero(n, monoid))
    if len(degs) > 1:
        raise ValueError("cocycle must be homogeneous")
    degree = degs.pop()
    if not hochschild_d(eta).is_zero():
        raise NotClosed("not closed")
    rec = _slice(n, degree, monoid)
    # columns and right-hand side are numerators: elt.den * elt, eta.den * eta
    span, rhs = rec.solver(), _coords(eta, rec.index)
    sol = span.coords(rhs)
    if sol is None:
        rec.harmonic()
        sol = span.coords(rhs)
        if sol is None:
            raise ValueError("cocycle escapes image + harmonic complement")
    v = AlgebraElement(n - 1, monoid,
                       {k: c / eta.den for k, c in zip(rec.src, sol)})
    mu = AlgebraElement.zero(n, monoid)
    for at, elt in rec._harmonic or ():
        if sol[at]:
            mu = mu + sol[at] * elt.den / eta.den * elt
    return v, mu


def harmonic_complement(n: int, degree: int, monoid: DecorationMonoid
                        ) -> tuple[list, list]:
    """A fixed complement of the coboundaries inside the cocycles.

    Preference goes to antisymmetrized basis elements that are themselves
    closed; the family is then completed from the canonically ordered
    kernel basis of the differential.  Deterministic and reproducible.
    """
    rec = _slice(n, degree, monoid)
    elts = [elt for _, elt in rec.harmonic()]
    return [{rec.index[k]: c for k, c in elt.terms.items()}
            for elt in elts], elts
