"""Hochschild complexes of the diagram algebras, truncated by strand degree.

The face maps preserve the strand degree N, so the complex splits into
finite slices indexed by N; each slice is handled with exact rational
linear algebra.  Computed ranks are compared against the coinvariant
dimension oracle from :mod:`dyalg.freelie`: in cohomological degree n the
expected dimension is that of two exterior powers of the multilinear free
Lie algebra tensored with the decoration factor, taken modulo simultaneous
permutation of the strands.
"""

from __future__ import annotations

from . import linalg
from .algebra import AlgebraElement, Key, alt, enumerate_basis, hochschild_d
from .freelie import hochschild_target_dim
from .monoids import DecorationMonoid, TRIVIAL


class NotClosed(ValueError):
    """Input to the cocycle decomposition is not a cocycle."""


def _coords(x: AlgebraElement, index: dict[Key, int]) -> dict[int, int]:
    """x times its denominator, in the coordinates ``index``."""
    if not x.num.keys() <= index.keys():
        raise ValueError("element outside the enumerated slice")
    return {index[k]: v for k, v in x.num.items()}


def differential_columns(n: int, degree: int,
                         monoid: DecorationMonoid) -> tuple[list, list, dict]:
    """Images of the slice basis under the differential, as sparse vectors
    in the target slice coordinates."""
    basis = enumerate_basis(n, degree, monoid)
    tindex = {k: i for i, k in enumerate(enumerate_basis(n + 1, degree,
                                                         monoid))}
    return ([_coords(hochschild_d(AlgebraElement.basis(n, k, monoid)), tindex)
             for k in basis], basis, tindex)


class _Slice:
    """One slice (n, strand degree, monoid): basis, index, and on first use
    the solver, a Span over the columns of d_{n-1} (d_0 is zero, see
    :func:`_rank_d`).  The harmonic complement appends its candidates to
    that Span, so that one reduction splits a cocycle over [D | H]."""

    def __init__(self, n: int, degree: int, monoid: DecorationMonoid):
        self.n, self.degree, self.monoid = n, degree, monoid
        self.basis = enumerate_basis(n, degree, monoid)
        self.index = {k: i for i, k in enumerate(self.basis)}
        self.src = self._span = self._harmonic = None  # src: basis of n - 1

    def solver(self) -> linalg.Span:
        if self._span is None:
            cols, self.src = [], []
            if self.n > 1:
                cols, self.src, _ = differential_columns(
                    self.n - 1, self.degree, self.monoid)
            self._span = linalg.Span(cols)
        return self._span

    def harmonic(self) -> list[tuple[int, AlgebraElement]]:
        """(solver column, element) per harmonic element; the column holds
        the element's numerators."""
        if self._harmonic is None:
            n, monoid, basis = self.n, self.monoid, self.basis
            alts = (alt(AlgebraElement.basis(n, k, monoid)) for k in basis)
            cands = [a for a in alts
                     if not a.is_zero() and hochschild_d(a).is_zero()]
            # complete from the kernel of the outgoing differential
            out_cols, _, _ = differential_columns(n, self.degree, monoid)
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
    return len(enumerate_basis(n, degree, monoid))


def _rank_d(n: int, degree: int, monoid: DecorationMonoid) -> int:
    if n == 0:
        # both faces out of cohomological degree 0 send a scalar to the
        # unit, so the alternating sum vanishes
        return 0
    cols, _, _ = differential_columns(n, degree, monoid)
    return linalg.sparse_rank(cols)


def _kernel_image_dims(degree: int, n_max: int, monoid: DecorationMonoid
                       ) -> list[tuple[int, int, int]]:
    """(slice dimension, dim ker d_n, dim im d_{n-1}) for n = 0..n_max."""
    ranks = [_rank_d(n, degree, monoid) for n in range(n_max + 1)]
    out = []
    for n in range(n_max + 1):
        dim_n = _slice_dim(n, degree, monoid)
        out.append((dim_n, dim_n - ranks[n], ranks[n - 1] if n >= 1 else 0))
    return out


def cohomology_dims(degree: int, n_max: int,
                    monoid: DecorationMonoid = TRIVIAL) -> list[int]:
    """Dimensions of the cohomology in degrees 0..n_max at a fixed strand
    degree, by exact rank computation."""
    if degree > 3 or n_max > 4:
        raise ValueError("size guard: strand degree <= 3, window <= 4")
    return [ker - im for _, ker, im in
            _kernel_image_dims(degree, n_max, monoid)]


def cohomology_table(degree: int, n_max: int,
                     monoid: DecorationMonoid = TRIVIAL) -> list[dict]:
    """Per-degree report rows: kernel, image, cohomology, oracle, match.

    The oracle comparison is contractual in cohomological degrees 2 and 3;
    lower degrees report the computed value with oracle None."""
    rows = []
    for n, (dim_n, ker, im_prev) in enumerate(
            _kernel_image_dims(degree, n_max, monoid)):
        h = ker - im_prev
        oracle = None
        if n >= 2 and 1 <= degree <= 4:
            oracle = hochschild_target_dim(n, degree, monoid)
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
