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

from fractions import Fraction

from . import linalg
from .algebra import AlgebraElement, Key, alt, enumerate_basis, hochschild_d
from .freelie import hochschild_target_dim
from .monoids import DecorationMonoid, TRIVIAL


class NotClosed(ValueError):
    """Input to the cocycle decomposition is not a cocycle."""


def _coords(x: AlgebraElement, index: dict[Key, int]) -> dict[int, Fraction]:
    out = {}
    for k, c in x.terms.items():
        if k not in index:
            raise ValueError("element outside the enumerated slice")
        out[index[k]] = c
    return out


def _slice_data(n: int, degree: int, monoid: DecorationMonoid):
    basis = enumerate_basis(n, degree, monoid)
    index = {k: i for i, k in enumerate(basis)}
    return basis, index


def differential_columns(n: int, degree: int,
                         monoid: DecorationMonoid) -> tuple[list, dict, dict]:
    """Images of the slice basis under the differential, as sparse vectors
    in the target slice coordinates."""
    basis, _ = _slice_data(n, degree, monoid)
    _, tindex = _slice_data(n + 1, degree, monoid)
    cols = []
    for k in basis:
        img = hochschild_d(AlgebraElement.basis(n, k, monoid))
        cols.append(_coords(img, tindex))
    return cols, basis, tindex


def _slice_dim(n: int, degree: int, monoid: DecorationMonoid) -> int:
    if n == 0:
        return 1 if degree == 0 else 0
    return len(enumerate_basis(n, degree, monoid))


def _rank_d(n: int, degree: int, monoid: DecorationMonoid) -> int:
    if n == 0:
        # both faces out of cohomological degree 0 send a scalar to the
        # unit, so the alternating sum vanishes
        return 0
    cols, _, tindex = differential_columns(n, degree, monoid)
    return linalg.sparse_rank(cols, len(tindex))


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
    cols, src_basis, index = differential_columns(n - 1, degree, monoid)
    rhs = _coords(eta, index)
    sol = linalg.sparse_solve(cols, rhs)
    if sol is not None:
        v = AlgebraElement(n - 1, monoid,
                           {src_basis[i]: c for i, c in enumerate(sol) if c})
        return v, AlgebraElement.zero(n, monoid)
    harm_cols, harm_elts = harmonic_complement(n, degree, monoid)
    sol = linalg.sparse_solve(cols + harm_cols, rhs)
    if sol is None:
        raise ValueError("cocycle escapes image + harmonic complement")
    v = AlgebraElement(n - 1, monoid,
                       {src_basis[i]: c for i, c in enumerate(sol[:len(cols)])
                        if c})
    mu = AlgebraElement.zero(n, monoid)
    for i, c in enumerate(sol[len(cols):]):
        if c:
            mu = mu + c * harm_elts[i]
    return v, mu


def harmonic_complement(n: int, degree: int, monoid: DecorationMonoid
                        ) -> tuple[list, list]:
    """A fixed complement of the coboundaries inside the cocycles.

    Preference goes to antisymmetrized basis elements that are themselves
    closed; the family is then completed from the canonically ordered
    kernel basis of the differential.  Deterministic and reproducible.
    """
    basis, index = _slice_data(n, degree, monoid)
    # echelon seeded with the coboundaries so chosen vectors are
    # independent modulo them
    echelon = linalg.Echelon()
    if n >= 1 and degree > 0:
        img_cols, _, _ = differential_columns(n - 1, degree, monoid)
        for col in img_cols:
            echelon.insert(col)
    chosen_cols, chosen_elts = [], []
    for k in basis:
        cand = alt(AlgebraElement.basis(n, k, monoid))
        if cand.is_zero() or not hochschild_d(cand).is_zero():
            continue
        col = _coords(cand, index)
        if echelon.insert(col):
            chosen_cols.append(col)
            chosen_elts.append(cand)
    # complete from the kernel of the outgoing differential
    out_cols, _, _ = differential_columns(n, degree, monoid)
    d_out = linalg.Echelon(linalg.rows_of_columns(out_cols))
    for col in d_out.kernel(len(basis)):
        if echelon.insert(col):
            chosen_cols.append(col)
            chosen_elts.append(AlgebraElement(
                n, monoid, {basis[i]: c for i, c in col.items()}))
    return chosen_cols, chosen_elts
