"""Multilinear components of free Lie and free associative algebras.

Everything here is multilinear: each variable x_1..x_N appears exactly once.
The multilinear component of the free associative algebra has the N! words
``x_{s(1)} ... x_{s(N)}`` as a basis; the free Lie algebra sits inside it
with dimension (N-1)!, spanned by the left-normed monomials
``[[x_1, x_{s(2)}], ..., x_{s(N)}]`` with s fixing 1.

These spaces are the dimension oracle for the cohomology layer: the target
of the Hochschild computation in cohomological degree n and string degree N
is the symmetric-group coinvariant space built from two copies of the
n-th exterior power of the multilinear free Lie algebra and a decoration
factor.

All linear algebra is over exact rationals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .monoids import DecorationMonoid
from .permutations import all_permutations, block_starts, inverse, sign

# A Lie monomial is a nested-tuple binary tree whose leaves are variable
# indices: 3, or (1, 2), or ((1, 2), 3).  An associative combination is a
# dict mapping word tuples to Fractions.

Word = tuple
AssocElt = dict


def variables(m) -> frozenset:
    if isinstance(m, int):
        return frozenset([m])
    return variables(m[0]) | variables(m[1])


def lie_multilinear_basis(n: int, vars: tuple | None = None) -> list:
    """Left-normed basis of the multilinear free Lie component.

    >>> lie_multilinear_basis(2)
    [(1, 2)]
    >>> len(lie_multilinear_basis(4))
    6
    """
    if vars is None:
        if not 1 <= n <= 6:
            raise ValueError("variable count out of range 1..6")
        vars = tuple(range(1, n + 1))
    if len(vars) == 1:
        return [vars[0]]
    first, rest = vars[0], vars[1:]
    out = []
    for perm in itertools.permutations(rest):
        m = (first, perm[0])
        for v in perm[1:]:
            m = (m, v)
        out.append(m)
    return out


def expand_to_assoc(m) -> AssocElt:
    """Expansion of a Lie monomial into signed words.

    >>> expand_to_assoc((1, 2)) == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    True
    """
    if isinstance(m, int):
        return {(m,): Fraction(1)}
    left, right = expand_to_assoc(m[0]), expand_to_assoc(m[1])
    out: AssocElt = {}
    for (wl, cl), (wr, cr) in itertools.product(left.items(), right.items()):
        _add(out, wl + wr, cl * cr)
        _add(out, wr + wl, -cl * cr)
    return out


def _add(elt: AssocElt, word: Word, coeff: Fraction) -> None:
    new = elt.get(word, Fraction(0)) + coeff
    if new:
        elt[word] = new
    else:
        elt.pop(word, None)


def assoc_product(a: AssocElt, b: AssocElt) -> AssocElt:
    out: AssocElt = {}
    for (wa, ca), (wb, cb) in itertools.product(a.items(), b.items()):
        _add(out, wa + wb, ca * cb)
    return out


def lie_bracket_assoc(a: AssocElt, b: AssocElt) -> AssocElt:
    out = assoc_product(a, b)
    for w, c in assoc_product(b, a).items():
        _add(out, w, -c)
    return out


def _set_partitions(vars: tuple, blocks: int):
    """Partitions of ``vars`` into ``blocks`` nonempty unordered parts,
    each part a sorted tuple, parts sorted by smallest element."""
    vars = tuple(sorted(vars))
    if blocks == 0:
        if not vars:
            yield ()
        return
    if len(vars) < blocks:
        return
    first, rest = vars[0], vars[1:]
    for rsize in range(len(rest) + 1):
        for companions in itertools.combinations(rest, rsize):
            part = (first,) + companions
            remaining = tuple(v for v in rest if v not in companions)
            for tail in _set_partitions(remaining, blocks - 1):
                yield (part,) + tail


def pbw_basis(vars: tuple, blocks: int) -> list[tuple]:
    """Multilinear PBW basis: unordered products of ``blocks`` Lie monomials
    whose variable sets partition ``vars``.  Each basis element is a tuple of
    Lie monomials, parts ordered by their smallest variable."""
    out = []
    for partition in _set_partitions(vars, blocks):
        for choice in itertools.product(
                *[lie_multilinear_basis(0, part) for part in partition]):
            out.append(tuple(choice))
    return out


def symmetrized_product(monomials: tuple) -> AssocElt:
    """Image of an unordered product of Lie monomials under symmetrisation:
    the average of the products over all orderings of the factors."""
    k = len(monomials)
    expanded = [expand_to_assoc(m) for m in monomials]
    out: AssocElt = {}
    for order in itertools.permutations(range(k)):
        term = {(): Fraction(1)}
        for i in order:
            term = assoc_product(term, expanded[i])
        for w, c in term.items():
            _add(out, w, Fraction(c, math.factorial(k)))
    return out


def pbw_decompose(w: AssocElt, n_vars: int) -> dict:
    """Write a multilinear associative element in the symmetrized PBW basis.

    Returns a dict mapping tuples of Lie monomials to coefficients; summing
    ``coeff * symmetrized_product(monomials)`` recovers the input exactly.

    >>> dec = pbw_decompose({(1, 2): Fraction(1)}, 2)
    >>> dec[((1, 2),)]
    Fraction(1, 2)
    """
    vars = tuple(range(1, n_vars + 1))
    for word in w:
        if tuple(sorted(word)) != vars:
            raise ValueError("input is not multilinear in x_1..x_N")
    dec = _multilinear_coords(w, vars, symmetrized_product, lambda vs: [
        b for k in range(1, len(vs) + 1) for b in pbw_basis(vs, k)])
    if dec is None:
        raise ValueError("PBW system inconsistent")
    return dec


# (expansion, variables) -> (basis, word index, Span of the expanded basis)
_SOLVERS: dict[tuple, tuple] = {}


def _multilinear_coords(w: AssocElt, vars: tuple, expand, basis_of):
    """Coordinates of the multilinear element ``w`` on ``vars`` in the basis
    ``basis_of(vars)``, which ``expand`` takes to associative elements, or
    None if ``w`` is outside its span."""
    if (expand, vars) not in _SOLVERS:
        basis = basis_of(vars)
        widx = {wd: i for i, wd in enumerate(itertools.permutations(vars))}
        _SOLVERS[expand, vars] = basis, widx, linalg.Span(
            {widx[wd]: c for wd, c in expand(b).items()} for b in basis)
    basis, widx, span = _SOLVERS[expand, vars]
    sol = span.coords({widx[wd]: c for wd, c in w.items()})
    return None if sol is None else {
        basis[j]: c for j, c in enumerate(sol) if c}


def pbw_decompose_blocks(w: dict, blocks: tuple[int, ...]) -> dict:
    """Blockwise PBW decomposition of a multilinear tensor element.

    ``w`` maps tuples of words (one word per block, using disjoint variable
    ranges laid out consecutively per ``blocks``) to coefficients; each
    block is decomposed independently and the results are tensored.
    Returns a dict mapping tuples of per-block PBW keys to coefficients.
    """
    starts = block_starts(blocks)
    out: dict = {}
    for words, coeff in w.items():
        if len(words) != len(blocks):
            raise ValueError("word count does not match block count")
        decs = []
        for b, word in enumerate(words):
            expected = tuple(range(starts[b] + 1, starts[b] + blocks[b] + 1))
            if tuple(sorted(word)) != expected:
                raise ValueError("block word uses wrong variables")
            dec = pbw_decompose({tuple(x - starts[b] for x in word):
                                 Fraction(1)}, blocks[b])
            decs.append({_shift_monomials(key, starts[b]): c
                         for key, c in dec.items()})
        for key, c in _tensor(decs, coeff).items():
            _add(out, key, c)
    return out


def _tensor(factors, coeff=Fraction(1)) -> dict:
    """Tensor product of coordinate dicts, scaled by ``coeff``: tuples of
    keys, one per factor, to products of coefficients."""
    out = {(): coeff}
    for coords in factors:
        out = {prefix + (k,): c0 * c1
               for prefix, c0 in out.items() for k, c1 in coords.items()}
    return out


def _shift_monomials(key: tuple, offset: int) -> tuple:
    def shift(m):
        if isinstance(m, int):
            return m + offset
        return (shift(m[0]), shift(m[1]))

    return tuple(shift(m) for m in key)


def wedge_basis(n: int, n_vars: int) -> list[tuple]:
    """Basis of the n-th exterior power of the free Lie algebra, multilinear
    part: wedges of ``n`` Lie monomials with variable sets partitioning
    {1..N}, factors ordered by smallest variable."""
    return pbw_basis(tuple(range(1, n_vars + 1)), n)


def _wedge_action(perm: tuple, wedge: tuple) -> tuple[int, dict]:
    """Apply a variable permutation to a wedge of Lie monomials; returns the
    sign from reordering the factors and the relabeled (unsorted) factors
    expanded in the wedge basis.  Relabeled factors are generally not basis
    monomials, so each is re-expanded in the Lie basis of its block."""

    def relabel(m):
        if isinstance(m, int):
            return perm[m - 1]
        return (relabel(m[0]), relabel(m[1]))

    factors = [relabel(m) for m in wedge]
    order = sorted(range(len(factors)), key=lambda i: min(variables(factors[i])))
    sgn = sign([o + 1 for o in order])
    return sgn, [factors[i] for i in order]


def wedge_multilinear_dim(n: int, n_vars: int,
                          monoid: DecorationMonoid) -> int:
    """Dimension of the coinvariant space

        [ wedge^n(multilinear Lie) (x) D^N (x) wedge^n(multilinear Lie) ]_{S_N}

    computed as the exact rank of the symmetric-group averaging projector.
    """
    return wedge_pair_dim(n, n, n_vars, monoid)


def hochschild_target_dim(n: int, n_vars: int,
                          monoid: DecorationMonoid) -> int:
    """Expected cohomology dimension in total degree n at strand degree N:
    the product complex contributes every split a + b = n of exterior
    powers on the two sides."""
    return sum(wedge_pair_dim(a, n - a, n_vars, monoid)
               for a in range(n + 1))


def wedge_pair_dim(a: int, b: int, n_vars: int,
                   monoid: DecorationMonoid) -> int:
    """Coinvariant dimension with independent exterior degrees on the two
    sides of the decoration factor."""
    if not (a >= 0 and b >= 0 and 1 <= n_vars <= 4):
        raise ValueError("size guard: need degrees >= 0 and 1 <= N <= 4")
    wb = wedge_basis(a, n_vars)
    vb = wedge_basis(b, n_vars)
    if not wb or not vb:
        return 0
    decors = list(itertools.product(monoid.elements(), repeat=n_vars))
    idx = {}
    triples = []
    for x in wb:
        for d in decors:
            for y in vb:
                idx[(x, d, y)] = len(triples)
                triples.append((x, d, y))
    rows = []
    for x, d, y in triples:
        row = {}
        for perm in all_permutations(n_vars):
            sa, fa = _wedge_action(perm, x)
            sb, fb = _wedge_action(perm, y)
            pd = tuple(d[j - 1] for j in inverse(perm))
            image = _tensor([_tensor(map(_lie_coords, fa)), {pd: 1},
                             _tensor(map(_lie_coords, fb))], Fraction(sa * sb))
            for key, c in image.items():
                row[idx[key]] = row.get(idx[key], 0) + c
        rows.append({j: c / math.factorial(n_vars)
                     for j, c in row.items() if c})
    return linalg.sparse_rank(rows)


def _lie_coords(m) -> dict:
    """Coordinates of a multilinear Lie monomial in the left-normed basis of
    its variables."""
    return _multilinear_coords(
        expand_to_assoc(m), tuple(sorted(variables(m))), expand_to_assoc,
        lambda vs: lie_multilinear_basis(0, vs))
