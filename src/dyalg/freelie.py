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
factor.  Its dimension is a character mean over S_N.  The characters need
the coordinates of relabeled Lie monomials in the left-normed basis, and
these are read off, not solved for: with v the least variable, the basis
monomial ``[[v, s2], ..., sk]`` is the only one whose expansion holds the
word ``v s2 ... sk``, with coefficient 1 (Reutenauer, Free Lie Algebras,
1993), so the coordinates are the coefficients of the words that start
with v.  Nothing on the oracle path is eliminated, so it shares no rank
code with the ranks it checks.

Expansions have integer coefficients; Fractions enter only where something
is divided (symmetrisation and PBW coordinates).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .monoids import DecorationMonoid
from .permutations import all_permutations, block_starts, cycle_count, sign

# A Lie monomial is a nested-tuple binary tree whose leaves are variable
# indices: 3, or (1, 2), or ((1, 2), 3).  An associative combination is a
# dict mapping word tuples to ints (to Fractions once divided).

Word = tuple
AssocElt = dict


def variables(m) -> frozenset:
    if isinstance(m, int):
        return frozenset([m])
    return variables(m[0]) | variables(m[1])


def _left_normed(word: tuple):
    """The left-normed monomial [[w1, w2], ..., wk] on the letters of
    ``word``."""
    tree = word[0]
    for letter in word[1:]:
        tree = (tree, letter)
    return tree


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
    return [_left_normed(vars[:1] + perm)
            for perm in itertools.permutations(vars[1:])]


def expand_to_assoc(m) -> AssocElt:
    """Expansion of a Lie monomial into signed words.

    >>> expand_to_assoc((1, 2))
    {(1, 2): 1, (2, 1): -1}
    """
    if isinstance(m, int):
        return {(m,): 1}
    left, right = expand_to_assoc(m[0]), expand_to_assoc(m[1])
    out: AssocElt = {}
    for (wl, cl), (wr, cr) in itertools.product(left.items(), right.items()):
        _add(out, wl + wr, cl * cr)
        _add(out, wr + wl, -cl * cr)
    return out


def _add(elt: AssocElt, word: Word, coeff) -> None:
    new = elt.get(word, 0) + coeff
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
        term = {(): 1}
        for i in order:
            term = assoc_product(term, expanded[i])
        for w, c in term.items():
            _add(out, w, c)
    return {w: Fraction(c, math.factorial(k)) for w, c in out.items()}


# variables -> (PBW basis, word index, Span of the symmetrized basis)
_SOLVERS: dict[tuple, tuple] = {}


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
    if vars not in _SOLVERS:
        basis = [b for k in range(1, n_vars + 1) for b in pbw_basis(vars, k)]
        widx = {wd: i for i, wd in enumerate(itertools.permutations(vars))}
        _SOLVERS[vars] = basis, widx, linalg.Span(
            {widx[wd]: c for wd, c in symmetrized_product(b).items()}
            for b in basis)
    basis, widx, span = _SOLVERS[vars]
    sol = span.coords({widx[wd]: c for wd, c in w.items()})
    if sol is None:
        raise ValueError("PBW system inconsistent")
    return {basis[j]: c for j, c in enumerate(sol) if c}


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
            dec = pbw_decompose({tuple(x - starts[b] for x in word): 1},
                                blocks[b])
            decs.append({tuple(_relabel(m, lambda x: x + starts[b])
                               for m in key): c for key, c in dec.items()})
        for key, c in _tensor(decs, coeff).items():
            _add(out, key, c)
    return out


def _tensor(factors, coeff=1) -> dict:
    """Tensor product of coordinate dicts, scaled by ``coeff``: tuples of
    keys, one per factor, to products of coefficients."""
    out = {(): coeff}
    for coords in factors:
        out = {prefix + (k,): c0 * c1
               for prefix, c0 in out.items() for k, c1 in coords.items()}
    return out


def _relabel(m, f):
    """The Lie monomial ``m`` with each variable x replaced by f(x)."""
    if isinstance(m, int):
        return f(m)
    return (_relabel(m[0], f), _relabel(m[1], f))


def wedge_basis(n: int, n_vars: int) -> list[tuple]:
    """Basis of the n-th exterior power of the free Lie algebra, multilinear
    part: wedges of ``n`` Lie monomials with variable sets partitioning
    {1..N}, factors ordered by smallest variable."""
    return pbw_basis(tuple(range(1, n_vars + 1)), n)


def _wedge_action(perm: tuple, wedge: tuple) -> dict:
    """A variable permutation applied to a wedge of Lie monomials, in the
    wedge basis: the relabeled factors, reordered by smallest variable with
    the sign of that reordering, each re-expanded in its block's Lie basis
    (a relabeled monomial is generally not a basis monomial)."""
    factors = [_relabel(m, lambda x: perm[x - 1]) for m in wedge]
    order = sorted(range(len(factors)), key=lambda i: min(variables(factors[i])))
    return _tensor([_lie_coords(factors[i]) for i in order],
                   sign([o + 1 for o in order]))


def wedge_multilinear_dim(n: int, n_vars: int,
                          monoid: DecorationMonoid) -> int:
    """Dimension of the coinvariant space

        [ wedge^n(multilinear Lie) (x) D^N (x) wedge^n(multilinear Lie) ]_{S_N}

    computed as the trace of the averaging projector (``wedge_pair_dim``).
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
    sides of the decoration factor.

    The averaging projector is idempotent, so its rank is its trace: the
    character's mean over S_N (Serre, Linear Representations of Finite
    Groups, 2.3).  A permutation with c cycles fixes m^c decorations, m = |D|.
    """
    if not (a >= 0 and b >= 0 and 1 <= n_vars <= 4):
        raise ValueError("size guard: need degrees >= 0 and 1 <= N <= 4")
    m = len(monoid.elements())

    def trace(perm, n):  # each basis wedge's coefficient in its own image
        return sum(_wedge_action(perm, x).get(x, 0)
                   for x in wedge_basis(n, n_vars))

    total = sum(trace(perm, a) * trace(perm, b) * m ** cycle_count(perm)
                for perm in all_permutations(n_vars))
    return total // math.factorial(n_vars)


def _lie_coords(m) -> dict:
    """Coordinates of a multilinear Lie monomial in the left-normed basis of
    its variables: the coefficients of its words that start with the least
    variable, each keyed by the basis monomial that holds that word (see
    the module docstring)."""
    least = min(variables(m))
    return {_left_normed(w): c for w, c in expand_to_assoc(m).items()
            if w[0] == least}
