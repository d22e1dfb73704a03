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
with v.  Nothing here is eliminated, so the oracle shares no rank code
with the ranks it checks.

Every coefficient is an integer: expansions and characters are signed
sums, and the character mean over S_N is an exact integer quotient.
"""

from __future__ import annotations

import itertools
import math

from .monoids import DecorationMonoid
from .permutations import all_permutations, cycle_count, sign

# A Lie monomial is a nested-tuple binary tree whose leaves are variable
# indices: 3, or (1, 2), or ((1, 2), 3).  An associative combination is a
# dict mapping word tuples to ints.

Word = tuple
AssocElt = dict


def variables(m) -> frozenset:
    """The variable indices of a Lie monomial.

    >>> sorted(variables(((1, 3), 2)))
    [1, 2, 3]
    """
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
    """Partitions of the sorted tuple ``vars`` into ``blocks`` nonempty
    unordered parts, each part a sorted tuple, parts sorted by smallest
    element."""
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
    return [wedge
            for partition in _set_partitions(tuple(range(1, n_vars + 1)), n)
            for wedge in itertools.product(
                *[lie_multilinear_basis(0, part) for part in partition])]


def _wedge_action(perm: tuple, wedge: tuple) -> dict:
    """A variable permutation applied to a wedge of Lie monomials, in the
    wedge basis: the relabeled factors, reordered by smallest variable with
    the sign of that reordering, each re-expanded in its block's Lie basis
    (a relabeled monomial is generally not a basis monomial)."""
    factors = [_relabel(m, lambda x: perm[x - 1]) for m in wedge]
    order = sorted(range(len(factors)), key=lambda i: min(variables(factors[i])))
    return _tensor([_lie_coords(factors[i]) for i in order],
                   sign([o + 1 for o in order]))


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
