import itertools
from fractions import Fraction

import pytest

from dyalg import freelie, linalg
from dyalg.freelie import (assoc_product, expand_to_assoc,
                           hochschild_target_dim, lie_bracket_assoc,
                           lie_multilinear_basis, pbw_basis, pbw_decompose,
                           symmetrized_product, variables, wedge_basis,
                           wedge_multilinear_dim, wedge_pair_dim)
from dyalg.monoids import RootCone, SPLIT, TRIVIAL

ORACLE_MONOIDS = (TRIVIAL, SPLIT, RootCone(2, 1))


def test_basis_dimensions():
    for n in range(1, 6):
        want = 1
        for k in range(2, n):
            want *= k
        assert len(lie_multilinear_basis(n)) == want


def test_basis_examples():
    assert lie_multilinear_basis(1) == [1]
    assert lie_multilinear_basis(2) == [(1, 2)]
    assert len(lie_multilinear_basis(3)) == 2


def test_expand_examples():
    assert expand_to_assoc((1, 2)) == {(1, 2): Fraction(1),
                                       (2, 1): Fraction(-1)}
    got = expand_to_assoc(((1, 2), 3))
    want = {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(-1),
            (3, 1, 2): Fraction(-1), (3, 2, 1): Fraction(1)}
    assert got == want


def test_jacobi_on_expansions():
    a, b, c = expand_to_assoc(1), expand_to_assoc(2), expand_to_assoc(3)
    total = lie_bracket_assoc(lie_bracket_assoc(a, b), c)
    for x, y, z in ((b, c, a), (c, a, b)):
        term = lie_bracket_assoc(lie_bracket_assoc(x, y), z)
        for w, v in term.items():
            total[w] = total.get(w, Fraction(0)) + v
    assert all(not v for v in total.values())


def test_antisymmetry_on_expansions():
    a = expand_to_assoc((1, 2))
    b = expand_to_assoc((2, 1))
    assert all(a[w] == -b.get(w, Fraction(0)) for w in a)


def test_expansion_injective_on_basis():
    for n in (2, 3, 4):
        basis = lie_multilinear_basis(n)
        words = sorted(itertools.permutations(range(1, n + 1)))
        cols = [expand_to_assoc(m) for m in basis]
        matrix = [[col.get(w, Fraction(0)) for col in cols] for w in words]
        assert linalg.rank(matrix) == len(basis)


def test_pbw_example():
    dec = pbw_decompose({(1, 2): Fraction(1)}, 2)
    assert dec[((1, 2),)] == Fraction(1, 2)
    assert dec[(1, 2)] == Fraction(1)


def test_pbw_symmetric_input_fixed():
    sym = symmetrized_product((1, 2))
    dec = pbw_decompose(sym, 2)
    assert dec == {(1, 2): Fraction(1)}


def test_pbw_round_trip_n3():
    for word in itertools.permutations((1, 2, 3)):
        target = {word: Fraction(1)}
        dec = pbw_decompose(target, 3)
        total = {}
        for monos, coeff in dec.items():
            for w, c in symmetrized_product(monos).items():
                total[w] = total.get(w, Fraction(0)) + coeff * c
        total = {w: c for w, c in total.items() if c}
        assert total == target


def test_pbw_rejects_non_multilinear():
    with pytest.raises(ValueError):
        pbw_decompose({(1, 1): Fraction(1)}, 2)


def test_wedge_dims_small():
    assert wedge_multilinear_dim(1, 1, TRIVIAL) == 1
    assert wedge_multilinear_dim(2, 1, TRIVIAL) == 0
    assert wedge_multilinear_dim(1, 2, TRIVIAL) == 1
    assert wedge_multilinear_dim(2, 2, TRIVIAL) == 1


def test_wedge_pair_dims():
    # the mixed pieces feeding the cohomology oracle
    assert wedge_pair_dim(1, 1, 1, TRIVIAL) == 1
    assert hochschild_target_dim(2, 1, TRIVIAL) == 1
    assert hochschild_target_dim(3, 1, TRIVIAL) == 0
    assert hochschild_target_dim(2, 2, TRIVIAL) == 1
    assert hochschild_target_dim(3, 2, TRIVIAL) == 2
    assert hochschild_target_dim(2, 1, SPLIT) == 2


def test_wedge_guard():
    with pytest.raises(ValueError):
        wedge_multilinear_dim(1, 5, TRIVIAL)


# The projector-rank reference: the S_N averaging projector on
# W_a (x) D^N (x) W_b written out as a matrix and ranked, where W_k is the
# k-th exterior power of the multilinear free Lie algebra.  The package
# computes the same dimension as a character mean, without any matrix.


def _relabel(perm, m):
    if isinstance(m, int):
        return perm[m - 1]
    return (_relabel(perm, m[0]), _relabel(perm, m[1]))


def _left_normed_coords(m) -> dict:
    """Coordinates of a Lie monomial in the left-normed basis of its
    variables, solved against the expanded basis with ``linalg.Span``.  The
    package reads them off the words that start with the least variable
    instead, so the two sides share no coordinate code."""
    vars = tuple(sorted(variables(m)))
    basis = lie_multilinear_basis(0, vars)
    widx = {w: i for i, w in enumerate(itertools.permutations(vars))}
    span = linalg.Span({widx[w]: c for w, c in expand_to_assoc(b).items()}
                       for b in basis)
    sol = span.coords({widx[w]: c for w, c in expand_to_assoc(m).items()})
    return {b: c for b, c in zip(basis, sol) if c}


def _act_on_wedge(perm, wedge) -> dict:
    """A variable permutation applied to a basis wedge, in the wedge basis."""
    factors = [_relabel(perm, m) for m in wedge]
    least = [min(variables(f)) for f in factors]
    inversions = sum(least[i] > least[j] for i, j in
                     itertools.combinations(range(len(least)), 2))
    out = {(): (-1) ** inversions}
    for f in sorted(factors, key=lambda f: min(variables(f))):
        out = {key + (k,): c * c1 for key, c in out.items()
               for k, c1 in _left_normed_coords(f).items()}
    return out


def _projector_rank(a, b, n_vars, monoid) -> int:
    triples = list(itertools.product(
        wedge_basis(a, n_vars),
        itertools.product(monoid.elements(), repeat=n_vars),
        wedge_basis(b, n_vars)))
    index = {t: i for i, t in enumerate(triples)}
    rows = []
    for x, d, y in triples:
        row = {}
        for perm in itertools.permutations(range(1, n_vars + 1)):
            moved = tuple(d[perm.index(q)] for q in range(1, n_vars + 1))
            for kx, cx in _act_on_wedge(perm, x).items():
                for ky, cy in _act_on_wedge(perm, y).items():
                    j = index[kx, moved, ky]
                    row[j] = row.get(j, 0) + cx * cy
        rows.append({j: c for j, c in row.items() if c})
    return linalg.sparse_rank(rows)


def test_wedge_pair_dim_matches_projector_rank():
    for monoid in ORACLE_MONOIDS:
        for n_vars in range(1, 4):
            for a, b in itertools.product(range(n_vars + 1), repeat=2):
                assert (wedge_pair_dim(a, b, n_vars, monoid)
                        == _projector_rank(a, b, n_vars, monoid)), (
                    monoid, a, b, n_vars)


def test_wedge_pair_dim_pinned_at_four_strands():
    # the projector ranks at N = 4, rows a = 1..4, columns b = 1..4
    pinned = {
        TRIVIAL: [[2, 3, 1, 0], [3, 6, 3, 0], [1, 3, 3, 1], [0, 0, 1, 1]],
        SPLIT: [[26, 45, 22, 3], [45, 85, 47, 7], [22, 47, 34, 9],
                [3, 7, 9, 5]],
        RootCone(2, 1): [[126, 225, 117, 18], [225, 420, 234, 39],
                         [117, 234, 153, 36], [18, 39, 36, 15]],
    }
    for monoid, table in pinned.items():
        got = [[wedge_pair_dim(a, b, 4, monoid) for b in range(5)]
               for a in range(5)]
        assert got == [[0] * 5] + [[0] + row for row in table], monoid


def test_oracle_runs_without_the_eliminator(monkeypatch):
    # the oracle reads its Lie coordinates off first letters: it must run
    # with no cached solver and with the eliminator unavailable
    def no_span(*args, **kwargs):
        raise AssertionError("the oracle called linalg.Span")

    monkeypatch.setattr(freelie, "_SOLVERS", {})
    monkeypatch.setattr(linalg, "Span", no_span)
    # hochschild_target_dim(n, N, monoid), rows N = 1..4, columns n = 0..8
    pinned = {
        TRIVIAL: [[0, 0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 2, 1, 0, 0, 0, 0],
                  [0, 0, 1, 2, 2, 2, 1, 0, 0], [0, 0, 2, 6, 8, 6, 3, 2, 1]],
        SPLIT: [[0, 0, 2, 0, 0, 0, 0, 0, 0], [0, 0, 3, 6, 3, 0, 0, 0, 0],
                [0, 0, 6, 16, 18, 12, 4, 0, 0],
                [0, 0, 26, 90, 129, 100, 48, 18, 5]],
        RootCone(2, 1): [[0, 0, 3, 0, 0, 0, 0, 0, 0],
                         [0, 0, 6, 12, 6, 0, 0, 0, 0],
                         [0, 0, 19, 54, 61, 36, 10, 0, 0],
                         [0, 0, 126, 450, 654, 504, 231, 72, 15]],
    }
    for monoid, table in pinned.items():
        got = [[hochschild_target_dim(n, n_vars, monoid) for n in range(9)]
               for n_vars in range(1, 5)]
        assert got == table, monoid


def test_lie_coords_reconstruct_every_relabeled_basis_monomial():
    for n in range(1, 6):
        basis = lie_multilinear_basis(n)
        for m, perm in itertools.product(
                basis, itertools.permutations(range(1, n + 1))):
            moved = _relabel(perm, m)
            total = {}
            for b, c in freelie._lie_coords(moved).items():
                for w, v in expand_to_assoc(b).items():
                    total[w] = total.get(w, 0) + c * v
            assert ({w: c for w, c in total.items() if c}
                    == expand_to_assoc(moved)), (m, perm)
