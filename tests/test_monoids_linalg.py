import random
from fractions import Fraction

import pytest

from dyalg import linalg
from dyalg.monoids import (RootCone, RootConeMod, SPLIT, TRIVIAL,
                           TruncationOverflow, monoid_from_json)


def test_split_decompositions_match_idempotent_relations():
    # pi1 o mu = mu o (pi1 x pi1 + pi1 x pi0 + pi0 x pi1)
    assert SPLIT.decompositions(0) == [(0, 0)]
    assert sorted(SPLIT.decompositions(1)) == [(0, 1), (1, 0), (1, 1)]
    assert SPLIT.add(1, 1) == 1


def test_cone_decompositions_complete_and_finite():
    cone = RootCone(2, 3)
    decs = cone.decompositions((1, 1))
    assert len(decs) == 4
    assert all(cone.add(b, c) == (1, 1) for b, c in decs)


def test_cone_overflow_is_loud():
    cone = RootCone(2, 2)
    with pytest.raises(TruncationOverflow):
        cone.add((1, 1), (1, 1))


def test_mod_cone_allowed():
    mod = RootConeMod(2, 3, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    assert mod.is_allowed((1, 1))
    assert not mod.is_allowed((2, 0))
    assert (2, 0) not in mod.elements()


def test_monoid_json_round_trip():
    for m in (TRIVIAL, SPLIT, RootCone(3, 2),
              RootConeMod(2, 2, frozenset({(0, 0), (1, 0)}))):
        assert monoid_from_json(m.to_json()).key() == m.key()


def test_rank_solve_nullspace():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.rank(m) == 1
    sol = linalg.solve(m, [Fraction(3), Fraction(6)])
    assert sol is not None
    assert sol[0] + 2 * sol[1] == 3
    assert linalg.solve(m, [Fraction(1), Fraction(0)]) is None
    null = linalg.nullspace(m)
    assert len(null) == 1
    v = null[0]
    assert v[0] + 2 * v[1] == 0


def test_sparse_rank_and_solve():
    rows = [{0: Fraction(1), 2: Fraction(1)}, {0: Fraction(2), 2: Fraction(2)},
            {1: Fraction(1)}]
    assert linalg.sparse_rank(rows, 3) == 2
    cols = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    sol = linalg.sparse_solve(cols, {0: Fraction(3), 1: Fraction(2)})
    assert sol == [Fraction(1), Fraction(2)]
    assert linalg.sparse_solve([{0: Fraction(1)}], {1: Fraction(1)}) is None


# -- the elimination kernel, checked by multiplying back ---------------------


def _q(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _matvec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def _matmul(a, b):
    return [[sum(r * c for r, c in zip(row, col)) for col in zip(*b)]
            for row in a]


def _dependent(rng, m, n):
    """An m x n matrix whose last row is a known combination of the others,
    and the left null vector that records it."""
    rows = [[_q(rng) for _ in range(n)] for _ in range(m - 1)]
    coeffs = [_q(rng) for _ in range(m - 1)]
    rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                 for j in range(n)])
    return rows, coeffs + [Fraction(-1)]


def _systems(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(2, 6), rng.randint(1, 6)
        yield rng, *_dependent(rng, m, n)


def test_solve_reproduces_consistent_rhs_and_rejects_inconsistent():
    for rng, a, left_null in _systems(1):
        n = len(a[0])
        b = _matvec(a, [_q(rng) for _ in range(n)])
        x = linalg.solve(a, b)
        assert _matvec(a, x) == b
        cols = [{i: row[j] for i, row in enumerate(a) if row[j]}
                for j in range(n)]
        y = linalg.sparse_solve(cols, {i: v for i, v in enumerate(b) if v})
        assert _matvec(a, y) == b
        bad = b[:-1] + [b[-1] + 1]
        assert sum(c * v for c, v in zip(left_null, bad)) != 0
        assert linalg.solve(a, bad) is None


def test_nullspace_is_annihilated_and_counts_the_rank():
    for _, a, _ in _systems(2):
        n = len(a[0])
        null = linalg.nullspace(a)
        for v in null:
            assert _matvec(a, v) == [0] * len(a)
        # a vector's last nonzero entry is a 1 at its own free column, and
        # the other vectors are 0 there, so the vectors are independent
        free = [max(c for c, x in enumerate(v) if x) for v in null]
        for i, v in enumerate(null):
            assert [v[c] for c in free] == [int(i == j)
                                            for j in range(len(null))]
        assert linalg.rank(a) + len(null) == n
        assert linalg.rank(a) <= len(a) - 1


def test_inverse_multiplies_to_identity_and_rejects_singular():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        lower = [[Fraction(int(i == j)) if j >= i else _q(rng)
                  for j in range(n)] for i in range(n)]
        upper = [[_q(rng) if j > i else Fraction(rng.choice((-2, -1, 1, 3)))
                  if j == i else Fraction(0) for j in range(n)]
                 for i in range(n)]
        a = _matmul(lower, upper)  # invertible by construction
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _matmul(linalg.inverse(a), a) == eye
        if n > 1:
            singular, _ = _dependent(rng, n, n)
            with pytest.raises(ArithmeticError):
                linalg.inverse(singular)


def test_results_do_not_depend_on_row_order():
    for rng, a, _ in _systems(4):
        b = _matvec(a, [_q(rng) for _ in range(len(a[0]))])
        order = list(range(len(a)))
        rng.shuffle(order)
        pa, pb = [a[i] for i in order], [b[i] for i in order]
        assert linalg.solve(pa, pb) == linalg.solve(a, b)
        assert linalg.nullspace(pa) == linalg.nullspace(a)


def test_pivot_first_solution_by_hand():
    # row-reduces to [[1, 2, 0 | 1], [0, 0, 1 | 1], [0, 0, 0 | 0]]: pivots
    # in columns 0 and 2, column 1 free
    a = [[Fraction(2), Fraction(4), Fraction(1)],
         [Fraction(4), Fraction(8), Fraction(3)],
         [Fraction(6), Fraction(12), Fraction(4)]]
    assert linalg.solve(a, [3, 7, 10]) == [1, 0, 1]
    assert linalg.solve(a, [3, 7, 11]) is None
    assert linalg.nullspace(a) == [[-2, 1, 0]]
    assert linalg.rank(a) == 2
