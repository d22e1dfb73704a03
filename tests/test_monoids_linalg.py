import math
import random
from fractions import Fraction

import pytest

from dyalg import linalg
from dyalg.monoids import (RootCone, RootConeMod, SPLIT, TRIVIAL, Trivial,
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


def test_monoid_json_rejects_unknown_kind_and_bare_entries():
    with pytest.raises(ValueError, match="^unknown monoid kind 'cone'"):
        monoid_from_json({"kind": "cone"})
    with pytest.raises(ValueError, match="^allowed entry must be a list"):
        monoid_from_json({"kind": "root_cone_mod", "rank": 1, "cap": 2,
                          "allowed": [0]})


def test_monoids_are_values():
    assert Trivial() == TRIVIAL and hash(Trivial()) == hash(TRIVIAL)
    assert TRIVIAL != SPLIT
    assert RootCone(2, 1) == RootCone(2, 1)
    assert hash(RootCone(2, 1)) == hash(RootCone(2, 1))
    assert RootCone(2, 1) != RootCone(2, 2)
    assert {RootCone(2, 1): "cone"}[RootCone(2, 1)] == "cone"
    assert RootCone(2, 1) != RootConeMod(2, 1, frozenset())
    allowed = frozenset({(0, 0), (1, 0)})
    assert RootConeMod(2, 1, allowed) == RootConeMod(
        2, 1, frozenset({(1, 0), (0, 0)}))
    assert len({RootConeMod(2, 1, allowed), RootConeMod(2, 1, allowed),
                RootConeMod(2, 1, frozenset({(0, 0)}))}) == 2
    with pytest.raises(ValueError):
        RootConeMod(2, 1, frozenset({(1, 1)}))  # beyond the cap
    with pytest.raises(ValueError):
        RootConeMod(2, 2, frozenset({(1, 0, 0)}))  # beyond the rank


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
    assert linalg.sparse_rank(rows) == 2
    cols = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    sol = linalg.Span(cols).coords({0: Fraction(3), 1: Fraction(2)})
    assert sol == [Fraction(1), Fraction(2)]
    assert linalg.Span([{0: Fraction(1)}]).coords({1: Fraction(1)}) is None


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
        y = linalg.Span(cols).coords({i: v for i, v in enumerate(b) if v})
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


# -- the integer kernel against a dense Fraction Gauss-Jordan ----------------


def _ref_rref(a, ncols):
    """Dense Gauss-Jordan over Fractions, independent of ``linalg``:
    (pivot column -> dense reduced row, pivot columns in order)."""
    m = [[Fraction(v) for v in row] for row in a]
    rows, pivots = {}, []
    for c in range(ncols):
        p = next((i for i, row in enumerate(m) if row[c]), None)
        if p is None:
            continue
        prow = m.pop(p)
        prow = [v / prow[c] for v in prow]
        m = [[x - row[c] * y for x, y in zip(row, prow)] for row in m]
        for q in pivots:
            rows[q] = [x - rows[q][c] * y for x, y in zip(rows[q], prow)]
        rows[c] = prow
        pivots.append(c)
    return rows, pivots


def _ref_solve(a, b, n):
    rows, pivots = _ref_rref([row + [v] for row, v in zip(a, b)], n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for p in pivots:
        x[p] = rows[p][n]
    return x


def _ref_kernel(rows, pivots, n):
    basis = []
    for free in range(n):
        if free not in pivots:
            vec = {free: Fraction(1)}
            vec.update((p, -rows[p][free]) for p in pivots if rows[p][free])
            basis.append(sorted(vec.items()))
    return basis


def _entry(rng, dens, big):
    num = rng.choice((0, rng.randint(-9, 9), rng.randint(-big, big)))
    den = rng.choice(dens)
    return num if dens == (1,) else Fraction(num, den)


def _reference_cases(seed, count):
    """Matrices up to 7 x 7 over three denominator sets, some rows rational
    combinations of earlier ones, with a consistent or a random rhs."""
    rng = random.Random(seed)
    for k in range(count):
        dens = ((1,), (1, 2, 3), (1, 5, 7, 49))[k % 3]
        big = rng.choice((10, 10 ** 6, 10 ** 12))
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = []
        for _ in range(m):
            if a and rng.random() < 0.35:
                cs = [_entry(rng, dens, 10) for _ in a]
                a.append([sum(c * row[j] for c, row in zip(cs, a))
                          for j in range(n)])
            else:
                a.append([_entry(rng, dens, big) for _ in range(n)])
        x0 = [_entry(rng, dens, big) for _ in range(n)]
        b = ([sum(v * x for v, x in zip(row, x0)) for row in a]
             if rng.random() < 0.5 else [_entry(rng, dens, big) for _ in a])
        yield a, b


def _fractions(values):
    return all(type(v) is Fraction for v in values)


def _sparse_row(row):
    return {j: v for j, v in enumerate(row) if v}


def test_echelon_matches_fraction_reference():
    cases = inconsistent = 0
    for a, b in _reference_cases(11, 420):
        cases += 1
        n = len(a[0])
        rows, pivots = _ref_rref(a, n)
        assert linalg.rank(a) == len(pivots)
        # rows as the columns of a Span: each verdict is whether the row
        # raises the rank of the rows before it
        row_span = linalg.Span()
        verdicts = [row_span.add(_sparse_row(row)) for row in a]
        assert verdicts == [len(_ref_rref(a[:i + 1], n)[1])
                            > len(_ref_rref(a[:i], n)[1])
                            for i in range(len(a))]
        columns = [{i: row[j] for i, row in enumerate(a) if row[j]}
                   for j in range(n)]
        want_kernel = _ref_kernel(rows, pivots, n)
        kernel = linalg.kernel(columns)
        assert [list(v.items()) for v in kernel] == want_kernel
        assert all(_fractions(v.values()) for v in kernel)
        null = linalg.nullspace(a)
        assert null == [[dict(v).get(c, 0) for c in range(n)]
                        for v in want_kernel]
        assert all(_fractions(v) for v in null)
        want_x = _ref_solve(a, b, n)
        inconsistent += want_x is None
        span = linalg.Span()
        assert [span.add(col) for col in columns] == [
            j in pivots for j in range(n)]
        for x in (linalg.solve(a, b), span.coords(_sparse_row(b))):
            assert x == want_x
            assert x is None or _fractions(x)
        if len(a) == n:
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            rows, pivots = _ref_rref([r + e for r, e in zip(a, eye)], 2 * n)
            if pivots[:n] == list(range(n)):
                inv = linalg.inverse(a)
                assert inv == [rows[i][n:] for i in range(n)]
                assert all(_fractions(row) for row in inv)
            else:
                with pytest.raises(ArithmeticError):
                    linalg.inverse(a)
    assert cases == 420 and inconsistent == 144


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        linalg.inverse([[1, 0, 5], [0, 1, 0]])
    with pytest.raises(ValueError):
        linalg.solve([[1, 0], [0, 1], [1, 1]], [1, 2])


def test_span_stores_primitive_rows_with_their_combinations():
    # a stored row r stands for sum_{k >= 0} r[k] e_k = sum_j r[~j] column_j
    for a, _ in _reference_cases(13, 200):
        columns = [{i: row[j] for i, row in enumerate(a) if row[j]}
                   for j in range(len(a[0]))]
        span = linalg.Span(columns)
        for p, row in span.rows.items():
            assert all(type(v) is int for v in row.values())
            assert max(row) == p and row[p] > 0
            assert math.gcd(*row.values()) == 1
            combo = {}
            for k, v in row.items():
                if k < 0:
                    for i, c in columns[~k].items():
                        combo[i] = combo.get(i, 0) + v * c
            assert {i: c for i, c in combo.items() if c} == {
                k: v for k, v in row.items() if k >= 0}
