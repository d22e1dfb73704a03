"""Exact linear algebra over the rationals.

Dense matrices are lists of lists of Fractions; sparse vectors are dicts
mapping index to Fraction (ints are accepted as well).  Nothing here ever
touches floats.  There is one eliminator, :class:`Span`: it takes columns,
scales each once to a primitive integer row, reduces it with
:func:`_eliminate`, and builds Fractions only when it reads off a result.
Every result is read from it, and depends on the column order only:

* the rank is the number of stored rows (row rank equals column rank, so
  :func:`rank` and :func:`sparse_rank` hand it the rows as columns);
* a column that depends on earlier ones leaves a relation among them, which
  scaled to entry 1 at that column is the reduced-echelon kernel vector of
  that free column: :func:`kernel` holds one per free column, in increasing
  order;
* coordinates of a right-hand side are zero on the free columns, and column
  i of :func:`inverse` is the coordinate vector of e_i.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _eliminate(row: dict, piv: int, prow: dict) -> None:
    """Clear column ``piv`` of the integer ``row`` with the pivot row
    ``prow``: with f and p their entries there and g = gcd(f, p), ``row``
    becomes (p/g)·row − (f/g)·prow, a positive multiple of row − (f/p)·prow."""
    f = row.pop(piv)
    p = prow[piv]
    g = gcd(f, p)
    a, b = p // g, f // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in prow.items():
        if c != piv:
            new = row.get(c, 0) - b * v
            if new:
                row[c] = new
            else:
                row.pop(c, None)


class Span:
    """Coordinates in a growing list of columns, each eliminated once.

    Columns are sparse vectors keyed by non-negative ints.  ``rows`` maps a
    pivot, the largest non-negative key of its row, to a primitive integer
    row r that also holds the column combination it equals under keys ~j:
    sum_{k >= 0} r[k] e_k = sum_j r[~j] col_j.  Only columns independent of
    the earlier ones are stored."""

    def __init__(self, columns=()):
        self.ncols = 0
        self.rows: dict[int, dict[int, int]] = {}
        for col in columns:
            self.add(col)

    def _reduce(self, row: dict):
        """Clear stored pivots from ``row``, largest first; return the first
        key without a stored row, or None once only ~j keys remain."""
        while (piv := max(row)) >= 0:
            if piv not in self.rows:
                return piv
            _eliminate(row, piv, self.rows[piv])
        return None

    def _append(self, col: dict):
        """Append ``col`` as the next column j.  If it is independent of the
        columns added before, store it and return None; else return the
        relation 0 = sum_i r[~i] col_i left by the reduction, with
        r[~j] > 0."""
        scale, row = _integer(col)
        row[~self.ncols] = scale
        self.ncols += 1
        if (piv := self._reduce(row)) is None:
            return row
        self.rows[piv] = _primitive(row, piv)
        return None

    def add(self, col: dict) -> bool:
        """Append ``col`` as the next column; store it and return True if it
        is independent of the columns added before, else return False."""
        return self._append(col) is None

    def coords(self, b: dict):
        """The x with sum_j x_j col_j = ``b``, zero on the dependent columns,
        or None if ``b`` lies outside the span."""
        scale, row = _integer(b)
        tag = ~self.ncols  # a key no stored row holds, standing for b
        row[tag] = scale
        if self._reduce(row) is not None:
            return None
        d = row.pop(tag)  # now 0 = d b + sum_j row[~j] col_j
        x = [Fraction(0)] * self.ncols
        for k, v in row.items():
            x[~k] = Fraction(-v, d)
        return x


def _integer(vec: dict) -> tuple[int, dict]:
    """(s, s * vec without its zeros), s the lcm of the denominators."""
    scale = lcm(*[v.denominator for v in vec.values()])
    return scale, {c: v.numerator * (scale // v.denominator)
                   for c, v in vec.items() if v}


def _primitive(row: dict, piv: int) -> dict:
    """``row`` over the gcd of its entries, positive at ``piv``."""
    g = gcd(*row.values()) * (1 if row[piv] > 0 else -1)
    return {c: v // g for c, v in row.items()}


def _sparse(row) -> dict:
    return {j: v for j, v in enumerate(row) if v}


def _columns(matrix: list[list[Fraction]]) -> list[dict]:
    n = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]}
            for j in range(n)]


def rank(matrix: list[list[Fraction]]) -> int:
    return len(Span(map(_sparse, matrix)).rows)


def sparse_rank(rows: list[dict]) -> int:
    """Rank of a matrix given as sparse rows (dict col -> coeff)."""
    return len(Span(rows).rows)


def kernel(columns) -> list[dict]:
    """Basis of the null space of the matrix with sparse ``columns``: per
    column that depends on earlier ones, in order, the vector with entry 1
    there, zero on the other such columns, keyed in increasing order."""
    span, basis = Span(), []
    for col in columns:
        if (rel := span._append(col)) is not None:
            d = rel[~(span.ncols - 1)]
            basis.append({~k: Fraction(rel[k], d)
                          for k in sorted(rel, reverse=True)})
    return basis


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """One exact solution of ``matrix @ x = rhs`` with free variables set to
    zero, or None if inconsistent."""
    if len(rhs) != len(matrix):
        raise ValueError("right-hand side length differs from the row count")
    return Span(_columns(matrix)).coords(_sparse(rhs))


def nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right null space, as dense vectors."""
    n = len(matrix[0]) if matrix else 0
    return [[vec.get(c, Fraction(0)) for c in range(n)]
            for vec in kernel(_columns(matrix))]


def inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix; ArithmeticError if it is singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    span = Span(_columns(matrix))
    if len(span.rows) < n:
        raise ArithmeticError("matrix is singular")
    cols = [span.coords({i: 1}) for i in range(n)]
    return [[col[i] for col in cols] for i in range(n)]
