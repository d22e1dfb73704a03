"""Exact linear algebra over the rationals.

Dense matrices are lists of lists of Fractions; sparse rows are dicts
mapping column index to Fraction (ints are accepted as well).  Nothing here
ever touches floats.  Every elimination scales its input once to primitive
integer rows, reduces them with :func:`_eliminate`, and builds Fractions
only when it reads off a result.  It has two views:

* :class:`Echelon` takes rows, for rank, kernel and inverse.  Pivots are
  smallest columns and pivot entries 1, so results depend on the column
  order only.  A null-space basis holds one vector per free column, in
  increasing order, with entry 1 there.
* :class:`Span` takes columns, eliminates them once, and reduces each
  right-hand side once.  Solutions are zero on the columns that depend on
  earlier ones: the free variables of the reduced echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Echelon:
    """Sparse row-echelon form over the rationals, built one row at a time.

    ``rows`` maps each pivot column to a primitive integer row: its
    smallest column is that pivot, the pivot entry is positive, and the gcd
    of its entries is 1.  Each stored row is a positive multiple of the row
    that elimination over the rationals would hold, so the pivots are the
    same; :meth:`reduce` divides by the pivot entries to give Fractions.
    """

    def __init__(self, rows=()):
        self.rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.insert(row)

    def insert(self, row: dict) -> bool:
        """Reduce ``row`` against the pivots present; store it and return
        True if it is independent of them, else return False."""
        _, row = _integer(row)
        while row:
            piv = min(row)
            if piv not in self.rows:
                self.rows[piv] = _primitive(row, piv)
                return True
            _eliminate(row, piv, self.rows[piv])
        return False

    def _back_substitute(self) -> dict[int, dict[int, int]]:
        """Clear every pivot column outside its own row, in integers, from
        the largest pivot down; returns ``rows``, still primitive."""
        rows = self.rows
        for piv in sorted(rows, reverse=True):
            row = rows[piv]
            cols = [c for c in row if c != piv and c in rows]
            if cols:
                for c in cols:
                    _eliminate(row, c, rows[c])
                g = gcd(*row.values())
                for c in row:
                    row[c] //= g
        return rows

    def reduce(self) -> dict[int, dict]:
        """The reduced row-echelon form, where each pivot column is zero
        outside its own row: pivot -> row of Fractions with pivot entry 1."""
        return {piv: {c: Fraction(v, row[piv]) for c, v in row.items()}
                for piv, row in self._back_substitute().items()}

    def kernel(self, ncols: int) -> list[dict]:
        """Sparse basis of the null space of the stored rows, taken as a
        matrix with ``ncols`` columns."""
        rows = self._back_substitute()
        by_col: dict[int, dict] = {}
        for piv, row in rows.items():
            p = row[piv]
            for c, v in row.items():
                if c != piv:
                    by_col.setdefault(c, {})[piv] = Fraction(-v, p)
        basis = []
        for free in range(ncols):
            if free not in rows:
                vec = by_col.get(free, {})
                vec[free] = Fraction(1)
                basis.append({c: vec[c] for c in sorted(vec)})
        return basis


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

    def add(self, col: dict) -> bool:
        """Append ``col`` as the next column; store it and return True if it
        is independent of the columns added before, else return False."""
        scale, row = _integer(col)
        row[~self.ncols] = scale
        self.ncols += 1
        if (piv := self._reduce(row)) is not None:
            self.rows[piv] = _primitive(row, piv)
        return piv is not None

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


def rows_of_columns(columns) -> list[dict]:
    """Sparse rows (keyed by column position) of a matrix given as sparse
    columns (dict row key -> Fraction)."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for r, v in col.items():
            if v:
                rows.setdefault(r, {})[j] = v
    return list(rows.values())


def rank(matrix: list[list[Fraction]]) -> int:
    return len(Echelon(map(_sparse, matrix)).rows)


def sparse_rank(rows: list[dict], ncols: int) -> int:
    """Rank of a matrix given as sparse rows (dict col -> coeff)."""
    return len(Echelon(rows).rows)


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """One exact solution of ``matrix @ x = rhs`` with free variables set to
    zero, or None if inconsistent."""
    if len(rhs) != len(matrix):
        raise ValueError("right-hand side length differs from the row count")
    n = len(matrix[0]) if matrix else 0
    return Span({i: row[j] for i, row in enumerate(matrix) if row[j]}
                for j in range(n)).coords(_sparse(rhs))


def sparse_solve(columns: list[dict], rhs: dict):
    """Solve ``sum_j x_j * columns[j] = rhs`` for sparse vectors: a list with
    free variables zero, or None if inconsistent."""
    return Span(columns).coords(rhs)


def nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right null space, as dense vectors."""
    n = len(matrix[0]) if matrix else 0
    return [[vec.get(c, Fraction(0)) for c in range(n)]
            for vec in Echelon(map(_sparse, matrix)).kernel(n)]


def inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix; ArithmeticError if it is singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    echelon = Echelon()
    for i, row in enumerate(matrix):
        row = _sparse(row)
        row[n + i] = Fraction(1)
        echelon.insert(row)
    # every augmented row is independent, so A is singular exactly when
    # some pivot falls in the identity block
    if any(p >= n for p in echelon.rows):
        raise ArithmeticError("matrix is singular")
    rows = echelon.reduce()
    return [[rows[i].get(n + j, Fraction(0)) for j in range(n)]
            for i in range(n)]
