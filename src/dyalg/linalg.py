"""Exact linear algebra over the rationals.

Dense matrices are lists of lists of Fractions; sparse rows are dicts
mapping column index to Fraction (ints are accepted as well).  Nothing here
ever touches floats.

Every elimination goes through :class:`Echelon`, which computes in Python
ints: a row is scaled once to integers by the lcm of its denominators, and
Fractions are built only when a result is read off.  Results follow one
convention: the pivot of a row is its smallest column index, and pivot
entries are 1.  The reduced row-echelon form is unique for a row space, so
every result below depends on the column order only, never on the order of
the rows.  Solutions set the free (non-pivot) variables to zero.  Null-space
bases hold one vector per free column, in increasing column order, with
entry 1 there.
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
        scale = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (scale // v.denominator)
               for c, v in row.items() if v}
        while row:
            piv = min(row)
            prow = self.rows.get(piv)
            if prow is None:
                g = gcd(*row.values())
                if row[piv] < 0:
                    g = -g
                self.rows[piv] = {c: v // g for c, v in row.items()}
                return True
            _eliminate(row, piv, prow)
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

    def solution(self, ncols: int):
        """The solution of the system whose augmented column is ``ncols``,
        with free variables zero, or None if the system is inconsistent."""
        if ncols in self.rows:
            return None
        x = [Fraction(0)] * ncols
        for piv, row in self._back_substitute().items():
            v = row.get(ncols)
            if v:
                x[piv] = Fraction(v, row[piv])
        return x

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
    n = len(matrix[0]) if matrix else 0
    echelon = Echelon()
    for row, b in zip(matrix, rhs):
        row = _sparse(row)
        if b:
            row[n] = b
        echelon.insert(row)
    return echelon.solution(n)


def sparse_solve(columns: list[dict], rhs: dict):
    """Solve ``sum_j x_j * columns[j] = rhs`` where columns and rhs are sparse
    vectors (dict row-index -> Fraction).  Returns a coefficient list with
    free variables zero, or None if inconsistent."""
    return Echelon(rows_of_columns(columns + [rhs])).solution(len(columns))


def nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right null space, as dense vectors."""
    n = len(matrix[0]) if matrix else 0
    basis = []
    for vec in Echelon(map(_sparse, matrix)).kernel(n):
        dense = [Fraction(0)] * n
        for c, v in vec.items():
            dense[c] = v
        basis.append(dense)
    return basis


def inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix; ArithmeticError if it is singular."""
    n = len(matrix)
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
