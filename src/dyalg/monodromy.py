"""Local monodromy gauges in truncated sl2 enveloping algebras.

Operators are realized as exact matrices on a fleet of finite-dimensional
irreducible sl2 modules, with formal-parameter series truncated at a fixed
order.  The reference leading term is the triple exponential
exp(e) exp(-f) exp(e), whose matrix is exact on each module because e and f
are nilpotent; conjugation by it negates the Cartan generator.

Given two operator families of the shape (triple exponential) x (1 + higher
order weight-zero corrections) that satisfy the same twisted-coproduct
identity, the corrector at each order is forced to be a multiple of the
Cartan generator, and the solver reconstructs the unique scalar series u
with S2 = exp(u h) S1 exp(-u h).  A corrector outside the Cartan line is
reported as an error.
"""

from __future__ import annotations

from fractions import Fraction

from .bialgebra import Matrix, eye, madd, mat, matmul, mscale, zeros
from . import linalg


def sl2_irrep(m: int) -> tuple[Matrix, Matrix, Matrix]:
    """The (m+1)-dimensional irreducible module: returns (e, f, h)."""
    dim = m + 1
    e = [[Fraction(0)] * dim for _ in range(dim)]
    f = [[Fraction(0)] * dim for _ in range(dim)]
    h = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(dim):
        h[k][k] = Fraction(m - 2 * k)
        if k + 1 < dim:
            f[k + 1][k] = Fraction(1)
            e[k][k + 1] = Fraction((k + 1) * (m - k))
    return tuple(map(tuple, e)), tuple(map(tuple, f)), tuple(map(tuple, h))


def mat_exp_nilpotent(a: Matrix) -> Matrix:
    """Exact exponential of a nilpotent matrix."""
    dim = len(a)
    out = eye(dim)
    term = eye(dim)
    k = 1
    while True:
        term = mscale(Fraction(1, k), matmul(term, a))
        if all(not x for row in term for x in row):
            break
        out = madd(out, term)
        k += 1
        if k > dim + 2:
            raise ArithmeticError("matrix is not nilpotent")
    return out


def triple_exponential(e: Matrix, f: Matrix) -> Matrix:
    return matmul(mat_exp_nilpotent(e),
                  matmul(mat_exp_nilpotent(mscale(-1, f)),
                         mat_exp_nilpotent(e)))


# matrix series: list of matrices indexed by the formal-parameter power


def series_mul(a: list[Matrix], b: list[Matrix], order: int) -> list[Matrix]:
    dim = len(a[0])
    out = [zeros(dim) for _ in range(order + 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] = madd(out[i + j], matmul(ai, bj))
    return out


def series_scalar_h_exp(coeffs: list[Fraction], h: Matrix,
                        order: int) -> list[Matrix]:
    """exp(sum_k coeffs[k] t^k h) as a matrix series; coeffs[0] must be 0."""
    dim = len(h)
    arg = [zeros(dim) for _ in range(order + 1)]
    for k, c in enumerate(coeffs):
        if k == 0 and c:
            raise ValueError("exponent must start at order 1")
        if 1 <= k <= order and c:
            arg[k] = mscale(c, h)
    out = [eye(dim)] + [zeros(dim) for _ in range(order)]
    power = [eye(dim)] + [zeros(dim) for _ in range(order)]
    fact = 1
    for k in range(1, order + 1):
        power = series_mul(power, arg, order)
        fact *= k
        if all(all(not x for row in m for x in row) for m in power):
            break
        out = [madd(o, mscale(Fraction(1, fact), p))
               for o, p in zip(out, power)]
    return out


def _conjugate(s: list[Matrix], h: Matrix, coeffs: list[Fraction],
               order: int) -> list[Matrix]:
    """exp(u h) S exp(-u h) for the matrix series S of one module."""
    eu = series_scalar_h_exp(coeffs, h, order)
    eu_inv = series_scalar_h_exp([-c for c in coeffs], h, order)
    return series_mul(series_mul(eu, s, order), eu_inv, order)


class MonodromyMismatch(ValueError):
    """The degree corrector is not proportional to the Cartan generator."""


def solve_local_monodromy(s1: dict, s2: dict, fleet: dict,
                          order: int) -> list[Fraction]:
    """Recover the scalar series u with S2 = exp(u h) S1 exp(-u h).

    ``fleet`` maps module names to (e, f, h) matrices; ``s1``/``s2`` map the
    same names to matrix series (lists of order+1 matrices).  Both inputs
    must have leading term equal to the triple exponential and weight-zero
    corrections; the identity shape makes each degree corrector a multiple
    of h, which is checked on every module simultaneously.  Matrices may be
    given as nested lists or tuples.
    """
    s1, s2 = ({name: [mat(m) for m in series] for name, series in s.items()}
              for s in (s1, s2))
    names = sorted(fleet)
    stilde = {}
    for name in names:
        e, f, h = fleet[name]
        st = triple_exponential(e, f)
        stilde[name] = (st, linalg.inverse(st), h)
        for s in (s1, s2):
            if s[name][0] != st:
                raise ValueError("leading term is not the triple exponential")
            for k in range(1, order + 1):
                corr = matmul(stilde[name][1], s[name][k])
                if matmul(corr, h) != matmul(h, corr):
                    raise ValueError("corrections are not weight zero")
    # each corrector is c h on all modules at once: c is one coordinate
    def stacked(mats) -> dict:
        flat = (x for m in mats for row in m for x in row)
        return {i: x for i, x in enumerate(flat) if x}

    cartan = linalg.Span([stacked(stilde[name][2] for name in names)])
    coeffs: list[Fraction] = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        diffs = []
        for name in names:
            _, st_inv, h = stilde[name]
            s1c = _conjugate(s1[name], h, coeffs, order)
            diffs.append(matmul(st_inv, madd(s2[name][k], mscale(-1, s1c[k]))))
        c = cartan.coords(stacked(diffs))
        if c is None:
            raise MonodromyMismatch(
                "inputs not monodromy pair: corrector leaves the Cartan line")
        coeffs[k] -= c[0] / 2
    for name in names:
        if _conjugate(s1[name], stilde[name][2], coeffs, order) != s2[name]:
            raise AssertionError("monodromy reconstruction failed to close")
    return coeffs


def conjugate_by_scalar_h(s: dict, fleet: dict, coeffs: list[Fraction],
                          order: int) -> dict:
    """exp(u h) S exp(-u h) on every fleet module."""
    return {name: _conjugate(s[name], h, coeffs, order)
            for name, (e, f, h) in fleet.items()}


def weight_zero_correction_series(fleet: dict, corrections: list,
                                  order: int) -> dict:
    """Build S = (triple exponential) (1 + sum_k t^k w_k) from universal
    weight-zero words w_k given as lists of (coefficient, word) with words
    over the letters 'e', 'f', 'h'."""
    out = {}
    for name, (e, f, h) in fleet.items():
        dim = len(h)
        letters = {"e": e, "f": f, "h": h}
        series = [eye(dim)] + [zeros(dim) for _ in range(order)]
        for k, terms in enumerate(corrections, start=1):
            if k > order:
                break
            acc = zeros(dim)
            for coeff, word in terms:
                m = eye(dim)
                for ch in word:
                    m = matmul(m, letters[ch])
                acc = madd(acc, mscale(coeff, m))
            series[k] = acc
        st = triple_exponential(e, f)
        out[name] = [matmul(st, m) for m in series]
    return out
