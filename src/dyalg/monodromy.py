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
reported as an error.  Because u is scalar, that conjugation is
exp(u ad h)(S) = sum_m u^m ad_h^m(S) / m!: iterated commutators with h,
weighted by powers of a scalar series, and no matrix series is multiplied.
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


def _ad(h: Matrix, x: Matrix) -> Matrix:
    """The commutator hx - xh."""
    return madd(matmul(h, x), mscale(-1, matmul(x, h)))


def _conjugate(s: list[Matrix], h: Matrix, coeffs: list[Fraction],
               order: int) -> list[Matrix]:
    """exp(u h) S exp(-u h) for the matrix series S of one module.

    u = sum_k coeffs[k] t^k is scalar, so the conjugation is
    exp(u ad h)(S) = sum_m u^m ad_h^m(S) / m!.  As u has no constant term,
    u^m starts at t^m, and the sum stops at m = order.  The result has
    order + 1 matrices; terms of S past the order are dropped.
    """
    if coeffs and coeffs[0]:
        raise ValueError("exponent must start at order 1")
    u = ([Fraction(c) for c in coeffs[:order + 1]]
         + [Fraction(0)] * (order + 1 - len(coeffs)))
    out = [zeros(len(h)) for _ in range(order + 1)]
    power = [Fraction(1)] + [Fraction(0)] * order  # u^m / m! by degree
    terms = s[:order + 1]  # ad_h^m(S_j), needed for j <= order - m
    for m in range(order + 1):
        for k, c in enumerate(power):
            if c:
                for j, x in enumerate(terms[:order + 1 - k]):
                    out[k + j] = madd(out[k + j], mscale(c, x))
        terms = [_ad(h, x) for x in terms[:order - m]]
        power = [Fraction(sum(power[i] * u[k - i] for i in range(k)), m + 1)
                 for k in range(order + 1)]
    return out


class MonodromyMismatch(ValueError):
    """The degree corrector is not proportional to the Cartan generator."""


def solve_local_monodromy(s1: dict, s2: dict, fleet: dict,
                          order: int) -> list[Fraction]:
    """Recover the scalar series u with S2 = exp(u h) S1 exp(-u h).

    ``fleet`` maps module names to (e, f, h) matrices; ``s1``/``s2`` map the
    same names to matrix series (lists of at least order+1 matrices, of
    which the first order+1 are read; a shorter or missing one raises
    ValueError naming its series and module).  Both inputs must have leading
    term equal to the triple exponential and weight-zero corrections; the
    identity shape makes each degree corrector a multiple of h, which is
    checked on every module simultaneously.  Matrices may be given as
    nested lists or tuples.
    """
    s1, s2 = ({name: [mat(m) for m in series] for name, series in s.items()}
              for s in (s1, s2))
    names = sorted(fleet)
    for name in names:
        for label, s in (("s1", s1), ("s2", s2)):
            if name not in s:
                raise ValueError(f"{label} has no series for module {name!r}")
            if len(s[name]) < order + 1:
                raise ValueError(
                    f"{label} series of module {name!r} has {len(s[name])} "
                    f"matrices; order {order} needs {order + 1}")
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
                if any(map(any, _ad(h, corr))):
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
            s1c = _conjugate(s1[name][:k + 1], h, coeffs, k)[k]
            diffs.append(matmul(st_inv, madd(s2[name][k], mscale(-1, s1c))))
        c = cartan.coords(stacked(diffs))
        if c is None:
            raise MonodromyMismatch(
                "inputs not monodromy pair: corrector leaves the Cartan line")
        coeffs[k] -= c[0] / 2
    for name in names:
        if (_conjugate(s1[name], stilde[name][2], coeffs, order)
                != s2[name][:order + 1]):
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
