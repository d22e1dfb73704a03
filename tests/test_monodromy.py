import random
from fractions import Fraction

import pytest

from dyalg.monodromy import (MonodromyMismatch, _conjugate,
                             conjugate_by_scalar_h, eye, madd, matmul,
                             sl2_irrep, solve_local_monodromy,
                             triple_exponential,
                             weight_zero_correction_series)

FLEET = {"V1": sl2_irrep(1), "V2": sl2_irrep(2), "V3": sl2_irrep(3)}
ORDER = 3

CORRECTIONS = [
    [(Fraction(1, 2), "h")],
    [(Fraction(1, 3), "fe"), (Fraction(-1, 4), "hh")],
    [(Fraction(2, 5), "h"), (Fraction(1, 6), "fhe")],
]


def test_triple_exponential_negates_cartan():
    for e, f, h in FLEET.values():
        st = triple_exponential(e, f)
        # s h s^-1 = -h, checked as s h = -h s
        assert matmul(st, h) == matmul(
            tuple(tuple(-x for x in row) for row in h), st)


def test_round_trip():
    s1 = weight_zero_correction_series(FLEET, CORRECTIONS, ORDER)
    u = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(1, 5)]
    s2 = conjugate_by_scalar_h(s1, FLEET, u, ORDER)
    assert solve_local_monodromy(s1, s2, FLEET, ORDER) == u


def test_identity_gives_zero():
    s1 = weight_zero_correction_series(FLEET, CORRECTIONS, ORDER)
    assert solve_local_monodromy(s1, s1, FLEET, ORDER) == [Fraction(0)] * 4


def test_non_cartan_discrepancy_rejected():
    s1 = weight_zero_correction_series(FLEET, CORRECTIONS, ORDER)
    s2 = {k: list(v) for k, v in s1.items()}
    for name, (e, f, h) in FLEET.items():
        bump = matmul(s1[name][0], matmul(f, matmul(f, matmul(e, e))))
        s2[name][2] = madd(s2[name][2], bump)
    with pytest.raises(MonodromyMismatch):
        solve_local_monodromy(s1, s2, FLEET, ORDER)


def test_wrong_leading_term_rejected():
    s1 = weight_zero_correction_series(FLEET, CORRECTIONS, ORDER)
    s2 = {k: list(v) for k, v in s1.items()}
    for name in s2:
        s2[name][0] = madd(s2[name][0], s2[name][0])
    with pytest.raises(ValueError, match="triple exponential"):
        solve_local_monodromy(s1, s2, FLEET, ORDER)


def test_non_weight_zero_correction_rejected():
    s1 = weight_zero_correction_series(FLEET, CORRECTIONS, ORDER)
    bad = weight_zero_correction_series(
        FLEET, [[(Fraction(1), "e")]], ORDER)
    with pytest.raises(ValueError, match="weight zero"):
        solve_local_monodromy(s1, bad, FLEET, ORDER)


def test_short_series_rejected():
    # V1 at order 2 with S2 cut to two matrices
    fleet = {"V1": sl2_irrep(1)}
    s1 = weight_zero_correction_series(fleet, CORRECTIONS, 2)
    s2 = {"V1": s1["V1"][:2]}
    with pytest.raises(ValueError, match="s2 series of module 'V1' has 2 "
                                         "matrices; order 2 needs 3"):
        solve_local_monodromy(s1, s2, fleet, 2)
    with pytest.raises(ValueError, match="s1 series of module 'V1'"):
        solve_local_monodromy(s2, s1, fleet, 2)


def test_longer_series_are_cut_to_the_order():
    # V1 and V2 at order 2: s1 has the three matrices the order needs and
    # s2 has four; either way round only the first three are compared
    fleet = {"V1": sl2_irrep(1), "V2": sl2_irrep(2)}
    u = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(1, 5)]
    long1 = weight_zero_correction_series(fleet, CORRECTIONS, 3)
    long2 = conjugate_by_scalar_h(long1, fleet, u, 3)
    short1 = {name: series[:3] for name, series in long1.items()}
    assert solve_local_monodromy(short1, long2, fleet, 2) == u[:3]
    assert solve_local_monodromy(long2, short1, fleet, 2) == [
        -c for c in u[:3]]


def test_missing_module_rejected():
    s1 = weight_zero_correction_series(FLEET, CORRECTIONS, 2)
    s2 = {name: series for name, series in s1.items() if name != "V2"}
    with pytest.raises(ValueError,
                       match="s2 has no series for module 'V2'"):
        solve_local_monodromy(s1, s2, FLEET, 2)
    with pytest.raises(ValueError,
                       match="s1 has no series for module 'V2'"):
        solve_local_monodromy(s2, s1, FLEET, 2)


def test_list_matrices_accepted():
    # the same series as nested lists solve as their tuple forms do
    s1 = weight_zero_correction_series(FLEET, CORRECTIONS, 2)
    u = [Fraction(0), Fraction(1, 3), Fraction(0)]
    s2 = conjugate_by_scalar_h(s1, FLEET, u, 2)
    assert solve_local_monodromy(s1, s2, FLEET, 2) == u

    def as_lists(s):
        return {name: [[list(row) for row in m] for m in series]
                for name, series in s.items()}
    assert solve_local_monodromy(as_lists(s1), as_lists(s2), FLEET, 2) == u


# independent references for the conjugation that the round trips above
# build their inputs with

U = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(1, 5),
     Fraction(3, 7), Fraction(-1, 4)]


def _series(dim, length, seed):
    rng = random.Random(seed)
    return [tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(dim)) for _ in range(dim))
            for _ in range(length)]


def _scalar_exp(a, order):
    """exp(a) for a scalar series with a[0] = 0, by E' = a' E."""
    a = a[:order + 1] + [Fraction(0)] * (order + 1 - len(a))
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def _two_exponentials(s, h, coeffs, order):
    """exp(u h) S exp(-u h) as the product of three matrix series."""
    dim = len(h)
    zero = tuple((Fraction(0),) * dim for _ in range(dim))

    def mul(a, b):
        out = [zero] * (order + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j <= order:
                    out[i + j] = madd(out[i + j], matmul(x, y))
        return out

    def exp(c):
        arg = [zero] + [tuple(tuple(ck * x for x in row) for row in h)
                        for ck in c[1:order + 1]]
        out = power = [eye(dim)] + [zero] * order
        for k in range(1, order + 1):
            power = [tuple(tuple(x / k for x in row) for row in m)
                     for m in mul(power, arg)]
            out = [madd(x, y) for x, y in zip(out, power)]
        return out

    return mul(mul(exp(coeffs), s), exp([-c for c in coeffs]))


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_conjugate_on_weight_bases_matches_scalar_exponentials(order, extra):
    # h = diag(m - 2i), so entry (i, j) is exp(2 (j - i) u) S_ij
    fleet = {f"V{m}": sl2_irrep(m) for m in range(1, 5)}
    coeffs = U[:order + 1 + extra]
    s = {name: _series(len(h), order + 1 + extra, seed)
         for seed, (name, (e, f, h)) in enumerate(sorted(fleet.items()))}
    got = conjugate_by_scalar_h(s, fleet, coeffs, order)
    for name, series in s.items():
        dim = len(fleet[name][2])
        exps = {w: _scalar_exp([w * c for c in coeffs], order)
                for w in range(-2 * dim, 2 * dim + 1, 2)}
        want = [tuple(tuple(sum(exps[2 * (j - i)][d - k] * series[k][i][j]
                                for k in range(min(d, len(series) - 1) + 1))
                            for j in range(dim)) for i in range(dim))
                for d in range(order + 1)]
        assert got[name] == want


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_conjugate_by_non_diagonal_h_matches_two_exponentials(order, extra):
    for m in (1, 2, 3):
        e, f, _ = sl2_irrep(m)
        h = matmul(e, f)
        s = _series(m + 1, order + 1 + extra, m)
        coeffs = U[:order + 1 - extra]
        assert (_conjugate(s, h, coeffs, order)
                == _two_exponentials(s, h, coeffs, order))


def test_conjugate_rejects_a_constant_exponent():
    with pytest.raises(ValueError, match="must start at order 1"):
        conjugate_by_scalar_h({"V1": _series(2, 3, 0)}, {"V1": sl2_irrep(1)},
                              [Fraction(1), Fraction(2)], 2)
