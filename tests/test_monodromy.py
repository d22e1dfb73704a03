from fractions import Fraction

import pytest

from dyalg.monodromy import (MonodromyMismatch, conjugate_by_scalar_h,
                             madd, matmul, sl2_irrep, solve_local_monodromy,
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
