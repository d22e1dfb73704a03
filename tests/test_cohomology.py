import hashlib
import json
import random
from fractions import Fraction

import pytest

from dyalg import cohomology, linalg, twists
from dyalg.algebra import (AlgebraElement, enumerate_basis, hochschild_d,
                           kappa, omega, unit_key)
from dyalg.cohomology import (NotClosed, cohomology_table, decompose_cocycle,
                              harmonic_complement)
from dyalg.monoids import RootCone, SPLIT, TRIVIAL
from dyalg.series import GradedSeries


def test_low_degrees_vanish_all_monoids():
    for monoid in (TRIVIAL, SPLIT, RootCone(2, 1)):
        for deg in (1, 2):
            dims = [r["dim_H"] for r in cohomology_table(deg, 1, monoid)]
            assert dims[0] == 0 and dims[1] == 0


def test_h2_matches_oracle_all_monoids():
    for monoid in (TRIVIAL, SPLIT, RootCone(2, 1)):
        for deg in (1, 2):
            for row in cohomology_table(deg, 2, monoid):
                if row["oracle"] is not None:
                    assert row["match"], row


def test_h3_matches_oracle_trivial():
    for deg in (1, 2):
        rows = cohomology_table(deg, 3, TRIVIAL)
        assert all(r["match"] for r in rows if r["oracle"] is not None)


def _full_complex_rows(degree, n_max, monoid):
    """(dim_ker, dim_im) per n = 0..n_max, eliminated over every basis key
    of each slice, d_0 included."""
    def basis(n):
        if n == 0:  # no slots: the empty diagram in strand degree 0 only
            return [unit_key(0)] if degree == 0 else []
        return enumerate_basis(n, degree, monoid)

    ranks = []
    for n in range(n_max + 1):
        tindex = {k: i for i, k in enumerate(basis(n + 1))}
        ranks.append(linalg.sparse_rank([
            {tindex[k]: c for k, c in
             hochschild_d(AlgebraElement.basis(n, key, monoid)).num.items()}
            for key in basis(n)]))
    return [(len(basis(n)) - ranks[n], ranks[n - 1] if n else 0)
            for n in range(n_max + 1)]


@pytest.mark.parametrize("monoid, n_max, degrees", [
    (TRIVIAL, 3, (0, 1, 2, 3)), (SPLIT, 2, (0, 1, 2, 3)),
    (RootCone(2, 1), 3, (0, 1, 2))], ids=["trivial", "split", "cone21"])
def test_table_ranks_match_full_complex(monoid, n_max, degrees):
    # the table eliminates on the normalized subcomplex only; the reference
    # eliminates the whole slice; about 0.3 s for all three cases on a
    # 2-core host
    for degree in degrees:
        for window in range(n_max + 1):
            rows = cohomology_table(degree, window, monoid)
            assert [(r["dim_ker"], r["dim_im"]) for r in rows] == \
                _full_complex_rows(degree, window, monoid), (degree, window)


def test_degree_zero_slice():
    # constants survive in even degrees only; the table is consistent
    dims = [r["dim_H"] for r in cohomology_table(0, 3, TRIVIAL)]
    assert dims[0] == 1


class _Built(Exception):
    """Raised in place of building a differential."""


def _refuse_to_build(*args):
    raise _Built


def test_size_guard(monkeypatch):
    # the guard refuses before any differential is built
    monkeypatch.setattr(cohomology, "differential_columns", _refuse_to_build)
    for degree, n_max, monoid in ((4, 3, SPLIT), (4, 4, SPLIT),
                                  (4, 2, RootCone(2, 1)), (5, 1, TRIVIAL),
                                  (1, 9, TRIVIAL)):
        with pytest.raises(ValueError, match="^size guard"):
            cohomology_table(degree, n_max, monoid)


def test_size_guard_admits(monkeypatch):
    monkeypatch.setattr(cohomology, "differential_columns", _refuse_to_build)
    for degree, n_max, monoid in ((4, 3, TRIVIAL), (4, 4, TRIVIAL),
                                  (4, 2, SPLIT), (3, 4, RootCone(2, 1)),
                                  (3, 8, TRIVIAL), (0, 8, SPLIT)):
        with pytest.raises(_Built):
            cohomology_table(degree, n_max, monoid)


@pytest.mark.parametrize("degree, n_max, message", [
    (1, -1, "window must be a non-negative integer, got -1"),
    (-1, 2, "strand degree must be a non-negative integer, got -1"),
    (True, 2, "strand degree must be a non-negative integer, got True")])
def test_negative_degree_or_window_rejected(degree, n_max, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cohomology_table(degree, n_max)


def test_decompose_omega():
    v, mu = decompose_cocycle(omega(2, 1, 2))
    assert v == -1 * kappa(1, 1)
    assert mu.is_zero()


def test_decompose_zero():
    v, mu = decompose_cocycle(AlgebraElement.zero(2))
    assert v.is_zero() and mu.is_zero()


def test_decompose_round_trip_random_exact_cocycles():
    rng = random.Random(9)
    for monoid in (TRIVIAL, SPLIT):
        for _ in range(5):
            keys = enumerate_basis(1, 2, monoid)
            u = AlgebraElement(1, monoid, {
                k: Fraction(rng.randint(-2, 2))
                for k in rng.sample(keys, min(3, len(keys)))})
            eta = hochschild_d(u)
            if eta.is_zero():
                continue
            v, mu = decompose_cocycle(eta)
            assert mu.is_zero()
            assert hochschild_d(v) == eta


def test_decompose_rejects_non_cocycle():
    with pytest.raises(NotClosed):
        decompose_cocycle(kappa(2, 1))


def test_decompose_rejects_inhomogeneous_cocycle():
    w = omega(2, 1, 2)
    with pytest.raises(ValueError, match="^cocycle must be homogeneous"):
        decompose_cocycle(w + w * w)


def test_harmonic_part_detected():
    cols, elts = harmonic_complement(2, 1, TRIVIAL)
    assert len(elts) == 1  # the antisymmetrized crossing class
    eta = elts[0]
    v, mu = decompose_cocycle(eta)
    assert not mu.is_zero()
    assert hochschild_d(v) + mu == eta


def test_harmonic_complement_dimension_matches_h():
    # strand degree 0 and n = 1 included: the coboundaries d_0 = 0 and
    # d_1(1) = 1 (x) 1 are outside every complement
    for monoid in (TRIVIAL, SPLIT):
        for deg in (0, 1, 2):
            dims = [r["dim_H"] for r in cohomology_table(deg, 3, monoid)]
            for n in (1, 2, 3):
                _, elts = harmonic_complement(n, deg, monoid)
                assert len(elts) == dims[n], (monoid, deg, n)


def _criterion_09_cocycles(monkeypatch):
    """The cocycles that solve_gauge decomposes in acceptance criterion 09:
    its twenty seeded round trips and its harmonic obstruction."""
    seen = []
    real = twists.decompose_cocycle

    def record(eta):
        seen.append(eta)
        return real(eta)

    monkeypatch.setattr(twists, "decompose_cocycle", record)
    rng = random.Random(20260809)
    order = 3
    one3 = GradedSeries.one(3, order, SPLIT)
    j0 = GradedSeries.one(2, order, SPLIT)
    for _ in range(20):
        parts = {}
        for d in range(1, order + 1):
            keys = enumerate_basis(1, d, SPLIT)
            parts[d] = AlgebraElement(1, SPLIT, {
                k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for k in rng.sample(keys, 2)})
        u = (GradedSeries.one(1, order, SPLIT)
             + GradedSeries(1, order, SPLIT, parts))
        assert twists.solve_gauge(j0, twists.gauge(u, j0), one3) == u
    _, elts = harmonic_complement(2, 2, SPLIT)
    perturbed = twists.gauge(
        GradedSeries.one(1, 2, SPLIT), GradedSeries.one(2, 2, SPLIT)
    ) + GradedSeries.of_element(elts[0], 2)
    with pytest.raises(twists.GaugeObstruction):
        twists.solve_gauge(GradedSeries.one(2, 2, SPLIT), perturbed,
                           GradedSeries.one(3, 2, SPLIT), order=2)
    monkeypatch.undo()
    return seen


def _seeded_cocycles():
    """Exact cocycles d(u) in cohomological degrees 2 and 3, and the same
    plus a seeded combination of harmonic elements."""
    rng = random.Random(7)
    exact, harmonic = [], []
    for monoid in (TRIVIAL, SPLIT):
        for n, degrees in ((1, (1, 2, 3)), (2, (1, 2))):
            for degree in degrees:
                keys = enumerate_basis(n, degree, monoid)
                _, harm = harmonic_complement(n + 1, degree, monoid)
                for _ in range(3):
                    u = AlgebraElement(n, monoid, {
                        k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for k in rng.sample(keys, min(3, len(keys)))})
                    eta = hochschild_d(u)
                    exact.append(eta)
                    if harm:
                        mu = AlgebraElement.zero(n + 1, monoid)
                        for h in rng.sample(harm, min(2, len(harm))):
                            mu = mu + Fraction(rng.randint(1, 3),
                                               rng.randint(1, 2)) * h
                        harmonic.append(eta + mu)
    return exact, harmonic


def _digest(results) -> str:
    out = [[v.to_json(), mu.to_json()] for v, mu in results]
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_decompose_cocycle_pinned_and_slice_memo_transparent(monkeypatch):
    # digests of (v, mu) recorded with the per-call elimination that the
    # memoized slice solvers replaced
    pinned = {
        "criterion 09": (60, "d6577b6c3289c049c8c054a9d1005b5d"
                             "c79bb6ecbceacce2520f73db3c3d8122"),
        "exact": (30, "df63d3b669498db43611152e4f37e307"
                      "22ad6da780f6b7e424388c478a43b3c2"),
        "harmonic": (24, "72c03469eb948a3a21b5fa166dcaca15"
                         "d09231a1f271d5c8ba7af888b6cdf1d4"),
    }
    cases = {"criterion 09": _criterion_09_cocycles(monkeypatch)}
    cases["exact"], cases["harmonic"] = _seeded_cocycles()
    results = {name: [decompose_cocycle(eta) for eta in etas]
               for name, etas in cases.items()}
    for name, (count, digest) in pinned.items():
        assert (len(cases[name]), _digest(results[name])) == (count, digest)
    assert all(not mu.is_zero() for _, mu in results["harmonic"])
    # the same results from empty memos, called in the reverse order
    cohomology._SLICES.clear()
    for name in reversed(list(cases)):
        again = [decompose_cocycle(eta) for eta in reversed(cases[name])]
        assert again[::-1] == results[name]
