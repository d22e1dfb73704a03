import random
from fractions import Fraction

import pytest

from dyalg import algebra, series
from dyalg.algebra import AlgebraElement, beta_map, enumerate_basis, \
    hochschild_d, omega
from dyalg.cohomology import harmonic_complement
from dyalg.monoids import RootCone, SPLIT, TRIVIAL
from dyalg.permutations import all_permutations
from dyalg.series import GradedSeries, series_face, series_slot_permute
from dyalg.twists import (GaugeObstruction, associator_2jet,
                          check_associator_axioms, gauge, residual_row,
                          solve_gauge, twist_conjugate,
                          twist_equation_residual)


def _random_unit_series(rng, order, monoid=SPLIT, nmax=2, n=1):
    parts = {}
    for d in range(1, order + 1):
        keys = enumerate_basis(n, d, monoid)
        terms = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for k in rng.sample(keys, min(nmax, len(keys)))}
        parts[d] = AlgebraElement(n, monoid, terms)
    return (GradedSeries.one(n, order, monoid)
            + GradedSeries(n, order, monoid, parts))


def test_series_arithmetic():
    om = GradedSeries.of_element(omega(2, 1, 2), 3)
    one = GradedSeries.one(2, 3)
    s = one + om
    assert s * s.inverse() == one
    assert (s * s) * s == s * (s * s)
    e = (Fraction(1, 2) * om).exp()
    assert e.component(0) == AlgebraElement.unit(2)
    assert e.component(1) == Fraction(1, 2) * omega(2, 1, 2)


def test_associator_2jet_passes_all_axioms():
    report = check_associator_axioms(associator_2jet(3), 3)
    assert all(r["ok"] for r in report), report


def test_associator_checks_run_in_the_associators_monoid():
    phi = associator_2jet(3)
    split = GradedSeries(3, 3, SPLIT, {d: beta_map(x)
                                       for d, x in phi.parts.items()})
    report = check_associator_axioms(split, 3)
    assert [r["check"] for r in report] == [
        "shape", "pentagon", "hexagon1", "hexagon2", "duality", "2jet"]
    assert all(r["ok"] for r in report), report
    unit = {r["check"]: r["ok"]
            for r in check_associator_axioms(GradedSeries.one(3, 2, SPLIT))}
    assert unit["pentagon"] and not unit["hexagon1"] and not unit["2jet"]
    cone = GradedSeries.one(3, 2, RootCone(2, 1))
    with pytest.raises(ValueError, match=r"RootCone\(2, 1\)"):
        check_associator_axioms(cone, 2)


def test_unit_associator_fails_hexagons_and_jet():
    # residual sizes and first offenders as recorded when each crossing was
    # exponentiated in three slots
    key = repr(((0, 0, 2), (1, 1, 0), (1, 2), (0, 0)))
    for monoid, hexagon in ((TRIVIAL, {2: 12, 3: 200}),
                            (SPLIT, {2: 48, 3: 1600})):
        for order in (2, 3):
            one = GradedSeries.one(3, order, monoid)
            report = {r["check"]: r
                      for r in check_associator_axioms(one, order)}
            assert report["pentagon"]["ok"]
            assert report["duality"]["ok"]
            assert not report["hexagon1"]["ok"]
            assert not report["hexagon2"]["ok"]
            assert not report["2jet"]["ok"]
            for check, coeff, sizes in (("hexagon1", "1/8", hexagon),
                                        ("hexagon2", "-1/8", hexagon),
                                        ("2jet", "-1/24", {2: hexagon[2]})):
                assert report[check]["residual_terms"] == {
                    d: c for d, c in sizes.items() if d <= order}
                assert report[check]["first_offender"] == {
                    "degree": 2, "coeff": coeff, "key": key}


def test_hexagons_place_phi_by_drinfelds_permutations():
    # sigma3 = [A,[A,B]] - [[A,B],B] (A = Omega12, B = Omega23) is closed
    # under d but not invariant under cyclic slot permutations, so it tells
    # Phi^{312} from Phi^{231}; the unit and the 2-jet cannot
    a, b = omega(3, 1, 2), omega(3, 2, 3)
    ab = a.commutator(b)
    sigma3 = a.commutator(ab) - ab.commutator(b)
    phi = (GradedSeries.of_element(Fraction(1, 24) * ab, 3)
           + GradedSeries.of_element(sigma3, 3)).exp()
    report = check_associator_axioms(phi, 3)
    assert all(r["ok"] for r in report), report


def test_degree_one_term_flagged():
    # 1 + Omega_12: the shape residual against the unit is Omega_12
    bad = GradedSeries.one(3, 2) + GradedSeries.of_element(
        omega(3, 1, 2), 2)
    assert check_associator_axioms(bad, 2)[0] == {
        "check": "shape", "ok": False, "residual_terms": {1: 2},
        "first_offender": {"degree": 1, "coeff": "1",
                           "key": repr(((0, 1, 0), (1, 0, 0), (1,), (0,)))}}


def test_non_unit_leading_term_reports_shape_and_pentagon_only():
    # 2·Φ has no inverse, so the rows that need Φ⁻¹ are left out
    report = check_associator_axioms(2 * associator_2jet(3), 3)
    assert report == [
        {"check": "shape", "ok": False, "residual_terms": {0: 1},
         "first_offender": {"degree": 0, "coeff": "1",
                            "key": repr(((0, 0, 0), (0, 0, 0), (), ()))}},
        {"check": "pentagon", "ok": False, "residual_terms": {0: 1, 2: 48},
         "first_offender": {"degree": 0, "coeff": "-4",
                            "key": repr(((0,) * 4, (0,) * 4, (), ()))}}]


def test_twist_conjugate_by_unit():
    phi = associator_2jet(3)
    one2 = GradedSeries.one(2, 3)
    assert twist_conjugate(phi, one2) == phi


def test_embeddings_commute_with_inverse_and_exp():
    # faces and slot permutations are algebra maps, which is what lets the
    # twist layer invert and exponentiate before it embeds
    rng = random.Random(23)
    for monoid, order in ((TRIVIAL, 3), (SPLIT, 3), (RootCone(2, 4), 2)):
        for n in (1, 2):
            s = _random_unit_series(rng, order, monoid, nmax=3, n=n)
            x = s - GradedSeries.one(n, order, monoid)
            images = [lambda t, i=i: series_face(i, t)
                      for i in range(n + 2)]
            images += [lambda t, p=p: series_slot_permute(t, p)
                       for p in all_permutations(n)]
            for image in images:
                assert image(s.inverse()) == image(s).inverse()
                assert image(x.exp()) == image(x).exp()


def _gauge_reference(u, j):
    """(u (x) 1)(1 (x) u) J, times the inverse of the embedded coproduct."""
    return (series_face(2, u) * series_face(0, u) * j
            * series_face(1, u).inverse())


def _twist_conjugate_reference(phi, j):
    """J^23 J^{1,23} Phi with each embedded J^{12,3}, J^12 inverted."""
    return (series_face(0, j) * series_face(2, j) * phi
            * series_face(1, j).inverse() * series_face(3, j).inverse())


def test_gauge_and_conjugation_match_inverting_the_embedded_series():
    rng = random.Random(5)
    for monoid in (TRIVIAL, SPLIT):
        for order in (2, 3):
            u = _random_unit_series(rng, order, monoid)
            j = _random_unit_series(rng, order, monoid, nmax=3, n=2)
            phi = _random_unit_series(rng, order, monoid, nmax=3, n=3)
            assert gauge(u, j) == _gauge_reference(u, j)
            # a u longer than J: the product keeps J's order
            short = j.truncate(order - 1)
            assert gauge(u, short).order == order - 1
            assert gauge(u, short) == _gauge_reference(u, short)
            assert twist_conjugate(phi, j) == _twist_conjugate_reference(
                phi, j)


def test_twist_linearization_is_the_differential():
    rng = random.Random(21)
    order = 2
    one3 = GradedSeries.one(3, order)
    keys = enumerate_basis(2, 1)
    j1 = AlgebraElement(2, TRIVIAL, {keys[0]: Fraction(2),
                                     keys[2]: Fraction(-1)})
    j = GradedSeries.one(2, order) + GradedSeries.of_element(j1, order)
    resid = twist_conjugate(one3, j) - one3
    assert resid.component(1) == hochschild_d(j1)


def test_gauge_group_action():
    rng = random.Random(8)
    order = 2
    j = GradedSeries.one(2, order, SPLIT)
    u = _random_unit_series(rng, order)
    v = _random_unit_series(rng, order)
    assert gauge(u, gauge(v, j)) == gauge(u * v, j)
    assert gauge(GradedSeries.one(1, order, SPLIT), j) == j


def test_gauge_preserves_twist_equation():
    rng = random.Random(12)
    order = 2
    one3 = GradedSeries.one(3, order, SPLIT)
    j = GradedSeries.one(2, order, SPLIT)
    assert twist_equation_residual(j, one3, one3).is_zero()
    u = _random_unit_series(rng, order)
    assert twist_equation_residual(gauge(u, j), one3, one3).is_zero()


def test_solve_gauge_round_trips():
    rng = random.Random(31)
    order = 3
    one3 = GradedSeries.one(3, order, SPLIT)
    j0 = GradedSeries.one(2, order, SPLIT)
    for _ in range(4):
        u = _random_unit_series(rng, order)
        assert solve_gauge(j0, gauge(u, j0), one3) == u


def test_solve_gauge_identity():
    order = 2
    one3 = GradedSeries.one(3, order, SPLIT)
    j0 = GradedSeries.one(2, order, SPLIT)
    assert solve_gauge(j0, j0, one3) == GradedSeries.one(1, order, SPLIT)


def test_solve_gauge_obstruction():
    rng = random.Random(7)
    order = 2
    one3 = GradedSeries.one(3, order, SPLIT)
    j0 = GradedSeries.one(2, order, SPLIT)
    _, elts = harmonic_complement(2, 2, SPLIT)
    mu = elts[0]
    u = _random_unit_series(rng, order)
    perturbed = gauge(u, j0) + GradedSeries.of_element(mu, order)
    assert twist_equation_residual(perturbed, one3, one3).is_zero()
    with pytest.raises(GaugeObstruction):
        solve_gauge(j0, perturbed, one3, order=order)


def test_input_checks():
    with pytest.raises(ValueError, match="^associator must live in 3 slots"):
        check_associator_axioms(GradedSeries.one(2, 2))
    with pytest.raises(ValueError, match="^gauge needs a 1-slot series"):
        gauge(GradedSeries.one(2, 2), GradedSeries.one(2, 2))
    with pytest.raises(ValueError, match="^non-unit leading term"):
        gauge(2 * GradedSeries.one(1, 2), GradedSeries.one(2, 2))


def test_solve_gauge_rejects_equation_violation():
    order = 2
    one3 = GradedSeries.one(3, order)
    j0 = GradedSeries.one(2, order)
    keys = enumerate_basis(2, 1)
    bad = j0 + GradedSeries.of_element(
        AlgebraElement(2, TRIVIAL, {keys[0]: Fraction(1)}), order)
    with pytest.raises(ValueError, match="violate twist equation"):
        solve_gauge(j0, bad, one3)


def test_solve_gauge_rejects_twists_that_do_not_start_at_the_unit():
    order = 2
    one3 = GradedSeries.one(3, order)
    j0 = GradedSeries.one(2, order)
    zero = GradedSeries.zero(2, order)
    for j1, j2 in ((zero, zero), (zero, j0), (j0, zero)):
        with pytest.raises(ValueError, match="twist must start at the unit"):
            solve_gauge(j1, j2, one3)


def test_double_conjugation_composes():
    # conjugating twice equals conjugating once by the composite twist
    rng = random.Random(3)
    order = 2
    phi = GradedSeries.one(3, order, SPLIT)
    u = _random_unit_series(rng, order)
    v = _random_unit_series(rng, order)
    j1 = gauge(u, GradedSeries.one(2, order, SPLIT))
    j2 = gauge(v, GradedSeries.one(2, order, SPLIT))
    once = twist_conjugate(twist_conjugate(phi, j1), j2)
    # the composite in the gauge group: both are gauges of the unit, and
    # conjugation by a gauged unit is conjugation by the product gauge
    composite = gauge(v * u, GradedSeries.one(2, order, SPLIT))
    assert twist_conjugate(phi, composite) == once


def test_solve_gauge_rejects_orders_its_inputs_do_not_know():
    rng = random.Random(35)
    one2 = GradedSeries.one(2, 3, SPLIT)
    one3 = GradedSeries.one(3, 3, SPLIT)
    j2 = gauge(_random_unit_series(rng, 3), one2)
    with pytest.raises(ValueError,
                       match="^order 3 exceeds the order 1 of j2$"):
        solve_gauge(one2, j2.truncate(1), one3, order=3)
    with pytest.raises(ValueError,
                       match="^order 3 exceeds the order 2 of j1$"):
        solve_gauge(one2.truncate(2), j2, one3, order=3)
    with pytest.raises(ValueError,
                       match="^order 3 exceeds the order 1 of phi$"):
        solve_gauge(one2, j2, one3.truncate(1))
    with pytest.raises(ValueError,
                       match="^order 3 exceeds the order 2 of phi_small$"):
        solve_gauge(one2, j2, one3, phi_small=one3.truncate(2))
    # a working order below every input's stays allowed
    u = solve_gauge(one2, j2, one3.truncate(2), order=2)
    assert u.order == 2 and gauge(u, one2.truncate(2)) == j2.truncate(2)


# -- top degrees enter linearly: references that face every component ------


def _four_face_residual(j, phi_big, phi_small):
    """The twist residual from all four faces of every component of J."""
    f = [series_face(i, j) for i in range(4)]
    return f[0] * f[2] * phi_big - phi_small * f[3] * f[1]


def _five_face_pentagon(phi):
    """The pentagon residual from all five faces of every component of
    Phi."""
    f = [series_face(i, phi) for i in range(5)]
    return f[3] * f[1] - f[0] * f[2] * f[4]


def _lifted_2jet(order, monoid):
    """The 2-jet with each strand summed over the monoid's decorations
    (on the split monoid, its image under ``beta_map``)."""
    pool = tuple(monoid.elements())
    return GradedSeries(3, order, monoid, {
        d: algebra._redecorate(x, monoid, lambda _: pool)
        for d, x in associator_2jet(order).parts.items()})


def _same(got, want):
    return got.order == want.order and got.parts == want.parts


def test_twist_residual_matches_all_four_faces():
    rng = random.Random(37)
    nonzero = 0
    for monoid in (TRIVIAL, SPLIT, RootCone(2, 1)):
        one2 = GradedSeries.one(2, 3, monoid)
        one3 = GradedSeries.one(3, 3, monoid)
        jet = _lifted_2jet(3, monoid)
        j = _random_unit_series(rng, 3, monoid, nmax=3, n=2)
        twists = [j,
                  # J1 = 0: the lowest positive degree is 2
                  j - GradedSeries.of_element(j.component(1), 3),
                  gauge(_random_unit_series(rng, 3, monoid), one2),
                  # a degree-0 part other than the unit: nothing is split
                  2 * j,
                  # longer than the associators: N is their order
                  _random_unit_series(rng, 4, monoid, nmax=2, n=2)]
        for big, small in ((one3, one3), (jet, jet), (jet, one3),
                           (jet.truncate(2), jet)):
            for twist in twists:
                got = twist_equation_residual(twist, big, small)
                assert _same(got, _four_face_residual(twist, big, small))
                nonzero += not got.is_zero()
        assert twist_equation_residual(twists[2], one3, one3).is_zero()
    assert nonzero >= 30


def test_pentagon_row_matches_all_five_faces():
    rng = random.Random(38)
    nonzero = 0
    for monoid in (TRIVIAL, SPLIT):
        for order in (2, 3):
            jet = _lifted_2jet(order, monoid)
            bump = (_random_unit_series(rng, order, monoid, nmax=2, n=3)
                    - GradedSeries.one(3, order, monoid))
            for phi in (GradedSeries.one(3, order, monoid), jet, jet + bump,
                        jet + GradedSeries.of_element(
                            bump.component(order), order)):
                rows = {r["check"]: r
                        for r in check_associator_axioms(phi, order)}
                assert rows["pentagon"] == residual_row(
                    "pentagon", _five_face_pentagon(phi))
                nonzero += not rows["pentagon"]["ok"]
    assert nonzero >= 6


def test_top_degrees_are_never_faced(monkeypatch):
    faced = []
    face_map = series.face_map

    def recording(i, x):
        faced.append((x.n, max(x.degrees(), default=0)))
        return face_map(i, x)

    monkeypatch.setattr(series, "face_map", recording)
    rng = random.Random(39)
    one3 = GradedSeries.one(3, 3, SPLIT)
    j = _random_unit_series(rng, 3, SPLIT, nmax=3, n=2)
    no_j1 = j - GradedSeries.of_element(j.component(1), 3)
    # N = 3; m = 1 with J1, so degree 3 is top and J2 the highest faced;
    # m = 2 without, so degrees 2 and 3 are top and only the unit is faced
    for twist, highest in ((j, 2), (no_j1, 0)):
        faced.clear()
        twist_equation_residual(twist, one3, one3)
        assert faced and max(d for n, d in faced if n == 2) == highest
    # the 2-jet's lowest positive degree is 2: only its unit is faced
    faced.clear()
    check_associator_axioms(_lifted_2jet(3, SPLIT), 3)
    assert {d for n, d in faced if n == 3} == {0}
