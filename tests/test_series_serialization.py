import json
from fractions import Fraction

import pytest

from dyalg.algebra import AlgebraElement, kappa, omega
from dyalg.monoids import SPLIT
from dyalg.series import GradedSeries
from dyalg.freelie import pbw_decompose_blocks


def test_series_json_round_trip():
    s = (GradedSeries.one(2, 3)
         + Fraction(1, 3) * GradedSeries.of_element(omega(2, 1, 2), 3))
    data = json.loads(json.dumps(s.to_json()))
    back = GradedSeries.from_json(data)
    assert back == s and back.order == s.order


def test_decorated_series_round_trip():
    s = GradedSeries.of_element(kappa(1, 1, SPLIT, decor=1), 2)
    assert GradedSeries.from_json(s.to_json()) == s


def test_element_json_is_canonically_sorted():
    x = kappa(1, 1) * kappa(1, 1)
    data = x.to_json()
    keys = [(t["coactions"], t["actions"], t["perm"]) for t in data["terms"]]
    assert keys == sorted(keys, key=lambda k: (k[0], k[2], k[1]))


def test_pbw_blocks():
    w = {((1, 2), (3,)): Fraction(1)}
    dec = pbw_decompose_blocks(w, (2, 1))
    assert dec[(((1, 2),), (3,))] == Fraction(1, 2)
    assert dec[((1, 2), (3,))] == Fraction(1)


def test_inhomogeneous_component_rejected():
    mixed = kappa(1, 1) + kappa(1, 1) * kappa(1, 1)  # degrees 1 and 2
    with pytest.raises(ValueError, match="not homogeneous"):
        GradedSeries(1, 3, parts={1: mixed})
    data = GradedSeries.of_element(mixed, 3).to_json()
    data["parts"]["1"] = mixed.to_json()
    with pytest.raises(ValueError, match="not homogeneous"):
        GradedSeries.from_json(data)
    # a component above the order is dropped before it is checked
    assert GradedSeries(1, 0, parts={1: mixed}).is_zero()
