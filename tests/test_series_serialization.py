import json
import re
from fractions import Fraction

import pytest

from dyalg.algebra import AlgebraElement, kappa, omega
from dyalg.monoids import SPLIT, TRIVIAL
from dyalg.series import GradedSeries


def test_series_json_round_trip():
    s = (GradedSeries.one(2, 3)
         + Fraction(1, 3) * GradedSeries.of_element(omega(2, 1, 2), 3))
    data = json.loads(json.dumps(s.to_json()))
    back = GradedSeries.from_json(data)
    assert back == s and back.order == s.order


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1", "-1", "1.0", "",
                                 "\u0661"])
def test_part_keys_are_degrees_as_written(key):
    # only str(d) for a non-negative int d, as to_json writes it: "01"
    # would overwrite part "1", and "1_0" would file part 1 at degree 10
    data = GradedSeries.of_element(kappa(1, 1), 3).to_json()
    assert GradedSeries.from_json(data).parts[1] == kappa(1, 1)
    data["parts"][key] = data["parts"].pop("1")
    with pytest.raises(ValueError, match=rf"^part key must be .*, got "
                                         rf"{re.escape(repr(key))}$"):
        GradedSeries.from_json(data)


def test_decorated_series_round_trip():
    s = GradedSeries.of_element(kappa(1, 1, SPLIT, decor=1), 2)
    assert GradedSeries.from_json(s.to_json()) == s


def test_element_json_is_canonically_sorted():
    x = kappa(1, 1) * kappa(1, 1)
    data = x.to_json()
    keys = [(t["coactions"], t["actions"], t["perm"]) for t in data["terms"]]
    assert keys == sorted(keys, key=lambda k: (k[0], k[2], k[1]))


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


def test_series_rejects_parts_from_another_algebra():
    for parts, where in (({1: omega(3, 1, 2)}, "n = 2, trivial"),
                         ({1: kappa(2, 1, SPLIT, decor=1)}, "n = 2, trivial"),
                         ({5: omega(3, 1, 2)}, "n = 2, trivial")):
        with pytest.raises(ValueError, match=rf"^part \d is not in the "
                                             rf"series' algebra \({where}"):
            GradedSeries(2, 3, TRIVIAL, parts)
