import itertools

import pytest

from dyalg.permutations import compositions, cycle_count, sign


def _inversion_sign(s) -> int:
    inversions = sum(s[i] > s[j]
                     for i, j in itertools.combinations(range(len(s)), 2))
    return (-1) ** inversions


def _cycles(s) -> int:
    left, cycles = set(range(1, len(s) + 1)), 0
    while left:
        start = q = min(left)
        cycles += 1
        while True:
            left.discard(q)
            q = s[q - 1]
            if q == start:
                break
    return cycles


def test_cycle_count_and_sign_on_all_small_permutations():
    for n in range(7):
        for s in itertools.permutations(range(1, n + 1)):
            assert cycle_count(s) == _cycles(s), s
            assert sign(s) == _inversion_sign(s), s


def test_compositions_reject_bad_counts():
    with pytest.raises(ValueError, match="^empty slot count"):
        compositions(2, 0)
    with pytest.raises(ValueError, match="^negative total"):
        compositions(-1, 2)
