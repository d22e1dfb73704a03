"""Permutations of {1..N} in one-line (word) notation, and integer compositions.

A permutation is a tuple ``(s(1), ..., s(N))`` of the integers 1..N.  These
are the wiring data of normally ordered diagrams: position ``q`` on the
coaction side is matched with position ``s(q)`` on the action side.

A composition of N into n parts is a tuple of n nonnegative integers summing
to N; it records how many strands attach to each module slot.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence


def inverse(s: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for i, v in enumerate(s):
        inv[v - 1] = i + 1
    return tuple(inv)


def cycle_count(s: Sequence[int]) -> int:
    """Number of cycles of a permutation, fixed points included.

    >>> cycle_count((1, 2, 3)), cycle_count((2, 3, 1)), cycle_count((2, 1, 3))
    (3, 1, 2)
    """
    seen, cycles = set(), 0
    for start in range(1, len(s) + 1):
        if start not in seen:
            cycles += 1
            q = start
            while q not in seen:
                seen.add(q)
                q = s[q - 1]
    return cycles


def sign(s: Sequence[int]) -> int:
    """Sign of a permutation: (-1)^(N - number of cycles)."""
    return -1 if (len(s) - cycle_count(s)) % 2 else 1


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1))


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All compositions of ``total`` into ``parts`` nonnegative parts,
    lexicographically sorted.

    >>> compositions(3, 2)
    [(0, 3), (1, 2), (2, 1), (3, 0)]
    >>> compositions(0, 3)
    [(0, 0, 0)]
    """
    if parts < 1:
        raise ValueError("empty slot count")
    if total < 0:
        raise ValueError("negative total")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == parts - 1:
            out.append(prefix + (remaining,))
            return
        for head in range(remaining + 1):
            rec(prefix + (head,), remaining - head)

    rec((), total)
    return out


def block_starts(comp: Sequence[int]) -> list[int]:
    """0-based start offset of each block when parts are laid out in order."""
    starts, acc = [], 0
    for p in comp:
        starts.append(acc)
        acc += p
    return starts


def _natural(value, name: str) -> int:
    """``value`` if it is a non-negative int (a bool is not one)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, "
                         f"got {value!r}")
    return value
