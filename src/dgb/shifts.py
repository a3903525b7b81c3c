"""The free commutative monoid of shift operators, realized as exponent tuples.

A shift element of rank r is a tuple of r non-negative integers: entry i is
the exponent of the i-th shift operator s_{i+1}.  The monoid operation is
componentwise addition; the identity is the all-zero tuple.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .errors import ExactDivisionError, RankMismatchError

Shift = tuple  # tuple[int, ...]


def identity(rank: int) -> Shift:
    return (0,) * rank


def _check_ranks(s, t):
    if len(s) != len(t):
        raise RankMismatchError(f"shift ranks differ: {len(s)} vs {len(t)}")


def mul(s: Shift, t: Shift) -> Shift:
    """Monoid product: componentwise sum of exponents."""
    _check_ranks(s, t)
    return tuple(a + b for a, b in zip(s, t))


def gcd(s: Shift, t: Shift) -> Shift:
    """Greatest common divisor: componentwise minimum."""
    _check_ranks(s, t)
    return tuple(min(a, b) for a, b in zip(s, t))


def divides(s: Shift, t: Shift) -> bool:
    """True when s divides t, i.e. componentwise s <= t."""
    _check_ranks(s, t)
    return all(a <= b for a, b in zip(s, t))


def div(t: Shift, s: Shift) -> Shift:
    """Exact quotient t/s.  Requires divides(s, t)."""
    _check_ranks(s, t)
    if not all(a <= b for a, b in zip(s, t)):
        raise ExactDivisionError(f"{s} does not divide {t}")
    return tuple(b - a for a, b in zip(s, t))


def deg(s: Shift) -> int:
    """Total degree: the sum of the exponents."""
    return sum(s)


def enumerate_up_to_degree(d, rank: int) -> list:
    """All shift elements of degree <= d, in a fixed deterministic order.

    The order is graded by degree, ties broken by reverse-lexicographic
    comparison of the exponent tuples, so repeated runs enumerate
    identically.  There are C(d + rank, rank) elements.  A negative bound
    (including -inf) yields the empty list.
    """
    if d != d or d < 0:  # also rejects NaN defensively
        return []
    d = int(d)
    out = []
    for total in range(d + 1):
        layer = []
        # weak compositions of `total` into `rank` parts
        for cuts in combinations_with_replacement(range(total + 1), rank - 1):
            parts = []
            prev = 0
            for c in cuts:
                parts.append(c - prev)
                prev = c
            parts.append(total - prev)
            layer.append(tuple(parts))
        layer.sort(key=lambda s: tuple(reversed(s)))
        out.extend(layer)
    assert len(out) == comb(d + rank, rank)
    return out
