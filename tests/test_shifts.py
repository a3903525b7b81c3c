"""The shift monoid as the engine realizes it.

Shift elements are exponent tuples, and the engine has no separate monoid
module: the product is the action on variables (`shift`), divisibility is
divisor search on single variables (`ReducerBasis.find_divisor`), and the
gcd is what the pair enumerator (`shift_pair_candidates`) divides out of
two overlapping variables.  These tests check the monoid laws through
those paths; `enumerate_up_to_degree` is the tests' own oracle helper.
"""

from math import comb

import pytest
from hypothesis import given, strategies as st

from dgb import ExactDivisionError, RankMismatchError, ReducerBasis
from dgb.completion import shift_pair_candidates

from helpers import enumerate_up_to_degree, make_ring

R3 = make_ring(3, ("x",))


def x(s):
    return R3.var("x", s)


def divides(s, t):
    """Whether shifting x(s) can reach x(t), by the engine's divisor search."""
    hit = ReducerBasis([x(s)]).find_divisor(x(t).lm)
    assert hit is None or x(s).lm.shift(hit[1]) == x(t).lm
    return hit is not None


def gcd(s, t):
    """The common shift the pair enumerator divides out of x(s), x(t)."""
    (sigma, tau), = shift_pair_candidates(x(s).lm, x(t).lm, False)[0]
    assert x(s).lm.shift(sigma) == x(t).lm.shift(tau)
    return tuple(a - b for a, b in zip(s, tau))


def test_mul_componentwise():
    assert x((1, 0, 2)).shift((0, 3, 1)) == x((1, 3, 3))
    assert x((0, 0, 0)).shift((2, 1, 0)) == x((2, 1, 0))
    assert x((2, 1, 0)).shift((0, 0, 0)) == x((2, 1, 0))


def test_gcd():
    assert gcd((2, 1, 0), (1, 0, 4)) == (1, 0, 0)
    assert gcd((3, 2, 0), (0, 0, 0)) == (0, 0, 0)
    assert gcd((3, 2, 1), (3, 2, 1)) == (3, 2, 1)


def test_divides_and_div():
    assert divides((1, 0, 0), (2, 3, 0))
    assert ReducerBasis([x((1, 0, 0))]).find_divisor(x((2, 3, 0)).lm) == (0, (1, 3, 0))
    assert not divides((2, 0, 0), (1, 5, 0))
    assert ReducerBasis([x((4, 7, 0))]).find_divisor(x((4, 7, 0)).lm) == (0, (0, 0, 0))
    with pytest.raises(ExactDivisionError):
        x((1, 5, 0)).lm / x((2, 0, 0)).lm


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        x((1, 0, 0)).shift((1, 0))
    with pytest.raises(RankMismatchError):
        x((1, 0, 0)).lm.shift((1, 0, 0, 0))


def test_deg():
    assert x((1, 0, 1)).order == 2
    assert x((0, 0, 0)).order == 0
    assert x((0, 5, 0)).order == 5


def test_enumerate_small():
    assert enumerate_up_to_degree(1, 2) == [(0, 0), (1, 0), (0, 1)]
    assert enumerate_up_to_degree(0, 3) == [(0, 0, 0)]
    assert enumerate_up_to_degree(4, 1) == [(0,), (1,), (2,), (3,), (4,)]
    assert enumerate_up_to_degree(float("-inf"), 2) == []


@pytest.mark.parametrize("d,rank", [(0, 1), (3, 2), (4, 3), (2, 4)])
def test_enumerate_count_and_determinism(d, rank):
    out = enumerate_up_to_degree(d, rank)
    assert len(out) == comb(d + rank, rank)
    assert len(set(out)) == len(out)
    assert out == enumerate_up_to_degree(d, rank)


shift3 = st.tuples(*[st.integers(0, 6)] * 3)


@given(shift3, shift3)
def test_gcd_reconstruction(s, t):
    g = gcd(s, t)
    assert divides(g, s) and divides(g, t)
    (sigma, tau), = shift_pair_candidates(x(s).lm, x(t).lm, False)[0]
    assert not any(map(min, sigma, tau))  # the whole common shift is out
    assert x(g).shift(tau) == x(s) and x(g).shift(sigma) == x(t)


@given(shift3, shift3)
def test_deg_is_a_homomorphism(s, t):
    assert x(s).shift(t).order == x(s).order + x(t).order


@given(shift3, shift3, shift3)
def test_divides_partial_order_with_gcd_meet(a, b, c):
    assert divides(a, a)
    if divides(a, b) and divides(b, a):
        assert a == b
    if divides(a, b) and divides(b, c):
        assert divides(a, c)
    g = gcd(a, b)
    assert divides(g, a) and divides(g, b)
    if divides(c, a) and divides(c, b):
        assert divides(c, g)
