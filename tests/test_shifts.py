"""The shift monoid as the engine realizes it.

Shift elements are exponent tuples, and the engine has no separate monoid
module: the product is the action on variables (`shift`), divisibility is
divisor search on single variables (`ReducerBasis.find_divisor`), and the
gcd is what the pair enumerator (`shift_pair_candidates`) divides out of
two overlapping variables.  These tests check the monoid laws through
those paths; `enumerate_up_to_degree` is the tests' own oracle helper.
"""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dgb import (MAX_SHIFT_DEGREE, ExactDivisionError, OrderingSpec, RankMismatchError,
                 ReducerBasis, ShiftWidthError)
from dgb.completion import shift_pair_candidates
from dgb.orderings import DEGLEX, DEGREVLEX, LEX

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
    (sigma, tau), = shift_pair_candidates(x(s).lm.decoded(), x(t).lm.decoded(), False)[0]
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
    (sigma, tau), = shift_pair_candidates(x(s).lm.decoded(), x(t).lm.decoded(), False)[0]
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


# --- one shift path: every ring rank 1-3 under all nine order pairs ----------

_ORDER_PAIRS = list(product([LEX, DEGLEX, DEGREVLEX], repeat=2))
_property = settings(derandomize=True, max_examples=12, deadline=None)
_each_order_pair = pytest.mark.parametrize("orders", _ORDER_PAIRS, ids="-".join)


@st.composite
def _polynomials(draw, orders, count=1):
    """count nonzero polynomials over one ring of rank 1-3 in x, y, under
    the given shift and symbol orders with any priorities, and two shifts."""
    rank = draw(st.integers(1, 3))
    shift_order, symbol_order = orders
    spec = OrderingSpec(shift_order, tuple(draw(st.permutations(range(rank)))),
                        symbol_order, tuple(draw(st.permutations(range(2)))))
    ring = make_ring(rank, ("x", "y"), spec=spec)
    shifts = st.tuples(*[st.integers(0, 3)] * rank)

    def monomial():
        return ring.monomial([(draw(st.sampled_from("xy")), draw(shifts), draw(st.integers(1, 2)))
                              for _ in range(draw(st.integers(0, 3)))])

    polys = [ring.polynomial([(draw(st.integers(1, 5)), monomial())
                              for _ in range(draw(st.integers(1, 4)))])
             for _ in range(count)]
    return polys, draw(shifts), draw(shifts)


@_each_order_pair
@_property
@given(data=st.data())
def test_zero_shift_returns_the_same_object(orders, data):
    (f,), s, _ = data.draw(_polynomials(orders))
    zero = (0,) * len(s)
    assert f.shift(zero) is f
    for m, _ in f.terms:
        assert m.shift(zero) is m


@_each_order_pair
@_property
@given(data=st.data())
def test_shifts_compose(orders, data):
    (f,), s, t = data.draw(_polynomials(orders))
    assert f.shift(s).shift(t) == f.shift(tuple(a + b for a, b in zip(s, t)))


@_each_order_pair
@_property
@given(data=st.data())
def test_polynomial_shift_is_termwise_monomial_shift(orders, data):
    (f,), s, _ = data.draw(_polynomials(orders))
    shifted = f.shift(s).terms
    assert shifted == tuple((m.shift(s), c) for m, c in f.terms)
    assert [m.key for m, _ in shifted] == [m.shift(s).key for m, _ in f.terms]


@_each_order_pair
@_property
@given(data=st.data())
def test_shift_past_the_packed_width_raises(orders, data):
    (f,), _, _ = data.draw(_polynomials(orders))
    rank = f.ring.signature.shift_rank

    def along_s1(k):
        return (k,) + (0,) * (rank - 1)

    top = MAX_SHIFT_DEGREE - max(f.order, 0)
    f.shift(along_s1(top))
    with pytest.raises(ShiftWidthError):
        f.shift(along_s1(top + 1))
    for m, _ in f.terms:
        if not m.is_one:
            assert m.shift(along_s1(MAX_SHIFT_DEGREE - m.order)).order == MAX_SHIFT_DEGREE
            with pytest.raises(ShiftWidthError):
                m.shift(along_s1(MAX_SHIFT_DEGREE - m.order + 1))


@_each_order_pair
@_property
@given(data=st.data())
def test_reducer_keeps_decoded_leads(orders, data):
    G, _, _ = data.draw(_polynomials(orders, count=3))
    assert ReducerBasis(G).leads == [g.lm.decoded() for g in G]
