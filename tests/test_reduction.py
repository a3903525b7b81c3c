import random

import pytest

from dgb import Monomial
from dgb.reduction import (ReducerBasis, reduce, reduce_full,
                           replay_certificate, tail_reduce)

from helpers import make_ring, random_polynomial


@pytest.fixture
def R1():
    return make_ring(1, ("x",))


def x(ring, k, e=1):
    return ring.var("x", (k,), e)


def test_find_divisor_shifted_hit(R1):
    g = x(R1, 1) - x(R1, 0)
    target = (x(R1, 3) * x(R1, 2)).lm
    # both s=(1,) and s=(2,) give shifted divisors; the tie-break picks the
    # smallest shift, and the divisor identity must hold exactly
    basis = ReducerBasis([g])
    assert basis.candidate_shifts(0, target) == [(1,), (2,)]
    hit = ReducerBasis([g]).find_divisor(target)
    assert hit.basis_index == 0
    assert hit.shift == (1,)
    assert hit.cofactor * g.lm.shift(hit.shift) == target


def test_find_divisor_none_for_one(R1):
    assert ReducerBasis([x(R1, 1) - x(R1, 0)]).find_divisor(Monomial.ONE) is None


def test_find_divisor_constant_basis(R1):
    one = R1.one + x(R1, 0) - x(R1, 0)  # the constant 1
    hit = ReducerBasis([one]).find_divisor(Monomial.ONE)
    assert hit is not None and hit.cofactor == Monomial.ONE


def test_find_divisor_disjoint_symbols():
    ring = make_ring(2, ("x", "y"))
    g = ring.var("y", (0, 1))
    target = ring.monomial([("x", (2, 0), 3)])
    assert ReducerBasis([g]).find_divisor(target) is None


def test_find_divisor_tie_break_lowest_index_then_smallest_shift(R1):
    g0 = x(R1, 2) - x(R1, 0)
    g1 = x(R1, 1) - x(R1, 0)
    target = (x(R1, 3) * x(R1, 2)).lm
    hit = ReducerBasis([g0, g1]).find_divisor(target)
    assert hit.basis_index == 0 and hit.shift == (0,)
    hit = ReducerBasis([g1, g0]).find_divisor(target)
    assert hit.basis_index == 0 and hit.shift == (1,)


def test_reduce_examples(R1):
    g = x(R1, 1) - x(R1, 0)
    assert reduce(x(R1, 1) * x(R1, 0), [g]) == x(R1, 0, 2)
    assert reduce(g, [g]) == R1.zero
    f = x(R1, 1) * x(R1, 0)
    assert reduce(f, []) == f


def test_reduce_full_examples(R1):
    g = x(R1, 1) - x(R1, 0)
    out = reduce_full(x(R1, 2) + x(R1, 1) * x(R1, 0), [g], monic=False)
    assert out == x(R1, 0, 2) + x(R1, 0)
    assert reduce_full(R1.zero, [g]) == R1.zero
    assert reduce_full(out, [g], monic=False) == out  # fixed point


def test_reduce_full_monic(R1):
    g = x(R1, 1) - x(R1, 0)
    f = (x(R1, 2) + x(R1, 1)).scale(R1.field.rational(3))
    out = reduce_full(f, [g])
    assert out.lc == R1.field.one


def test_certificate_replay(R1):
    rng = random.Random(3)
    G = [x(R1, 1) * x(R1, 1) - x(R1, 0), x(R1, 2) * x(R1, 0) - x(R1, 1)]
    for _ in range(25):
        f = random_polynomial(rng, R1, max_terms=4, max_shift_deg=4, max_exp=3)
        h, steps = reduce(f, G, certificate=True)
        assert replay_certificate(h, steps, G) == f


def test_head_reduction_descends(R1):
    rng = random.Random(5)
    G = [x(R1, 1) * x(R1, 0) - x(R1, 0)]
    key = R1.ordering.monomial_key
    for _ in range(25):
        f = random_polynomial(rng, R1, max_terms=4, max_shift_deg=3, max_exp=2)
        h, steps = reduce(f, G, certificate=True)
        if f and h:
            assert key(h.lm) <= key(f.lm)
        if h:
            assert ReducerBasis(G).find_divisor(h.lm) is None


def test_membership_by_certificate(R1):
    g = x(R1, 1) - x(R1, 0)
    f = x(R1, 4) - x(R1, 2)  # in the shift-closed ideal of g
    h = reduce(f, [g])
    assert h == R1.zero


def test_irreducible_monomial_fixed(R1):
    g = x(R1, 1, 2) - x(R1, 0)  # leading monomial x(1)^2
    f = x(R1, 1) * x(R1, 0)
    assert reduce(f, [g]) == f


def test_tail_reduce_keeps_scale(R1):
    g = x(R1, 1) - x(R1, 0)
    f = (x(R1, 2)).scale(R1.field.rational(-5))
    assert tail_reduce(f, [g]) == x(R1, 0).scale(R1.field.rational(-5))


def test_multi_factor_anchor():
    ring = make_ring(2, ("x", "y"))
    # leading monomial with several factors; anchor is its largest variable
    g = ring.var("x", (1, 0)) * ring.var("y", (0, 1)) - ring.var("y", (0, 0))
    target = (ring.var("x", (2, 1)) * ring.var("y", (1, 2)) * ring.var("y", (0, 0))).lm
    hit = ReducerBasis([g]).find_divisor(target)
    assert hit is not None
    assert hit.shift == (1, 1)
    shifted = g.lm.shift(hit.shift)
    assert shifted.divides(target)
    assert hit.cofactor * shifted == target


def test_reducer_basis_shift_bound(R1):
    g = x(R1, 1) - x(R1, 0)
    basis = ReducerBasis([g], max_shift_deg=1)
    assert basis.find_divisor(x(R1, 5).lm) is None
    assert basis.find_divisor(x(R1, 2).lm) is not None
