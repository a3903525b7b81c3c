import random

import pytest

from dgb import Monomial, Polynomial
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
    assert list(basis.iter_divisors(target)) == [(0, (1,)), (0, (2,))]
    index, shift = basis.find_divisor(target)
    assert (index, shift) == (0, (1,))
    assert (target / g.lm.shift(shift)) * g.lm.shift(shift) == target


def test_find_divisor_none_for_one(R1):
    assert ReducerBasis([x(R1, 1) - x(R1, 0)]).find_divisor(Monomial.ONE) is None


def test_find_divisor_constant_basis(R1):
    one = R1.one + x(R1, 0) - x(R1, 0)  # the constant 1
    index, shift = ReducerBasis([one]).find_divisor(Monomial.ONE)
    assert Monomial.ONE / one.lm.shift(shift) == Monomial.ONE


def test_find_divisor_disjoint_symbols():
    ring = make_ring(2, ("x", "y"))
    g = ring.var("y", (0, 1))
    target = ring.monomial([("x", (2, 0), 3)])
    assert ReducerBasis([g]).find_divisor(target) is None


def test_find_divisor_tie_break_lowest_index_then_smallest_shift(R1):
    g0 = x(R1, 2) - x(R1, 0)
    g1 = x(R1, 1) - x(R1, 0)
    target = (x(R1, 3) * x(R1, 2)).lm
    assert ReducerBasis([g0, g1]).find_divisor(target) == (0, (0,))
    assert ReducerBasis([g1, g0]).find_divisor(target) == (0, (1,))


def test_reduce_examples(R1):
    g = x(R1, 1) - x(R1, 0)
    assert reduce(x(R1, 1) * x(R1, 0), [g]) == x(R1, 0, 2)
    assert reduce(g, [g]) == R1.zero
    f = x(R1, 1) * x(R1, 0)
    assert reduce(f, []) == f


def test_reduce_full_examples(R1):
    g = x(R1, 1) - x(R1, 0)
    out = tail_reduce(x(R1, 2) + x(R1, 1) * x(R1, 0), [g])
    assert out == x(R1, 0, 2) + x(R1, 0)
    assert reduce_full(R1.zero, [g]) == R1.zero
    assert tail_reduce(out, [g]) == out  # fixed point


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


def test_certificate_replay_with_zero_elements(R1):
    # step indices refer to the nonzero elements of G, in order
    rng = random.Random(4)
    G = [R1.zero, x(R1, 1) * x(R1, 1) - x(R1, 0), R1.zero,
         x(R1, 2) * x(R1, 0) - x(R1, 1)]
    used = set()
    for _ in range(25):
        f = random_polynomial(rng, R1, max_terms=4, max_shift_deg=4, max_exp=3)
        h, steps = reduce(f, G, certificate=True)
        used.update(index for *_, index in steps)
        assert replay_certificate(h, steps, G) == f
    assert used == {0, 1}


def test_empty_basis(R1):
    f = x(R1, 2) * x(R1, 0) - x(R1, 1)
    basis = ReducerBasis([])
    assert len(basis) == 0 and basis.ring is None
    assert basis.find_divisor(f.lm) is None
    assert list(basis.iter_divisors(f.lm)) == []
    basis.append(x(R1, 1))
    assert basis.ring is R1 and basis.find_divisor(f.lm) == (0, (1,))
    assert reduce(f, []) == f
    assert tail_reduce(f, [R1.zero]) == f
    assert reduce(f, [], certificate=True) == (f, [])
    assert replay_certificate(f, [], []) == f


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


def _reference_tail_reduce(f, G):
    """The term-by-term loop that tail_reduce replaced: each irreducible
    leading term is merged into the result and subtracted from the rest."""
    done = f.ring.zero
    h = f
    while h:
        h = reduce(h, G)
        if not h:
            break
        lead = Polynomial(h.ring, h.terms[:1])
        done = done + lead
        h = h - lead
    return done


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("parameters", [(), ("H",)])
def test_tail_reduce_matches_reference(rank, parameters):
    ring = make_ring(rank, ("x", "y"), parameters)
    rng = random.Random(20 + rank + len(parameters))
    scale = ring.constant(ring.field.parameter("H")) if parameters else ring.constant(2)
    zeros = 0
    for _ in range(15):
        G = [random_polynomial(rng, ring, max_terms=3) + scale * random_polynomial(
            rng, ring, max_terms=2) for _ in range(rng.randint(1, 3))]
        G = [g for g in G if g]
        for f in (scale * G[0], random_polynomial(rng, ring, max_terms=4, max_shift_deg=3)
                  - scale * random_polynomial(rng, ring, max_terms=3, max_shift_deg=3)):
            expected = _reference_tail_reduce(f, G)
            assert tail_reduce(f, G).terms == expected.terms
            zeros += not expected
    assert zeros >= 15


def test_multi_factor_anchor():
    ring = make_ring(2, ("x", "y"))
    # leading monomial with several factors; anchor is its largest variable
    g = ring.var("x", (1, 0)) * ring.var("y", (0, 1)) - ring.var("y", (0, 0))
    target = (ring.var("x", (2, 1)) * ring.var("y", (1, 2)) * ring.var("y", (0, 0))).lm
    index, shift = ReducerBasis([g]).find_divisor(target)
    assert (index, shift) == (0, (1, 1))
    shifted = g.lm.shift(shift)
    assert shifted.divides(target)
    assert (target / shifted) * shifted == target
