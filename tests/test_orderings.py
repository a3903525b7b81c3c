import random

import pytest

from dgb import Monomial, Ordering, OrderingSpec
from dgb.orderings import DEGLEX, DEGREVLEX, LEX

from helpers import make_ring, random_monomial


def grid_ring():
    # two symbols, three shift operators, the standard worked configuration
    return make_ring(3, ("x", "y"),
                     spec=OrderingSpec(DEGREVLEX, None, LEX, None))


def var(ring, name, shift):
    return ring.monomial([(name, shift, 1)])


def test_degrevlex_shift_chain():
    ring = grid_ring()
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
             (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    for a, b in zip(chain, chain[1:]):
        assert ring.ordering.compare_shifts(a, b) == 1
    assert ring.ordering.compare_shifts((0, 0, 0), (0, 0, 0)) == 0


def test_deg_compatible_shift_orders():
    ring = grid_ring()
    assert ring.ordering.compare_shifts((1, 0, 0), (0, 2, 0)) == -1  # degree dominates


def test_variable_chain_matches_block_construction():
    ring = grid_ring()
    names = [("x", (2, 0, 0)), ("y", (2, 0, 0)), ("x", (1, 1, 0)), ("y", (1, 1, 0)),
             ("x", (0, 2, 0)), ("y", (0, 2, 0)), ("x", (1, 0, 1)), ("y", (1, 0, 1)),
             ("x", (0, 1, 1)), ("y", (0, 1, 1)), ("x", (0, 0, 2)), ("y", (0, 0, 2)),
             ("x", (1, 0, 0)), ("y", (1, 0, 0)), ("x", (0, 1, 0)), ("y", (0, 1, 0)),
             ("x", (0, 0, 1)), ("y", (0, 0, 1)), ("x", (0, 0, 0)), ("y", (0, 0, 0))]
    monos = [var(ring, n, s) for n, s in names]
    for a, b in zip(monos, monos[1:]):
        assert ring.ordering.compare_monomials(a, b) == 1


def test_one_is_minimal():
    ring = grid_ring()
    rng = random.Random(1)
    for _ in range(100):
        m = random_monomial(rng, ring)
        assert ring.ordering.compare_monomials(Monomial.ONE, m) == -1


def test_ordinary_lex_like_chain():
    # one symbol, rank one: x(0) < x(1) < ...; x(7)^2 > x(6)x(7) > x(0)x(2)
    ring = make_ring(1, ("x",), spec=OrderingSpec(DEGLEX, None, LEX, None))
    x = lambda k, e=1: ring.monomial([("x", (k,), e)])
    ordering = ring.ordering
    assert ordering.compare_monomials(x(7, 2), x(6) * x(7)) == 1
    assert ordering.compare_monomials(x(6) * x(7), x(0) * x(2)) == 1


def test_is_ord_compatible():
    assert Ordering(3, 2, OrderingSpec(DEGREVLEX, None, LEX, None)).is_order_compatible
    assert not Ordering(3, 2, OrderingSpec(LEX, None, LEX, None)).is_order_compatible
    assert Ordering(3, 2, OrderingSpec(DEGLEX, None, DEGREVLEX, None)).is_order_compatible


def _random_spec(rng, rank, n):
    orders = [LEX, DEGLEX, DEGREVLEX]
    sp = list(range(rank))
    rng.shuffle(sp)
    yp = list(range(n))
    rng.shuffle(yp)
    return OrderingSpec(rng.choice(orders), tuple(sp), rng.choice(orders), tuple(yp))


@pytest.mark.parametrize("seed", range(6))
def test_ordering_laws_random_specs(seed):
    rng = random.Random(seed)
    ring = make_ring(2, ("x", "y"), spec=_random_spec(rng, 2, 2))
    ordering = ring.ordering
    monos = [random_monomial(rng, ring) for _ in range(40)]
    for _ in range(300):
        m, n, t = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        c = ordering.compare_monomials(m, n)
        # totality and antisymmetry
        assert c in (-1, 0, 1)
        assert ordering.compare_monomials(n, m) == -c
        assert (c == 0) == (m == n)
        # transitivity on a sorted triple
        trio = sorted([m, n, t], key=ordering.monomial_key)
        assert ordering.compare_monomials(trio[0], trio[2]) <= 0
        # multiplicativity
        if c == -1:
            assert ordering.compare_monomials(m * t, n * t) == -1
        # shift compatibility
        s = tuple(rng.randint(0, 2) for _ in range(2))
        if c == -1:
            assert ordering.compare_monomials(m.shift(s), n.shift(s)) == -1
        assert ordering.compare_monomials(m.shift(s), m) >= 0


@pytest.mark.parametrize("seed", range(4))
def test_ord_compatibility_law(seed):
    rng = random.Random(100 + seed)
    spec = OrderingSpec(rng.choice([DEGLEX, DEGREVLEX]), None,
                        rng.choice([LEX, DEGLEX, DEGREVLEX]), None)
    ring = make_ring(2, ("x", "y"), spec=spec)
    assert ring.ordering.is_order_compatible
    for _ in range(300):
        m = random_monomial(rng, ring, max_shift_deg=3)
        n = random_monomial(rng, ring, max_shift_deg=3)
        if m.order < n.order:
            assert ring.ordering.compare_monomials(m, n) == -1
