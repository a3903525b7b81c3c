import random

import pytest

from dgb import (MAX_SHIFT_DEGREE, DifferenceRing, Monomial, Ordering, OrderingSpec,
                 ShiftWidthError, Signature)
from dgb.orderings import DEGLEX, DEGREVLEX, LEX

from helpers import (compare_monomials, compare_shifts, make_ring, random_monomial,
                     reference_monomial_key)


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
        assert compare_shifts(ring.ordering, a, b) == 1
    assert compare_shifts(ring.ordering, (0, 0, 0), (0, 0, 0)) == 0


def test_deg_compatible_shift_orders():
    ring = grid_ring()
    assert compare_shifts(ring.ordering, (1, 0, 0), (0, 2, 0)) == -1  # degree dominates


def test_variable_chain_matches_block_construction():
    ring = grid_ring()
    names = [("x", (2, 0, 0)), ("y", (2, 0, 0)), ("x", (1, 1, 0)), ("y", (1, 1, 0)),
             ("x", (0, 2, 0)), ("y", (0, 2, 0)), ("x", (1, 0, 1)), ("y", (1, 0, 1)),
             ("x", (0, 1, 1)), ("y", (0, 1, 1)), ("x", (0, 0, 2)), ("y", (0, 0, 2)),
             ("x", (1, 0, 0)), ("y", (1, 0, 0)), ("x", (0, 1, 0)), ("y", (0, 1, 0)),
             ("x", (0, 0, 1)), ("y", (0, 0, 1)), ("x", (0, 0, 0)), ("y", (0, 0, 0))]
    monos = [var(ring, n, s) for n, s in names]
    for a, b in zip(monos, monos[1:]):
        assert compare_monomials(ring.ordering, a, b) == 1


def test_one_is_minimal():
    ring = grid_ring()
    rng = random.Random(1)
    for _ in range(100):
        m = random_monomial(rng, ring)
        assert compare_monomials(ring.ordering, Monomial.ONE, m) == -1


def test_ordinary_lex_like_chain():
    # one symbol, rank one: x(0) < x(1) < ...; x(7)^2 > x(6)x(7) > x(0)x(2)
    ring = make_ring(1, ("x",), spec=OrderingSpec(DEGLEX, None, LEX, None))
    x = lambda k, e=1: ring.monomial([("x", (k,), e)])
    ordering = ring.ordering
    assert compare_monomials(ordering, x(7, 2), x(6) * x(7)) == 1
    assert compare_monomials(ordering, x(6) * x(7), x(0) * x(2)) == 1


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
        c = compare_monomials(ordering, m, n)
        # totality and antisymmetry
        assert c in (-1, 0, 1)
        assert compare_monomials(ordering, n, m) == -c
        assert (c == 0) == (m == n)
        # transitivity on a sorted triple
        trio = sorted([m, n, t], key=lambda m: ordering.monomial_key(m.factors))
        assert compare_monomials(ordering, trio[0], trio[2]) <= 0
        # multiplicativity
        if c == -1:
            assert compare_monomials(ordering, m * t, n * t) == -1
        # shift compatibility
        s = tuple(rng.randint(0, 2) for _ in range(2))
        if c == -1:
            assert compare_monomials(ordering, m.shift(s), n.shift(s)) == -1
        assert compare_monomials(ordering, m.shift(s), m) >= 0


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
            assert compare_monomials(ring.ordering, m, n) == -1


# --- packed keys against the block-order reference -----------------------------


def _specs(rank, n):
    """All nine shift x symbol order pairs, with natural priorities and
    with non-default ones."""
    for shift_order in (LEX, DEGLEX, DEGREVLEX):
        for symbol_order in (LEX, DEGLEX, DEGREVLEX):
            yield OrderingSpec(shift_order, None, symbol_order, None)
            shift_prio = tuple(range(rank))[1:] + (0,)
            symbol_prio = tuple(reversed(range(n)))
            yield OrderingSpec(shift_order, shift_prio, symbol_order, symbol_prio)


def _sign(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_packed_keys_match_the_block_order_reference(rank):
    symbols = ("x", "y", "z")
    checked = 0
    for index, spec in enumerate(_specs(rank, len(symbols))):
        rng = random.Random(1000 * rank + index)
        ring = make_ring(rank, symbols, spec=spec)
        ordering = ring.ordering
        monos = [Monomial.ONE] + [random_monomial(rng, ring, max_factors=4, max_shift_deg=3,
                                                  max_exp=3) for _ in range(50)]
        packed = [ordering.monomial_key(m.factors) for m in monos]
        reference = [reference_monomial_key(ordering, m) for m in monos]
        for i in range(len(monos)):
            for j in range(len(monos)):
                assert _sign(packed[i], packed[j]) == _sign(reference[i], reference[j]), \
                    (spec, monos[i], monos[j])
                checked += 1
        # compatibility with the shift action, read off the packed keys
        for _ in range(300):
            m, n = rng.choice(monos), rng.choice(monos)
            s = tuple(rng.randint(0, 3) for _ in range(rank))
            if ordering.monomial_key(m.factors) < ordering.monomial_key(n.factors):
                assert (ordering.monomial_key(m.shift(s).factors)
                        < ordering.monomial_key(n.shift(s).factors))
        # the decoded view gives back the variables the monomial was built from
        for m in monos:
            assert ring.monomial([(sym, shift, e) for (sym, shift), e in m.decoded()]) == m
    assert checked == 18 * 51 * 51


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_queue_keys_sort_as_order_then_monomial_key(rank):
    # Ordering.queue_key (the pair queue's heap key, see the module
    # docstring): under all nine shift x symbol orders, with natural and
    # non-default priorities, queue keys of random monomials of one to three
    # factors sort exactly as (order, monomial key) pairs, and queue_factors
    # gives the factor tuple back, the object itself, not a copy.  Under lex
    # symbols the key is the factor tuple itself, after the order under a
    # lex shift order; under graded symbols it is (order, monomial key,
    # factor tuple).
    symbols = ("x", "y", "z")
    checked = 0
    for index, spec in enumerate(_specs(rank, len(symbols))):
        rng = random.Random(2000 * rank + index)
        ring = make_ring(rank, symbols, spec=spec)
        ordering = ring.ordering
        monos = [random_monomial(rng, ring, max_factors=3, max_shift_deg=3, max_exp=3)
                 for _ in range(60)]
        pairs = [(ordering.order(m.factors), ordering.monomial_key(m.factors)) for m in monos]
        keys = [ordering.queue_key(m.factors, order) for m, (order, _) in zip(monos, pairs)]
        for i in range(len(monos)):
            for j in range(len(monos)):
                assert _sign(keys[i], keys[j]) == _sign(pairs[i], pairs[j]), \
                    (spec, monos[i], monos[j])
                checked += 1
        graded, lex_symbols = spec.shift_order != LEX, spec.symbol_order == LEX
        for key, m, (order, mkey) in zip(keys, monos, pairs):
            assert ordering.queue_factors(key) is m.factors
            if not lex_symbols:
                assert key == (order, mkey, m.factors)
            elif graded:
                assert key is m.factors
            else:
                assert key == (order, m.factors)
    assert checked == 18 * 60 * 60


@pytest.mark.parametrize("shift_order", [LEX, DEGLEX, DEGREVLEX])
def test_shift_past_the_packed_width_raises(shift_order):
    ring = make_ring(2, ("x", "y"), spec=OrderingSpec(shift_order, (1, 0), LEX, None))
    top = MAX_SHIFT_DEGREE
    m = ring.monomial([("x", (top - 3, 2), 1), ("y", (0, 1), 2)])
    assert m.order == top - 1
    edge = m.shift((0, 1))
    assert edge.order == top
    assert sorted(edge.decoded()) == [((0, (top - 3, 3)), 1), ((1, (0, 2)), 2)]
    with pytest.raises(ShiftWidthError):
        m.shift((1, 1))
    with pytest.raises(ShiftWidthError):
        edge.shift((1, 0))
    # one coordinate past the field width would carry into its neighbour
    corner = ring.monomial([("x", (top, 0), 1)])
    with pytest.raises(ShiftWidthError):
        corner.shift((1, 0))
    assert corner.shift((0, 0)).decoded() == [((0, (top, 0)), 1)]
    f = ring.polynomial([(1, m), (2, ring.monomial([("y", (0, 0), 1)]))])
    assert f.shift((0, 1)).lm == edge
    with pytest.raises(ShiftWidthError):
        f.shift((0, 2))
    with pytest.raises(ShiftWidthError):
        ring.var("x", (top, 1))
    with pytest.raises(ShiftWidthError):
        ring.ordering.check_shift((top - 1, 2))
    assert ring.ordering.check_shift([top, 0]) == (top, 0)


@pytest.mark.parametrize("shift_order", [LEX, DEGLEX, DEGREVLEX])
def test_spelled_out_natural_priority_equals_the_default(shift_order):
    natural = OrderingSpec(shift_order, (0, 1, 2), DEGLEX, [0, 1])
    default = OrderingSpec(shift_order, None, DEGLEX, None)
    assert Ordering(3, 2, natural) == Ordering(3, 2, default)
    assert hash(Ordering(3, 2, natural)) == hash(Ordering(3, 2, default))
    assert Ordering(3, 2, default).spec == OrderingSpec(shift_order, (0, 1, 2), DEGLEX, (0, 1))
    assert Ordering(3, 2, default) != Ordering(3, 2, OrderingSpec(shift_order, (1, 0, 2),
                                                                 DEGLEX, None))
    signature = Signature(3, ("u", "v"))
    assert DifferenceRing(signature, natural) == DifferenceRing(signature, default)
    assert DifferenceRing(signature, OrderingSpec(DEGREVLEX, (0, 1, 2), LEX, (0, 1))) \
        == DifferenceRing(signature)
    assert hash(DifferenceRing(signature, natural)) == hash(DifferenceRing(signature, default))
    assert DifferenceRing(signature, default) != DifferenceRing(
        signature, OrderingSpec(shift_order, None, DEGLEX, (1, 0)))
