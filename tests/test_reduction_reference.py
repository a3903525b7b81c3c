"""Reduction against its reference route.

A reduction step subtracts coeff*cofactor*shift(g) from the pending
remainder, skipping the leading pair, which cancels exactly, and placing
each other product term by bisection; certificate replay adds its steps the
same way, and S-polynomials take one merge.  `helpers` keeps the route
these replaced: shift g, multiply it by the term (`mul_term`), add the
product to the whole remainder.  Both routes must give equal heads,
certificate steps, normal forms, replays and S-polynomials, and make the
same divisor queries.  The inputs are seeded: every shift and symbol order
pair, ranks 1 to 3, coefficients in Q, Q(H) and Q(H, K) with non-constant
denominators, basis elements that are not monic, and constant elements;
then long remainders, thousands of steps, and a shift that only a later
term of the element cannot take.
"""

import random
from itertools import product

import pytest

from dgb import OrderingSpec, ShiftWidthError, reduction
from dgb.orderings import DEGLEX, DEGREVLEX, LEX
from dgb.reduction import (ReducerBasis, reduce, reduce_full, replay_certificate,
                           tail_reduce)
from dgb.ring import shifted_spoly, spoly

from helpers import (make_ring, num_den, random_monomial, random_shift, reference_reduce,
                     reference_replay, reference_spoly, reference_tail_reduce)

ORDER_PAIRS = list(product((LEX, DEGLEX, DEGREVLEX), repeat=2))
PARAMETERS = [(), ("H",), ("H", "K")]
CASES = range(2 * len(ORDER_PAIRS) * len(PARAMETERS))


class CountingBasis(ReducerBasis):
    """A ReducerBasis that counts its find_divisor calls."""

    def __init__(self, polys):
        super().__init__(polys)
        self.calls = 0

    def find_divisor(self, target):
        self.calls += 1
        return super().find_divisor(target)


def _coefficient(rng, field):
    """A nonzero constant, often a rational function of the parameters with
    a non-constant denominator."""
    c = field.rational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    for name in field.parameters:
        p = field.parameter(name)
        if rng.random() < 0.5:
            c = c * (p + field.rational(rng.randint(-2, 2)))
        if rng.random() < 0.3:
            c = c / (p * p + field.rational(rng.randint(1, 3)))
    return c


def _polynomial(rng, ring, terms, **mono_kw):
    return ring.polynomial((_coefficient(rng, ring.field), random_monomial(rng, ring, **mono_kw))
                           for _ in range(terms))


def _case(index):
    """(ring, basis list, inputs to reduce) of one seeded case: the basis is
    not monic, and every fifth case ends it with a constant element."""
    shift_order, symbol_order = ORDER_PAIRS[index % len(ORDER_PAIRS)]
    parameters = PARAMETERS[index // len(ORDER_PAIRS) % len(PARAMETERS)]
    rank = 1 + (index + index // len(ORDER_PAIRS)) % 3
    symbols = ("x", "y")[:1 + index % 2]
    ring = make_ring(rank, symbols, parameters, OrderingSpec(shift_order, None, symbol_order))
    rng = random.Random(f"reduce:{index}")
    G = [_polynomial(rng, ring, rng.randint(1, 3), max_factors=2, max_shift_deg=1)
         for _ in range(rng.randint(1, 3))]
    if index % 5 == 0:
        G.append(ring.constant(_coefficient(rng, ring.field)))
    inputs = []
    for _ in range(4):
        f = _polynomial(rng, ring, rng.randint(1, 3), max_factors=2)
        for _ in range(rng.randint(0, 2)):
            g = rng.choice(G)
            term = _polynomial(rng, ring, 1, max_factors=2, max_shift_deg=1)
            f = f + term * g.shift(random_shift(rng, rank, 1))
        inputs.append(f)
    return ring, G, inputs


def _assert_routes_agree(f, G):
    """Both routes give f the same head, certificate steps, replay, normal
    form and divisor queries; returns the number of head steps."""
    head, steps = reduce(f, G, certificate=True)
    ref_head, ref_steps = reference_reduce(f, G, certificate=True)
    assert head == ref_head
    assert steps == ref_steps
    assert reduce(f, G) == head
    assert replay_certificate(head, steps, G) == reference_replay(head, steps, G) == f

    normal = tail_reduce(f, G)
    assert normal == reference_tail_reduce(f, G)
    assert reduce_full(f, G) == (normal.monic() if normal else normal)

    # the same divisor queries, one per step and one per kept term
    for library, reference in ((reduce, reference_reduce),
                               (tail_reduce, reference_tail_reduce)):
        ours, theirs = CountingBasis(G), CountingBasis(G)
        assert library(f, ours) == reference(f, theirs)
        assert ours.calls == theirs.calls
    return len(steps)


@pytest.mark.parametrize("index", CASES)
def test_reduction_matches_the_reference_route(index):
    ring, G, inputs = _case(index)
    for f in inputs:
        _assert_routes_agree(f, G)

    rng = random.Random(f"spoly:{index}")
    zero = (0,) * ring.signature.shift_rank
    for a, b in product(G, repeat=2):
        assert spoly(a, b) == reference_spoly(a, b)
        s, t = random_shift(rng, len(zero), 2), random_shift(rng, len(zero), 2)
        for s, t in ((s, t), (zero, t), (s, zero)):
            assert shifted_spoly(a, s, b, t) == reference_spoly(a.shift(s), b.shift(t))



@pytest.mark.parametrize("index", CASES)
def test_one_divisor_probe_per_examined_term(index, monkeypatch):
    """Reduction probes each term it examines once: a step is one probe and
    one insertion of a multiple (_insert_multiple); head reduction then probes the irreducible
    head of a nonzero remainder and stops, tail reduction probes each term
    it keeps.  So it neither probes past the first irreducible head nor
    probes an output term twice."""
    counts = {"probes": 0, "steps": 0}
    find, merge = ReducerBasis.find_divisor, reduction._insert_multiple

    def counted_find(basis, target):
        counts["probes"] += 1
        return find(basis, target)

    def counted_merge(*args):
        counts["steps"] += 1
        return merge(*args)

    monkeypatch.setattr(ReducerBasis, "find_divisor", counted_find)
    monkeypatch.setattr(reduction, "_insert_multiple", counted_merge)
    ring, G, inputs = _case(index)
    total = 0
    for f in inputs:
        for route, tail in ((reduce, False), (tail_reduce, True), (reduce_full, True)):
            counts.update(probes=0, steps=0)
            h = route(f, G)
            assert counts["probes"] == counts["steps"] + (len(h) if tail else bool(h))
            total += counts["steps"]
        counts.update(probes=0, steps=0)
        h, steps = reduce(f, G, certificate=True)
        assert counts["steps"] == len(steps) and counts["probes"] == len(steps) + bool(h)
    assert total > 0

def test_reference_cases_cover_every_path():
    """The seeded cases reach the paths a step has to get right."""
    seen = set()
    for index in CASES:
        ring, G, inputs = _case(index)
        one = ring.field.one
        polys = [g for g in G if g]
        for f in inputs:
            for coeff, cofactor, shift, i in reduce(f, G, certificate=True)[1]:
                g = polys[i]
                seen.add("monic" if g.lc == one else "not monic")
                seen.add("zero shift" if not any(shift) else "shift")
                seen.add("constant element" if g.lm.is_one else "element")
                seen.add(f"rank {len(shift)}")
                if any(len(num_den(ring.field, c)[1]) > 1 for _, c in g.terms):
                    seen.add("non-constant denominator")
            if tail_reduce(f, G) != reduce(f, G):
                seen.add("tail step")
    assert seen == {"monic", "not monic", "zero shift", "shift", "constant element",
                    "element", "rank 1", "rank 2", "rank 3", "non-constant denominator",
                    "tail step"}


def test_shift_width_is_checked_against_the_whole_element():
    """Under a lex shift order a later term can have a larger order than the
    leading one.  The divisor search checks the shift against the leading
    monomial only; the step must still refuse a shift that moves a later
    term past MAX_SHIFT_DEGREE, as Polynomial.shift does."""
    ring = make_ring(2, ("x",), spec=OrderingSpec(LEX, None, LEX))
    g = ring.var("x", (1, 0)) + ring.var("x", (0, 100))
    assert g.lm == ring.var("x", (1, 0)).lm and g.order == 100
    f = ring.var("x", (65500, 0))
    shift = (65499, 0)
    assert ReducerBasis([g]).find_divisor(f.lm) == (0, shift)
    with pytest.raises(ShiftWidthError):
        g.shift(shift)
    for route in (reference_reduce, reduce, tail_reduce, reduce_full):
        with pytest.raises(ShiftWidthError):
            route(f, [g])
    steps = [(ring.field.one, ring.one.lm, shift, 0)]
    for route in (reference_replay, replay_certificate):
        with pytest.raises(ShiftWidthError):
            route(ring.zero, steps, [g])
    with pytest.raises(ShiftWidthError):
        shifted_spoly(g, shift, g, (0, 0))
    # within the limit the routes agree: x(3,0) -> -x(2,100) -> ... -> -x(0,300)
    f = ring.var("x", (3, 0))
    head, steps = reduce(f, [g], certificate=True)
    assert (head, steps) == reference_reduce(f, [g], certificate=True)
    assert len(steps) == 3 and head == -ring.var("x", (0, 300))


def test_a_step_keeps_the_monomials_of_the_remainder():
    """A product term that meets a term of the remainder reuses its Monomial,
    and a term the step does not reach is carried over as it is."""
    ring = make_ring(1, ("x",))
    x = [ring.var("x", (k,)) for k in range(3)]
    f = x[2] * x[1] + x[1] * x[0] + x[0] * x[0]
    # one step: x(2)x(1) - x(1)*(x(2) - x(0)) = x(1)x(0) meets x(1)x(0) of f
    h = reduce(f, [x[2] - x[0]])
    assert h == (x[1] * x[0]).scale(ring.field.rational(2)) + x[0] * x[0]
    assert h.terms[0][0] is f.terms[1][0] and h.terms[1] is f.terms[2]


# --- long remainders and many steps -----------------------------------------
#
# A step places each product term in the pending remainder by bisection;
# these cases make that remainder long (hundreds to thousands of terms) or
# make thousands of steps, where a misplaced term, a missed cancellation or
# a stale key would show.


def _dense(rng, ring, size):
    """A polynomial with exactly size terms: random monomials of up to
    three factors at shift degree up to 3, seeded coefficients."""
    acc = {}
    while len(acc) < size:
        acc[random_monomial(rng, ring, max_factors=3, max_shift_deg=3, max_exp=3)] = \
            _coefficient(rng, ring.field)
    return ring.polynomial((c, m) for m, c in acc.items())


@pytest.mark.parametrize("shift_order, symbol_order, parameters, size", [
    (DEGREVLEX, LEX, (), 400), (LEX, DEGLEX, (), 1500), (DEGLEX, DEGREVLEX, (), 800),
    (DEGREVLEX, DEGLEX, ("H",), 300)], ids=["degrevlex-lex-Q-400", "lex-deglex-Q-1500",
                                           "deglex-degrevlex-Q-800", "degrevlex-deglex-QH-300"])
def test_long_remainders_match_the_reference_route(shift_order, symbol_order, parameters,
                                                   size):
    """A dense f against two-term bases: the remainder keeps about size
    terms while the product terms land among them."""
    ring = make_ring(2, ("x", "y"), parameters, OrderingSpec(shift_order, None, symbol_order))
    rng = random.Random(f"long:{shift_order}:{symbol_order}:{size}")
    two = ring.constant(2)
    G = [ring.var("x", (1, 0)) - ring.var("y", (0, 0), 2),
         two * ring.var("y", (0, 1)) - ring.var("x", (0, 0))]
    f = _dense(rng, ring, size)
    assert _assert_routes_agree(f, G) > 0
    assert len(tail_reduce(f, G)) > size // 3


@pytest.mark.parametrize("parameters", [(), ("H",)], ids=["Q", "QH"])
@pytest.mark.parametrize("shift_order, symbol_order", ORDER_PAIRS)
def test_many_step_reductions_match_the_reference_route(shift_order, symbol_order,
                                                        parameters):
    """A power of one variable against x(1) - x(0)^2 (one term throughout,
    450 steps), and two inputs against a non-monic three-term element:
    x(3)^5, whose head reduction takes about 600 steps while the remainder
    grows to about 90 terms, and a product of two binomials, whose head
    reduction takes 241 steps."""
    ring = make_ring(1, ("x",), parameters, OrderingSpec(shift_order, None, symbol_order))
    field = ring.field
    c = field.parameter("H") if parameters else field.rational(-1, 2)
    x = [ring.var("x", (k,)) for k in range(5)]
    square = x[0] * x[0]
    assert _assert_routes_agree(ring.var("x", (4,), 30), [x[1] - square]) == 450
    G = [ring.constant(3) * x[1] - square - x[0].scale(c)]
    for f in (ring.var("x", (3,), 5), (x[4] + x[2] + ring.one) * (x[3] - x[0])):
        assert _assert_routes_agree(f, G) > 200


@pytest.mark.parametrize("symbol_order", (LEX, DEGLEX, DEGREVLEX))
def test_a_step_past_the_width_of_a_later_term_raises(symbol_order):
    """Under a lex shift order the element x(1,0)*y(0,0) + y(0,200) has
    order 200 but a leading monomial of order 1, which is all the divisor
    search checks.  Tail reduction keeps the irreducible head x(65400,0)
    and then meets a term whose shift passes MAX_SHIFT_DEGREE on y(0,200)
    only: it raises ShiftWidthError, as the reference's g.shift does, while
    head reduction stops at the head.  Below the limit the routes agree."""
    ring = make_ring(2, ("x", "y"), spec=OrderingSpec(LEX, None, symbol_order))
    g = ring.var("x", (1, 0)) * ring.var("y", (0, 0)) + ring.var("y", (0, 200))
    assert g.lm.order == 1 and g.order == 200
    far = ring.var("x", (65340, 0)) * ring.var("y", (65339, 0))
    assert ReducerBasis([g]).find_divisor(far.lm) == (0, (65339, 0))
    f = ring.var("x", (65400, 0)) + far + ring.var("x", (3, 0)) * ring.var("y", (2, 0))
    assert reduce(f, [g]) == reference_reduce(f, [g]) == f
    for route in (reference_tail_reduce, tail_reduce, reduce_full):
        with pytest.raises(ShiftWidthError):
            route(f, [g])
    near = ring.var("x", (3, 0)) * ring.var("y", (2, 0)) + ring.var("y", (0, 1))
    assert _assert_routes_agree(near, [g]) == 1
