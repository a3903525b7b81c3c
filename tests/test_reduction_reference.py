"""Reduction against its reference route.

A reduction step subtracts coeff*cofactor*shift(g) from the remainder in
one merge, skipping the leading pair, which cancels exactly; S-polynomials
and certificate replay take the same merge.  `helpers` keeps the route it
replaced: shift g, multiply it by the term (`mul_term`), add the product to
the whole remainder.  Both routes must give equal heads, certificate steps,
normal forms, replays and S-polynomials, and make the same divisor queries.
The inputs are seeded: every shift and symbol order pair, ranks 1 to 3,
coefficients in Q, Q(H) and Q(H, K) with non-constant denominators, basis
elements that are not monic, and constant elements.
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


@pytest.mark.parametrize("index", CASES)
def test_reduction_matches_the_reference_route(index):
    ring, G, inputs = _case(index)
    for f in inputs:
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
    one merge (_add_multiple); head reduction then probes the irreducible
    head of a nonzero remainder and stops, tail reduction probes each term
    it keeps.  So it neither probes past the first irreducible head nor
    probes an output term twice."""
    counts = {"probes": 0, "steps": 0}
    find, merge = ReducerBasis.find_divisor, reduction._add_multiple

    def counted_find(basis, target):
        counts["probes"] += 1
        return find(basis, target)

    def counted_merge(*args):
        counts["steps"] += 1
        return merge(*args)

    monkeypatch.setattr(ReducerBasis, "find_divisor", counted_find)
    monkeypatch.setattr(reduction, "_add_multiple", counted_merge)
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
    """The seeded cases reach the paths the merge has to get right."""
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
