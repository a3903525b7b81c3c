"""Seeded property tests (hypothesis, derandomized so every run draws the
same examples)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dgb import OrderingSpec, format_polynomial
from dgb.cli import parse_polynomial
from dgb.orderings import DEGLEX, DEGREVLEX, LEX
from dgb.reduction import reduce, replay_certificate, tail_reduce

from helpers import enumerate_up_to_degree, make_ring, num_den

_ORDERS = st.sampled_from([LEX, DEGLEX, DEGREVLEX])


@st.composite
def _rings(draw, parameters):
    """A rank 1-2 ring over one or two symbols under any shift and symbol
    order, natural or permuted priorities."""
    rank = draw(st.integers(1, 2))
    symbols = draw(st.sampled_from([("x",), ("x", "y")]))
    spec = OrderingSpec(draw(_ORDERS), tuple(draw(st.permutations(range(rank)))),
                        draw(_ORDERS), tuple(draw(st.permutations(range(len(symbols))))))
    return make_ring(rank, symbols, parameters, spec)


@st.composite
def _polynomials(draw, parameters):
    """A polynomial over a ring drawn by _rings (see _polynomial)."""
    return _polynomial(draw, draw(_rings(parameters)))


def _polynomial(draw, ring, max_terms=4):
    """Up to max_terms terms with shifts up to 3 and exponents up to 3, whose
    coefficients are quotients of random parameter polynomials (plain
    rationals without parameters)."""
    parameters = ring.signature.parameters
    symbols = ring.signature.symbols
    rank = ring.signature.shift_rank
    field = ring.field

    def parameter_polynomial():
        value = field.zero
        for _ in range(draw(st.integers(1, 3))):
            c = field.rational(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
            for name in parameters:
                c = c * field.parameter(name) ** draw(st.integers(0, 2))
            value = value + c
        return value

    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        num, den = parameter_polynomial(), parameter_polynomial()
        factors = [(draw(st.sampled_from(symbols)),
                    tuple(draw(st.integers(0, 3)) for _ in range(rank)),
                    draw(st.integers(1, 3)))
                   for _ in range(draw(st.integers(0, 2)))]
        terms.append((field.quotient(num, den) if den else num, ring.monomial(factors)))
    return ring.polynomial(terms)


def _check_roundtrip(parameters):
    denominators = []
    specs = set()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_polynomials(parameters))
    def roundtrip(f):
        assert parse_polynomial(f.ring, format_polynomial(f)) == f
        denominators.extend(num_den(f.ring.field, c)[1] if parameters else c.denominator
                            for _, c in f.terms)
        spec = f.ring.ordering.spec
        specs.add((spec.shift_order, spec.symbol_order,
                   spec.shift_priority != tuple(range(f.ring.signature.shift_rank)),
                   spec.symbol_priority != tuple(range(len(f.ring.signature.symbols)))))

    roundtrip()
    # every shift x symbol order pair came up, and so did permuted priorities
    assert len({(a, b) for a, b, _, _ in specs}) == 9
    assert any(c for *_, c, _ in specs) and any(d for *_, d in specs)
    return denominators


def test_format_parse_roundtrip_over_rationals():
    assert any(d > 1 for d in _check_roundtrip(()))


def test_format_parse_roundtrip_over_parameters():
    assert any(len(d) > 1 for d in _check_roundtrip(("H", "K")))


def _shifted_divisors(m, G):
    """The (index, shift) with shift*lm(G[index]) dividing m, by brute force
    on the decoded exponents: no such shift exceeds the order of m."""
    rank = m.ordering.rank
    exps = {(sym, shift): e for (sym, shift), e in m.decoded()}
    out = []
    for index, g in enumerate(G):
        for s in enumerate_up_to_degree(m.order, rank):
            if all(exps.get((sym, tuple(a + b for a, b in zip(shift, s))), 0) >= e
                   for (sym, shift), e in g.lm.decoded()):
                out.append((index, s))
    return out


@st.composite
def _reduction_problems(draw, parameters):
    """(f, G) over one ring drawn by _rings, G a list of nonzero polynomials."""
    ring = draw(_rings(parameters))
    G = [g for g in (_polynomial(draw, ring, 3) for _ in range(draw(st.integers(1, 3)))) if g]
    assume(G)
    return _polynomial(draw, ring), G


def _check_reduction(parameters):
    seen = set()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_reduction_problems(parameters))
    def reduction(problem):
        f, G = problem
        h, steps = reduce(f, G, certificate=True)
        assert replay_certificate(h, steps, G) == f
        if h:
            assert _shifted_divisors(h.lm, G) == []
        assert all(_shifted_divisors(m, G) == [] for m, _ in tail_reduce(f, G).terms)
        spec = f.ring.ordering.spec
        seen.add((spec.shift_order, spec.symbol_order, bool(steps), bool(h)))

    reduction()
    # every shift x symbol order pair came up, with steps and with a remainder
    assert len({(a, b) for a, b, _, _ in seen}) == 9
    assert any(c and d for *_, c, d in seen) and any(c and not d for *_, c, d in seen)


def test_reduction_certificate_and_normal_forms_over_rationals():
    _check_reduction(())


def test_reduction_certificate_and_normal_forms_over_parameters():
    _check_reduction(("H", "K"))
