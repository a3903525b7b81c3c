"""Seeded property tests (hypothesis, derandomized so every run draws the
same examples)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dgb import OrderingSpec, format_polynomial
from dgb.cli import parse_polynomial
from dgb.orderings import DEGLEX, DEGREVLEX, LEX

from helpers import make_ring

_ORDERS = st.sampled_from([LEX, DEGLEX, DEGREVLEX])


@st.composite
def _polynomials(draw, parameters):
    """A rank 1-2 polynomial under any shift and symbol order, natural or
    permuted priorities, whose coefficients are quotients of random
    parameter polynomials (plain rationals without parameters)."""
    rank = draw(st.integers(1, 2))
    symbols = draw(st.sampled_from([("x",), ("x", "y")]))
    spec = OrderingSpec(draw(_ORDERS), tuple(draw(st.permutations(range(rank)))),
                        draw(_ORDERS), tuple(draw(st.permutations(range(len(symbols))))))
    ring = make_ring(rank, symbols, parameters, spec)
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
    for _ in range(draw(st.integers(0, 4))):
        num, den = parameter_polynomial(), parameter_polynomial()
        factors = [(draw(st.sampled_from(symbols)),
                    tuple(draw(st.integers(0, 3)) for _ in range(rank)),
                    draw(st.integers(1, 3)))
                   for _ in range(draw(st.integers(0, 2)))]
        terms.append((num / den if den else num, ring.monomial(factors)))
    return ring.polynomial(terms)


def _check_roundtrip(parameters):
    denominators = []
    specs = set()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_polynomials(parameters))
    def roundtrip(f):
        assert parse_polynomial(f.ring, format_polynomial(f)) == f
        denominators.extend(c.den if parameters else c.denominator for _, c in f.terms)
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
