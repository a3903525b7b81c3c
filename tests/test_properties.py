"""Seeded property tests (hypothesis, derandomized so every run draws the
same examples)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dgb import format_polynomial
from dgb.cli import parse_polynomial

from helpers import make_ring


@st.composite
def _polynomials(draw, parameters):
    """A rank 1-2 polynomial whose coefficients are quotients of random
    parameter polynomials (plain rationals without parameters)."""
    rank = draw(st.integers(1, 2))
    symbols = draw(st.sampled_from([("x",), ("x", "y")]))
    ring = make_ring(rank, symbols, parameters)
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

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_polynomials(parameters))
    def roundtrip(f):
        assert parse_polynomial(f.ring, format_polynomial(f)) == f
        denominators.extend(c.den if parameters else c.denominator for _, c in f.terms)

    roundtrip()
    return denominators


def test_format_parse_roundtrip_over_rationals():
    assert any(d > 1 for d in _check_roundtrip(()))


def test_format_parse_roundtrip_over_parameters():
    assert any(len(d) > 1 for d in _check_roundtrip(("H", "K")))
