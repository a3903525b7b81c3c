"""Polynomial and Monomial operators against independent arithmetic.

`+` and `-` run on `ring._add_multiple`, the merge of S-polynomials,
`*` on `ring._product`, the parser's term-dict product, and `Monomial /` on
`ring._cofactor`.  Over Q every operator is checked against the dict
arithmetic of `tests/classical.py`, which shares no code with the package;
over Q(H) against `helpers.reference_add` and `reference_mul`, the merge and
the Monomial-keyed product that the operators used before.  The inputs are
seeded: ranks 1 and 2, every shift and symbol order pair, two symbols.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from dgb import ExactDivisionError, OrderingSpec
from dgb.orderings import DEGLEX, DEGREVLEX, LEX

from classical import m_div, m_divides, m_mul, p_add, p_scale_mono
from helpers import (make_ring, mono_to_oracle, random_coeff, random_monomial, reference_add,
                     reference_mul, to_oracle)

ORDER_PAIRS = list(product((LEX, DEGLEX, DEGREVLEX), repeat=2))
CASES = [(rank, shift_order, symbol_order)
         for rank in (1, 2) for shift_order, symbol_order in ORDER_PAIRS]


def _ring(rank, shift_order, symbol_order, parameters=()):
    return make_ring(rank, ("x", "y"), parameters,
                     spec=OrderingSpec(shift_order, None, symbol_order, None))


def _seeded(case, salt, parameters=()):
    """The ring of CASES[case] and a generator seeded by case and salt."""
    return _ring(*CASES[case], parameters), random.Random(100 * case + salt)


def _monomial(rng, ring):
    """A random monomial, the monomial 1 now and then."""
    if rng.random() < 0.1:
        return ring.monomial([])
    return random_monomial(rng, ring, max_factors=3, max_shift_deg=2, max_exp=2)


def _pair(rng, ring, coefficient):
    """Two random polynomials of up to five terms each, zero now and then,
    over one pool of monomials: shared monomials make sums cancel, and
    products of pool members collect, as m*n = n*m."""
    pool = [_monomial(rng, ring) for _ in range(4)]
    return [ring.polynomial((coefficient(rng, ring.field), rng.choice(pool))
                            for _ in range(rng.randint(0, 5))) for _ in range(2)]


def _q(rng, field):
    return random_coeff(rng)


def _qh(rng, field):
    """A nonzero element of Q(H), often with a non-constant denominator."""
    H = field.parameter("H")
    c = field.rational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    if rng.random() < 0.5:
        c = c * (H + field.rational(rng.randint(-2, 2)))
    if rng.random() < 0.3:
        c = c / (H * H + field.rational(rng.randint(1, 3)))
    return c


def _assert_canonical(f):
    """Terms strictly descending, keys those of the ordering, no zero
    coefficient."""
    ordering = f.ring.ordering
    for m, c in f.terms:
        assert c
        assert m.key == (ordering.monomial_key(m.factors) if m.factors else ())
    keys = [m.key for m, _ in f.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))


def _oracle_mul(f, g):
    out = {}
    for m, c in g.items():
        out = p_add(out, p_scale_mono(f, c, m))
    return out


@pytest.mark.parametrize("case", range(len(CASES)))
def test_operators_match_the_classical_dict_arithmetic(case):
    ring, rng = _seeded(case, 1)
    for _ in range(12):
        f, g = _pair(rng, ring, _q)
        F, G = to_oracle(f), to_oracle(g)
        c = random_coeff(rng)
        for result, expected in ((f + g, p_add(F, G)),
                                 (f - g, p_add(F, {m: -v for m, v in G.items()})),
                                 (f * g, _oracle_mul(F, G)),
                                 (f * f, _oracle_mul(F, F)),
                                 (f.scale(c), {m: v * c for m, v in F.items()}),
                                 (-f, {m: -v for m, v in F.items()})):
            assert to_oracle(result) == expected
            _assert_canonical(result)
        assert f - f == ring.zero and f * ring.zero == ring.zero and f * ring.one == f


@pytest.mark.parametrize("case", range(len(CASES)))
def test_monomial_quotient_matches_the_classical_division(case):
    ring, rng = _seeded(case, 2)
    ordering = ring.ordering
    refused = 0
    for _ in range(30):
        m, n = _monomial(rng, ring), _monomial(rng, ring)
        M, N = mono_to_oracle(m), mono_to_oracle(n)
        mn = m * n
        assert mono_to_oracle(mn) == m_mul(M, N)
        q = mn / n
        assert q == m and mono_to_oracle(q) == m_div(m_mul(M, N), N)
        assert q.key == (ordering.monomial_key(q.factors) if q.factors else ())
        if m_divides(N, M):
            assert mono_to_oracle(m / n) == m_div(M, N)
        else:
            refused += 1
            with pytest.raises(ExactDivisionError, match="does not divide"):
                m / n
    assert refused


@pytest.mark.parametrize("case", range(len(CASES)))
def test_operators_match_the_reference_over_parameters(case):
    ring, rng = _seeded(case, 3, ("H",))
    for _ in range(6):
        f, g = _pair(rng, ring, _qh)
        for result, expected in ((f + g, reference_add(f, g)),
                                 (f - g, reference_add(f, -g)),
                                 (f * g, reference_mul(f, g)),
                                 (f * f, reference_mul(f, f))):
            assert result == expected
            _assert_canonical(result)


def test_a_non_divisor_is_refused_whatever_it_lacks():
    ring = _ring(1, DEGREVLEX, LEX)
    x0, x1 = ring.monomial([("x", (0,), 1)]), ring.monomial([("x", (1,), 1)])
    x0_squared = ring.monomial([("x", (0,), 2)])
    for m, n in ((x0, x0_squared), (x0, x1), (ring.monomial([]), x0), (x0 * x1, x0_squared)):
        with pytest.raises(ExactDivisionError):
            m / n
    assert (x0_squared * x1) / (x0 * x1) == x0


OPERATIONS = {
    "f + 1": lambda f, m: f + 1,
    "f - 1": lambda f, m: f - 1,
    "f * 2": lambda f, m: f * 2,
    "f * 1/2": lambda f, m: f * Fraction(1, 2),
    "f * m": lambda f, m: f * m,
    "f + m": lambda f, m: f + m,
    "m * 2": lambda f, m: m * 2,
    "m * f": lambda f, m: m * f,
    "m / 2": lambda f, m: m / 2,
    "m / f": lambda f, m: m / f,
}


@pytest.mark.parametrize("operation", OPERATIONS)
def test_an_operand_of_another_type_is_a_type_error(operation):
    ring = _ring(1, DEGREVLEX, LEX)
    f = ring.var("x", (1,)) + ring.var("x", (0,))
    m = ring.monomial([("x", (0,), 1)])
    with pytest.raises(TypeError):
        OPERATIONS[operation](f, m)
