import random
from fractions import Fraction

import pytest

from dgb import (ExactDivisionError, LinearRelation, Monomial, NEG_INF, Ordering,
                 OrderingSpec, PermutationAction, QuotientPresentation, RankMismatchError,
                 ReducerBasis, RingMismatchError, Signature, format_polynomial, spoly)
from dgb.orderings import DEGLEX, DEGREVLEX, LEX

from helpers import (is_order_homogeneous, make_ring, monomial_gcd, random_monomial,
                     random_polynomial)


@pytest.fixture
def R1():
    return make_ring(1, ("x",))


@pytest.fixture
def R3():
    return make_ring(3, ("x", "y"), spec=OrderingSpec(DEGREVLEX, None, LEX, None))


def x(ring, k, e=1):
    return ring.var("x", (k,) if isinstance(k, int) else k, e)


def test_shift_monomial(R3):
    m = R3.monomial([("x", (0, 0, 0), 1)])
    assert m.shift((1, 0, 0)) == R3.monomial([("x", (1, 0, 0), 1)])
    assert m.shift((0, 0, 0)) == m


def test_shift_monomial_rank_mismatch(R3):
    m = R3.monomial([("x", (1, 0, 0), 1), ("y", (0, 2, 0), 2)])
    for wrong in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(RankMismatchError):
            m.shift(wrong)


def test_shift_monomial_relabels_exponents(R1):
    m = R1.monomial([("x", (1,), 1), ("x", (0,), 3)])
    assert m.shift((2,)) == R1.monomial([("x", (3,), 1), ("x", (2,), 3)])


def test_shift_polynomial(R1):
    f = x(R1, 1) - x(R1, 0)
    assert f.shift((1,)) == x(R1, 2) - x(R1, 1)
    assert R1.zero.shift((3,)) == R1.zero
    assert f.shift((0,)) == f


def test_order_function(R3):
    m = R3.monomial([("y", (1, 1, 0), 2), ("x", (1, 0, 1), 1),
                     ("x", (1, 0, 0), 3), ("y", (0, 0, 0), 4)])
    assert m.order == 2
    assert Monomial.ONE.order == NEG_INF
    assert m.shift((1, 0, 0)).order == 3


def test_order_polynomial(R3):
    f = R3.var("x", (2, 0, 0)) + R3.var("x", (1, 1, 0)) * R3.var("x", (0, 0, 0))
    assert f.order == 2 and is_order_homogeneous(f)
    g = R3.var("x", (1, 0, 0)) + R3.var("x", (0, 0, 0))
    assert not is_order_homogeneous(g)
    assert R3.zero.order == NEG_INF and is_order_homogeneous(R3.zero)


def test_monomial_lcm_gcd(R1):
    a = R1.monomial([("x", (1,), 2)])
    b = R1.monomial([("x", (1,), 1), ("x", (0,), 1)])
    assert a.lcm(b) == R1.monomial([("x", (1,), 2), ("x", (0,), 1)])
    ring2 = make_ring(2, ("x", "y"))
    assert monomial_gcd(ring2.monomial([("x", (1, 0), 1)]),
                        ring2.monomial([("y", (1, 0), 1)])) == Monomial.ONE


def test_spoly_example(R1):
    f = x(R1, 1, 2) - x(R1, 0)
    g = x(R1, 1) * x(R1, 0) - x(R1, 0)
    assert spoly(f, g) == x(R1, 1) * x(R1, 0) - x(R1, 0, 2)
    assert spoly(f, f) == R1.zero
    with pytest.raises(ValueError):
        spoly(R1.zero, f)


def test_spoly_equivariance_spot(R1):
    f = x(R1, 1, 2) - x(R1, 0)
    g = x(R1, 1) * x(R1, 0) - x(R1, 0)
    s = (2,)
    assert spoly(f, g).shift(s) == spoly(f.shift(s), g.shift(s))


def test_arithmetic_basics(R1):
    f = x(R1, 0) + R1.one
    g = x(R1, 0) - R1.one
    assert f * g == x(R1, 0, 2) - R1.one
    assert f + (-f) == R1.zero
    assert (x(R1, 1, 1).scale(Fraction(2)) + x(R1, 0).scale(Fraction(4))).monic() \
        == x(R1, 1) + x(R1, 0).scale(Fraction(2))


def test_ring_mixing_is_an_error(R1, R3):
    with pytest.raises(RingMismatchError):
        R1.var("x", (0,)) + R3.var("x", (0, 0, 0))


def test_monomial_packed_by_another_ordering_is_refused():
    deglex = make_ring(1, ("x",), spec=OrderingSpec(DEGLEX))
    degrevlex = make_ring(1, ("x",), spec=OrderingSpec(DEGREVLEX))
    m = deglex.monomial([("x", (2,), 1)])
    assert deglex.polynomial([(1, m)]).lm is m
    with pytest.raises(RingMismatchError, match="packed by another ordering"):
        degrevlex.polynomial([(1, m)])


def test_equal_rings_may_mix():
    a = make_ring(1, ("x",))
    b = make_ring(1, ("x",))
    assert a == b
    assert a.var("x", (0,)) + b.var("x", (1,)) == b.var("x", (0,)) + a.var("x", (1,))


@pytest.mark.parametrize("seed", range(5))
def test_ring_axioms_random(seed):
    rng = random.Random(seed)
    ring = make_ring(2, ("x", "y"))
    f = random_polynomial(rng, ring)
    g = random_polynomial(rng, ring)
    h = random_polynomial(rng, ring)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ring.zero
    assert f * ring.one == f
    assert f * ring.zero == ring.zero


@pytest.mark.parametrize("seed", range(5))
def test_spoly_shift_equivariance_random(seed):
    rng = random.Random(50 + seed)
    ring = make_ring(2, ("x", "y"))
    for _ in range(40):
        f = random_polynomial(rng, ring)
        g = random_polynomial(rng, ring)
        if not f or not g:
            continue
        s = tuple(rng.randint(0, 2) for _ in range(2))
        assert spoly(f, g).shift(s) == spoly(f.shift(s), g.shift(s))


@pytest.mark.parametrize("seed", range(5))
def test_order_homomorphism_random(seed):
    rng = random.Random(99 + seed)
    ring = make_ring(2, ("x", "y"))
    for _ in range(100):
        m = random_monomial(rng, ring)
        n = random_monomial(rng, ring)
        assert (m * n).order == max(m.order, n.order)
        assert m.lcm(n).order == max(m.order, n.order)
        s = tuple(rng.randint(0, 3) for _ in range(2))
        assert m.shift(s).order == sum(s) + m.order


def test_leading_data_and_monic(R3):
    f = R3.var("x", (1, 0, 0)).scale(Fraction(-2)) + R3.var("y", (0, 0, 0))
    assert f.lm == R3.monomial([("x", (1, 0, 0), 1)])
    assert f.lc == Fraction(-2)
    assert f.monic().lc == Fraction(1)
    assert format_polynomial(f) == "-2*x(1,0,0) + y(0,0,0)"


def test_parameter_coefficients_stay_fixed_under_shift():
    ring = make_ring(1, ("x",), parameters=("H",))
    H = ring.constant(ring.field.parameter("H"))
    f = ring.var("x", (0,)) * H + ring.one
    g = f.shift((2,))
    assert g == ring.var("x", (2,)) * H + ring.one


_RANK2 = make_ring(2, ("x",))
_X0 = _RANK2.monomial([("x", (0, 0), 1)])
_X0_SQUARED = _RANK2.monomial([("x", (0, 0), 2)])


@pytest.mark.parametrize("build,error,message", [
    (lambda: OrderingSpec(shift_order="grlex"), ValueError, "unknown shift order 'grlex'"),
    (lambda: OrderingSpec(symbol_order="grlex"), ValueError, "unknown symbol order 'grlex'"),
    (lambda: Ordering(2, 1, OrderingSpec(shift_priority=(0, 0))), ValueError,
     "shift priority (0, 0) is not a permutation of 0..1"),
    (lambda: _RANK2.ordering.check_shift((1, -1)), ValueError, "negative entry in shift (1, -1)"),
    (lambda: LinearRelation(0, 0, ()), ValueError,
     "a relation needs at least the top coefficient"),
    (lambda: QuotientPresentation(_RANK2, [LinearRelation(0, 2, (1,))]), ValueError,
     "relation indices (0, 2) out of range"),
    (lambda: PermutationAction("(1 2)", _RANK2), ValueError,
     "a permutation acts on a ring of shift rank 1"),
    (lambda: Signature(1, ()), ValueError, "at least one symbol is required"),
    (lambda: Signature(1, ("x", "2y")), ValueError, "invalid identifier '2y'"),
    (lambda: _RANK2.monomial([(1, (0, 0), 1)]), ValueError, "symbol index 1 out of range"),
    (lambda: _RANK2.monomial([("x", (0, 0), -1)]), ValueError, "negative exponent"),
    (lambda: _X0 / _X0_SQUARED, ExactDivisionError,
     "Monomial(x0(0, 0)^2) does not divide Monomial(x0(0, 0))"),
    (lambda: _RANK2.zero.lm, ValueError, "zero polynomial has no leading monomial"),
    (lambda: _RANK2.zero.lc, ValueError, "zero polynomial has no leading coefficient"),
    (lambda: _RANK2.zero.monic(), ZeroDivisionError, "cannot normalize the zero polynomial"),
    (lambda: ReducerBasis([_RANK2.zero]), ValueError, "reducer basis elements must be nonzero"),
    (lambda: ReducerBasis([_RANK2.one, make_ring(1, ("x",)).one]), RingMismatchError,
     "basis mixes different rings"),
])
def test_invalid_input_raises(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
