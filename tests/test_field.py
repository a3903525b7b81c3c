import random
from fractions import Fraction

from sympy import QQ
from sympy.polys.fields import field as sympy_field

from dgb import ConstantField


def test_plain_rationals():
    F = ConstantField()
    assert F.one == Fraction(1)
    assert not F.zero
    assert F.rational(2, 6) == Fraction(1, 3)
    a = F.rational(-3, 4)
    assert a + F.one == Fraction(1, 4)


def test_parameter_field_inverses():
    F = ConstantField(("H",))
    H = F.parameter("H")
    a = (H * H + F.one) / (H + F.one)
    b = (H + F.one) / (H * H + F.one)
    assert a * b == F.one
    assert a - a == F.zero
    assert not (a - a)


def test_random_inverse_roundtrip():
    rng = random.Random(7)
    F = ConstantField(("H", "K"))
    H, K = F.parameter("H"), F.parameter("K")
    for _ in range(50):
        c = F.rational(rng.randint(-5, 5))
        val = c + H * F.rational(rng.randint(-3, 3)) + K * K * F.rational(rng.randint(0, 2))
        if not val:
            continue
        assert val * (F.one / val) == F.one


def test_canonical_idempotence():
    F = ConstantField(("H",))
    H = F.parameter("H")
    v = (H * H - F.one) / (F.rational(2) * H + F.rational(2))
    w = (H - F.one) / F.rational(2)
    assert v == w  # cancellation to canonical form


def test_format_plain():
    F = ConstantField()
    t = F.format(Fraction(-3, 4))
    assert (t.negative, t.body, t.atomic) == (True, "3/4", True)
    t = F.format(Fraction(5))
    assert (t.negative, t.body) == (False, "5")


def test_format_parameters():
    F = ConstantField(("H",))
    H = F.parameter("H")
    t = F.format(F.rational(-2) * H)
    assert t.negative and t.body == "2*H" and t.atomic
    t = F.format(H + F.one)
    assert not t.negative and t.body == "H + 1" and not t.atomic
    t = F.format((H + F.one) / (F.rational(2) * H))
    assert t.body == "(H + 1)/(2*H)" and not t.atomic
    t = F.format((H * H - F.one) / F.rational(2))
    assert t.body == "1/2*H^2 - 1/2"


# --- the ZZ[params] construction against the Q[params] one ----------------
#
# The field is built as fractions over integer parameter polynomials.  The
# reference below is the same field built over QQ, with rationals entered
# through ground_new; both must give the same cancelled numerator and
# denominator, term for term.


def _reference_field(parameters):
    built = sympy_field(list(parameters), QQ)
    return built[0], dict(zip(parameters, built[1:]))


def _reference_rational(ref, num, den=1):
    q = Fraction(num, den)
    return ref.ground_new(QQ(q.numerator, q.denominator))


def _terms(poly):
    return sorted((m, Fraction(int(c.numerator), int(c.denominator)))
                  for m, c in poly.terms())


def _assert_same_value(F, value, ref_value):
    assert _terms(value.numer) == _terms(ref_value.numer)
    assert _terms(value.denom) == _terms(ref_value.denom)
    assert F.format(value) == F.format(ref_value)
    assert bool(value) == bool(ref_value)


def _random_pair(rng, F, ref, ref_gens):
    """A random parameter polynomial in both fields, often non-constant."""
    value, ref_value = F.zero, ref.zero
    for _ in range(rng.randint(1, 3)):
        n, d = rng.randint(-4, 4), rng.choice((1, 1, 2, 3))
        c, ref_c = F.rational(n, d), _reference_rational(ref, n, d)
        for name in F.parameters:
            e = rng.randint(0, 2)
            c, ref_c = c * F.parameter(name) ** e, ref_c * ref_gens[name] ** e
        value, ref_value = value + c, ref_value + ref_c
    return value, ref_value


def _random_chain_values(rng, F, ref, ref_gens, steps):
    value, ref_value = _random_pair(rng, F, ref, ref_gens)
    out = [(value, ref_value)]
    for _ in range(steps):
        op = rng.choice("+-*/=")
        if op == "=":  # an operation whose result cancels to zero
            value, ref_value = value - value, ref_value - ref_value
        else:
            other, ref_other = _random_pair(rng, F, ref, ref_gens)
            if op == "+":
                value, ref_value = value + other, ref_value + ref_other
            elif op == "-":
                value, ref_value = value - other, ref_value - ref_other
            elif op == "*":
                value, ref_value = value * other, ref_value * ref_other
            elif other:
                value, ref_value = value / other, ref_value / ref_other
        out.append((value, ref_value))
    return out


def test_arithmetic_matches_rational_reference():
    rng = random.Random(20)
    for parameters in (("H",), ("H", "K")):
        F = ConstantField(parameters)
        ref, ref_gens = _reference_field(parameters)
        values = []
        for _ in range(60):
            values.extend(_random_chain_values(rng, F, ref, ref_gens, steps=6))
        assert any(not v for v, _ in values), "no chain cancelled to zero"
        assert any(len(v.denom.terms()) > 1 for v, _ in values), \
            "no non-constant denominator"
        for value, ref_value in values:
            _assert_same_value(F, value, ref_value)
        sample = values[::7]
        for a, ref_a in sample:
            for b, ref_b in sample:
                assert (a == b) == (ref_a == ref_b)
                if a == b:
                    assert hash(a) == hash(b)


def test_rational_matches_rational_reference():
    for parameters in (("H",), ("H", "K")):
        F = ConstantField(parameters)
        ref, _ = _reference_field(parameters)
        for num, den in ((4, -6), (-4, -6), (6, 4), (0, 5), (0, -7), (-3, 1), (12, 1)):
            value = F.rational(num, den)
            _assert_same_value(F, value, _reference_rational(ref, num, den))
            # the same value reached by arithmetic is equal, hash included
            reached = F.one * num / F.rational(den)
            assert value == reached and hash(value) == hash(reached)
        assert F.rational(4, -6).numer.coeffs() == [-2]
        assert F.rational(4, -6).denom.coeffs() == [3]
        assert F.rational(0, -7) == F.zero and not F.rational(0, -7)
