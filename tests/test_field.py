import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from sympy import QQ, ZZ
from sympy.polys.fields import field as sympy_field
from sympy.polys.rings import ring as sympy_ring

from dgb import ConstantField, DifferenceRing, Signature
from dgb import field as field_module
from dgb.cli import parse_polynomial
from dgb.field import RationalFunction

from helpers import dense_evaluate, is_exact_coefficient, num_den


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


def test_unknown_parameter_is_a_key_error():
    # a missing name is a failed lookup, as in DifferenceRing.symbol_index,
    # not a syntax error: the parser turns it into one at the token
    for F in (ConstantField(("H",)), ConstantField()):
        with pytest.raises(KeyError) as err:
            F.parameter("K")
        assert err.value.args == ("unknown parameter 'K'",)


def test_random_inverse_roundtrip():
    rng = random.Random(7)
    F = ConstantField(("H", "K"))
    H, K = F.parameter("H"), F.parameter("K")
    for _ in range(50):
        c = F.rational(rng.randint(-5, 5))
        val = c + H * F.rational(rng.randint(-3, 3)) + K * K * F.rational(rng.randint(0, 2))
        if not val:
            continue
        assert val * F.quotient(F.one, val) == F.one


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


# --- RationalFunction against sympy's fraction fields ----------------------
#
# Q(params) is implemented in dgb.field as fractions over the integer
# parameter polynomials.  The references below are sympy's fraction field
# of the same parameters, built over ZZ (the construction dgb used before)
# and over QQ; all must give the same cancelled numerator and denominator,
# term for term, and the same printed text.


def _reference_field(parameters, domain=QQ):
    built = sympy_field(list(parameters), domain)
    return built[0], dict(zip(parameters, built[1:]))


def _reference_rational(ref, num, den=1):
    q = Fraction(num, den)
    return ref(q.numerator) / ref(q.denominator)


def _terms(poly):
    return sorted((m, Fraction(int(c.numerator), int(c.denominator)))
                  for m, c in poly.terms())


def _own_terms(poly):
    return sorted((m, Fraction(c)) for m, c in poly.items())


def _reference_format(F, ref_value):
    """The rendering of a sympy value as ConstantField.format gave it when
    the field was sympy's: rational numerator terms, a constant denominator
    folded into them, else ``(num)/(den)``."""
    numer = sorted(_terms(ref_value.numer), reverse=True)
    denom = sorted(_terms(ref_value.denom), reverse=True)
    negative = bool(numer) and numer[0][1] < 0
    if negative:
        numer = [(m, -q) for m, q in numer]
    if len(denom) == 1 and not any(denom[0][0]):
        q = denom[0][1]
        if q < 0:
            q, negative = -q, not negative
        body, atomic = F._poly_body([(m, c / q) for m, c in numer])
        return negative, body, atomic
    num_body, num_atomic = F._poly_body(numer)
    den_body, den_atomic = F._poly_body(denom)
    if not num_atomic:
        num_body = f"({num_body})"
    if not den_atomic or "*" in den_body:
        den_body = f"({den_body})"
    return negative, f"{num_body}/{den_body}", False


def _assert_same_value(F, value, ref_value):
    assert is_exact_coefficient(value)
    num, den = num_den(F, value)
    assert _own_terms(num) == _terms(ref_value.numer)
    assert _own_terms(den) == _terms(ref_value.denom)
    text = F.format(value)
    assert (text.negative, text.body, text.atomic) == _reference_format(F, ref_value)
    assert bool(value) == bool(ref_value)


def _random_pair(rng, F, ref, ref_gens, big=False):
    """A random parameter polynomial in both fields, often non-constant;
    with ``big``, some numerators lie beyond 2^64."""
    value, ref_value = F.zero, ref.zero
    for _ in range(rng.randint(1, 3)):
        n, d = rng.randint(-4, 4), rng.choice((1, 1, 2, 3))
        if big and rng.random() < 0.25:
            n = rng.choice((-1, 1)) * rng.randint(2**64, 2**80)
        c, ref_c = F.rational(n, d), _reference_rational(ref, n, d)
        for name in F.parameters:
            e = rng.randint(0, 2)
            c, ref_c = c * F.parameter(name) ** e, ref_c * ref_gens[name] ** e
        value, ref_value = value + c, ref_value + ref_c
    return value, ref_value


def _random_chain_values(rng, F, ref, ref_gens, steps, ops="+-*/=", big=False):
    value, ref_value = _random_pair(rng, F, ref, ref_gens, big)
    out = [(value, ref_value)]
    for _ in range(steps):
        op = rng.choice(ops)
        if op == "=":  # an operation whose result cancels to zero
            value, ref_value = value - value, ref_value - ref_value
        elif op == "^":
            e = rng.randint(0 if value else 1, 3)  # sympy rejects 0**0
            value, ref_value = value ** e, ref_value ** e
        elif op == "n":
            value, ref_value = -value, -ref_value
        else:
            other, ref_other = _random_pair(rng, F, ref, ref_gens, big)
            if op == "+":
                value, ref_value = value + other, ref_value + ref_other
            elif op == "-":
                value, ref_value = value - other, ref_value - ref_other
            elif op == "*":
                value, ref_value = value * other, ref_value * ref_other
            elif other:
                value, ref_value = F.quotient(value, other), ref_value / ref_other
        out.append((value, ref_value))
    return out


def _assert_equality_and_hash_agree(values):
    for a, ref_a in values:
        for b, ref_b in values:
            assert (a == b) == (ref_a == ref_b)
            if a == b:
                assert hash(a) == hash(b)


def test_arithmetic_matches_rational_reference():
    rng = random.Random(20)
    for parameters in (("H",), ("H", "K")):
        F = ConstantField(parameters)
        ref, ref_gens = _reference_field(parameters)
        values = []
        for _ in range(60):
            values.extend(_random_chain_values(rng, F, ref, ref_gens, steps=6))
        assert any(not v for v, _ in values), "no chain cancelled to zero"
        assert any(len(num_den(F, v)[1]) > 1 for v, _ in values), \
            "no non-constant denominator"
        for value, ref_value in values:
            _assert_same_value(F, value, ref_value)
        _assert_equality_and_hash_agree(values[::7])


def test_rational_matches_rational_reference():
    for parameters in (("H",), ("H", "K")):
        F = ConstantField(parameters)
        ref, _ = _reference_field(parameters)
        for num, den in ((4, -6), (-4, -6), (6, 4), (0, 5), (0, -7), (-3, 1), (12, 1)):
            value = F.rational(num, den)
            _assert_same_value(F, value, _reference_rational(ref, num, den))
            # the same value reached by arithmetic is equal, hash included
            reached = F.quotient(F.one * num, F.rational(den))
            assert value == reached and hash(value) == hash(reached)
        num, den = num_den(F, F.rational(4, -6))
        assert list(num.values()) == [-2]
        assert list(den.values()) == [3]
        assert F.rational(0, -7) == F.zero and not F.rational(0, -7)


@pytest.mark.parametrize("parameters", [("H",), ("H", "K"), ("H", "K", "L")])
def test_arithmetic_matches_integer_polynomial_reference(parameters):
    rng = random.Random(f"zz:{','.join(parameters)}")
    F = ConstantField(parameters)
    ref, ref_gens = _reference_field(parameters, ZZ)
    values = []
    for _ in range(40):
        values.extend(_random_chain_values(rng, F, ref, ref_gens, steps=5,
                                           ops="+-*/=^n", big=True))
    assert any(not v for v, _ in values), "no chain cancelled to zero"
    assert any(len(num_den(F, v)[1]) > 1 for v, _ in values), "no non-constant denominator"
    assert any(abs(c) >= 2**64 for v, _ in values for c in num_den(F, v)[0].values()), \
        "no coefficient beyond 2^64"
    for value, ref_value in values:
        _assert_same_value(F, value, ref_value)
    _assert_equality_and_hash_agree(values[::5])


def test_arithmetic_without_the_heuristic_gcd(monkeypatch):
    # every polynomial gcd falls back to the primitive remainder sequence
    monkeypatch.setattr(field_module, "_heugcd", lambda f, g, v: None)
    rng = random.Random(31)
    for parameters in (("H",), ("H", "K")):
        F = ConstantField(parameters)
        ref, ref_gens = _reference_field(parameters, ZZ)
        for _ in range(25):
            chain = _random_chain_values(rng, F, ref, ref_gens, steps=4, ops="+-*/")
            for value, ref_value in chain:
                _assert_same_value(F, value, ref_value)


def test_ground_values_equal_their_rationals():
    F = ConstantField(("H",))
    for value, plain in ((F.rational(3, -4), Fraction(-3, 4)), (F.one, 1), (F.zero, 0)):
        assert value == plain and hash(value) == hash(plain)
    assert F.parameter("H") != 1 and F.one != F.parameter("H") / F.parameter("H") * 2


def test_division_by_zero_raises():
    F = ConstantField(("H", "K"))
    H = F.parameter("H")
    value = (H + F.one) / (H - F.rational(2))
    for divisor in (F.zero, value - value, F.rational(0, 5)):
        with pytest.raises(ZeroDivisionError):
            value / divisor
        with pytest.raises(ZeroDivisionError):
            F.quotient(value, divisor)
        with pytest.raises(ZeroDivisionError):
            F.quotient(F.zero, divisor)
    with pytest.raises(ZeroDivisionError):
        value / 0
    with pytest.raises(ZeroDivisionError):
        F.zero ** -1


def _random_integer_polynomial(rng, nvars):
    out = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 3) for _ in range(nvars))
        c = rng.randint(-9, 9)
        if rng.random() < 0.2:
            c = rng.choice((-1, 1)) * rng.randint(2**64, 2**80)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c} or {(0,) * nvars: 1}


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_gcd_finds_a_planted_common_factor(nvars):
    rng = random.Random(nvars)
    ring = sympy_ring(",".join("HKL"[:nvars]), ZZ)[0]
    mul = field_module._mul
    heuristic = 0
    for _ in range(60):
        p, q, r = (_random_integer_polynomial(rng, nvars) for _ in range(3))
        f, g = mul(p, r), mul(q, r)
        expected = ring(f).gcd(ring(g))
        h, f_h, g_h = field_module._gcd(f, g)
        assert ring(h) in (expected, -expected)
        assert mul(h, f_h) == f and mul(h, g_h) == g
        assert ring(field_module._prs_gcd(f, g, 0)) in (expected, -expected)
        found = field_module._heugcd(f, g, 0)
        if found is not None:
            heuristic += 1
            assert ring(found[0]) in (expected, -expected)
            assert mul(found[0], found[1]) == f and mul(found[0], found[2]) == g
    assert heuristic > 50


def _dense_integer_polynomial(rng, terms, degree):
    out = {}
    while len(out) < terms:
        out[(rng.randint(0, degree), rng.randint(0, degree))] = rng.choice((-1, 1)) * rng.randint(1, 99)
    return out


def test_exact_division_of_long_products():
    # _divide walks the remainder by its leading exponent; products of two
    # 30-plus-term polynomials in ZZ[H, K] give remainders of hundreds of terms
    rng = random.Random(30)
    divide, mul = field_module._divide, field_module._mul
    for terms in (30, 45):
        f = _dense_integer_polynomial(rng, terms, 12)
        g = _dense_integer_polynomial(rng, terms, 12)
        product = mul(f, g)
        assert len(product) > 200
        assert divide(product, f) == g and divide(product, g) == f
        assert divide(product, {(0, 0): 1}) == product
        # not a divisor: a term too many, a coefficient off by one, a
        # leading exponent out of reach
        assert divide(field_module._combine(product, 1, {(0, 0): 1}, 1), f) is None
        off = dict(g)
        off[max(off)] += 100
        assert divide(product, off) is None
        assert divide(f, {(13, 13): 1}) is None


# (name, value from the generator H and a constant builder q)
_UNIT_CASES = [
    ("2H+2", lambda H, q: 2 * H + 2),
    ("1/2", lambda H, q: q(1, 2)),
    ("-2", lambda H, q: q(-2, 1)),
    ("3H", lambda H, q: 3 * H),
    ("(H+1)/2", lambda H, q: (H + 1) / 2),
    ("(4H+2)/3", lambda H, q: (4 * H + 2) / 3),
    ("3/4", lambda H, q: q(3, 4)),
]


@pytest.mark.parametrize("parameters", [("H",), ("H", "K")])
def test_unit_denominator_products_match_the_reference(parameters, monkeypatch):
    """A product with a unit denominator on either side skips that side's
    content gcd: (2H+2)*(1/2) still cancels to H + 1, and products and
    quotients where both or neither denominator is 1 agree with sympy."""
    F = ConstantField(parameters)
    ref, ref_gens = _reference_field(parameters)
    ours = {name: build(F.parameter("H"), F.rational) for name, build in _UNIT_CASES}
    theirs = {name: build(ref_gens["H"], lambda n, d: _reference_rational(ref, n, d))
              for name, build in _UNIT_CASES}
    half = ours["2H+2"] * ours["1/2"]
    assert half == F.parameter("H") + F.one and list(num_den(F, half)[1].values()) == [1]
    contents = []
    content = field_module._content
    monkeypatch.setattr(field_module, "_content", lambda f: contents.append(f) or content(f))
    for a, b in product(ours, repeat=2):
        contents.clear()
        _assert_same_value(F, ours[a] * ours[b], theirs[a] * theirs[b])
        # no content is taken against a unit denominator: the numerator of
        # each RationalFunction side meets the other side's denominator
        # unless that is 1, and a plain number is its own content
        unit_a, unit_b = (list(num_den(F, ours[x])[1].values()) == [1] for x in (a, b))
        function_a, function_b = (isinstance(ours[x], RationalFunction) for x in (a, b))
        expected = (function_a and not unit_b) + (function_b and not unit_a)
        assert len(contents) == expected, (a, b)
        _assert_same_value(F, F.quotient(ours[a], ours[b]), theirs[a] / theirs[b])


def test_evaluate_matches_the_dense_reference():
    # the running power over the distinct exponents gives the dense
    # evaluation's values, in the same monomial order
    rng = random.Random(41)
    for _ in range(600):
        nvars = rng.randint(1, 3)
        f = _random_integer_polynomial(rng, nvars)
        if rng.random() < 0.3:  # a sparse high power
            f[tuple(rng.choice((0, rng.randint(20, 200))) for _ in range(nvars))] = rng.randint(1, 9)
        v = rng.randrange(nvars)
        x = rng.choice((0, 1, -1, rng.randint(2, 10**6)))
        got, expected = field_module._evaluate(f, v, x), dense_evaluate(f, v, x)
        assert got == expected and list(got) == list(expected)


def test_evaluating_a_sparse_high_power_keeps_memory_small():
    # the gcd of H^N and H*K + 1 evaluates H^N at a large point; a list of
    # every power up to N took 132.9 MB at N = 20,000 and ran out of memory
    # under 1 GB at N = 100,000, where one running power needs well under 1 MB
    ring = DifferenceRing(Signature(1, ("x",), ("H", "K")))
    tracemalloc.start()
    try:
        p = parse_polynomial(ring, "(1/H^20000 + 1/(H*K+1))*x(0)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p.terms) == 1
    assert peak < 8_000_000
