"""Exact constant coefficient fields.

Coefficients live either in Q (no declared parameters) or in the rational
function field Q(p1,...,pk) over the declared transcendental parameters.
In both a constant is a plain Python number: an ``int`` when it is
integral, otherwise a reduced ``fractions.Fraction``.  A value that
involves a parameter is a ``RationalFunction``: a pair ``num/den`` of
integer polynomials in ZZ[p1,...,pk], each a dict from exponent tuples
(parameters in declared order) to nonzero ints, kept in one canonical
form: ``num`` and ``den`` have no common factor in ZZ[p1,...,pk], integer
content included, the leading coefficient of ``den`` (lex on exponent
tuples) is positive, and at least one of them involves a parameter.  A
``RationalFunction`` is therefore never a constant and never zero: any
sum, product, quotient or power whose canonical result is constant comes
back as the plain number (``_value``).  Equal values have equal
representations, which is what equality, hashing and printing read; a
``Fraction(n, 1)`` that Fraction arithmetic returns equals ``n`` and
hashes as ``n``, so it is the same value as the ``int``.

``int / int`` is a float, so no code divides two coefficients with ``/``:
every coefficient quotient goes through ``ConstantField.quotient``.

When both denominators are constant arithmetic cancels with integer gcds
only, and a plain-number operand takes a direct path of integer gcds.
Otherwise products and sums cancel Henrici's way, through gcds of the
smaller pieces.  A polynomial gcd comes from the heuristic GCDHEU (Char,
Geddes & Gonnet, JSC 1989), whose candidate is accepted only when it
divides both inputs exactly, with the primitive polynomial remainder
sequence (Brown, JACM 1971) as the fallback when the heuristic gives up.
Plain numbers and ``RationalFunction``s mix under ``+ - * **``, equality
and truthiness, so polynomial code treats them uniformly.  Printing folds
a constant denominator into rational coefficients of the numerator, so
``(H^2 - 1)/2`` prints as ``1/2*H^2 - 1/2``.
"""

from __future__ import annotations

import sys
from bisect import insort
from fractions import Fraction
from math import gcd, isqrt, log2
from operator import add, sub

from .errors import CoefficientSizeError, CoefficientTypeError, RingMismatchError
from .records import Record


class CoeffText(Record, frozen=True):
    """Canonical rendering of one coefficient.

    ``negative`` carries the display sign, ``body`` the unsigned text and
    ``atomic`` whether the body may be glued to ``*monomial`` without
    parentheses (a single product term, no internal + or -).
    """

    negative: bool
    body: str
    atomic: bool


class ConstantField:
    """The field of constants for one ring signature.

    A constant is a plain number with or without parameters: an ``int``
    when it is integral, otherwise a reduced ``Fraction`` (``rational``,
    ``coerce``, ``zero`` and ``one`` return these).  With
    parameters a value that involves one is a ``RationalFunction``
    ``num/den`` over ZZ[p1,...,pk] in the canonical form of the module
    docstring, which never holds a constant.  Coefficients divide through
    ``quotient`` only, as ``int / int`` is a float; ``format`` renders
    every value with rational coefficients.
    """

    __slots__ = ("parameters", "zero", "one", "_gens", "_const")

    def __init__(self, parameters=()):
        self.parameters = tuple(parameters)
        k = len(self.parameters)
        self._const = (0,) * k
        self.zero = self.rational(0)
        self.one = self.rational(1)
        self._gens = {name: RationalFunction(
            self, {tuple(int(i == j) for j in range(k)): 1}, {self._const: 1})
            for i, name in enumerate(self.parameters)}

    def __eq__(self, other):
        return isinstance(other, ConstantField) and self.parameters == other.parameters

    def __hash__(self):
        return hash(self.parameters)

    def __repr__(self):
        if self.parameters:
            return f"ConstantField(Q({', '.join(self.parameters)}))"
        return "ConstantField(Q)"

    def rational(self, num, den=1):
        """num/den as a plain number: an int when integral, else a Fraction."""
        value = Fraction(num, den)
        return value.numerator if value.denominator == 1 else value

    def coerce(self, value):
        """value as an element of this field: an int, a Fraction (an int
        when integral) or a RationalFunction of this field.  A value of
        another field raises RingMismatchError; anything else, a float, a
        Decimal or a string among them, raises CoefficientTypeError."""
        if value.__class__ is int:
            return value
        if value.__class__ is RationalFunction:
            if value.field is not self and value.field != self:
                raise RingMismatchError(f"a coefficient of {value.field!r} used in {self!r}")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        raise CoefficientTypeError(
            f"coefficient {value!r} of type {type(value).__name__} is not exact: "
            f"use an int, a Fraction or a value of {self!r}")

    def quotient(self, a, b):
        """a / b for field elements a and b, b nonzero: the one division of
        coefficients.  Plain numbers give a plain number, an int when the
        quotient is integral."""
        if a.__class__ is RationalFunction or b.__class__ is RationalFunction:
            return a / b
        value = Fraction(a, b)
        return value.numerator if value.denominator == 1 else value

    def parameter(self, name):
        try:
            return self._gens[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def term_count(self, c):
        """The number of terms of the longer of the numerator and the
        denominator of c: 1 for a plain number."""
        if c.__class__ is RationalFunction:
            return max(len(c.num), len(c.den))
        return 1

    # --- size against the int-to-text limit --------------------------------

    def _parts(self, c):
        """The numerator and denominator of c as dicts to nonzero ints (one
        entry each for a plain number), the zero numerator empty."""
        if c.__class__ is RationalFunction:
            return c.num, c.den
        z = self._const
        return {z: c.numerator} if c else {}, {z: c.denominator}

    def digits_exceed(self, c, digits):
        """Whether an integer of c has more than digits decimal digits: its
        numerator or denominator, or a coefficient of either when c involves
        a parameter."""
        limit = 10 ** digits
        return any(abs(n) >= limit for part in self._parts(c) for n in part.values())

    def exponent_exceeds(self, c, limit):
        """Whether a parameter has an exponent of at least limit in c."""
        return c.__class__ is RationalFunction and any(
            max(k) >= limit for p in (c.num, c.den) for k in p)

    def power_digits_exceed(self, c, e, digits):
        """digits_exceed(c ** e, digits) for an int e >= 0, with no power
        computed where bit lengths settle it.

        A part p of c (numerator or denominator) has the part p^e in c**e:
        both are kept coprime, and a power of a canonical denominator stays
        canonical.  The lex-largest and lex-smallest terms of p^e are the
        e-th powers of those of p, so p^e has a coefficient of at least
        2^(e(b-1)), b the bit length of the larger of them; and no
        coefficient of p^e exceeds (sum of |coefficients of p|)^e.  Past the
        limit the power is computed only between those bounds, where it is
        at most about twice the limit long when p has one term."""
        if c == self.one:  # the coefficient of most powers, x(1)^2 among them
            return False
        bits = digits * log2(10)  # 2^bits = 10^digits
        low = high = 0
        for part in self._parts(c):
            if part:
                ends = max(abs(part[max(part)]), abs(part[min(part)]))
                low = max(low, e * (ends.bit_length() - 1))
                high = max(high, e * sum(map(abs, part.values())).bit_length())
        if low > bits + 1:
            return True
        if high < bits - 1:
            return False
        return self.digits_exceed(c ** e, digits)

    # --- printing ------------------------------------------------------

    def format(self, c) -> CoeffText:
        if c.__class__ is not RationalFunction:
            return CoeffText(c < 0, _fraction_body(abs(c)), True)
        numer_terms = [(m, Fraction(q)) for m, q in sorted(c.num.items(), reverse=True)]
        denom_terms = [(m, Fraction(q)) for m, q in sorted(c.den.items(), reverse=True)]
        negative = bool(numer_terms) and numer_terms[0][1] < 0
        if negative:
            numer_terms = [(m, -q) for m, q in numer_terms]
        if len(denom_terms) == 1 and not any(denom_terms[0][0]):
            # constant denominator: fold it into the rationals of the numerator
            q = denom_terms[0][1]
            if q != 1:
                numer_terms = [(m, c_ / q) for m, c_ in numer_terms]
            num_body, num_atomic = self._poly_body(numer_terms)
            return CoeffText(negative, num_body, num_atomic)
        num_body, num_atomic = self._poly_body(numer_terms)
        den_body, den_atomic = self._poly_body(denom_terms)
        if not num_atomic:
            num_body = f"({num_body})"
        if not den_atomic or "*" in den_body:
            den_body = f"({den_body})"
        return CoeffText(negative, f"{num_body}/{den_body}", False)

    def _poly_body(self, terms):
        """Render a parameter polynomial given (monomial, Fraction) terms."""
        pieces = []
        for mono, q in terms:
            factors = []
            for name, e in zip(self.parameters, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{_int_text(e, 'an exponent is an integer')}")
            if not factors or abs(q) != 1:
                factors.insert(0, _fraction_body(abs(q)))
            body = "*".join(factors)
            pieces.append(("-" if q < 0 else "+", body))
        if not pieces:
            return "0", True
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        atomic = len(pieces) == 1 and sign0 == "+"
        return out, atomic


def _int_text(n, what="a coefficient has an integer") -> str:
    """str(n), refused with a typed error past Python's limit on converting
    an int to text; what names n in the message."""
    try:
        return str(n)
    except ValueError:
        raise CoefficientSizeError(
            f"{what} of more than {sys.get_int_max_str_digits()} "
            f"digits, which Python does not convert to text") from None


def _fraction_body(q) -> str:
    """The text of a nonnegative int or Fraction."""
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


class RationalFunction:
    """An element ``num/den`` of Q(p1,...,pk) that involves a parameter, in
    the canonical form of the module docstring.

    Build values through a ``ConstantField`` (``parameter``) and
    arithmetic; the constructor takes a pair already in canonical form.
    An operand that is a plain number takes a direct path, and a result
    that is constant comes back as a plain number.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field, self.num, self.den = field, num, den

    def __add__(self, other, sign=1):
        z = self.field._const
        if other.__class__ is RationalFunction:
            c, d = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            if not other:
                return self
            c, d = {z: other.numerator}, {z: other.denominator}
        else:
            return NotImplemented
        a, b = self.num, self.den
        if len(b) == 1 and len(d) == 1 and z in b and z in d:
            b, d = b[z], d[z]
            g = gcd(b, d)
            num = _combine(a, d // g, c, sign * (b // g))
            den = b // g * d
            if g != 1 and num:
                g = gcd(_content(num), g)
                if g != 1:
                    num, den = _quo(num, g), den // g
            return _value(self.field, num, {z: den})
        g, b1, d1 = _gcd(b, d)
        num = _combine(_mul(a, d1), 1, _mul(c, b1), sign)
        if not num:
            return 0
        _, num, g = _gcd(num, g)
        return _value(self.field, num, _mul(_mul(g, b1), d1))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    __radd__ = __add__

    def _times(self, a, b, c, d):
        """(a/b)*(c/d) for nonzero coprime pairs; d's sign may be either."""
        z = self.field._const
        if len(b) == 1 and len(d) == 1 and z in b and z in d:
            # a and c both involve a parameter, and so does their product
            b, d = b[z], d[z]
            # gcd(x, 1) is 1: a unit denominator needs no content
            g = gcd(_content(a), d) if d != 1 else 1
            h = gcd(_content(c), b) if b != 1 else 1
            num = _mul(_quo(a, g) if g != 1 else a, _quo(c, h) if h != 1 else c)
            den = b // h * (d // g)
            if den < 0:
                num, den = _scale(num, -1), -den
            return RationalFunction(self.field, num, {z: den})
        _, a, d = _gcd(a, d)
        _, c, b = _gcd(c, b)
        return _value(self.field, _mul(a, c), _mul(b, d))

    def _scaled(self, p, q):
        """self * p/q for coprime ints p != 0 and q > 0: the common factors
        are gcd(p, content of den) and gcd(content of num, q)."""
        a, b = self.num, self.den
        g = gcd(p, *b.values())
        if g != 1:
            p, b = p // g, _quo(b, g)
        if q != 1:
            h = gcd(_content(a), q)
            if h != 1:
                q, a = q // h, _quo(a, h)
        return RationalFunction(self.field, _scale(a, p) if p != 1 else a,
                                _scale(b, q) if q != 1 else b)

    def __mul__(self, other):
        if other.__class__ is RationalFunction:
            return self._times(self.num, self.den, other.num, other.den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator) if other else 0
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is RationalFunction:
            return self._times(self.num, self.den, other.den, other.num)
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero in the constant field")
            p, q = other.numerator, other.denominator
            return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return 0
        inverse = _value(self.field, self.den, self.num)
        return inverse._scaled(other.numerator, other.denominator)

    def __pow__(self, n):
        if n < 0:
            return self.field.quotient(self.field.one, self) ** -n
        z = self.field._const
        return _value(self.field, _power(self.num, n, z), _power(self.den, n, z))

    def __neg__(self):
        return RationalFunction(self.field, _scale(self.num, -1), self.den)

    def __bool__(self):
        return True  # zero is the int 0

    def __eq__(self, other):
        if other.__class__ is RationalFunction:
            return self.num == other.num and self.den == other.den
        # a RationalFunction is never a constant
        return False if isinstance(other, (int, Fraction)) else NotImplemented

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __repr__(self):
        text = self.field.format(self)
        return f"RationalFunction({'-' if text.negative else ''}{text.body})"


def _value(field, num, den):
    """The element num/den of field for coprime num and den, num empty for
    zero: den's leading coefficient made positive, and a plain number when
    neither involves a parameter."""
    if not num:
        return 0
    z = field._const
    if len(den) == 1 and z in den:
        d = den[z]
        if len(num) == 1 and z in num:
            n = num[z]
            if d < 0:
                n, d = -n, -d
            return n if d == 1 else Fraction(n, d)
        if d < 0:
            num, den = _scale(num, -1), {z: -d}
    elif den[max(den)] < 0:
        num, den = _scale(num, -1), _scale(den, -1)
    return RationalFunction(field, num, den)


# --- sparse polynomials over ZZ: dicts from exponent tuples to nonzero ints ----


def _content(f):
    return gcd(*f.values())


def _scale(f, c):
    return {m: a * c for m, a in f.items()}


def _quo(f, c):
    """f divided by an integer that divides every coefficient."""
    return {m: a // c for m, a in f.items()}


def _combine(f, a, g, b):
    """a*f + b*g for integers a and b."""
    h = _scale(f, a) if a != 1 else dict(f)
    for m, c in g.items():
        c = h.get(m, 0) + b * c
        if c:
            h[m] = c
        else:
            del h[m]
    return h


def _mul(f, g):
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        (b, y), = g.items()
        if not any(b):
            return _scale(f, y) if y != 1 else f
    h = {}
    for a, x in f.items():
        for b, y in g.items():
            m = tuple(map(add, a, b))
            h[m] = h.get(m, 0) + x * y
    return {m: c for m, c in h.items() if c}


def _power(f, n, one):
    out = {one: 1}
    while n:
        if n & 1:
            out = _mul(out, f)
        n >>= 1
        if n:
            f = _mul(f, f)
    return out


def _divide(f, g):
    """f/g when g divides f in ZZ[params], else None.

    The remainder's exponents are kept in one ascending list, so the
    leading term comes off its end; an exponent whose term cancelled is
    skipped when it comes up."""
    lm = max(g)
    lc = g[lm]
    q, r = {}, dict(f)
    pending = sorted(r)
    while r:
        m = pending.pop()
        c = r.get(m)
        if c is None:
            continue
        e = tuple(map(sub, m, lm))
        if c % lc or any(x < 0 for x in e):
            return None
        t = q[e] = c // lc
        for b, y in g.items():
            mb = tuple(map(add, e, b))
            if mb not in r:
                insort(pending, mb)
            c = r.get(mb, 0) - t * y
            if c:
                r[mb] = c
            else:
                del r[mb]
    return q


def _gcd(f, g, v=0):
    """(h, f/h, g/h) for h a gcd of the nonzero f and g, which do not involve
    the parameters before v; an integer gcd when either is constant."""
    if len(f) == 1 or len(g) == 1:
        z = (0,) * len(next(iter(f)))
        if z in f and len(f) == 1 or z in g and len(g) == 1:
            h = gcd(_content(f), _content(g))
            return {z: h}, (_quo(f, h) if h != 1 else f), (_quo(g, h) if h != 1 else g)
    found = _heugcd(f, g, v)
    if found is None:
        h = _prs_gcd(f, g, v)
        found = h, _divide(f, h), _divide(g, h)
    return found


def _evaluate(f, v, x):
    """f with parameter v set to the integer x.  The distinct exponents of
    v are walked in ascending order with one running power of x, so memory
    follows the result, not the square of the degree; the result keeps the
    order in which f first meets each of its monomials."""
    h, by_exponent = {}, {}
    for e, c in f.items():
        m = e[:v] + (0,) + e[v + 1:]
        h[m] = 0
        by_exponent.setdefault(e[v], []).append((m, c))
    power, last = 1, 0
    for k in sorted(by_exponent):
        power *= x ** (k - last)
        last = k
        for m, c in by_exponent[k]:
            h[m] += c * power
    return {m: c for m, c in h.items() if c}


def _interpolate(h, v, x):
    """The polynomial with coefficients in the symmetric range mod x whose
    value at parameter v = x is h (the x-adic expansion of GCDHEU)."""
    f, i, half = {}, 0, x // 2
    while h:
        rest = {}
        for e, c in h.items():
            r = c % x
            if r > half:
                r -= x
            if r:
                f[e[:v] + (i,) + e[v + 1:]] = r
            if c != r:
                rest[e] = (c - r) // x
        h, i = rest, i + 1
    return f


def _heugcd(f, g, v):
    """GCDHEU: (h, f/h, g/h) for h = gcd(f, g), where the nonzero f and g
    do not involve the parameters before v; None if the heuristic gives up.

    Each evaluation point x gives the gcd of the images recursively; a
    candidate rebuilt from it (or from a cofactor image) counts only when
    it divides both inputs exactly.
    """
    c = gcd(_content(f), _content(g))
    f, g = _quo(f, c), _quo(g, c)
    if v == len(next(iter(f))):
        return {next(iter(f)): c}, f, g
    nf, ng = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(nf, ng) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(nf // abs(f[max(f)]), ng // abs(g[max(g)])) + 4)
    for _ in range(6):
        ff, gg = _evaluate(f, v, x), _evaluate(g, v, x)
        images = ff and gg and _heugcd(ff, gg, v + 1)
        if images:
            h = _interpolate(images[0], v, x)
            h = _quo(h, _content(h))
            cf, cg = _divide(f, h), _divide(g, h)
            if cf is not None and cg is not None:
                return _scale(h, c), cf, cg
            for first, second, image in ((f, g, images[1]), (g, f, images[2])):
                cofactor = _interpolate(image, v, x)
                h = _divide(first, cofactor)
                other = h and _divide(second, h)
                if other:
                    cf, cg = (cofactor, other) if first is f else (other, cofactor)
                    return _scale(h, c), cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _coefficient(f, v, k, s=0):
    """The coefficient of parameter v's k-th power in f, times its s-th power."""
    return {e[:v] + (s,) + e[v + 1:]: c for e, c in f.items() if e[v] == k}


def _content_in(f, v):
    """(content, primitive part) of f as a polynomial in parameter v."""
    degrees = {e[v] for e in f}
    content = _coefficient(f, v, degrees.pop())
    for k in degrees:
        content = _gcd(content, _coefficient(f, v, k), v + 1)[0]
    return content, _divide(f, content)


def _prs_gcd(f, g, v):
    """A gcd of the nonzero f and g, which do not involve the parameters
    before v, by the primitive remainder sequence in parameter v; the
    contents in the later parameters go through ``_gcd``."""
    z = next(iter(f))
    if v == len(z):
        return {z: gcd(f[z], g[z])}
    cf, f = _content_in(f, v)
    cg, g = _content_in(g, v)
    content = _gcd(cf, cg, v + 1)[0]
    if max(e[v] for e in f) < max(e[v] for e in g):
        f, g = g, f
    while g and (d := max(e[v] for e in g)):
        lead, r = _coefficient(g, v, d), f
        while r and (k := max(e[v] for e in r)) >= d:
            r = _combine(_mul(lead, r), 1, _mul(_coefficient(r, v, k, k - d), g), -1)
        f, g = g, (_content_in(r, v)[1] if r else r)
    return _mul(content, f) if not g else content
