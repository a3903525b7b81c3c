"""Exact constant coefficient fields.

Coefficients live either in Q (no declared parameters, plain
``fractions.Fraction``) or in the rational function field Q(p1,...,pk)
over the declared transcendental parameters.  The latter is built as
sympy's fraction field over the integer polynomials ZZ[p1,...,pk]: the
same field as fractions over Q[p1,...,pk], but cancelling a quotient is
one integer gcd, with no denominator clearing or domain conversions.
Both kinds support ``+ - * /``, equality and truthiness, so polynomial
code treats them uniformly.  Values are kept in canonical form by the
underlying arithmetic: fractions fully reduced; rational functions
cancelled, with numerator and denominator integer polynomials without
a common factor and the denominator's leading coefficient positive.
Printing folds a constant denominator into rational coefficients of the
numerator, so ``(H^2 - 1)/2`` prints as ``1/2*H^2 - 1/2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError


@dataclass(frozen=True)
class CoeffText:
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

    Without parameters the elements are ``Fraction``s.  With parameters
    they are sympy fraction-field elements ``numer/denom`` over
    ZZ[p1,...,pk], cancelled, with a positive leading coefficient in the
    denominator; ``format`` renders them with rational coefficients.
    """

    __slots__ = ("parameters", "zero", "one", "_field", "_gens")

    def __init__(self, parameters=()):
        self.parameters = tuple(parameters)
        if self.parameters:
            from sympy import ZZ
            from sympy.polys.fields import field as _field

            built = _field(list(self.parameters), ZZ)
            self._field = built[0]
            self._gens = dict(zip(self.parameters, built[1:]))
            self.zero = self._field.zero
            self.one = self._field.one
        else:
            self._field = None
            self._gens = {}
            self.zero = Fraction(0)
            self.one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, ConstantField) and self.parameters == other.parameters

    def __hash__(self):
        return hash(self.parameters)

    def __repr__(self):
        if self.parameters:
            return f"ConstantField(Q({', '.join(self.parameters)}))"
        return "ConstantField(Q)"

    def rational(self, num, den=1):
        value = Fraction(num, den)
        if self._field is None:
            return value
        # A Fraction is reduced with a positive denominator: already canonical.
        ground = self._field.ring.ground_new
        return self._field.raw_new(ground(value.numerator), ground(value.denominator))

    def coerce(self, value):
        """Accept ints and Fractions alongside native field elements."""
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        return value

    def parameter(self, name):
        try:
            return self._gens[name]
        except KeyError:
            raise ParseError(f"unknown parameter {name!r}") from None

    # --- printing ------------------------------------------------------

    def format(self, c) -> CoeffText:
        if self._field is None:
            return CoeffText(c < 0, _fraction_body(abs(c)), True)
        return self._format_frac_element(c)

    def _format_frac_element(self, c) -> CoeffText:
        numer_terms = [(m, _as_fraction(q)) for m, q in self._sorted_terms(c.numer)]
        denom_terms = [(m, _as_fraction(q)) for m, q in self._sorted_terms(c.denom)]
        negative = bool(numer_terms) and numer_terms[0][1] < 0
        if negative:
            numer_terms = [(m, -q) for m, q in numer_terms]
        if len(denom_terms) == 1 and not any(denom_terms[0][0]):
            # constant denominator: fold it into the rationals of the numerator
            q = denom_terms[0][1]
            if q < 0:
                q, negative = -q, not negative
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

    @staticmethod
    def _sorted_terms(poly_element):
        return sorted(poly_element.terms(), key=lambda t: t[0], reverse=True)

    def _poly_body(self, terms):
        """Render a parameter polynomial given (monomial, Fraction) terms."""
        pieces = []
        for mono, q in terms:
            factors = []
            for name, e in zip(self.parameters, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
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


def _fraction_body(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _as_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))
