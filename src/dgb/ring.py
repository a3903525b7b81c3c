"""The algebra of partial difference polynomials.

Variables are pairs ``symbol(shift)``: a symbol from a finite set together
with an element of the shift monoid.  Monomials are finite products of such
variables with positive exponents; polynomials are sparse sums of terms
over an exact constant field, kept strictly descending under the ring's
block ordering.  The shift monoid acts on everything by translating every
variable's shift and fixing coefficients.
"""

from __future__ import annotations

import re
from operator import add
from typing import NamedTuple

from .errors import ExactDivisionError, RankMismatchError, RingMismatchError
from .field import ConstantField
from .orderings import Ordering, OrderingSpec

NEG_INF = float("-inf")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class VarRef(NamedTuple):
    symbol: int
    shift: tuple


class Signature:
    """Shape of a ring: shift rank, symbol names, parameter names."""

    __slots__ = ("shift_rank", "symbols", "parameters")

    def __init__(self, shift_rank, symbols, parameters=()):
        symbols = tuple(symbols)
        parameters = tuple(parameters)
        if shift_rank < 1:
            raise ValueError("shift rank must be at least 1")
        if not symbols:
            raise ValueError("at least one symbol is required")
        names = symbols + parameters
        for name in names:
            if not _IDENT.match(name):
                raise ValueError(f"invalid identifier {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("symbol and parameter names must be distinct")
        self.shift_rank = shift_rank
        self.symbols = symbols
        self.parameters = parameters

    def __eq__(self, other):
        return (isinstance(other, Signature)
                and self.shift_rank == other.shift_rank
                and self.symbols == other.symbols
                and self.parameters == other.parameters)

    def __hash__(self):
        return hash((self.shift_rank, self.symbols, self.parameters))

    def __repr__(self):
        return (f"Signature(r={self.shift_rank}, symbols={self.symbols}, "
                f"parameters={self.parameters})")


class Monomial:
    """A product of shifted variables with positive integer exponents.

    Factors are stored as a tuple of (VarRef, exponent) pairs sorted by the
    structural key (symbol index, shift tuple); the empty tuple is the
    monomial 1.  Equality and hashing are structural and independent of any
    monomial ordering.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        self.factors = tuple(factors)

    ONE: "Monomial"

    @classmethod
    def variable(cls, symbol, shift, exp=1):
        return cls(((VarRef(symbol, tuple(shift)), exp),))

    @property
    def is_one(self):
        return not self.factors

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __mul__(self, other):
        return Monomial(_merge(self.factors, other.factors, lambda a, b: a + b))

    def lcm(self, other):
        return Monomial(_merge(self.factors, other.factors, max))

    def gcd(self, other):
        out = []
        pos = {var: e for var, e in other.factors}
        for var, e in self.factors:
            oe = pos.get(var)
            if oe:
                out.append((var, min(e, oe)))
        return Monomial(out)

    def divides(self, other):
        pos = {var: e for var, e in other.factors}
        return all(pos.get(var, 0) >= e for var, e in self.factors)

    def __truediv__(self, other):
        """Exact quotient self/other."""
        out = []
        need = {var: e for var, e in other.factors}
        for var, e in self.factors:
            d = e - need.pop(var, 0)
            if d < 0:
                raise ExactDivisionError(f"{other!r} does not divide {self!r}")
            if d:
                out.append((var, d))
        if need:
            raise ExactDivisionError(f"{other!r} does not divide {self!r}")
        return Monomial(out)

    def shift(self, s):
        """Image under the shift action: every factor's shift is translated."""
        if self.is_one:
            return self
        rank = len(self.factors[0][0].shift)
        if len(s) != rank:
            raise RankMismatchError(f"shift ranks differ: {rank} vs {len(s)}")
        return Monomial(tuple((VarRef(sym, tuple(map(add, shift, s))), e)
                              for (sym, shift), e in self.factors))

    @property
    def order(self):
        """Max total shift degree among the factors; -inf for the monomial 1."""
        if not self.factors:
            return NEG_INF
        return max(sum(var.shift) for var, _ in self.factors)

    @property
    def total_degree(self):
        return sum(e for _, e in self.factors)

    def variables(self):
        return [var for var, _ in self.factors]

    def __repr__(self):
        if not self.factors:
            return "Monomial(1)"
        body = "*".join(f"x{sym}{tuple(shift)}^{e}" if e > 1 else f"x{sym}{tuple(shift)}"
                        for (sym, shift), e in self.factors)
        return f"Monomial({body})"


Monomial.ONE = Monomial()


def _merge(fa, fb, combine):
    """Merge two structurally sorted factor tuples with a combiner that
    never produces zero (callers guarantee positive results)."""
    out = []
    i = j = 0
    la, lb = len(fa), len(fb)
    while i < la and j < lb:
        va, ea = fa[i]
        vb, eb = fb[j]
        if va == vb:
            out.append((va, combine(ea, eb)))
            i += 1
            j += 1
        elif va < vb:
            out.append((va, ea))
            i += 1
        else:
            out.append((vb, eb))
            j += 1
    out.extend(fa[i:])
    out.extend(fb[j:])
    return tuple(out)


class DifferenceRing:
    """A signature, a constant field and a block ordering, bundled.

    All polynomial-producing operations take the ordering from here;
    polynomials remember their ring and refuse to mix with another one.
    """

    __slots__ = ("signature", "field", "ordering", "zero", "one")

    def __init__(self, signature, ordering_spec=None, field=None):
        self.signature = signature
        self.field = field or ConstantField(signature.parameters)
        if self.field.parameters != signature.parameters:
            raise ValueError("field parameters do not match the signature")
        spec = ordering_spec or OrderingSpec()
        self.ordering = Ordering(signature.shift_rank, len(signature.symbols), spec)
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, ((Monomial.ONE, self.field.one),))

    def __eq__(self, other):
        return (isinstance(other, DifferenceRing)
                and self.signature == other.signature
                and self.ordering == other.ordering)

    def __hash__(self):
        return hash((self.signature, self.ordering))

    def __repr__(self):
        return f"DifferenceRing({self.signature!r})"

    # --- construction helpers -------------------------------------------

    def symbol_index(self, name):
        try:
            return self.signature.symbols.index(name)
        except ValueError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def check_shift(self, shift):
        shift = tuple(shift)
        if len(shift) != self.signature.shift_rank:
            raise RankMismatchError(
                f"shift {shift} has rank {len(shift)}, ring expects "
                f"{self.signature.shift_rank}")
        if any(a < 0 for a in shift):
            raise ValueError(f"negative entry in shift {shift}")
        return shift

    def monomial(self, factors):
        """Build a monomial from (symbol name or index, shift, exponent) triples."""
        acc = {}
        for symbol, shift, exp in factors:
            if isinstance(symbol, str):
                symbol = self.symbol_index(symbol)
            if not 0 <= symbol < len(self.signature.symbols):
                raise ValueError(f"symbol index {symbol} out of range")
            if exp < 0:
                raise ValueError("negative exponent")
            if exp:
                var = VarRef(symbol, self.check_shift(shift))
                acc[var] = acc.get(var, 0) + exp
        return Monomial(tuple(sorted(acc.items())))

    def var(self, symbol, shift, exp=1):
        """The variable symbol(shift)**exp as a polynomial."""
        return Polynomial(self, ((self.monomial([(symbol, shift, exp)]), self.field.one),))

    def constant(self, value):
        c = self.field.coerce(value)
        if not c:
            return self.zero
        return Polynomial(self, ((Monomial.ONE, c),))

    def polynomial(self, pairs):
        """Canonicalize (coefficient, monomial) pairs into a polynomial."""
        acc = {}
        for coeff, mono in pairs:
            coeff = self.field.coerce(coeff)
            acc[mono] = acc.get(mono, self.field.zero) + coeff
        terms = [(m, c) for m, c in acc.items() if c]
        terms.sort(key=lambda t: self.ordering.monomial_key(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))


def _same_ring(f, g):
    if f.ring is not g.ring and f.ring != g.ring:
        raise RingMismatchError("polynomials belong to different rings")


class Polynomial:
    """A sparse difference polynomial with terms strictly descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.terms == other.terms
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash(self.terms)

    @property
    def lm(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    # --- arithmetic -------------------------------------------------------

    def __neg__(self):
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __add__(self, other):
        _same_ring(self, other)
        key = self.ring.ordering.monomial_key
        out = []
        i = j = 0
        ta, tb = self.terms, other.terms
        la, lb = len(ta), len(tb)
        while i < la and j < lb:
            ma, ca = ta[i]
            mb, cb = tb[j]
            if ma == mb:
                c = ca + cb
                if c:
                    out.append((ma, c))
                i += 1
                j += 1
            elif key(ma) > key(mb):
                out.append(ta[i])
                i += 1
            else:
                out.append(tb[j])
                j += 1
        out.extend(ta[i:])
        out.extend(tb[j:])
        return Polynomial(self.ring, tuple(out))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_ring(self, other)
        if not self.terms or not other.terms:
            return self.ring.zero
        acc = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = ma * mb
                c = acc.get(m)
                acc[m] = ca * cb if c is None else c + ca * cb
        return self.ring.polynomial((c, m) for m, c in acc.items())

    def scale(self, coeff):
        """Multiply by a nonzero field constant (order preserved)."""
        if not coeff:
            return self.ring.zero
        return Polynomial(self.ring, tuple((m, c * coeff) for m, c in self.terms))

    def mul_term(self, coeff, mono):
        """Multiply by coeff*mono; term order is preserved because the
        ordering is multiplicative."""
        if not coeff:
            return self.ring.zero
        return Polynomial(self.ring,
                          tuple((m * mono, c * coeff) for m, c in self.terms))

    def monic(self):
        """Divide by the leading coefficient."""
        if not self.terms:
            raise ZeroDivisionError("cannot normalize the zero polynomial")
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        return Polynomial(self.ring, tuple((m, c / lc) for m, c in self.terms))

    # --- shift action ------------------------------------------------------

    def shift(self, s):
        """Termwise shift; descending term order survives because the
        ordering respects the shift action."""
        s = self.ring.check_shift(s)
        if not any(s):
            return self
        return Polynomial(self.ring, tuple((m.shift(s), c) for m, c in self.terms))

    # --- grading by the order function --------------------------------------

    @property
    def order(self):
        """Max order of the monomials; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(m.order for m, _ in self.terms)

    @property
    def is_order_homogeneous(self):
        if not self.terms:
            return True
        first = self.terms[0][0].order
        return all(m.order == first for m, _ in self.terms[1:])

    # --- printing ------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial: the leading terms are scaled to the lcm and cancelled."""
    if not f or not g:
        raise ValueError("spoly of the zero polynomial is undefined")
    _same_ring(f, g)
    one = f.ring.field.one
    l = f.lm.lcm(g.lm)
    return (f.mul_term(one / f.lc, l / f.lm)
            - g.mul_term(one / g.lc, l / g.lm))


# --- canonical text form ------------------------------------------------------


def format_monomial(m: Monomial, ring: DifferenceRing) -> str:
    if m.is_one:
        return "1"
    ordering = ring.ordering
    names = ring.signature.symbols
    factors = sorted(m.factors, key=lambda fe: ordering.variable_key(fe[0]),
                     reverse=True)
    parts = []
    for (sym, shift), e in factors:
        inner = ",".join(str(a) for a in shift)
        body = f"{names[sym]}({inner})"
        parts.append(f"{body}^{e}" if e > 1 else body)
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    ring = f.ring
    out = []
    for i, (m, c) in enumerate(f.terms):
        text = ring.field.format(c)
        body = text.body if text.atomic else f"({text.body})"
        if m.is_one:
            piece = body
        elif body == "1":
            piece = format_monomial(m, ring)
        else:
            piece = f"{body}*{format_monomial(m, ring)}"
        if i == 0:
            out.append(f"-{piece}" if text.negative else piece)
        else:
            out.append(f" - {piece}" if text.negative else f" + {piece}")
    return "".join(out)
