"""The algebra of partial difference polynomials.

Variables are pairs ``symbol(shift)``: a symbol from a finite set together
with an element of the shift monoid, packed into one int by the ring's
ordering (see orderings.py; ``VarRef`` is the decoded view).  Monomials
are finite products of such variables with positive exponents;
polynomials are sparse sums of terms over an exact constant field, kept
strictly descending under the ring's block ordering.  The shift monoid
acts on everything by translating every variable's shift and fixing
coefficients; on packed variables that is one addition each.
"""

from __future__ import annotations

import re
from operator import add

from .errors import ExactDivisionError, RingMismatchError
from .field import ConstantField
from .orderings import Ordering, OrderingSpec

NEG_INF = float("-inf")

MAX_SHIFT_RANK = 64

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Signature:
    """Shape of a ring: shift rank (1 to MAX_SHIFT_RANK), symbol names,
    parameter names."""

    __slots__ = ("shift_rank", "symbols", "parameters")

    def __init__(self, shift_rank, symbols, parameters=()):
        symbols = tuple(symbols)
        parameters = tuple(parameters)
        if shift_rank < 1:
            raise ValueError("shift rank must be at least 1")
        if shift_rank > MAX_SHIFT_RANK:
            raise ValueError(f"shift rank {shift_rank} exceeds the limit {MAX_SHIFT_RANK}")
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

    Factors are stored as a tuple of (packed variable, exponent) int pairs
    in descending variable order, together with the ordering that packed
    them and the block-order key, built once (under a lex symbol order the
    key is the factor tuple itself); the empty tuple is the monomial 1,
    whose ordering may be None.  Equality and hashing read the factors.
    """

    __slots__ = ("factors", "ordering", "key")

    def __init__(self, factors=(), ordering=None):
        self.factors = tuple(factors)
        self.ordering = ordering
        self.key = ordering.monomial_key(self) if ordering else self.factors

    ONE: "Monomial"

    @property
    def is_one(self):
        return not self.factors

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __mul__(self, other):
        return Monomial(_merge(self.factors, other.factors, add),
                        self.ordering or other.ordering)

    def lcm(self, other):
        return Monomial(_merge(self.factors, other.factors, max),
                        self.ordering or other.ordering)

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
        return Monomial(out, self.ordering)

    def shift(self, s):
        """Image under the shift action, self for the zero shift: one
        checked offset is added to every packed variable."""
        factors, ordering = self.factors, self.ordering
        if not factors:
            return self
        offset = ordering.offset(s, ordering.order(factors))
        return Monomial([(var + offset, e) for var, e in factors], ordering) if offset else self

    @property
    def order(self):
        """Max total shift degree among the factors; -inf for the monomial 1."""
        if not self.factors:
            return NEG_INF
        return self.ordering.order(self.factors)

    @property
    def total_degree(self):
        return sum(e for _, e in self.factors)

    def decoded(self):
        """The factors as (VarRef, exponent) pairs, in descending order."""
        return [(self.ordering.decode(var), e) for var, e in self.factors]

    def __repr__(self):
        if not self.factors:
            return "Monomial(1)"
        body = "*".join(f"x{sym}{tuple(shift)}^{e}" if e > 1 else f"x{sym}{tuple(shift)}"
                        for (sym, shift), e in self.decoded())
        return f"Monomial({body})"


Monomial.ONE = Monomial()


def _merge(fa, fb, combine):
    """Merge two descending factor tuples with a combiner that never
    produces zero (callers guarantee positive results)."""
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
        elif va > vb:
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

    __slots__ = ("signature", "field", "ordering", "zero", "one", "_symbol_index")

    def __init__(self, signature, ordering_spec=None):
        self.signature = signature
        self._symbol_index = {name: i for i, name in enumerate(signature.symbols)}
        self.field = ConstantField(signature.parameters)
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
            return self._symbol_index[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

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
                var = self.ordering.variable(symbol, shift)
                acc[var] = acc.get(var, 0) + exp
        return Monomial(sorted(acc.items(), reverse=True), self.ordering)

    def var(self, symbol, shift, exp=1):
        """The variable symbol(shift)**exp as a polynomial."""
        return Polynomial(self, ((self.monomial([(symbol, shift, exp)]), self.field.one),))

    def constant(self, value):
        c = self.field.coerce(value)
        if not c:
            return self.zero
        return Polynomial(self, ((Monomial.ONE, c),))

    def polynomial(self, pairs):
        """Canonicalize (coefficient, monomial) pairs into a polynomial.
        The monomials must be packed by this ring's ordering."""
        ordering = self.ordering
        acc = {}
        for coeff, mono in pairs:
            if mono.ordering is not ordering and mono.factors and mono.ordering != ordering:
                raise RingMismatchError("monomial packed by another ordering")
            coeff = self.field.coerce(coeff)
            acc[mono] = acc.get(mono, self.field.zero) + coeff
        terms = [(m, c) for m, c in acc.items() if c]
        terms.sort(key=lambda t: t[0].key, reverse=True)
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
        out = []
        i = j = 0
        ta, tb = self.terms, other.terms
        la, lb = len(ta), len(tb)
        while i < la and j < lb:
            ma, ca = ta[i]
            mb, cb = tb[j]
            ka, kb = ma.key, mb.key
            if ka == kb:
                c = ca + cb
                if c:
                    out.append((ma, c))
                i += 1
                j += 1
            elif ka > kb:
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
        """Termwise shift checked once, against the largest order, and self
        for the zero shift; the ordering respects shifts, so terms stay sorted."""
        offset = self.ring.ordering.offset(s, max(self.order, 0))
        if not offset:
            return self
        return Polynomial(self.ring, tuple([(Monomial([(v + offset, e) for v, e in m.factors],
                                                      m.ordering), c) for m, c in self.terms]))

    # --- grading by the order function --------------------------------------

    @property
    def order(self):
        """Max order of the monomials; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(m.order for m, _ in self.terms)

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
            + g.mul_term(-one / g.lc, l / g.lm))


# --- canonical text form ------------------------------------------------------


def format_monomial(m: Monomial, ring: DifferenceRing) -> str:
    if m.is_one:
        return "1"
    names = ring.signature.symbols
    parts = []
    for (sym, shift), e in m.decoded():
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
