"""The algebra of partial difference polynomials.

Variables are pairs ``symbol(shift)``: a symbol from a finite set together
with an element of the shift monoid, packed into one int by the ring's
ordering (see orderings.py; ``VarRef`` is the decoded view).  Monomials
are finite products of such variables with positive exponents;
polynomials are sparse sums of terms over an exact constant field, kept
strictly descending under the ring's block ordering.  The shift monoid
acts on everything by translating every variable's shift and fixing
coefficients; on packed variables that is one addition each.

Sums of two whole polynomials merge in _add_multiple (shifted_spoly,
spoly, Polynomial + and -); a reduction step and a certificate replay
instead insert one multiple into a pending remainder
(reduction._insert_multiple).  Products of term dicts go through _product
(the parser, through _power, and Polynomial *), factor tuples of products
and shifted products through _merge (all of the above and Monomial *), and
exact monomial quotients through _cofactor (reduction steps,
S-polynomials, Monomial /).
"""

from __future__ import annotations

import re
from itertools import chain

from .errors import ExactDivisionError, RingMismatchError
from .field import ConstantField, _int_text
from .orderings import Ordering

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
    them and the block-order key, built once (the factor tuple itself when
    ordering.key_is_factors); the empty tuple is the monomial 1, whose
    ordering may be None.  Equality and hashing read the factors.
    """

    __slots__ = ("factors", "ordering", "key")

    def __init__(self, factors=(), ordering=None):
        self.factors = tuple(factors)
        self.ordering = ordering
        self.key = ordering.monomial_key(self.factors) if ordering else self.factors

    ONE: "Monomial"

    @property
    def is_one(self):
        return not self.factors

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial(_merge(self.factors, other.factors), self.ordering or other.ordering)

    def lcm(self, other):
        return Monomial(_lcm(self.factors, other.factors), self.ordering or other.ordering)

    def divides(self, other):
        pos = {var: e for var, e in other.factors}
        return all(pos.get(var, 0) >= e for var, e in self.factors)

    def __truediv__(self, other):
        """Exact quotient self/other."""
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other.divides(self):
            raise ExactDivisionError(f"{other!r} does not divide {self!r}")
        return Monomial(_cofactor(self.factors, other.factors, 0), self.ordering)

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


def _known_monomial(factors, ordering, key):
    """A Monomial from a descending factor tuple and its key, already
    computed by the caller."""
    m = object.__new__(Monomial)
    m.factors, m.ordering, m.key = factors, ordering, key
    return m


def _merge(fa, fb, offset=0):
    """The factor tuple of the product of two monomials with descending
    factor tuples fa and fb, fa shifted by offset, which is added to each
    of its packed variables: the exponents of a shared variable add.  The
    pairs of fb go into a copy of fa, each at or past the place of the one
    before."""
    out = [(var + offset, e) for var, e in fa] if offset else list(fa)
    k, n = 0, len(out)
    for pair in fb:
        var = pair[0]
        while k < n and out[k][0] > var:
            k += 1
        if k < n and out[k][0] == var:
            out[k] = (var, out[k][1] + pair[1])
        else:
            out.insert(k, pair)
            n += 1
        k += 1
    return tuple(out)


def _lcm(fa, fb):
    """The factor tuple of the lcm of two monomials with descending factor
    tuples fa and fb, once per critical pair: a shared variable keeps the
    larger of its two factor pairs, so no pair is built."""
    out = []
    i = j = 0
    la, lb = len(fa), len(fb)
    while i < la and j < lb:
        pa, pb = fa[i], fb[j]
        if pa[0] == pb[0]:
            out.append(pa if pa[1] >= pb[1] else pb)
            i += 1
            j += 1
        elif pa[0] > pb[0]:
            out.append(pa)
            i += 1
        else:
            out.append(pb)
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
        self.ordering = Ordering(signature.shift_rank, len(signature.symbols), ordering_spec)
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
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign*other in one _add_multiple merge, keeping the Monomials."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_ring(self, other)
        return Polynomial(self.ring, tuple(_add_multiple(self.terms, other, 0, sign, (), 0)))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_ring(self, other)
        return _polynomial(self.ring, _product({m.factors: c for m, c in self.terms},
                                               {m.factors: c for m, c in other.terms}))

    def scale(self, coeff):
        """Multiply by a field constant (order preserved)."""
        coeff = self.ring.field.coerce(coeff)
        if not coeff:
            return self.ring.zero
        return Polynomial(self.ring, tuple((m, c * coeff) for m, c in self.terms))

    def monic(self):
        """Divide by the leading coefficient."""
        if not self.terms:
            raise ZeroDivisionError("cannot normalize the zero polynomial")
        lc = self.terms[0][1]
        if lc == 1:
            return self
        quotient = self.ring.field.quotient
        return Polynomial(self.ring, tuple((m, quotient(c, lc)) for m, c in self.terms))

    # --- shift action ------------------------------------------------------

    def offset(self, s):
        """What shifting by s adds to every packed variable of self: checked
        once, against the largest order."""
        return self.ring.ordering.offset(s, max(self.order, 0))

    def shift(self, s):
        """Termwise shift, and self for the zero shift; the ordering
        respects shifts, so terms stay sorted."""
        offset = self.offset(s)
        if not offset:
            return self
        return Polynomial(self.ring, tuple([(Monomial([(v + offset, e) for v, e in m.factors],
                                                      m.ordering), c) for m, c in self.terms]))

    # --- grading by the order function --------------------------------------

    @property
    def order(self):
        """Max order of the monomials; -inf for the zero polynomial and
        the constants.  An order-compatible ordering puts it on the leading
        monomial; otherwise each distinct factor is decoded once."""
        if not self.terms:
            return NEG_INF
        ordering = self.ring.ordering
        if ordering.is_order_compatible:
            return self.terms[0][0].order
        factors = tuple(set(chain.from_iterable(m.factors for m, _ in self.terms)))
        return ordering.order(factors) if factors else NEG_INF

    # --- printing ------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial: the leading terms are scaled to the lcm and cancelled."""
    zero = (0,) * f.ring.signature.shift_rank
    return shifted_spoly(f, zero, g, zero)


def shifted_spoly(f: Polynomial, s, g: Polynomial, t) -> Polynomial:
    """spoly(f.shift(s), g.shift(t)) in one merge per element, with no
    shifted copy: the shifts are applied inside _add_multiple, and the
    leading terms, which cancel exactly, are skipped."""
    if not f or not g:
        raise ValueError("spoly of the zero polynomial is undefined")
    _same_ring(f, g)
    quotient = f.ring.field.quotient
    a, b = f.offset(s), g.offset(t)
    fa, fb = f.lm.factors, g.lm.factors
    lcm = _lcm([(var + a, e) for var, e in fa], [(var + b, e) for var, e in fb])
    terms = _add_multiple((), f, a, quotient(1, f.lc), _cofactor(lcm, fa, a), 1)
    return Polynomial(f.ring, tuple(_add_multiple(terms, g, b, quotient(-1, g.lc),
                                                 _cofactor(lcm, fb, b), 1)))


def _cofactor(factors, lead, offset):
    """The factor tuple of m / l, for m with the given factors and l the
    monomial with factors lead shifted by offset; l must divide m.  Both
    tuples descend and every variable of l is one of m, so one walk pairs
    each variable of l with its place in m."""
    out = []
    j, n = 0, len(lead)
    for var, e in factors:
        if j < n and lead[j][0] + offset == var:
            e -= lead[j][1]
            j += 1
            if not e:
                continue
        out.append((var, e))
    return tuple(out)


def _add_multiple(terms, g, offset, coeff, cofactor, start):
    """The terms of terms + coeff*m*g', in one merge, as a list: m the
    monomial with the factor tuple cofactor, g' the terms of g from index
    start on, with offset added to every packed variable (g shifted).

    The ordering is multiplicative and respects shifts, so the product
    terms come out descending.  Each product term's key is computed once,
    or not at all when it is the factor tuple; its Monomial is built only
    when no term of terms has that key, and a term that meets one keeps
    the existing Monomial.
    """
    ordering = g.ring.ordering
    key_of = None if ordering.key_is_factors else ordering.monomial_key
    # coeff is one or minus one for + and -, and for a monic g in
    # shifted_spoly: then a term's coefficient is c or -c, no product
    unit = 1 if coeff == 1 else -1 if coeff == -1 else 0
    moved = offset or cofactor
    out = []
    append = out.append
    i, n = 0, len(terms)
    gterms = g.terms
    for k in range(start, len(gterms)):
        mono, c = gterms[k]
        if not unit:
            c = c * coeff
        elif unit < 0:
            c = -c
        if moved:
            factors = _merge(mono.factors, cofactor, offset)
            key = factors if key_of is None else key_of(factors)
            mono = None
        else:
            key = mono.key
        while i < n and terms[i][0].key > key:
            append(terms[i])
            i += 1
        if i < n and terms[i][0].key == key:
            mt, ct = terms[i]
            i += 1
            c = ct + c
            if c:
                append((mt, c))
        else:
            append((mono or _known_monomial(factors, ordering, key), c))
    out.extend(terms[i:])
    return out


def _add(total, terms, minus):
    """total += terms (or -= when minus), in place, dropping zeros."""
    for f, c in terms.items():
        old = total.get(f)
        if old is None:
            total[f] = -c if minus else c
        else:
            c = old - c if minus else old + c
            if c:
                total[f] = c
            else:
                del total[f]


def _product(a, b):
    """The term dict of a*b.  A one-term side moves the other's exponent
    vectors by one monomial, which merges no two terms."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (fb, cb), = b.items()
        return {_merge(f, fb): c * cb for f, c in a.items()}
    out = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            f = _merge(fa, fb)
            c = ca * cb
            old = out.get(f)
            out[f] = c if old is None else old + c
    return {f: c for f, c in out.items() if c}


def _power(ring, base, e):
    """base^e: zero or a single term c*m directly, as c^e * m^e, else by
    products."""
    if len(base) < 2 and e:
        return {tuple([(var, k * e) for var, k in f]): c ** e for f, c in base.items()}
    out = {(): ring.field.one}
    for _ in range(e):
        out = _product(out, base)
    return out


def _polynomial(ring, terms):
    """The Polynomial of a term dict: one Monomial per term, one sort."""
    ordering = ring.ordering
    out = [(Monomial(f, ordering) if f else Monomial.ONE, c) for f, c in terms.items()]
    out.sort(key=lambda t: t[0].key, reverse=True)
    return Polynomial(ring, tuple(out))


# --- canonical text form ------------------------------------------------------


def format_monomial(m: Monomial, ring: DifferenceRing) -> str:
    if m.is_one:
        return "1"
    names = ring.signature.symbols
    parts = []
    for (sym, shift), e in m.decoded():
        inner = ",".join(str(a) for a in shift)
        body = f"{names[sym]}({inner})"
        parts.append(f"{body}^{_int_text(e, 'an exponent is an integer')}" if e > 1 else body)
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
