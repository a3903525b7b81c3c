"""Normal forms modulo the shift orbit of a finite basis.

Reduction works against the infinite set of all shifted copies of the
basis elements.  Divisor search stays finite by anchoring on one factor
of each basis leading monomial: any shift that maps the whole
leading monomial into the target must in particular map its anchor onto
some factor of the target, which leaves finitely many candidates to
verify.  On packed variables a shift adds one constant to every variable,
so mapping the anchor onto a target variable fixes that constant, and the
other factors are probed at their offsets from the anchor.

*Anchor images.*  Whether a target variable w, as the image of an
element's anchor, gives a shift at all, and which, depends only on the
element's leading monomial and on w, never on the rest of the target: so
each element keeps a table from w to its hit (index, s), or to None when
no shift of the element maps the anchor onto w.  A probe that passes at w
fills the entry once, and every later probe there reads it; a probe that
fails depends on the target, so it stores nothing (ReducerBasis).

*One insertion per step.*  A head step replaces the remainder h by
h - c*m*s(g), where s(g) is a shifted basis element whose leading
monomial divides lm(h), m = lm(h) / s(lm g) and c = lc(h) / lc(g) (just
lc(h) when g is monic).  The step is exact: c*m*s(lm g) has coefficient
lc(h)/lc(g) * lc(g) = lc(h) and monomial lm(h), so the leading pair
cancels to exactly 0 in the exact field and is dropped, while every other
product term lies below lm(h), as the ordering is multiplicative and
respects shifts.  So a step touches the remainder only where a product
term lands.  The remainder is kept ascending, with a parallel list of
monomial keys, so its head is the last entry and leaves in O(1); the
product terms, which descend, are placed by bisection over the keys below
the previous one's place, and each adds into the term there, cancels it or
is inserted (_insert_multiple).  A step thus costs its reducer's terms,
each a C bisection and a C list edit, and no Python loop runs over the
remainder.  Each later term of g is shifted by one offset and multiplied
by c*m in one factor merge (ring._merge), so no shifted copy of g, no term
product and no negated copy is built, and a product term that meets a
term of h keeps that term's Monomial.  The offset comes from the shift the
anchor table validated against lm(g); the element's own order, kept once,
covers its other terms, which under a lex shift order may exceed it.
replay_certificate adds its steps by the same insertion; S-polynomials and
Polynomial + and -, one-shot merges of two whole polynomials, take
ring._add_multiple, and products of whole polynomials (the parser,
Polynomial *) take ring._product.

*One loop.*  reduce, tail_reduce and reduce_full all run _reduce, which
takes the head of the remainder, probes it once with find_divisor and
makes the step above at a hit.  At a miss head reduction stops, and tail
reduction moves the head to the output, which then holds terms in
descending order, above everything still pending.  The result is the
output followed by the remainder, descending.  The loop checks the ring
once per call and counts every step against HEAD_STEP_LIMIT.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter, mul, sub

from .errors import InternalCheckError, RingMismatchError
from .orderings import LEX, MAX_SHIFT_DEGREE
from .ring import NEG_INF, Monomial, Polynomial, _cofactor, _known_monomial, _merge, _same_ring

HEAD_STEP_LIMIT = 10_000_000  # safety net; the well-ordering guarantees termination

_UNSEEN = object()  # an anchor image with no table entry yet


class ReducerBasis:
    """A grow-only list of nonzero polynomials prepared for divisor search.
    It may start empty; its ring is then set by the first append.

    Each element keeps its shape: the total degree, the spread (largest
    minus smallest packed variable), the anchor (the largest variable) and
    its exponent, every other factor as an offset from the anchor, the
    table of anchor images, the anchor's shift and the order.  Shifting
    changes neither degree nor spread, so an element whose degree or spread
    exceeds the target's is skipped before any shift is tried.  Beside its
    shape each element keeps its own order, the largest over all its
    terms: under a lex shift order a later term can exceed the leading
    one, and a reduction step checks its shift against it.

    *The table.*  It maps a target variable w on which the anchor has
    landed to the hit (index, s), s the shift with s(anchor) = w, or to
    None when w admits no shift of the element: w lies on another symbol,
    s has a negative entry, or order + |s| passes MAX_SHIFT_DEGREE, so the
    shifted element would not exist.  s is w's shift minus the anchor's,
    and the checks read only s and the order, so an entry depends on the
    element's leading monomial, which never changes, and on w alone: a
    search that reaches w reads the hit that decoding w would give, in the
    same place of its list.  An entry is made the first time the probe passes at w (the
    target holds the anchor's exponent at w and every other factor at its
    offset); a probe that fails says nothing about w, as another target
    may pass there, so it stores nothing.  A table thus never holds more
    entries than the distinct variables of the targets searched, and only
    those where some target held the whole moved leading monomial: on the
    cycle8 `dgb symmetric --classical` run the 173-element completion
    reducer ends with 499 entries, none of them None, after 102,125 probes
    that found 47,837 hits (545 entries over the run's three bases).  The
    shift of w is decoded when its entry is made, so a table decodes each
    of its variables once.  The tables live as long as the basis: a caller
    that keeps the basis keeps them, and nothing else holds them.
    """

    __slots__ = ("ring", "polys", "_shapes", "_orders")

    def __init__(self, polys):
        self.ring = None
        self.polys, self._shapes, self._orders = [], [], []
        for p in polys:
            self.append(p)

    def __len__(self):
        return len(self.polys)

    def append(self, poly):
        """Grow the basis in place (used by completion as elements arrive)."""
        if not poly:
            raise ValueError("reducer basis elements must be nonzero")
        if self.ring is None:
            self.ring = poly.ring
        if poly.ring is not self.ring and poly.ring != self.ring:
            raise RingMismatchError("basis mixes different rings")
        self.polys.append(poly)
        factors = poly.terms[0][0].factors
        if not factors:
            self._shapes.append(None)
            self._orders.append(NEG_INF)
            return
        ordering = self.ring.ordering
        order = ordering.order(factors)
        # the largest variable anchors: few target variables lie above it
        anchor = factors[0][0]
        offsets = tuple([(var - anchor, e) for var, e in factors[1:]])
        self._shapes.append((sum(map(itemgetter(1), factors)), anchor - factors[-1][0], anchor,
                             factors[0][1], offsets, {}, ordering.decode(anchor).shift, order))
        # the order of the whole element, which bounds the shifts of a step
        self._orders.append(order if ordering.is_order_compatible else poly.order)

    def _image_hit(self, index, shape, w):
        """The table entry of the anchor image w for the element index, of
        the given shape: (index, s) for the shift s with s(anchor) = w, or
        None when there is no such shift of the element."""
        _, _, anchor, _, _, _, beta, order = shape
        ordering = self.ring.ordering
        if (w - anchor) % ordering.n_symbols:
            return None
        s = tuple(map(sub, ordering.decode(w).shift, beta))
        if min(s) < 0 or order + sum(s) > MAX_SHIFT_DEGREE:
            return None
        return index, s

    def _shifts_into(self, index, shape, factors, exps):
        """(index, s) for each shift s with s*lm dividing the target with
        the given factors and exponent map, lm the leading monomial of the
        element index, of the given shape; ascending in the shift ordering."""
        _, _, anchor, lead, offsets, images, _, _ = shape
        out = []
        # a shift s >= 0 maps the anchor onto a variable w >= anchor of its
        # symbol, and descending w is descending shift_key(s)
        for w, e in factors:
            if w < anchor:
                break
            if e < lead:
                continue
            hit = images.get(w, _UNSEEN)
            if hit is None:  # w admits no shift of this element
                continue
            for off, need in offsets:
                if exps.get(w + off, 0) < need:
                    break
            else:
                if hit is _UNSEEN:  # the first pass at w fills its entry
                    hit = images[w] = self._image_hit(index, shape, w)
                    if hit is None:
                        continue
                out.append(hit)
        out.reverse()
        return out

    def divisor_runs(self, factors, first=()):
        """For each index whose shifted leading monomials divide the
        monomial with the given factors, the list of its hits (index, s),
        s ascending in the shift ordering: the indices in first, which are
        distinct, then the others lowest index first.  The search is lazy,
        one index per resume, and covers the indices present when it is
        made."""
        exps = dict(factors)
        degree = sum(exps.values())
        # the largest variable and the spread; -1 lies below every variable
        top, spread = (factors[0][0], factors[0][0] - factors[-1][0]) if factors else (-1, 0)
        shapes = self._shapes
        # first, then every index but those of first
        skip = ()
        for walk in (first, range(len(shapes))):
            for index in walk:
                if index in skip:
                    continue
                shape = shapes[index]
                if shape is None:  # a constant element divides everything
                    yield [(index, (0,) * self.ring.signature.shift_rank)]
                elif shape[0] <= degree and shape[1] <= spread and shape[2] <= top:
                    hits = self._shifts_into(index, shape, factors, exps)
                    if hits:
                        yield hits
            skip = first

    def find_divisor(self, target: Monomial):
        """The first hit (index, s) of divisor_runs on the factors of
        target, or None when no shifted leading monomial divides target."""
        factors = target.factors
        if not factors:
            top, spread, degree = -1, 0, 0
        else:
            top = factors[0][0]
            spread, degree = top - factors[-1][0], sum(map(itemgetter(1), factors))
        exps = None
        for index, shape in enumerate(self._shapes):
            if shape is None:  # a constant element divides everything
                return index, (0,) * self.ring.signature.shift_rank
            if shape[0] <= degree and shape[1] <= spread and shape[2] <= top:
                if exps is None:
                    exps = dict(factors)
                hits = self._shifts_into(index, shape, factors, exps)
                if hits:
                    return hits[0]
        return None


def _as_basis(G):
    if isinstance(G, ReducerBasis):
        return G
    return ReducerBasis([g for g in G if g])


def _insert_multiple(rem, keys, g, start, offset, coeff, cofactor):
    """rem + coeff*m*g', in place: rem an ascending list of terms and keys
    the list of their monomial keys, m the monomial with the factor tuple
    cofactor, g' the terms of g from index start on, with offset added to
    every packed variable (g shifted).

    The ordering is multiplicative and respects shifts, so the product
    terms descend, and each is placed by bisection below the place of the
    one before.  Each product term's key is computed once; its Monomial is
    built only when no term of rem has that key, and a term that meets one
    keeps the existing Monomial.
    """
    ordering = g.ring.ordering
    key_of = None if ordering.spec.symbol_order == LEX else ordering.monomial_key
    # coeff is one or minus one for a monic g: then a term's coefficient is
    # c or -c, no product
    unit = 1 if coeff == 1 else -1 if coeff == -1 else 0
    moved = offset or cofactor
    hi = len(keys)
    for mono, c in g.terms[start:]:
        if not unit:
            c = c * coeff
        elif unit < 0:
            c = -c
        if moved:
            # under a lex symbol order the key is the factor tuple itself
            key = factors = _merge(mono.factors, cofactor, offset)
            if key_of is not None:
                key = key_of(factors)
            mono = None
        else:
            key = mono.key
        i = bisect_left(keys, key, 0, hi)
        if i < hi and keys[i] == key:
            mt, ct = rem[i]
            c = ct + c
            if c:
                rem[i] = (mt, c)
            else:
                del rem[i], keys[i]
        else:
            rem.insert(i, (mono or _known_monomial(factors, ordering, key), c))
            keys.insert(i, key)
        hi = i


def _reduce(f, G, tail, steps=None):
    """f reduced against all shifts of G: its head only, or with tail=True
    every term.  Each step appends (coefficient, cofactor, shift, basis
    index) to steps when given; replay_certificate reads them back."""
    basis = _as_basis(G)
    if basis.ring is not None:  # an empty basis has no ring
        _same_ring(f, basis)
    ordering = f.ring.ordering
    weights, n_symbols = ordering.weights, ordering.n_symbols
    quotient = f.ring.field.quotient
    polys, orders = basis.polys, basis._orders
    # the pending remainder ascends, so its head is the last term; out
    # takes the heads that tail reduction keeps, each above all of rem
    rem = list(reversed(f.terms))
    keys = [m.key for m, _ in rem]
    out = []
    guard = 0
    while rem:
        term = rem[-1]
        hit = basis.find_divisor(term[0])
        if hit is None and not tail:
            break
        rem.pop()
        keys.pop()
        if hit is None:
            out.append(term)
            continue
        # the step for the hit (index, shift): the head cancels exactly and
        # is dropped, the later terms take -coeff*cofactor*shift(G[index])
        index, shift = hit
        g = polys[index]
        # the table checked the shift against the order of lm(g) only
        if orders[index] + sum(shift) > MAX_SHIFT_DEGREE:
            ordering.check_shift(shift, orders[index])
        offset = sum(map(mul, shift, weights)) * n_symbols
        m, c = term
        lm, lc = g.terms[0]
        cofactor = _cofactor(m.factors, lm.factors, offset)
        coeff = c if lc == 1 else quotient(c, lc)
        _insert_multiple(rem, keys, g, 1, offset, -coeff, cofactor)
        if steps is not None:
            steps.append((coeff, Monomial(cofactor, ordering), shift, index))
        guard += 1
        if guard > HEAD_STEP_LIMIT:
            raise InternalCheckError(f"reduction of {f} exceeded the step safety limit "
                                     f"of {HEAD_STEP_LIMIT} steps")
    if not guard:
        return f
    rem.reverse()
    out.extend(rem)
    return Polynomial(f.ring, tuple(out))


def reduce(f: Polynomial, G, certificate=False):
    """Head reduction of f against all shifts of G.

    Returns h with f - h in the ideal generated by the shift orbit of G
    and either h = 0 or the leading monomial of h out of reach of every
    shifted leading monomial.  With certificate=True also returns the list
    of (coefficient, cofactor, shift, basis_index) steps whose replay
    reconstructs f as h + sum of coeff*cofactor*shift(G[i]).
    """
    steps = [] if certificate else None
    h = _reduce(f, G, False, steps)
    return (h, steps) if certificate else h


def tail_reduce(f: Polynomial, G):
    """Full normal form: every monomial of the result is out of reach of
    the shifted leading monomials.  No normalization is applied."""
    return _reduce(f, G, True)


def reduce_full(f: Polynomial, G):
    """Tail reduction followed by monic normalization of a nonzero result."""
    h = tail_reduce(f, G)
    return h.monic() if h else h


def replay_certificate(h: Polynomial, steps, G):
    """Reconstruct the input of a certified reduction: h + sum of steps.
    Step indices refer to the nonzero elements of G, in order."""
    polys = G.polys if isinstance(G, ReducerBasis) else [g for g in G if g]
    for g in polys:
        _same_ring(h, g)
    rem = list(reversed(h.terms))
    keys = [m.key for m, _ in rem]
    for coeff, cofactor, shift, index in steps:
        g = polys[index]
        _insert_multiple(rem, keys, g, 0, g.offset(shift), coeff, cofactor.factors)
    rem.reverse()
    return Polynomial(h.ring, tuple(rem))
