"""Normal forms modulo the shift orbit of a finite basis.

Reduction works against the infinite set of all shifted copies of the
basis elements.  Divisor search stays finite by anchoring on one factor
of each basis leading monomial: any shift that maps the whole
leading monomial into the target must in particular map its anchor onto
some factor of the target, which leaves finitely many candidates to
verify.  On packed variables a shift adds one constant to every variable,
so mapping the anchor onto a target variable fixes that constant, and the
other factors are probed at their offsets from the anchor.

*One merge per step.*  A head step replaces the remainder h by
h - c*m*s(g), where s(g) is a shifted basis element whose leading
monomial divides lm(h), m = lm(h) / s(lm g) and c = lc(h) / lc(g) (just
lc(h) when g is monic).  The step is one pass over the terms of h
(ring._add_multiple): each later term of g is shifted by one checked
offset, multiplied by c*m and merged into h, so no shifted copy of g, no
term product and no negated copy is built, and a product term that meets
a term of h keeps that term's Monomial.  The leading pair is skipped, and
that is exact: c*m*s(lm g) has coefficient lc(h)/lc(g) * lc(g) = lc(h) and
monomial lm(h), so the difference has coefficient exactly 0 there in the
exact field, while every other product term lies below lm(h), as the
ordering is multiplicative and respects shifts.  tail_reduce makes the
same step at the first reducible term: the terms above it are left alone
by the step, so that run moves to the output once.  The same merge serves
replay_certificate, ring.shifted_spoly and spoly, and Polynomial + and -;
products of whole polynomials (the parser, Polynomial *) take ring._product.
"""

from __future__ import annotations

from operator import sub

from .errors import InternalCheckError, RingMismatchError
from .orderings import MAX_SHIFT_DEGREE
from .ring import Monomial, Polynomial, _add_multiple, _cofactor

HEAD_STEP_LIMIT = 10_000_000  # safety net; the well-ordering guarantees termination


class ReducerBasis:
    """A grow-only list of nonzero polynomials prepared for divisor search.
    It may start empty; its ring is then set by the first append.

    Each element keeps its decoded leading monomial (leads) and its shape:
    the total degree, the spread (largest minus smallest packed variable),
    the anchor (the largest variable) and its shift, every factor as an
    offset from the anchor, and the order.  Shifting changes neither degree
    nor spread, so an element whose degree or spread exceeds the target's
    is skipped before any shift is tried.
    """

    __slots__ = ("ring", "polys", "leads", "_shapes", "_shift_of")

    def __init__(self, polys):
        self.ring = None
        self.polys, self.leads, self._shapes = [], [], []
        self._shift_of = {}  # packed variable -> its shift, decoded once
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
        m = poly.lm
        self.polys.append(poly)
        self.leads.append(m.decoded())
        if m.is_one:
            self._shapes.append(None)
            return
        # the largest variable anchors: few target variables lie above it
        factors = m.factors
        anchor = factors[0][0]
        offsets = tuple([(var - anchor, e) for var, e in factors])
        self._shapes.append((m.total_degree, anchor - factors[-1][0], anchor,
                             self.leads[-1][0][0].shift, offsets, m.order))

    def _shifts_into(self, index, shape, factors, exps):
        """(index, s) for each shift s with s*lm dividing the target with
        the given factors and exponent map, lm the leading monomial of the
        element index, of the given shape; ascending in the shift ordering."""
        _, _, anchor, beta, offsets, order = shape
        ordering = self.ring.ordering
        n = ordering.n_symbols
        shift_of = self._shift_of
        out = []
        # a shift s >= 0 maps the anchor onto a variable w >= anchor of its
        # symbol, and descending w is descending shift_key(s)
        for w, _ in factors:
            if w < anchor:
                break
            if (w - anchor) % n:
                continue
            for off, e in offsets:
                if exps.get(w + off, 0) < e:
                    break
            else:
                shift = shift_of.get(w)
                if shift is None:
                    shift = shift_of[w] = ordering.decode(w).shift
                s = tuple(map(sub, shift, beta))
                if min(s) >= 0 and order + sum(s) <= MAX_SHIFT_DEGREE:
                    out.append((index, s))
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

    def iter_divisors(self, target: Monomial, first=()):
        """(index, shift) for every shift with shift*lm(G[index]) dividing
        target, in the order of divisor_runs: the distinct indices in first,
        then the others lowest index first; the shifts of one index
        ascending in the shift ordering."""
        for hits in self.divisor_runs(target.factors, tuple(dict.fromkeys(first))):
            yield from hits

    def find_divisor(self, target: Monomial):
        """The first item of iter_divisors, or None when no shifted leading
        monomial divides target."""
        for hits in self.divisor_runs(target.factors):
            return hits[0]
        return None


def _as_basis(G):
    if isinstance(G, ReducerBasis):
        return G
    return ReducerBasis([g for g in G if g])


def _head_step(basis, terms, i, hit):
    """(terms, coeff, cofactor): the terms of terms[i + 1:] minus
    coeff*cofactor*shift(G[index]), for the hit (index, shift) on the
    monomial of term i, which cancels exactly and is skipped."""
    index, shift = hit
    g = basis.polys[index]
    m, c = terms[i]
    offset = g.offset(shift)
    cofactor = _cofactor(m.factors, g.lm.factors, offset)
    lc = g.lc
    coeff = c if lc == g.ring.field.one else c / lc
    return _add_multiple(terms, i + 1, g, offset, -coeff, cofactor, 1), coeff, cofactor


def _step_limit_error(f):
    return InternalCheckError(f"reduction of {f} exceeded the step safety limit "
                              f"of {HEAD_STEP_LIMIT} steps")


def reduce(f: Polynomial, G, certificate=False):
    """Head reduction of f against all shifts of G.

    Returns h with f - h in the ideal generated by the shift orbit of G
    and either h = 0 or the leading monomial of h out of reach of every
    shifted leading monomial.  With certificate=True also returns the list
    of (coefficient, cofactor, shift, basis_index) steps whose replay
    reconstructs f as h + sum of coeff*cofactor*shift(G[i]).
    """
    basis = _as_basis(G)
    steps = []
    terms = f.terms
    guard = 0
    while terms:
        hit = basis.find_divisor(terms[0][0])
        if hit is None:
            break
        terms, coeff, cofactor = _head_step(basis, terms, 0, hit)
        if certificate:
            index, shift = hit
            steps.append((coeff, Monomial(cofactor, f.ring.ordering), shift, index))
        guard += 1
        if guard > HEAD_STEP_LIMIT:
            raise _step_limit_error(f)
    h = f if terms is f.terms else Polynomial(f.ring, tuple(terms))
    return (h, steps) if certificate else h


def tail_reduce(f: Polynomial, G):
    """Full normal form: every monomial of the result is out of reach of
    the shifted leading monomials.  No normalization is applied."""
    basis = _as_basis(G)
    # a step at term i leaves the terms before it alone, as every product
    # term lies below term i: the run before i moves to the output at once
    out = []
    terms, i = f.terms, 0
    guard = 0
    while i < len(terms):
        hit = basis.find_divisor(terms[i][0])
        if hit is None:
            i += 1
            continue
        out.extend(terms[:i])
        terms, i = _head_step(basis, terms, i, hit)[0], 0
        guard += 1
        if guard > HEAD_STEP_LIMIT:
            raise _step_limit_error(f)
    if terms is f.terms:
        return f
    out.extend(terms)
    return Polynomial(f.ring, tuple(out))


def reduce_full(f: Polynomial, G):
    """Tail reduction followed by monic normalization of a nonzero result."""
    h = tail_reduce(f, G)
    return h.monic() if h else h


def replay_certificate(h: Polynomial, steps, G):
    """Reconstruct the input of a certified reduction: h + sum of steps.
    Step indices refer to the nonzero elements of G, in order."""
    polys = G.polys if isinstance(G, ReducerBasis) else [g for g in G if g]
    terms = h.terms
    for coeff, cofactor, shift, index in steps:
        g = polys[index]
        terms = _add_multiple(terms, 0, g, g.offset(shift), coeff, cofactor.factors, 0)
    return Polynomial(h.ring, tuple(terms))
