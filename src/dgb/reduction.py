"""Normal forms modulo the shift orbit of a finite basis.

Reduction works against the infinite set of all shifted copies of the
basis elements.  Divisor search stays finite by anchoring on one factor
of each basis leading monomial: any shift that maps the whole
leading monomial into the target must in particular map its anchor onto
some factor of the target, which leaves finitely many candidates to
verify.
"""

from __future__ import annotations

from operator import add, sub

from .errors import InternalCheckError, RingMismatchError
from .ring import Monomial, Polynomial

HEAD_STEP_LIMIT = 10_000_000  # safety net; the well-ordering guarantees termination


class ReducerBasis:
    """A grow-only list of nonzero polynomials prepared for divisor search.

    Each element keeps the shape of its leading monomial: the anchor
    variable, every factor as an offset from the anchor, the total degree
    and the span (max minus min shift) per shift coordinate.  Shifting
    changes neither degree nor span, so an element whose degree or span
    exceeds the target's is skipped before any shift is tried.
    """

    __slots__ = ("ring", "polys", "_shapes", "_shift_cache", "max_shift_deg")

    def __init__(self, polys, max_shift_deg=None):
        polys = list(polys)
        if not polys:
            raise ValueError("reducer basis needs at least one polynomial")
        self.ring = polys[0].ring
        self.polys = []
        self._shapes = []
        self._shift_cache = {}
        self.max_shift_deg = max_shift_deg
        for p in polys:
            self.append(p)

    def __len__(self):
        return len(self.polys)

    def append(self, poly):
        """Grow the basis in place (used by completion as elements arrive)."""
        if not poly:
            raise ValueError("reducer basis elements must be nonzero")
        if poly.ring is not self.ring and poly.ring != self.ring:
            raise RingMismatchError("basis mixes different rings")
        m = poly.lm
        self.polys.append(poly)
        if m.is_one:
            self._shapes.append(None)
            return
        # any factor can anchor; the structurally last one has the
        # lexicographically largest shift of its symbol, so few target
        # factors lie above it
        sym, beta = m.factors[-1][0]
        offsets = tuple([(fsym, tuple(map(sub, shift, beta)), e)
                         for (fsym, shift), e in m.factors])
        self._shapes.append((sym, beta, offsets, m.total_degree, _span(m)))

    def shifted(self, index, shift):
        """G[index] shifted by shift, cached per basis."""
        got = self._shift_cache.get((index, shift))
        if got is None:
            got = self.polys[index].shift(shift)
            self._shift_cache[(index, shift)] = got
        return got

    def _shifts_into(self, index, target):
        """Shifts s with s*lm(G[index]) dividing a target prepared by
        _prepare, ascending in the shift ordering."""
        shape = self._shapes[index]
        if shape is None:  # constant basis element: everything reduces
            return [(0,) * self.ring.signature.shift_rank]
        exps, by_symbol, degree, span = target
        sym, beta, offsets, e_degree, e_span = shape
        if e_degree > degree or sym not in by_symbol:
            return []
        for a, b in zip(e_span, span):
            if a > b:
                return []
        bound = self.max_shift_deg
        out = []
        for alpha in by_symbol[sym]:
            s = tuple(map(sub, alpha, beta))
            if min(s) < 0 or (bound is not None and sum(s) > bound):
                continue
            for fsym, off, e in offsets:
                if exps.get((fsym, tuple(map(add, alpha, off))), 0) < e:
                    break
            else:
                out.append(s)
        if len(out) > 1:
            out.sort(key=self.ring.ordering.shift_key)
        return out

    def iter_divisors(self, target: Monomial):
        """(index, shift) for every shift with shift*lm(G[index]) dividing
        target: lowest index first, then ascending in the shift ordering."""
        prepared = _prepare(target)
        for index in range(len(self.polys)):
            for s in self._shifts_into(index, prepared):
                yield index, s

    def find_divisor(self, target: Monomial):
        """The first item of iter_divisors, or None when no shifted leading
        monomial divides target."""
        prepared = _prepare(target)
        for index in range(len(self.polys)):
            shifts = self._shifts_into(index, prepared)
            if shifts:
                return index, shifts[0]
        return None


def _span(m: Monomial):
    """Max minus min shift per coordinate over the factors of m."""
    return tuple([max(c) - min(c) for c in zip(*[var.shift for var, _ in m.factors])])


def _prepare(target: Monomial):
    """What divisor search reads of a target, built once per target: its
    exponent map, its factor shifts per symbol, its degree and its span."""
    by_symbol = {}
    for (sym, alpha), _ in target.factors:
        by_symbol.setdefault(sym, []).append(alpha)
    return dict(target.factors), by_symbol, target.total_degree, _span(target)


def _as_basis(G):
    if isinstance(G, ReducerBasis):
        return G
    G = [g for g in G if g]
    if not G:
        return None
    return ReducerBasis(G)


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
    h = f
    if basis is not None:
        guard = 0
        while h:
            hit = basis.find_divisor(h.lm)
            if hit is None:
                break
            index, shift = hit
            g = basis.shifted(index, shift)
            coeff = h.lc / g.lc
            cofactor = h.lm / g.lm
            h = h - g.mul_term(coeff, cofactor)
            if certificate:
                steps.append((coeff, cofactor, shift, index))
            guard += 1
            if guard > HEAD_STEP_LIMIT:
                raise InternalCheckError(
                    f"reduction of {f} exceeded the step safety limit "
                    f"of {HEAD_STEP_LIMIT} steps")
    return (h, steps) if certificate else h


def tail_reduce(f: Polynomial, G):
    """Full normal form: every monomial of the result is out of reach of
    the shifted leading monomials.  No normalization is applied."""
    basis = _as_basis(G)
    if basis is None:
        return f
    done = f.ring.zero
    h = f
    while h:
        h = reduce(h, basis)
        if not h:
            break
        lead = Polynomial(h.ring, h.terms[:1])
        done = done + lead
        h = h - lead
    return done


def reduce_full(f: Polynomial, G):
    """Tail reduction followed by monic normalization of a nonzero result."""
    h = tail_reduce(f, G)
    return h.monic() if h else h


def replay_certificate(h: Polynomial, steps, G):
    """Reconstruct the input of a certified reduction: h + sum of steps.
    Step indices refer to the nonzero elements of G, in order."""
    polys = G.polys if isinstance(G, ReducerBasis) else [g for g in G if g]
    total = h
    for coeff, cofactor, shift, index in steps:
        total = total + polys[index].shift(shift).mul_term(coeff, cofactor)
    return total
