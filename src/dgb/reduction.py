"""Normal forms modulo the shift orbit of a finite basis.

Reduction works against the infinite set of all shifted copies of the
basis elements.  Divisor search stays finite by anchoring on one factor
of each basis leading monomial: any shift that maps the whole
leading monomial into the target must in particular map its anchor onto
some factor of the target, which leaves finitely many candidates to
verify.  On packed variables a shift adds one constant to every variable,
so mapping the anchor onto a target variable fixes that constant, and the
other factors are probed at their offsets from the anchor.
"""

from __future__ import annotations

from operator import sub

from .errors import InternalCheckError, RingMismatchError
from .orderings import MAX_SHIFT_DEGREE
from .ring import Monomial, Polynomial

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

    __slots__ = ("ring", "polys", "leads", "_shapes")

    def __init__(self, polys):
        self.ring = None
        self.polys, self.leads, self._shapes = [], [], []
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

    def _shifts_into(self, shape, factors, exps):
        """Shifts s with s*lm dividing the target with the given factors
        and exponent map, lm the leading monomial of the given shape,
        ascending in the shift ordering."""
        _, _, anchor, beta, offsets, order = shape
        n = self.ring.ordering.n_symbols
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
                s = tuple(map(sub, self.ring.ordering.decode(w).shift, beta))
                if min(s) >= 0 and order + sum(s) <= MAX_SHIFT_DEGREE:
                    out.append(s)
        out.reverse()
        return out

    def iter_divisors(self, target: Monomial):
        """(index, shift) for every shift with shift*lm(G[index]) dividing
        target: lowest index first, then ascending in the shift ordering."""
        factors = target.factors
        exps = dict(factors)
        degree = target.total_degree
        # the largest variable and the spread; -1 lies below every variable
        top, spread = (factors[0][0], factors[0][0] - factors[-1][0]) if factors else (-1, 0)
        for index, shape in enumerate(self._shapes):
            if shape is None:  # a constant element divides everything
                yield index, (0,) * self.ring.signature.shift_rank
            elif shape[0] <= degree and shape[1] <= spread and shape[2] <= top:
                for s in self._shifts_into(shape, factors, exps):
                    yield index, s

    def find_divisor(self, target: Monomial):
        """The first item of iter_divisors, or None when no shifted leading
        monomial divides target."""
        return next(self.iter_divisors(target), None)


def _as_basis(G):
    if isinstance(G, ReducerBasis):
        return G
    return ReducerBasis([g for g in G if g])


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
    guard = 0
    while h:
        hit = basis.find_divisor(h.lm)
        if hit is None:
            break
        index, shift = hit
        g = basis.polys[index].shift(shift)
        coeff = h.lc / g.lc
        cofactor = h.lm / g.lm
        h = h + g.mul_term(-coeff, cofactor)
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
    # each kept lead is below every earlier one, so the kept terms stay sorted
    terms = []
    h = f
    while h:
        h = reduce(h, basis)
        if not h:
            break
        terms.append(h.terms[0])
        h = Polynomial(h.ring, h.terms[1:])
    return Polynomial(f.ring, tuple(terms))


def reduce_full(f: Polynomial, G):
    """Tail reduction followed by monic normalization of a nonzero result."""
    h = tail_reduce(f, G)
    return h.monic() if h else h


def replay_certificate(h: Polynomial, steps, G):
    """Reconstruct the input of a certified reduction: h + sum of steps.
    Step indices refer to the nonzero elements of G, in order."""
    polys = _as_basis(G).polys
    total = h
    for coeff, cofactor, shift, index in steps:
        total = total + polys[index].shift(shift).mul_term(coeff, cofactor)
    return total
