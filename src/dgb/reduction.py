"""Normal forms modulo the shift orbit of a finite basis.

Reduction works against the infinite set of all shifted copies of the
basis elements.  Divisor search stays finite by anchoring on the largest
factor of each basis leading monomial: any shift that maps the whole
leading monomial into the target must in particular map its anchor onto
some factor of the target, which leaves finitely many candidates to
verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import shifts as sh
from .errors import InternalCheckError, RingMismatchError
from .ring import Monomial, Polynomial

HEAD_STEP_LIMIT = 10_000_000  # safety net; the well-ordering guarantees termination


@dataclass(frozen=True)
class DivisorHit:
    """One way a shifted basis leading monomial divides a target monomial:
    cofactor * shift(lead monomial of G[basis_index]) == target."""

    basis_index: int
    shift: tuple
    cofactor: Monomial


class ReducerBasis:
    """A grow-only list of nonzero polynomials prepared for divisor search."""

    __slots__ = ("ring", "polys", "_lms", "_anchors", "_shift_cache",
                 "max_shift_deg")

    def __init__(self, polys, max_shift_deg=None):
        polys = list(polys)
        if not polys:
            raise ValueError("reducer basis needs at least one polynomial")
        self.ring = polys[0].ring
        self.polys = []
        self._lms = []
        self._anchors = []
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
        self.polys.append(poly)
        self._lms.append(poly.lm)
        key = self.ring.ordering.variable_key
        m = poly.lm
        self._anchors.append(None if m.is_one else max(m.variables(), key=key))

    def shifted(self, index, shift):
        got = self._shift_cache.get((index, shift))
        if got is None:
            got = self.polys[index].shift(shift)
            self._shift_cache[(index, shift)] = got
        return got

    def _shifted_divides(self, index, s, target_exps):
        """Whether shifting the leading monomial of G[index] by s divides a
        target given as a {VarRef: exp} dict, without building the monomial."""
        for (sym, beta), e in self._lms[index].factors:
            moved = tuple(a + b for a, b in zip(beta, s))
            if target_exps.get((sym, moved), 0) < e:
                return False
        return True

    def candidate_shifts(self, index, target: Monomial):
        """Shifts s with s*lm(G[index]) dividing target, ascending in the
        shift ordering."""
        anchor = self._anchors[index]
        if anchor is None:  # constant basis element: everything reduces
            return [sh.identity(self.ring.signature.shift_rank)]
        seen = set()
        sym, beta = anchor
        for (tsym, alpha), _ in target.factors:
            if tsym != sym:
                continue
            if all(a >= b for a, b in zip(alpha, beta)):
                seen.add(tuple(a - b for a, b in zip(alpha, beta)))
        if self.max_shift_deg is not None:
            seen = {s for s in seen if sh.deg(s) <= self.max_shift_deg}
        if not seen:
            return []
        target_exps = dict(target.factors)
        out = [s for s in seen if self._shifted_divides(index, s, target_exps)]
        out.sort(key=self.ring.ordering.shift_key)
        return out

    def find_divisor(self, target: Monomial):
        """First hit under the deterministic tie-break: lowest basis index,
        then smallest shift.  None when no shifted leading monomial divides."""
        for index in range(len(self.polys)):
            for s in self.candidate_shifts(index, target):
                shifted_lm = self._lms[index].shift(s)
                return DivisorHit(index, s, target / shifted_lm)
        return None

    def iter_divisors(self, target: Monomial):
        """All hits, for callers that need the full set (chain criterion)."""
        for index in range(len(self.polys)):
            for s in self.candidate_shifts(index, target):
                yield DivisorHit(index, s, target / self._lms[index].shift(s))


def _as_basis(G, max_shift_deg=None):
    if isinstance(G, ReducerBasis):
        return G
    G = [g for g in G if g]
    if not G:
        return None
    return ReducerBasis(G, max_shift_deg=max_shift_deg)


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
            g = basis.shifted(hit.basis_index, hit.shift)
            coeff = h.lc / g.lc
            h = h - g.mul_term(coeff, hit.cofactor)
            if certificate:
                steps.append((coeff, hit.cofactor, hit.shift, hit.basis_index))
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


def reduce_full(f: Polynomial, G, monic=True):
    """Tail reduction followed by monic normalization of a nonzero result."""
    h = tail_reduce(f, G)
    if h and monic:
        h = h.monic()
    return h


def replay_certificate(h: Polynomial, steps, G):
    """Reconstruct the input of a certified reduction: h + sum of steps."""
    basis = _as_basis(G)
    total = h
    for coeff, cofactor, shift, index in steps:
        total = total + basis.polys[index].shift(shift).mul_term(coeff, cofactor)
    return total
