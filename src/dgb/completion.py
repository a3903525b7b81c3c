"""Buchberger-style completion for difference ideals.

Critical pairs between shifted copies of basis elements are enumerated
constructively: a pair of shifts (s, t) survives both the coprimality
filter on shifts and the product criterion exactly when it comes from a
pair of factors with the same symbol in the two leading monomials, with
the shared gcd divided out.  Pairs are processed by a selection strategy
keyed on the order bound of the overlap, with optional truncation to a
maximum order, an adaptive driver that certifies completeness of the
result, and a verifier implementing the finite completeness criterion.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field, fields, replace
from operator import add, sub

from .errors import InternalCheckError, RingMismatchError
from .reduction import ReducerBasis, reduce, reduce_full, tail_reduce
from .ring import Monomial, Polynomial, spoly


@dataclass(frozen=True)
class CriticalPair:
    left_index: int
    right_index: int
    left_shift: tuple
    right_shift: tuple
    overlap_lcm: Monomial
    ord_bound: object  # int, or -inf for degenerate constants


@dataclass
class CompletionOptions:
    use_chain_criterion: bool = True
    max_pair_budget: int = 200_000
    max_order_cap: int = 64

    def __post_init__(self):
        if self.max_pair_budget <= 0 or self.max_order_cap <= 0:
            raise ValueError("budget caps must be positive")


@dataclass(frozen=True)
class CompletionStatus:
    kind: str  # complete | complete_up_to_order | budget_exhausted
    order_bound: int = None

    def __str__(self):
        if self.kind == "complete_up_to_order":
            return f"complete_up_to_order({self.order_bound})"
        return self.kind

    @property
    def is_complete(self):
        return self.kind == "complete"


@dataclass
class PairStats:
    generated: int = 0
    killed_product: int = 0
    killed_sigma: int = 0
    killed_chain: int = 0
    killed_truncation: int = 0
    reduced_to_zero: int = 0
    new_elements: int = 0
    sweeps: int = 1

    def merge(self, other):
        """Add another run's pair counts; sweeps are counted by
        sigma_gbasis_adaptive, which runs them."""
        for f in fields(self):
            if f.name != "sweeps":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self):
        return asdict(self)


@dataclass
class SigmaBasis:
    """Result of a completion run: monic elements plus a status."""

    ring: object
    elements: tuple
    status: CompletionStatus
    stats: PairStats = field(default_factory=PairStats)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def leading_monomials(self):
        return [g.lm for g in self.elements]


def shift_pair_candidates(lm_f: Monomial, lm_g: Monomial, same: bool):
    """Surviving (s, t) shift pairs for one pair of leading monomials.

    Returns (pairs, raw_count): the deduplicated list, sorted for
    determinism, plus the number of raw factor matches before collapsing
    duplicates and identity self-pairs.
    """
    raw = 0
    out = set()
    for (sym_a, alpha), _ in lm_f.factors:
        for (sym_b, beta), _ in lm_g.factors:
            if sym_a != sym_b:
                continue
            raw += 1
            sigma = tuple(b - min(a, b) for a, b in zip(alpha, beta))
            tau = tuple(a - min(a, b) for a, b in zip(alpha, beta))
            if same:
                if sigma == tau:
                    continue  # the trivial self-overlap
                if sigma > tau:
                    sigma, tau = tau, sigma  # symmetric duplicate
            out.add((sigma, tau))
    return sorted(out), raw


def critical_pairs(f: Polynomial, g: Polynomial, left_index=0, right_index=1):
    """The finite set of critical pairs of two nonzero polynomials."""
    if not f or not g:
        raise ValueError("critical pairs of the zero polynomial are undefined")
    same = f == g
    if same:
        right_index = left_index
    pairs, _ = shift_pair_candidates(f.lm, g.lm, same)
    out = []
    for sigma, tau in pairs:
        overlap = f.lm.shift(sigma).lcm(g.lm.shift(tau))
        out.append(CriticalPair(left_index, right_index, sigma, tau,
                                overlap, overlap.order))
    return out


def _instance_id(i, si, j, sj):
    """Canonical identity of a pair of shifted basis elements, with the
    common shift divided out so that equivalent pairs coincide."""
    delta = tuple(map(min, si, sj))
    a = (i, tuple(map(sub, si, delta)))
    b = (j, tuple(map(sub, sj, delta)))
    return (a, b) if a <= b else (b, a)


def _shifted_overlap(lm_a, sa, lm_b, sb):
    """Whether the two shifted leading monomials share a variable, without
    materializing the shifted monomials."""
    moved = {(sym, tuple(map(add, alpha, sa))) for (sym, alpha), _ in lm_a.factors}
    return any((sym, tuple(map(add, beta, sb))) in moved
               for (sym, beta), _ in lm_b.factors)


class _Run:
    """One completion run over a fixed ring."""

    def __init__(self, generators, options: CompletionOptions, bound=None):
        self.options = options
        self.bound = bound
        self.stats = PairStats()
        self.ring = None
        gens = []
        for g in generators:
            if not g:
                continue
            if self.ring is None:
                self.ring = g.ring
            elif g.ring is not self.ring and g.ring != self.ring:
                raise RingMismatchError("generators mix different rings")
            gens.append(g.monic())
        self.G = gens
        self.reducer = ReducerBasis(gens) if gens else None
        self.queue = []
        self.seq = 0
        self.processed = set()
        self.exhausted = False

    def _push_pairs(self, i, j):
        lm_i, lm_j = self.G[i].lm, self.G[j].lm
        pairs, raw = shift_pair_candidates(lm_i, lm_j, i == j)
        if raw == 0:
            self.stats.killed_product += 1
        self.stats.killed_sigma += raw - len(pairs)
        key = self.ring.ordering.monomial_key
        for sigma, tau in pairs:
            overlap = lm_i.shift(sigma).lcm(lm_j.shift(tau))
            bound = overlap.order
            if self.bound is not None and bound > self.bound:
                self.stats.killed_truncation += 1
                continue
            self.stats.generated += 1
            entry = (bound, key(overlap), self.seq, i, j, sigma, tau, overlap)
            self.seq += 1
            heapq.heappush(self.queue, entry)

    def _certified(self, i, si, j, sj):
        """Whether the pair of shifted elements (i,si),(j,sj) is already
        known to have a Groebner representation."""
        if (i, si) == (j, sj):
            return True
        if not _shifted_overlap(self.G[i].lm, si, self.G[j].lm, sj):
            return True  # product criterion
        return _instance_id(i, si, j, sj) in self.processed

    def _chain_skippable(self, i, si, j, sj, overlap):
        for k, nu in self.reducer._divisor_shifts(overlap):
            if (k, nu) == (i, si) or (k, nu) == (j, sj):
                continue
            if self._certified(i, si, k, nu) and self._certified(k, nu, j, sj):
                return True
        return False

    def run(self):
        if not self.G:
            return
        if any(g.lm.is_one for g in self.G):
            self.G = [self.ring.one]
            self.reducer = ReducerBasis(self.G)
            return
        for j in range(len(self.G)):
            for i in range(j + 1):
                self._push_pairs(i, j)
        pops = 0
        while self.queue:
            entry = heapq.heappop(self.queue)
            i, j, sigma, tau, overlap = entry[-5:]
            pops += 1
            if pops > self.options.max_pair_budget:
                self.exhausted = True
                return
            inst = _instance_id(i, sigma, j, tau)
            if inst in self.processed:
                continue
            if self.options.use_chain_criterion and self._chain_skippable(
                    i, sigma, j, tau, overlap):
                self.processed.add(inst)
                self.stats.killed_chain += 1
                continue
            s = spoly(self.G[i].shift(sigma), self.G[j].shift(tau))
            h = reduce(s, self.reducer)
            self.processed.add(inst)
            if not h:
                self.stats.reduced_to_zero += 1
                continue
            h = tail_reduce(h, self.reducer)
            h = h.monic()
            if h.lm.is_one:
                self.G = [self.ring.one]
                self.reducer = ReducerBasis(self.G)
                return
            self.G.append(h)
            self.reducer.append(h)
            self.stats.new_elements += 1
            new = len(self.G) - 1
            for t in range(new + 1):
                self._push_pairs(t, new)


def _sorted_elements(ring, elements):
    key = ring.ordering.monomial_key
    return tuple(sorted(elements, key=lambda g: key(g.lm)))


def _resolve(options, overrides):
    if options is None:
        options = CompletionOptions()
    if overrides:
        options = replace(options, **overrides)
    return options


def _complete(generators, options, overrides, bound=None):
    """One completion run, unbounded or truncated at the order bound."""
    options = _resolve(options, overrides)
    generators = list(generators)
    kept = generators if bound is None else [g for g in generators if g.order <= bound]
    run = _Run(kept, options, bound=bound)
    kind = "complete" if bound is None else "complete_up_to_order"
    if run.ring is None:
        ring = generators[0].ring if generators else None
        return SigmaBasis(ring, (), CompletionStatus(kind, bound), PairStats())
    run.run()
    if run.exhausted:
        kind = "budget_exhausted"
    return SigmaBasis(run.ring, _sorted_elements(run.ring, run.G),
                      CompletionStatus(kind, bound), run.stats)


def sigma_gbasis(generators, options=None, **overrides):
    """Complete a finite generating set into a Groebner basis closed under
    the shift action.  May not halt on its own; the pair budget converts
    divergence into an explicit budget_exhausted status."""
    return _complete(generators, options, overrides)


def sigma_gbasis_truncated(generators, order_bound, options=None, **overrides):
    """Bounded completion: only generators and critical pairs whose order
    fits under the bound are processed.  Always terminates."""
    if order_bound < 0:
        raise ValueError("truncation order must be non-negative")
    return _complete(generators, options, overrides, order_bound)


def sigma_gbasis_adaptive(generators, options=None, **overrides):
    """Self-certifying completion: repeat bounded runs with the bound set
    to twice the maximal order of the current leading monomials until the
    bound stabilizes, then verify completeness with the finite criterion.

    Diverges only when no finite basis exists; the order cap turns that
    into a budget_exhausted status.
    """
    options = _resolve(options, overrides)
    generators = [g for g in generators if g]
    if not generators:
        return SigmaBasis(None, (), CompletionStatus("complete"), PairStats())
    ring = generators[0].ring
    if not ring.ordering.is_order_compatible:
        raise ValueError("adaptive completion requires an order-compatible ordering")
    G = [g.monic() for g in generators]
    stats = PairStats(sweeps=0)
    bound = None
    while True:
        if any(g.lm.is_one for g in G):
            return SigmaBasis(ring, (ring.one,), CompletionStatus("complete"), stats)
        d = max(g.lm.order for g in G)
        if bound is not None and bound >= 2 * d:
            break
        bound = 2 * d
        if bound > options.max_order_cap:
            return SigmaBasis(ring, _sorted_elements(ring, G),
                              CompletionStatus("budget_exhausted"), stats)
        run = _Run(G, options, bound=bound)
        run.run()
        stats.merge(run.stats)
        stats.sweeps += 1
        if run.exhausted:
            return SigmaBasis(ring, _sorted_elements(ring, run.G),
                              CompletionStatus("budget_exhausted"), stats)
        G = run.G
    basis = SigmaBasis(ring, _sorted_elements(ring, G), CompletionStatus("complete"), stats)
    report = verify_sigma_gbasis(basis)
    if not report.ok:
        i, j, sigma, tau, h = report.failures[0]
        raise InternalCheckError(
            f"adaptive completion failed verification: the pair of elements "
            f"{i} shifted by {sigma} and {j} shifted by {tau} leaves the "
            f"remainder {h}")
    return basis


@dataclass
class VerificationReport:
    ok: bool
    failures: list  # (left_index, right_index, left_shift, right_shift, remainder)
    checked_pairs: int = 0

    def __bool__(self):
        return self.ok


def verify_sigma_gbasis(basis_or_elements):
    """Finite completeness check: every surviving critical pair must reduce
    to zero against shifts of degree at most twice the maximal leading
    order.  Requires an order-compatible ordering."""
    elements = [g for g in basis_or_elements if g]
    if not elements:
        return VerificationReport(True, [])
    ring = elements[0].ring
    if not ring.ordering.is_order_compatible:
        raise ValueError("verification requires an order-compatible ordering")
    if any(g.lm.is_one for g in elements):
        return VerificationReport(True, [])
    d = max(g.lm.order for g in elements)
    reducer = ReducerBasis(elements, max_shift_deg=2 * d)
    failures = []
    checked = 0
    for j in range(len(elements)):
        for i in range(j + 1):
            pairs, _ = shift_pair_candidates(elements[i].lm, elements[j].lm, i == j)
            for sigma, tau in pairs:
                checked += 1
                s = spoly(elements[i].shift(sigma), elements[j].shift(tau))
                h = reduce(s, reducer)
                if h:
                    failures.append((i, j, sigma, tau, h))
    return VerificationReport(not failures, failures, checked)


def _pure_power_table(ring, monomials):
    """The pure-power table of a set of leading monomials: entry [i][j] is
    the least k such that symbol_i(op_j^k) is reachable from one of the
    monomials under the shift action, None when no such k exists.

    Only single variables with exponent one can reach a variable; one with
    the identity shift reaches every pure power of its symbol.
    """
    r = ring.signature.shift_rank
    table = [[None] * r for _ in ring.signature.symbols]
    for m in monomials:
        if len(m.factors) != 1 or m.factors[0][1] != 1:
            continue
        (sym, shift), _ = m.factors[0]
        support = [j for j, a in enumerate(shift) if a]
        if not support:
            table[sym] = [0] * r
        elif len(support) == 1:
            j = support[0]
            if table[sym][j] is None or shift[j] < table[sym][j]:
                table[sym][j] = shift[j]
    return table


def membership_degrees(basis_or_elements):
    """Minimal degrees d such that the pure-power variable of each
    (symbol, shift operator) pair is reachable among shifted leading
    monomials; None entries are not yet covered."""
    elements = list(basis_or_elements)
    if not elements:
        return None
    return _pure_power_table(elements[0].ring, [g.lm for g in elements])


def check_finite_membership(basis_or_elements):
    """The full degree table when every (symbol, shift operator) pair has a
    pure-power variable among reachable leading monomials, else None.
    A full table guarantees the completion will terminate."""
    table = membership_degrees(basis_or_elements)
    if table is None:
        return None
    if any(entry is None for row in table for entry in row):
        return None
    return table


def _minimalize_elements(ring, elements):
    key = ring.ordering.monomial_key
    reducer = None
    for g in sorted(elements, key=lambda g: key(g.lm)):
        if reducer is None:
            reducer = ReducerBasis([g])
        elif reducer.find_divisor(g.lm) is None:
            reducer.append(g)
    return [] if reducer is None else list(reducer.polys)


def minimalize(basis):
    """Drop every element whose leading monomial is reachable from another
    element's leading monomial by shifting and multiplying."""
    if isinstance(basis, SigmaBasis):
        kept = _minimalize_elements(basis.ring, basis.elements)
        return SigmaBasis(basis.ring, tuple(kept), basis.status, basis.stats)
    elements = list(basis)
    if not elements:
        return []
    return _minimalize_elements(elements[0].ring, elements)


def interreduce(basis):
    """Minimalize, then tail-reduce every survivor against the others until
    nothing changes; results are monic.  On a complete basis this yields
    the canonical reduced basis."""
    is_sigma = isinstance(basis, SigmaBasis)
    elements = list(basis.elements if is_sigma else basis)
    if elements:
        ring = elements[0].ring
        elements = _minimalize_elements(ring, elements)
        changed = True
        while changed:
            changed = False
            for idx in range(len(elements)):
                others = elements[:idx] + elements[idx + 1:]
                if not others:
                    new = elements[idx].monic()
                else:
                    new = reduce_full(elements[idx], others, monic=True)
                if new != elements[idx]:
                    elements[idx] = new
                    changed = True
        elements = sorted(elements, key=lambda g: ring.ordering.monomial_key(g.lm))
    if is_sigma:
        return SigmaBasis(basis.ring, tuple(elements), basis.status, basis.stats)
    return elements
