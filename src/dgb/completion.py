"""Buchberger-style completion for difference ideals.

Critical pairs between shifted copies of basis elements are enumerated
constructively: a pair of shifts (s, t) survives both the coprimality
filter on shifts and the product criterion exactly when it comes from a
pair of factors with the same symbol in the two leading monomials, with
the shared gcd divided out.  Pairs are processed by a selection strategy
keyed on the order bound of the overlap.  The product criterion lives only
in this enumeration: the chain test counts a pair of shifted elements as
certified exactly when it is not waiting in the queue (see _Run).

Every driver is one pipeline: the generators are normalised once (one
ring, zeros dropped, monic, a unit collapsing to 1), one run of the pair
loop is made per order bound (none for plain completion, the given bound
for truncated completion, a doubling bound for the adaptive driver until
it stabilises), and one builder sorts the elements into the result.  The
adaptive result is certified by the verifier, which implements the finite
completeness criterion.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field, replace
from operator import sub

from .errors import InternalCheckError, RingMismatchError
from .reduction import ReducerBasis, reduce, reduce_full
from .ring import Monomial, spoly


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


def shift_pair_candidates(lm_f: Monomial, lm_g: Monomial, same: bool):
    """Surviving (s, t) shift pairs for one pair of leading monomials.

    Returns (pairs, raw_count): the deduplicated list, sorted for
    determinism, plus the number of raw factor matches before collapsing
    duplicates and identity self-pairs.
    """
    raw = 0
    out = set()
    right = lm_g.decoded()
    for (sym_a, alpha), _ in lm_f.decoded():
        for (sym_b, beta), _ in right:
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


def _instance_id(i, si, j, sj):
    """Canonical identity of a pair of shifted basis elements, with the
    common shift divided out so that equivalent pairs coincide."""
    delta = tuple(map(min, si, sj))
    a = (i, tuple(map(sub, si, delta)))
    b = (j, tuple(map(sub, sj, delta)))
    return (a, b) if a <= b else (b, a)


def _monic_generators(generators):
    """(ring, G): the ring every generator shares (None when none is
    given) and the nonzero generators made monic, collapsed to [1] when
    one of them is a unit."""
    generators = list(generators)
    ring = generators[0].ring if generators else None
    G = []
    for g in generators:
        if g.ring is not ring and g.ring != ring:
            raise RingMismatchError("generators mix different rings")
        if g:
            G.append(g.monic())
    if any(g.lm.is_one for g in G):
        return ring, [ring.one]
    return ring, G


class _Run:
    """One pass of the pair loop over a nonempty, non-unit, monic G,
    adding its pair counts to the given stats.

    open holds the ids of the queued pairs not yet treated.  A shifted pair
    shares a variable iff its id is a candidate, queued once both elements
    are present; the chain test asks only about pairs whose overlap divides
    the one in hand, which truncation kept.  So such a pair is certified
    (product criterion or treated) iff its id is not in open."""

    def __init__(self, G, options: CompletionOptions, bound, stats):
        self.options = options
        self.bound = bound
        self.stats = stats
        self.reducer = ReducerBasis(G)
        self.queue = []
        self.seq = 0
        self.open = set()

    def _push_pairs(self, i, j):
        G = self.reducer.polys
        lm_i, lm_j = G[i].lm, G[j].lm
        pairs, raw = shift_pair_candidates(lm_i, lm_j, i == j)
        if raw == 0:
            self.stats.killed_product += 1
        self.stats.killed_sigma += raw - len(pairs)
        for sigma, tau in pairs:
            overlap = lm_i.shift(sigma).lcm(lm_j.shift(tau))
            bound = overlap.order
            if self.bound is not None and bound > self.bound:
                self.stats.killed_truncation += 1
                continue
            self.stats.generated += 1
            pair_id = ((i, sigma), (j, tau))  # canonical: min(sigma, tau) == 0
            self.open.add(pair_id)
            heapq.heappush(self.queue, (bound, overlap.key, self.seq, pair_id, overlap))
            self.seq += 1

    def _certified(self, i, si, j, sj):
        """Whether the pair of shifted elements (i,si),(j,sj) is already
        known to have a Groebner representation."""
        return _instance_id(i, si, j, sj) not in self.open

    def _chain_skippable(self, i, si, j, sj, overlap):
        for k, nu in self.reducer.iter_divisors(overlap):
            if (k, nu) == (i, si) or (k, nu) == (j, sj):
                continue
            if self._certified(i, si, k, nu) and self._certified(k, nu, j, sj):
                return True
        return False

    def run(self):
        """(G, exhausted): the grown basis, or [1] once a unit appears, and
        whether the pair budget ran out first."""
        G = self.reducer.polys
        for j in range(len(G)):
            for i in range(j + 1):
                self._push_pairs(i, j)
        pops = 0
        while self.queue:
            *_, pair_id, overlap = heapq.heappop(self.queue)
            (i, sigma), (j, tau) = pair_id
            pops += 1
            if pops > self.options.max_pair_budget:
                return G, True
            self.open.remove(pair_id)
            if self.options.use_chain_criterion and self._chain_skippable(
                    i, sigma, j, tau, overlap):
                self.stats.killed_chain += 1
                continue
            h = reduce_full(spoly(G[i].shift(sigma), G[j].shift(tau)), self.reducer)
            if not h:
                self.stats.reduced_to_zero += 1
                continue
            if h.lm.is_one:
                return [self.reducer.ring.one], False
            self.reducer.append(h)
            self.stats.new_elements += 1
            new = len(G) - 1
            for t in range(new + 1):
                self._push_pairs(t, new)
        return G, False


def _sorted(elements):
    """The elements in increasing order of leading monomial."""
    return sorted(elements, key=lambda g: g.lm.key)


def _basis(ring, G, kind, stats, bound=None):
    """The result of a driver: G sorted by leading monomial, its status."""
    return SigmaBasis(ring, tuple(_sorted(G)), CompletionStatus(kind, bound), stats)


def _resolve(options, overrides):
    if options is None:
        options = CompletionOptions()
    if overrides:
        options = replace(options, **overrides)
    return options


def _complete(generators, options, overrides, bound=None):
    """One completion run, unbounded or truncated at the order bound."""
    options = _resolve(options, overrides)
    ring, G = _monic_generators(generators)
    if bound is not None:
        G = [g for g in G if g.order <= bound]
    kind = "complete" if bound is None else "complete_up_to_order"
    stats = PairStats()
    if G and not G[0].lm.is_one:
        G, exhausted = _Run(G, options, bound, stats).run()
        if exhausted:
            kind = "budget_exhausted"
    return _basis(ring, G, kind, stats, bound)


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
    ring, G = _monic_generators(generators)
    if G and not ring.ordering.is_order_compatible:
        raise ValueError("adaptive completion requires an order-compatible ordering")
    stats = PairStats(sweeps=0)
    bound = None
    while G and not G[0].lm.is_one:
        d = max(g.lm.order for g in G)
        if bound is not None and bound >= 2 * d:
            break
        bound = 2 * d
        if bound > options.max_order_cap:
            return _basis(ring, G, "budget_exhausted", stats)
        G, exhausted = _Run(G, options, bound, stats).run()
        stats.sweeps += 1
        if exhausted:
            return _basis(ring, G, "budget_exhausted", stats)
    basis = _basis(ring, G, "complete", stats)
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
    ring, elements = _monic_generators(basis_or_elements)
    if not elements:
        return VerificationReport(True, [])
    if not ring.ordering.is_order_compatible:
        raise ValueError("verification requires an order-compatible ordering")
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


def _same_kind(basis, elements):
    """The elements as a SigmaBasis with the status and stats of basis
    when basis is one, else as a list."""
    if isinstance(basis, SigmaBasis):
        return replace(basis, elements=tuple(elements))
    return list(elements)


def _minimalize_elements(elements):
    reducer = ReducerBasis([])
    for g in _sorted(g for g in elements if g):
        if reducer.find_divisor(g.lm) is None:
            reducer.append(g)
    return reducer.polys


def minimalize(basis):
    """Drop zeros and every element whose leading monomial is reachable
    from another element's leading monomial by shifting and multiplying."""
    return _same_kind(basis, _minimalize_elements(basis))


def interreduce(basis):
    """Minimalize, then tail-reduce each survivor against the smaller
    reduced ones, in increasing order of leading monomial (a larger one
    never reaches a lower term); results are monic.  On a complete basis
    this yields the canonical reduced basis."""
    reduced = ReducerBasis([])
    for g in _minimalize_elements(basis):
        reduced.append(reduce_full(g, reduced))
    return _same_kind(basis, reduced.polys)
