"""Buchberger-style completion for difference ideals.

Critical pairs between shifted copies of basis elements are enumerated
constructively: a pair of shifts (s, t) survives both the coprimality
filter on shifts and the product criterion exactly when it comes from a
pair of factors with the same symbol in the two leading monomials, with
the shared gcd divided out.  Pairs are processed by a selection strategy
keyed on the order bound of the overlap.  The product criterion lives only
in this enumeration: the chain test counts a pair of shifted elements as
certified exactly when it is not waiting in the group of the popped
overlap (see _Run).

Every driver is one pipeline: the generators are normalised once (one
ring, zeros dropped, monic, a unit collapsing to 1), one run of the pair
loop is made per order bound (none for plain completion, the given bound
for truncated completion, a doubling bound for the adaptive driver until
it stabilises), and one builder sorts the elements into the result.  The
adaptive result is certified by the verifier, which implements the finite
completeness criterion.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from math import isqrt
from operator import sub

from .errors import InternalCheckError, RingMismatchError
from .records import Factory, Record
from .reduction import ReducerBasis, reduce, reduce_full
from .ring import _lcm, shifted_spoly


class CompletionOptions(Record, frozen=True):
    """The settings a run of the pair loop reads, from the keywords of a
    driver; validated here and nowhere else."""

    use_chain_criterion: bool = True
    max_pair_budget: int = 200_000

    def __post_init__(self):
        if self.max_pair_budget <= 0:
            raise ValueError("budget caps must be positive")


class CompletionStatus(Record, frozen=True):
    kind: str  # complete | complete_up_to_order | budget_exhausted
    order_bound: int = None

    def __str__(self):
        if self.kind == "complete_up_to_order":
            return f"complete_up_to_order({self.order_bound})"
        return self.kind


class PairStats(Record):
    generated: int = 0
    killed_product: int = 0
    killed_sigma: int = 0
    killed_chain: int = 0
    killed_truncation: int = 0
    reduced_to_zero: int = 0
    new_elements: int = 0
    sweeps: int = 1


class SigmaBasis(Record):
    """Result of a completion run: monic elements plus a status."""

    ring: object
    elements: tuple
    status: CompletionStatus
    stats: PairStats = Factory(PairStats)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def shift_pair_candidates(left, right, same: bool, derived):
    """Surviving (s, t) shift pairs for two leading monomials.

    Returns (pairs, raw_count): the deduplicated list, sorted for
    determinism, plus the number of raw factor matches before collapsing
    duplicates and identity self-pairs.  Two packed variables share a
    symbol iff they differ by a multiple of the symbol count n, and var // n
    is the key of the variable's shift.  derived maps each pair of factor
    shift keys met so far to its shift pair, with the common shift divided
    out; the call fills it, decoding the two shifts on a miss, so callers
    that share it derive each pair once.  A constant has no factor to
    match: ([], 0).
    """
    if left.is_one or right.is_one:
        return [], 0
    ordering = left.ordering
    n = ordering.n_symbols
    raw = 0
    out = set()
    for va, _ in left.factors:
        for vb, _ in right.factors:
            if (va - vb) % n:
                continue
            raw += 1
            keys = va // n, vb // n
            pair = derived.get(keys)
            if pair is None:
                alpha, beta = ordering.decode(va).shift, ordering.decode(vb).shift
                common = tuple(map(min, alpha, beta))
                pair = derived[keys] = (tuple(map(sub, beta, common)),
                                        tuple(map(sub, alpha, common)))
            if same:
                sigma, tau = pair
                if sigma == tau:
                    continue  # the trivial self-overlap
                if sigma > tau:
                    pair = tau, sigma  # symmetric duplicate
            out.add(pair)
    return sorted(out), raw


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

    *Queue.*  Pairs are queued by overlap, the lcm of two shifted leading
    monomials (one ring._lcm of their factor tuples).  waiting maps the
    overlap's factor tuple to the ids of the pairs with that overlap not
    yet taken: the bare id of a lone pair, or a group, the list of its ids
    in push order, made when a second pair arrives, which most overlaps
    never get (four in five on grow.dgb).  queue is a heap of the waiting
    overlaps' queue keys (Ordering.queue_key), one immutable key per
    overlap, which sorts as (order, monomial key) does, and
    Ordering.queue_factors gives back the factor tuple that waiting holds.
    Under lex symbols and a graded shift order the queue key is that tuple
    itself, and otherwise it holds that tuple as its last item: never a
    copy.  A pair whose overlap is waiting is added to its entry and needs
    no key and no heap push.  The loop takes the first id of the overlap on
    top of the heap, and pops the key, dropping the overlap from waiting,
    when it takes its last id; a lone pair's is its only one.

    *Pair ids.*  Each shifted element (i, sigma) that a push meets gets a
    code, the next free int, kept for the run: codes[i][sigma] is the code,
    elements[code] is (i, sigma) and shifted[code] is the factor tuple of
    sigma*lm(G[i]), so a push looks a shifted lead up by its shift alone.
    codes[i] is made on first use, so no per-element list follows the
    reducer as it grows.
    No pair joins an element to itself, as shift_pair_candidates drops the
    trivial self-overlap, so its two codes differ.  The id of the pair of
    elements with codes h > l is the int h*h + l, one int in place of a
    tuple per pair.  As h*h <= h*h + l < (h + 1)**2, isqrt gives h back,
    and then l; the loop orders the two elements as (i, sigma) <=
    (j, tau), the canonical id with min(sigma, tau) = 0 entrywise.  An id
    names an unordered pair of shifted elements, with no shift divided
    out, so a chain query makes the id of a pair from the codes of its two
    halves; an element with no code is in no queued pair.  The shift pairs
    of two elements come from their packed leading monomials and per-run
    derivations of their factor shifts (shift_pair_candidates).

    *Pop order.*  Pairs pop exactly as from a heap of (order, key, seq) per
    pair, seq counting pushes.  An overlap's key is in the heap iff the
    overlap is in waiting iff it has ids (a lone id, or a nonempty group),
    as the loop drops it from both when it takes its last id, and a push
    adds both or neither.  The key compares as the monomial
    order does, and the ordering is total, so distinct overlaps have
    distinct keys; the queue key sorts as (order, key) does (orderings.py)
    and waiting holds each overlap once, so the heap holds distinct keys,
    never ties, and orders the overlaps by (order, key).  An overlap's ids
    are in seq order: a lone id is the only one, and a group lists them in
    push order, since a pushed id goes to the end of the waiting entry of
    its overlap (a lone id becoming a group's first) or starts a new entry
    when none waits, and a take removes the first.  So the least (order,
    key, seq) among the queued pairs is the first id of the overlap on top:
    the id the loop takes.  That holds after every push, so a new pair with a smaller key
    than the popped one is on top at the next step, as in the per-pair
    heap.

    *Divisor list.*  A chain query reads a divisor list, then resumes a
    suspended search (ReducerBasis.divisor_runs), made over the reducer's
    first size elements in the killer-first order of the query that
    started it, and appends what it yields.  That query passes the killers
    of its two halves as a tuple of at most two distinct indices, the left
    half's first, which the search tries before the other indices in index
    order.  A resume reads one index and yields all of its hits, and the
    query appends them all before it tests any, so the list is always the
    complete hits of the indices read so far, in search order, and the
    unread remainder is the search over the other indices.  So list plus
    remainder is divisor_runs on the overlap, its runs flattened, over the
    first size elements in that order, whichever pairs read before and
    wherever they stopped: a query drops no item and reads none twice, and
    an item once appended stays.  Its set is the (k, nu) with k < size and
    nu*lm(G[k]) dividing the overlap, which depends only on the overlap and
    on leading monomials that never change, as elements are only appended.
    So while the reducer's length is unchanged every query of one overlap
    may read the same set, whichever pair it serves and whatever killers
    that pair has.  The test asks whether some member certifies both
    halves, reading the group's ids at each query (none for a lone pair),
    so neither the order nor the queries before change an answer.  An
    element appended since may divide the overlap and certify both halves
    (its pairs with smaller overlaps may have been treated in between), so
    a grown reducer starts a new list and a new search.

    The run keeps one list, the last query's: search is (size, overlap,
    divisors, rest), None before the first query.  A query reuses it when
    its overlap is that very tuple and the reducer still has size elements,
    and otherwise starts a new list and search.  That shares a list among
    the consecutive queries of one group at one reducer size, and only
    them: a group stays on top of the heap until a push, pushes follow
    reducer.append, and each pop of a group reads the same tuple from its
    queue key.  A lone pair's query is its overlap's only one.

    *Certified pairs.*  When the pair with overlap m is popped, a pair of
    shifted elements a, c that both divide m is certified (product
    criterion or treated) iff its id, made from the codes of a and c with
    no shift divided out, is not among the ids still in m's group.  With
    the group empty (its last id taken), or none as for a lone pair, any
    divisor c other than a and b kills the pair.

    Proof.  Call open the ids of the queued pairs not yet treated:
    (i, sigma) <= (j, tau), with no common shift (min(sigma, tau) = 0
    entrywise).  A shifted pair shares a variable iff its canonical id is
    a candidate, queued once both elements are present; the chain test asks
    only about pairs whose overlap divides m, which truncation kept.  So
    such a pair is certified iff its canonical id is not open.  Take
    (i, sigma), (k, nu) with both shifted leading monomials dividing m, so
    their lcm L divides m and order(L) <= order(m).  Every open id has a
    priority (order, key) at least (order(m), key(m)), as the popped one
    was the least.  Dividing out the common shift delta = min(sigma, nu)
    gives the canonical id, with overlap L' and L = delta*L', so order(L')
    = order(L) - |delta|.  If that id is open, then order(L') >= order(m)
    forces delta = 0, so the id is that of the pair as given, and order(L)
    = order(m) with key(L) >= key(m); L divides m, so L = m.  An open id
    with overlap m is among m's ids, the only entry: an entry leaves
    waiting only once empty, and new pairs are pushed after the chain
    test.  And every id still waiting is open.  Nothing here depends on the
    shift order or on truncation.

    The chain test asks whether some (k, nu) certifies both halves, which
    does not depend on the order in which candidates are tried.  So killer
    keeps, per element, the last element that chain-killed one of its
    pairs, and those are tried before the index-ordered scan."""

    def __init__(self, G, options: CompletionOptions, bound, stats):
        self.options = options
        self.bound = bound
        self.stats = stats
        self.reducer = ReducerBasis(G)
        self.queue = []
        self.waiting = {}
        self.killer = {}
        self.search = None  # the last chain query's divisor list, see _Run
        self.derived = {}  # pair of shift keys -> shift pair, see shift_pair_candidates
        self.codes = defaultdict(dict)  # codes[i][sigma]: the code of (i, sigma)
        self.elements = []  # elements[code]: the shifted element (i, sigma)
        self.shifted = []  # shifted[code]: the factor tuple of sigma*lm(G[i])

    def _code(self, i, sigma):
        """The code of the shifted element (i, sigma), the next free one on
        its first use."""
        code = self.codes[i][sigma] = len(self.elements)
        self.elements.append((i, sigma))
        self.shifted.append(self.reducer.polys[i].lm.shift(sigma).factors)
        return code

    def _push_pairs(self, i, j):
        reducer, stats, waiting = self.reducer, self.stats, self.waiting
        ordering = reducer.ring.ordering
        polys = reducer.polys
        pairs, raw = shift_pair_candidates(polys[i].lm, polys[j].lm, i == j, self.derived)
        if raw == 0:
            stats.killed_product += 1
        stats.killed_sigma += raw - len(pairs)
        codes_i, codes_j, shifted = self.codes[i], self.codes[j], self.shifted
        for sigma, tau in pairs:
            a = codes_i.get(sigma)
            if a is None:
                a = self._code(i, sigma)
            b = codes_j.get(tau)
            if b is None:
                b = self._code(j, tau)
            pair = a * a + b if a > b else b * b + a  # the pair id, see _Run
            overlap = _lcm(shifted[a], shifted[b])
            entry = waiting.get(overlap)
            if entry is None:  # a waiting overlap fits under the bound
                order = ordering.order(overlap)
                if self.bound is not None and order > self.bound:
                    stats.killed_truncation += 1
                    continue
                waiting[overlap] = pair
                heappush(self.queue, ordering.queue_key(overlap, order))
            elif entry.__class__ is int:
                waiting[overlap] = [entry, pair]
            else:
                entry.append(pair)
            stats.generated += 1

    def _chain_skippable(self, a, b, overlap, group):
        """Whether a shifted element c other than a and b divides the
        overlap with both pairs a, c and c, b certified: not waiting in
        the group, which is None for a lone pair."""
        killer, reducer = self.killer, self.reducer
        i, j = a[0], b[0]
        size = len(reducer.polys)
        search = self.search
        if search is None or search[1] is not overlap or search[0] != size:
            # the killers of both halves, distinct, for divisor_runs to try first
            ki, kj = killer.get(i), killer.get(j)
            if ki is None:
                tried = () if kj is None else (kj,)
            else:
                tried = (ki,) if kj is None or kj == ki else (ki, kj)
            search = self.search = size, overlap, [], reducer.divisor_runs(overlap, tried)
        _, _, divisors, rest = search
        if group:
            codes = self.codes
            ca, cb = codes[i][a[1]], codes[j][b[1]]
        new = divisors  # the hits so far, then each index's hits as read
        while True:
            for c in new:
                if c == a or c == b:
                    continue
                if group:
                    cc = codes[c[0]].get(c[1])  # None: no pair with c was queued
                    if cc is not None:
                        left = ca * ca + cc if ca > cc else cc * cc + ca
                        right = cb * cb + cc if cb > cc else cc * cc + cb
                        if left in group or right in group:
                            continue
                killer[i] = killer[j] = c[0]
                return True
            new = next(rest, None)
            if new is None:
                return False
            divisors.extend(new)

    def run(self):
        """(G, exhausted): the grown basis, or [1] once a unit appears, and
        whether the pair budget ran out first."""
        G = self.reducer.polys
        for j in range(len(G)):
            for i in range(j + 1):
                self._push_pairs(i, j)
        queue, waiting, stats, options = self.queue, self.waiting, self.stats, self.options
        factors_of = self.reducer.ring.ordering.queue_factors
        elements = self.elements
        pops = 0
        while queue:
            overlap = factors_of(queue[0])
            group = waiting[overlap]
            if group.__class__ is int:  # a lone pair
                pair, group = group, None
            else:
                pair = group.pop(0)
            if not group:
                heappop(queue)
                del waiting[overlap]
            high = isqrt(pair)  # the larger code, see _Run
            a, b = elements[pair - high * high], elements[high]
            if b < a:  # as pushed: (i, sigma) <= (j, tau)
                a, b = b, a
            (i, sigma), (j, tau) = a, b
            pops += 1
            if pops > options.max_pair_budget:
                return G, True
            if options.use_chain_criterion and self._chain_skippable(a, b, overlap, group):
                stats.killed_chain += 1
                continue
            h = reduce_full(shifted_spoly(G[i], sigma, G[j], tau), self.reducer)
            if not h:
                stats.reduced_to_zero += 1
                continue
            if h.lm.is_one:
                return [self.reducer.ring.one], False
            self.reducer.append(h)
            stats.new_elements += 1
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


def _complete(generators, limits, bound=None):
    """One completion run, unbounded or truncated at the order bound."""
    options = CompletionOptions(**limits)
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


def sigma_gbasis(generators, **limits):
    """Complete a finite generating set into a Groebner basis closed under
    the shift action.  May not halt on its own; the pair budget converts
    divergence into an explicit budget_exhausted status.  The keywords are
    the fields of CompletionOptions."""
    return _complete(generators, limits)


def sigma_gbasis_truncated(generators, order_bound, **limits):
    """Bounded completion: only generators and critical pairs whose order
    fits under the bound are processed.  Always terminates."""
    if order_bound < 0:
        raise ValueError("truncation order must be non-negative")
    return _complete(generators, limits, order_bound)


def sigma_gbasis_adaptive(generators, *, max_order_cap=64, **limits):
    """Self-certifying completion: repeat bounded runs with the bound set
    to twice the maximal order of the current leading monomials until the
    bound stabilizes, then verify completeness with the finite criterion.

    Diverges only when no finite basis exists; the order cap turns that
    into a budget_exhausted status once the bound would exceed it.
    """
    if max_order_cap <= 0:
        raise ValueError("budget caps must be positive")
    options = CompletionOptions(**limits)
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
        if bound > max_order_cap:
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


class VerificationReport(Record):
    ok: bool
    failures: list  # (left_index, right_index, left_shift, right_shift, remainder)
    checked_pairs: int = 0

    def __bool__(self):
        return self.ok


def verify_sigma_gbasis(basis_or_elements):
    """Finite completeness check: every surviving critical pair must
    head-reduce to zero.  Requires an order-compatible ordering.

    The divisor search needs no shift bound: no shift of degree above 2d
    is tried, d the largest leading order.  A surviving pair (sigma, tau)
    has sigma <= beta and tau <= alpha entrywise, for factor shifts alpha
    of lm(f) and beta of lm(g), so the overlap has order at most 2d.  Under
    an order-compatible ordering no monomial of a polynomial has a larger
    order than its leading one, and a head step only lowers the leading
    monomial, so every monomial reduced has order at most 2d.  And s*lm(g)
    dividing m puts a factor of lm(g), shifted by s, in m: |s| <= order(m)."""
    ring, elements = _monic_generators(basis_or_elements)
    if not elements:
        return VerificationReport(True, [])
    if not ring.ordering.is_order_compatible:
        raise ValueError("verification requires an order-compatible ordering")
    reducer = ReducerBasis(elements)
    failures = []
    checked = 0
    derived = {}
    for j in range(len(elements)):
        for i in range(j + 1):
            pairs, _ = shift_pair_candidates(elements[i].lm, elements[j].lm, i == j, derived)
            for sigma, tau in pairs:
                checked += 1
                s = shifted_spoly(elements[i], sigma, elements[j], tau)
                h = reduce(s, reducer)
                if h:
                    failures.append((i, j, sigma, tau, h))
    return VerificationReport(not failures, failures, checked)


def _same_kind(basis, elements):
    """The elements as a SigmaBasis with the status and stats of basis
    when basis is one, else as a list."""
    if isinstance(basis, SigmaBasis):
        return SigmaBasis(basis.ring, tuple(elements), basis.status, basis.stats)
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
