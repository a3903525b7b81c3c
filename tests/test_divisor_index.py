"""Differential test of the indexed divisor search in ReducerBasis.

The reference below is the plain linear scan that ReducerBasis used before
it kept per-element shapes: for every basis element in index order, every
shift that maps the anchor (largest variable) of its leading monomial onto
a target factor, kept when the whole shifted leading monomial divides the
target, sorted in the shift ordering.  The indexed search must give the
same hits in the same order, including the find_divisor tie-break, and
the cofactor that reduction reads off the cached shifted element must be
the reference cofactor.

The reference also keeps the shift bound the verifier once passed to the
search: twice the largest leading order.  The verifier, which no longer
bounds its search, must give what the bounded reference gives.

Each element keeps a table of anchor images (ReducerBasis).  One basis,
grown by append between rounds of shuffled and repeated queries, must give
the reference's hits and a fresh basis's, and its tables must hold exactly
the images that passed a probe, with the entry the image admits.  The
targets reach every edge of an entry: an image on another symbol, one
with a negative shift entry, and shifted elements that meet
MAX_SHIFT_DEGREE exactly or pass it by one.
"""

import random
from functools import partial
from itertools import permutations
from operator import add, sub

import pytest

from dgb import OrderingSpec
from dgb.completion import sigma_gbasis_truncated, verify_sigma_gbasis
from dgb.orderings import DEGLEX, DEGREVLEX, LEX, MAX_SHIFT_DEGREE
from dgb.reduction import ReducerBasis
from dgb.ring import Monomial

from helpers import (divisor_hits, make_ring, mul_term, random_monomial, random_polynomial,
                     random_shift, reference_shift_key, reference_shift_pair_candidates,
                     reference_spoly)


def _shifted(ring, lm, s):
    return ring.monomial([(sym, tuple(a + b for a, b in zip(beta, s)), e)
                          for (sym, beta), e in lm.decoded()])


def reference_candidate_shifts(ring, lm, target, max_shift_deg=None):
    if lm.is_one:
        return [(0,) * ring.signature.shift_rank]
    key = partial(reference_shift_key, ring.ordering)
    (sym, beta), _ = max(lm.decoded(), key=lambda fe: key(fe[0].shift))
    seen = set()
    for (tsym, alpha), _ in target.decoded():
        if tsym == sym and all(a >= b for a, b in zip(alpha, beta)):
            seen.add(tuple(a - b for a, b in zip(alpha, beta)))
    if max_shift_deg is not None:
        seen = {s for s in seen if sum(s) <= max_shift_deg}
    # a shifted copy exists only while its order stays within the packing
    seen = {s for s in seen if lm.order + sum(s) <= MAX_SHIFT_DEGREE}
    out = [s for s in seen if _shifted(ring, lm, s).divides(target)]
    out.sort(key=key)
    return out


def reference_iter_divisors(polys, target, max_shift_deg=None):
    """(basis_index, shift, cofactor) for every hit, in tie-break order."""
    ring = polys[0].ring
    for index, g in enumerate(polys):
        for s in reference_candidate_shifts(ring, g.lm, target, max_shift_deg):
            yield index, s, target / _shifted(ring, g.lm, s)


def _rings():
    """Rank 1-2, one or two symbols, every shift ordering and priority."""
    for rank in (1, 2):
        for symbols in (("x",), ("x", "y")):
            for shift_order in (LEX, DEGLEX, DEGREVLEX):
                for prio in permutations(range(rank)):
                    spec = OrderingSpec(shift_order, prio, LEX, None)
                    yield make_ring(rank, symbols, spec=spec)


RINGS = list(_rings())


def _basis(rng, ring):
    polys = []
    size = rng.randint(1, 6)
    while len(polys) < size:
        g = random_polynomial(rng, ring, max_terms=2, max_factors=3,
                              max_shift_deg=2, max_exp=2)
        if g:
            polys.append(g)
    if rng.random() < 0.15:  # a constant element reduces everything
        polys.insert(rng.randrange(len(polys) + 1), ring.constant(rng.choice([1, 3])))
    return polys


def _target(rng, ring, polys):
    """Mostly multiples of shifted basis leading monomials, so hits occur."""
    m = random_monomial(rng, ring, max_factors=3, max_shift_deg=3, max_exp=2)
    for g in rng.sample(polys, rng.randint(0, min(2, len(polys)))):
        s = random_shift(rng, ring.signature.shift_rank, 3)
        m = m * _shifted(ring, g.lm, s)
    return m


def _hits(basis, target):
    """The engine's hits, each with the cofactor reduce uses."""
    return [(index, s, target / basis.polys[index].shift(s).lm)
            for index, s in divisor_hits(basis, target)]


@pytest.mark.parametrize("ring_index", range(len(RINGS)))
def test_indexed_search_matches_linear_scan(ring_index):
    ring = RINGS[ring_index]
    rng = random.Random(7000 + ring_index)
    order_rng = random.Random(9000 + ring_index)  # leaves rng's draws as they were
    hits = 0
    for trial in range(40):
        polys = _basis(rng, ring)
        basis = ReducerBasis(polys)
        for _ in range(5):
            target = _target(rng, ring, polys)
            expected = list(reference_iter_divisors(polys, target))
            got = _hits(basis, target)
            assert got == expected, (trial, polys, target)
            first = expected[0][:2] if expected else None
            assert basis.find_divisor(target) == first
            # indices tried first (as the chain test does with its killers)
            # move their hits ahead and keep every hit once
            order = dict.fromkeys(order_rng.sample(range(len(polys)),
                                                 order_rng.randint(1, len(polys))))
            front = [h[:2] for k in order for h in expected if h[0] == k]
            rest = [h[:2] for h in expected if h[0] not in order]
            assert list(divisor_hits(basis, target, order)) == front + rest
            hits += len(expected)
    assert hits > 0  # the targets are built to be divisible


def test_first_indices_are_searched_first_and_once():
    # divisor_hits(basis, target, first): the distinct indices of first in
    # their order, then the others lowest index first, every hit exactly once,
    # whether first is empty, names one index or repeats one; divisor_runs
    # gives the same hits, one list per index, for the distinct first
    ring = make_ring(1, ("x",))
    x = [ring.var("x", (k,)) for k in range(4)]
    polys = [x[1], x[0] * x[1], x[2] * x[2], x[0]]
    basis = ReducerBasis(polys)
    target = (x[0] * x[1] * x[2] * x[2] * x[3]).lm
    expected = [h[:2] for h in reference_iter_divisors(polys, target)]
    assert {k for k, _ in expected} == {0, 1, 2, 3}
    assert len(expected) == len(set(expected)) > 4  # x(1) and x(0) have several shifts
    for first, order in [((), (0, 1, 2, 3)), ((2,), (2, 0, 1, 3)), ((3, 3), (3, 0, 1, 2)),
                         ((1, 3, 1), (1, 3, 0, 2)), ((2, 0, 2, 0), (2, 0, 1, 3)),
                         ((3, 2, 1, 0), (3, 2, 1, 0))]:
        ordered = [h for k in order for h in expected if h[0] == k]
        assert list(divisor_hits(basis, target, first)) == ordered, first
        distinct = tuple(dict.fromkeys(first))
        runs = list(basis.divisor_runs(target.factors, distinct))
        assert [hits[0][0] for hits in runs] == list(order)
        assert [h for hits in runs for h in hits] == ordered


def test_appended_elements_are_indexed():
    ring = make_ring(2, ("x", "y"))
    rng = random.Random(11)
    polys = _basis(rng, ring)
    basis = ReducerBasis(polys[:1])
    for g in polys[1:]:
        basis.append(g)
    for _ in range(50):
        target = _target(rng, ring, polys)
        assert _hits(basis, target) == list(reference_iter_divisors(polys, target))


# --- the table of anchor images -------------------------------------------


def _table_rings():
    """Ranks 1-3, one to three symbols, all nine (shift, symbol) order
    pairs, each with a seeded shift and symbol priority."""
    rng = random.Random(7300)
    for rank in (1, 2, 3):
        for symbols in (("x",), ("x", "y"), ("x", "y", "z")):
            for shift_order in (LEX, DEGLEX, DEGREVLEX):
                for symbol_order in (LEX, DEGLEX, DEGREVLEX):
                    spec = OrderingSpec(shift_order, tuple(rng.sample(range(rank), rank)),
                                        symbol_order,
                                        tuple(rng.sample(range(len(symbols)), len(symbols))))
                    yield make_ring(rank, symbols, spec=spec)


TABLE_RINGS = list(_table_rings())


def _packed_monomial(ring, factors):
    """The monomial with the given packed factors, or None when one of them
    is not a variable of the ring (a shift past the packing, or a negative
    or carried field)."""
    ordering = ring.ordering
    for var, _ in factors:
        if var < 0:
            return None
        symbol, shift = ordering.decode(var)
        try:
            if ordering.variable(symbol, shift) != var:
                return None
        except ValueError:  # ShiftWidthError is a ValueError
            return None
    return Monomial(sorted(factors, reverse=True), ordering)


def _moved(ring, lm, w):
    """lm with every packed variable moved so that its anchor lands on w,
    or None when that is not a monomial of the ring: the target that makes
    every offset probe of the anchor image w pass."""
    d = w - lm.factors[0][0]
    return _packed_monomial(ring, [(var + d, e) for var, e in lm.factors])


def _unit(rank, k, size=1):
    return tuple(size if j == k else 0 for j in range(rank))


def _table_basis(rng, ring):
    """A random basis, with the elements whose anchors reach every edge:
    a variable of shift one in the last shift priority (its images on
    other symbols and with a negative entry are variables), and under a
    lex shift order an anchor of lower order than its element, the only
    place where order + |s| can pass the packing while the image is still
    a variable."""
    polys = _basis(rng, ring)
    spec = ring.ordering.spec
    rank = ring.signature.shift_rank
    top, low = spec.shift_priority[0], spec.shift_priority[-1]
    edges = [ring.var(0, _unit(rank, low))]
    if spec.shift_order == LEX and rank > 1:
        edges.append(ring.var(0, _unit(rank, top)) * ring.var(0, _unit(rank, low, 5)))
    for lead in edges:
        polys.insert(rng.randrange(len(polys) + 1), lead + ring.constant(rng.choice([1, -2])))
    return polys


def _edge_targets(rng, ring, g):
    """Targets at the edges of an anchor image of g: the probe passes at an
    image on another symbol and at one with a negative shift entry; the
    shifted element meets MAX_SHIFT_DEGREE exactly; or it is one past, with
    the image still a variable (the probe then meets carried fields)."""
    lm = g.lm
    if lm.is_one:
        return []
    ordering = ring.ordering
    rank, n = ring.signature.shift_rank, len(ring.signature.symbols)
    anchor = lm.factors[0][0]
    symbol, beta = ordering.decode(anchor)
    images = []
    for other in range(n):  # another symbol, shifted or not
        if other != symbol:
            for s in ((0,) * rank, _unit(rank, rng.randrange(rank)), random_shift(rng, rank, 2)):
                images.append((other, tuple(map(add, beta, s))))
    for k in range(rank):  # one entry down, another up
        for j in range(rank):
            if j != k and beta[k]:
                images.append((symbol, tuple(b - (i == k) + 2 * (i == j)
                                             for i, b in enumerate(beta))))
    room = MAX_SHIFT_DEGREE - lm.order
    low = ordering.spec.shift_priority[-1]
    for k in {rng.randrange(rank), low}:
        for size in (room, room + 1):
            images.append((symbol, tuple(b + s for b, s in zip(beta, _unit(rank, k, size)))))
    targets = []
    for image in images:
        try:
            w = ordering.variable(*image)
        except ValueError:
            continue
        if w < anchor:
            continue
        target = _moved(ring, lm, w)
        if target is not None:
            targets.append(target)
            targets.append(target * random_monomial(rng, ring, max_factors=2, max_shift_deg=1))
    return targets


def _table(basis, k):
    """The anchor-image table of element k (a private field of its shape)."""
    return basis._shapes[k][5]


def _table_entry(ring, k, lm, w):
    """What the table of element k, with leading monomial lm, holds at the
    anchor image w: (k, s) when the shift s maps the anchor onto w and
    s*lm is a monomial of the ring, else None."""
    ordering = ring.ordering
    symbol, beta = ordering.decode(lm.factors[0][0])
    w_symbol, alpha = ordering.decode(w)
    s = tuple(a - b for a, b in zip(alpha, beta))
    if w_symbol != symbol or min(s) < 0 or lm.order + sum(s) > MAX_SHIFT_DEGREE:
        return None
    return k, s


def _check_query(ring, basis, polys, target, passed, kinds):
    """Compare one query with the reference and with a fresh basis, and
    each table with passed[k]: the images that passed a probe of element k
    so far, with the entry each admits."""
    expected = [(k, s) for k, g in enumerate(polys)
                for s in reference_candidate_shifts(ring, g.lm, target)]
    fresh = ReducerBasis(polys)
    assert list(divisor_hits(basis, target)) == expected, (polys, target)
    assert list(divisor_hits(fresh, target)) == expected, (polys, target)
    first = expected[0] if expected else None
    assert basis.find_divisor(target) == first == fresh.find_divisor(target)
    exps = dict(target.factors)
    for k, g in enumerate(polys):
        if g.lm.is_one:
            continue
        factors = g.lm.factors
        anchor = factors[0][0]
        images = passed.setdefault(k, {})
        for w, _ in target.factors:
            if (w >= anchor and w not in images
                    and all(exps.get(w + var - anchor, 0) >= e for var, e in factors)):
                entry = images[w] = _table_entry(ring, k, g.lm, w)
                if entry is None:
                    symbol, beta = ring.ordering.decode(anchor)
                    w_symbol, alpha = ring.ordering.decode(w)
                    kinds.add("symbol" if w_symbol != symbol else
                              "negative" if min(map(sub, alpha, beta)) < 0 else "degree")
        # every image that passed a probe has its entry, misses have none
        assert _table(basis, k) == images, (g, target)
    for k, s in expected:
        if polys[k].lm.order + sum(s) == MAX_SHIFT_DEGREE:
            kinds.add("exact")


@pytest.mark.parametrize("ring_index", range(len(TABLE_RINGS)))
def test_anchor_image_tables_match_reference(ring_index):
    # one basis grows by append between rounds of queries; each round asks
    # its new targets twice and some earlier ones again, shuffled, so
    # entries filled by one target serve the next, and a fresh basis of the
    # same elements must agree
    ring = TABLE_RINGS[ring_index]
    rng = random.Random(7400 + ring_index)
    polys = _table_basis(rng, ring)
    basis = ReducerBasis(polys[:1])
    targets, passed, kinds = [], {}, set()
    for size in range(1, len(polys) + 1):
        if size > len(basis):
            basis.append(polys[size - 1])
        present = polys[:size]
        new = [_target(rng, ring, present) for _ in range(2)]
        new += _edge_targets(rng, ring, present[-1])
        queries = new * 2 + rng.sample(targets, min(len(targets), 6))
        targets += new
        rng.shuffle(queries)
        for target in queries:
            _check_query(ring, basis, present, target, passed, kinds)
    spec, rank = ring.ordering.spec, ring.signature.shift_rank
    wanted = {"exact"}
    if len(ring.signature.symbols) > 1:
        wanted.add("symbol")
    if rank > 1:
        wanted.add("negative")
    if spec.shift_order == LEX and rank > 1:
        wanted.add("degree")
    assert wanted <= kinds, (wanted, kinds)


def reference_verify(generators):
    """(checked_pairs, failures) of the verifier as it ran with its search
    bounded by twice the largest leading order, on the reference scan."""
    elements = [g.monic() for g in generators if g]
    if any(g.lm.is_one for g in elements):
        elements = [elements[0].ring.one]
    if not elements:
        return 0, []
    bound = 2 * max(g.lm.order for g in elements)
    checked, failures = 0, []
    for j in range(len(elements)):
        for i in range(j + 1):
            pairs, _ = reference_shift_pair_candidates(elements[i].lm.decoded(),
                                                       elements[j].lm.decoded(), i == j, {})
            for sigma, tau in pairs:
                checked += 1
                h = reference_spoly(elements[i].shift(sigma), elements[j].shift(tau))
                while h:
                    hit = next(reference_iter_divisors(elements, h.lm, bound), None)
                    if hit is None:
                        break
                    index, s, cofactor = hit
                    g = elements[index].shift(s)
                    h = h - mul_term(g, h.ring.field.quotient(h.lc, g.lc), cofactor)
                if h:
                    failures.append((i, j, sigma, tau, h))
    return checked, failures


GRADED_RINGS = [ring for ring in RINGS if ring.ordering.is_order_compatible]


@pytest.mark.parametrize("ring_index", range(len(GRADED_RINGS)))
def test_verifier_matches_shift_bounded_reference(ring_index):
    ring = GRADED_RINGS[ring_index]
    rng = random.Random(7100 + ring_index)
    outcomes = set()
    for _ in range(5):
        gens = [random_polynomial(rng, ring, max_terms=2, max_factors=2,
                                  max_shift_deg=1, max_exp=2) for _ in range(2)]
        truncated = sigma_gbasis_truncated(gens, 2, max_pair_budget=20).elements
        for candidate in (gens, truncated):
            report = verify_sigma_gbasis(candidate)
            checked, failures = reference_verify(candidate)
            assert (report.checked_pairs, report.failures) == (checked, failures)
            outcomes.add(report.ok)
    assert outcomes == {True, False}  # both bases and non-bases were checked
