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
"""

import random
from functools import partial
from itertools import permutations

import pytest

from dgb import OrderingSpec
from dgb.completion import (shift_pair_candidates, sigma_gbasis_truncated,
                            verify_sigma_gbasis)
from dgb.orderings import DEGLEX, DEGREVLEX, LEX
from dgb.reduction import ReducerBasis
from dgb.ring import spoly

from helpers import (make_ring, random_monomial, random_polynomial, random_shift,
                     reference_shift_key)


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
            for index, s in basis.iter_divisors(target)]


@pytest.mark.parametrize("ring_index", range(len(RINGS)))
def test_indexed_search_matches_linear_scan(ring_index):
    ring = RINGS[ring_index]
    rng = random.Random(7000 + ring_index)
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
            hits += len(expected)
    assert hits > 0  # the targets are built to be divisible


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
            pairs, _ = shift_pair_candidates(elements[i].lm.decoded(),
                                             elements[j].lm.decoded(), i == j)
            for sigma, tau in pairs:
                checked += 1
                h = spoly(elements[i].shift(sigma), elements[j].shift(tau))
                while h:
                    hit = next(reference_iter_divisors(elements, h.lm, bound), None)
                    if hit is None:
                        break
                    index, s, cofactor = hit
                    g = elements[index].shift(s)
                    h = h - g.mul_term(h.lc / g.lc, cofactor)
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
