"""Differential test of the indexed divisor search in ReducerBasis.

The reference below is the plain linear scan that ReducerBasis used before
it kept per-element shapes: for every basis element in index order, every
shift that maps the anchor (largest variable) of its leading monomial onto
a target factor, kept when the whole shifted leading monomial divides the
target, sorted in the shift ordering.  The indexed search must give the
same hits in the same order, including the find_divisor tie-break, and
the cofactor that reduction reads off the cached shifted element must be
the reference cofactor.
"""

import random
from itertools import permutations

import pytest

from dgb import OrderingSpec
from dgb.orderings import DEGLEX, DEGREVLEX, LEX
from dgb.reduction import ReducerBasis

from helpers import make_ring, random_monomial, random_polynomial, random_shift


def _shifted(ring, lm, s):
    return ring.monomial([(sym, tuple(a + b for a, b in zip(beta, s)), e)
                          for (sym, beta), e in lm.factors])


def reference_candidate_shifts(ring, lm, target, max_shift_deg=None):
    if lm.is_one:
        return [(0,) * ring.signature.shift_rank]
    sym, beta = max(lm.variables(), key=ring.ordering.variable_key)
    seen = set()
    for (tsym, alpha), _ in target.factors:
        if tsym == sym and all(a >= b for a, b in zip(alpha, beta)):
            seen.add(tuple(a - b for a, b in zip(alpha, beta)))
    if max_shift_deg is not None:
        seen = {s for s in seen if sum(s) <= max_shift_deg}
    out = [s for s in seen if _shifted(ring, lm, s).divides(target)]
    out.sort(key=ring.ordering.shift_key)
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
    return [(index, s, target / basis.shifted(index, s).lm)
            for index, s in basis.iter_divisors(target)]


@pytest.mark.parametrize("ring_index", range(len(RINGS)))
def test_indexed_search_matches_linear_scan(ring_index):
    ring = RINGS[ring_index]
    rng = random.Random(7000 + ring_index)
    hits = 0
    for trial in range(40):
        polys = _basis(rng, ring)
        bound = rng.choice([None, 0, 1, 2, 4])
        basis = ReducerBasis(polys, max_shift_deg=bound)
        for _ in range(5):
            target = _target(rng, ring, polys)
            expected = list(reference_iter_divisors(polys, target, bound))
            got = _hits(basis, target)
            assert got == expected, (trial, polys, target, bound)
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
