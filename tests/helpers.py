"""Shared helpers for the test suite: small rings, seeded random data,
and converters into the oracle's plain-dict polynomial format."""

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations_with_replacement
from math import comb

from dgb import DifferenceRing, Signature
from dgb.quotient import groebner_gamma_basis


def make_ring(rank=1, symbols=("x",), parameters=(), spec=None):
    return DifferenceRing(Signature(rank, symbols, parameters), spec)


_GAMMA_BASES = {}


def gamma_basis(action, generators):
    """`groebner_gamma_basis(action, generators)`, computed once per test
    session for each (cycles, generators).  The acceptance suite and the
    README test both need the cycle8 basis, which takes seconds; the
    computation is deterministic, so sharing it hides no difference."""
    key = (action.cycles, tuple(generators))
    if key not in _GAMMA_BASES:
        _GAMMA_BASES[key] = groebner_gamma_basis(action, generators)
    return _GAMMA_BASES[key]


def random_shift(rng, rank, max_deg, exact=None):
    total = exact if exact is not None else rng.randint(0, max_deg)
    shift = [0] * rank
    for _ in range(total):
        shift[rng.randrange(rank)] += 1
    return tuple(shift)


def enumerate_up_to_degree(d, rank: int) -> list:
    """All shift elements of degree <= d, in a fixed deterministic order.

    The order is graded by degree, ties broken by reverse-lexicographic
    comparison of the exponent tuples, so repeated runs enumerate
    identically.  There are C(d + rank, rank) elements.  A negative bound
    (including -inf) yields the empty list.
    """
    if d != d or d < 0:  # also rejects NaN defensively
        return []
    d = int(d)
    out = []
    for total in range(d + 1):
        layer = []
        # weak compositions of `total` into `rank` parts
        for cuts in combinations_with_replacement(range(total + 1), rank - 1):
            parts = []
            prev = 0
            for c in cuts:
                parts.append(c - prev)
                prev = c
            parts.append(total - prev)
            layer.append(tuple(parts))
        layer.sort(key=lambda s: tuple(reversed(s)))
        out.extend(layer)
    assert len(out) == comb(d + rank, rank)
    return out


def random_monomial(rng, ring, max_factors=3, max_shift_deg=2, max_exp=2,
                    order_exact=None):
    """A random nonempty monomial; with order_exact the maximal shift
    degree over the factors is exactly that value."""
    rank = ring.signature.shift_rank
    n = len(ring.signature.symbols)
    count = rng.randint(1, max_factors)
    factors = []
    for i in range(count):
        if order_exact is not None:
            deg = order_exact if i == 0 else rng.randint(0, order_exact)
            shift = random_shift(rng, rank, deg, exact=deg)
        else:
            shift = random_shift(rng, rank, max_shift_deg)
        factors.append((rng.randrange(n), shift, rng.randint(1, max_exp)))
    return ring.monomial(factors)


def random_coeff(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_polynomial(rng, ring, max_terms=3, order_exact=None, **mono_kw):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = random_monomial(rng, ring, order_exact=order_exact, **mono_kw)
        terms.append((random_coeff(rng), mono))
    return ring.polynomial(terms)


def to_oracle(poly):
    """Convert a difference polynomial over plain Q into the oracle's
    dict-of-monomials representation."""
    out = {}
    for m, c in poly.terms:
        assert isinstance(c, Fraction), "oracle conversion needs a parameter-free ring"
        out[tuple(sorted(m.factors))] = c
    return out


def mono_to_oracle(m):
    return tuple(sorted(m.factors))


def oracle_key(ring):
    """An independently implemented comparator for the ring's block order,
    usable as a sort key on oracle monomials."""
    spec = ring.ordering.spec
    rank = ring.signature.shift_rank
    n = len(ring.signature.symbols)
    shift_prio = spec.shift_priority or tuple(range(rank))
    symbol_prio = spec.symbol_priority or tuple(range(n))

    def shift_cmp(s, t):
        if spec.shift_order in ("deglex", "degrevlex"):
            if sum(s) != sum(t):
                return -1 if sum(s) < sum(t) else 1
        if spec.shift_order == "degrevlex":
            for j in reversed(shift_prio):
                if s[j] != t[j]:
                    return -1 if s[j] > t[j] else 1
            return 0
        for j in shift_prio:
            if s[j] != t[j]:
                return -1 if s[j] < t[j] else 1
        return 0

    def block_cmp(a, b):
        va = [a.get(i, 0) for i in symbol_prio]
        vb = [b.get(i, 0) for i in symbol_prio]
        if spec.symbol_order in ("deglex", "degrevlex"):
            if sum(va) != sum(vb):
                return -1 if sum(va) < sum(vb) else 1
        if spec.symbol_order == "degrevlex":
            for x, y in zip(reversed(va), reversed(vb)):
                if x != y:
                    return -1 if x > y else 1
            return 0
        for x, y in zip(va, vb):
            if x != y:
                return -1 if x < y else 1
        return 0

    def mono_cmp(m, n):
        blocks_m = {}
        blocks_n = {}
        for (sym, shift), e in m:
            blocks_m.setdefault(shift, {})[sym] = e
        for (sym, shift), e in n:
            blocks_n.setdefault(shift, {})[sym] = e
        all_shifts = sorted(set(blocks_m) | set(blocks_n),
                            key=cmp_to_key(shift_cmp), reverse=True)
        for shift in all_shifts:
            c = block_cmp(blocks_m.get(shift, {}), blocks_n.get(shift, {}))
            if c:
                return c
        return 0

    return cmp_to_key(mono_cmp)
