import random
from operator import add

import pytest

import classical
from dgb import OrderingSpec, spoly
from dgb.completion import (interreduce, minimalize, shift_pair_candidates,
                            sigma_gbasis, sigma_gbasis_adaptive,
                            sigma_gbasis_truncated, verify_sigma_gbasis)
from dgb.orderings import DEGLEX, DEGREVLEX, LEX
from dgb.quotient import normal_variables, pure_power_table
from dgb.reduction import reduce

from helpers import (enumerate_up_to_degree, make_ring, mono_to_oracle,
                     oracle_key, random_monomial, random_polynomial, to_oracle)


def R1():
    return make_ring(1, ("x",))


def x(ring, k, e=1):
    return ring.var("x", (k,), e)


# --- critical pairs ---------------------------------------------------------


def test_critical_pairs_distinct_operators():
    ring = make_ring(2, ("x",))
    f = ring.var("x", (1, 0))
    g = ring.var("x", (0, 1))
    pairs, raw = shift_pair_candidates(f.lm, g.lm, False)
    assert (pairs, raw) == ([((0, 1), (1, 0))], 1)
    (sigma, tau), = pairs
    overlap = f.lm.shift(sigma).lcm(g.lm.shift(tau))
    assert overlap == ring.monomial([("x", (1, 1), 1)])
    assert overlap.order == 2


def test_critical_pairs_disjoint_symbols_empty():
    ring = make_ring(1, ("x", "y"))
    f = ring.var("x", (2,))
    g = ring.var("y", (1,))
    assert shift_pair_candidates(f.lm, g.lm, False) == ([], 0)


def test_critical_pairs_self_pair():
    ring = R1()
    f = x(ring, 1) * x(ring, 0) - x(ring, 0)
    pairs, raw = shift_pair_candidates(f.lm, f.lm, True)
    # x(1)*x(0) against itself: four factor matches, of which the two
    # identity overlaps and one mirror image collapse
    assert (pairs, raw) == ([((0,), (1,))], 4)
    (sigma, tau), = pairs
    # invariants: coprime shifts, overlapping shifted leading monomials
    assert not any(map(min, sigma, tau))
    assert not f.lm.shift(sigma).gcd(f.lm.shift(tau)).is_one


def test_shift_pair_candidates_complete():
    # every coprime pair with overlapping shifted lms arises from a factor match
    rng = random.Random(11)
    ring = make_ring(2, ("x", "y"))
    for _ in range(60):
        a = random_monomial(rng, ring, max_factors=2)
        b = random_monomial(rng, ring, max_factors=2)
        pairs, _ = shift_pair_candidates(a, b, False)
        listed = set(pairs)
        for s in enumerate_up_to_degree(3, 2):
            for t in enumerate_up_to_degree(3, 2):
                if any(map(min, s, t)):
                    continue
                if a.shift(s).gcd(b.shift(t)).is_one:
                    continue
                assert (s, t) in listed


# --- plain completion --------------------------------------------------------


def test_single_monomial_is_complete():
    ring = make_ring(2, ("x",))
    basis = sigma_gbasis([ring.var("x", (1, 0))])
    assert basis.status.kind == "complete"
    assert list(basis) == [ring.var("x", (1, 0))]


def test_linear_family_already_complete():
    ring = make_ring(2, ("x",))
    f11 = ring.var("x", (2, 0)) - ring.var("x", (0, 0))
    f12 = ring.var("x", (0, 1)) + ring.var("x", (0, 0))
    basis = sigma_gbasis([f11, f12])
    assert basis.status.kind == "complete"
    assert set(basis.elements) == {f11, f12}
    assert basis.stats.new_elements == 0


def test_flow_system_plain_mode_and_minimalize():
    from pathlib import Path
    from dgb.cli import parse_problem

    text = (Path(__file__).parent / "data" / "navier_stokes.dgb").read_text()
    problem = parse_problem(text)
    basis = sigma_gbasis(problem.polynomials)
    assert basis.status.kind == "complete"
    assert len(basis.elements) == 5  # the redundant second input still present
    minimal = minimalize(basis)
    lms = {str(g.ring.polynomial([(1, g.lm)])) for g in minimal}
    assert lms == {"u(1,0,0)", "v(1,1,0)", "v(2,0,0)", "p(2,0,0)"}


def test_ordinary_binomial_example():
    ring = R1()
    f = x(ring, 1, 2) - x(ring, 0)
    g = x(ring, 1) * x(ring, 0) - x(ring, 0)
    basis = sigma_gbasis([f, g])
    assert basis.status.kind == "complete"
    assert verify_sigma_gbasis(basis.elements).ok
    # the new element x(0)^2 - x(0) must appear
    assert any(h == x(ring, 0, 2) - x(ring, 0) for h in basis)


def test_constant_collapses_to_unit():
    ring = R1()
    basis = sigma_gbasis([x(ring, 0) + ring.one, x(ring, 0)])
    assert [str(g) for g in basis] == ["1"]
    assert basis.status.kind == "complete"


def test_zero_generators():
    ring = R1()
    basis = sigma_gbasis([ring.zero])
    assert basis.elements == ()
    assert basis.status.kind == "complete"


def test_budget_exhaustion_is_a_status():
    ring = R1()
    # the shifted twisted-cubic binomial keeps producing new elements
    f = x(ring, 0) * x(ring, 2) - x(ring, 1, 2)
    basis = sigma_gbasis([f], max_pair_budget=30)
    assert basis.status.kind == "budget_exhausted"
    assert len(basis.elements) > 1


def test_chain_criterion_preserves_result():
    rng = random.Random(21)
    ring = make_ring(1, ("x", "y"))
    compared = 0
    for _ in range(10):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1)
                for _ in range(2)]
        gens = [g for g in gens if g]
        # the other five cases exhaust any budget up to at least 3000 pairs
        with_chain = sigma_gbasis(gens, max_pair_budget=200)
        without = sigma_gbasis(gens, use_chain_criterion=False, max_pair_budget=200)
        if with_chain.status.kind == "complete" and without.status.kind == "complete":
            assert set(minimalize(interreduce(with_chain)).elements) \
                == set(minimalize(interreduce(without)).elements)
            compared += 1
    assert compared == 5


def test_discarded_shift_pairs_are_multiples():
    # a pair with a common shift factor is the shift of the reduced pair
    rng = random.Random(31)
    ring = make_ring(2, ("x",))
    for _ in range(40):
        f = random_polynomial(rng, ring, max_terms=2)
        g = random_polynomial(rng, ring, max_terms=2)
        if not f or not g:
            continue
        pairs, _ = shift_pair_candidates(f.lm, g.lm, False)
        for sigma, tau in pairs:
            delta = tuple(rng.randint(0, 2) for _ in range(2))
            big = spoly(f.shift(tuple(map(add, sigma, delta))),
                        g.shift(tuple(map(add, tau, delta))))
            small = spoly(f.shift(sigma), g.shift(tau))
            assert big == small.shift(delta)


# --- truncation ---------------------------------------------------------------


def test_truncated_below_min_order_is_empty():
    ring = R1()
    f = x(ring, 2) * x(ring, 1) - x(ring, 1, 2)  # order 2, homogeneous
    basis = sigma_gbasis_truncated([f], 1)
    assert basis.elements == ()
    assert str(basis.status) == "complete_up_to_order(1)"


def test_truncated_rejects_negative():
    ring = R1()
    with pytest.raises(ValueError):
        sigma_gbasis_truncated([x(ring, 0)], -1)


def test_truncated_terminates_and_bounds_orders():
    ring = make_ring(2, ("x",))
    f = ring.var("x", (1, 0)) * ring.var("x", (0, 0)) - ring.var("x", (0, 1), 2)
    basis = sigma_gbasis_truncated([f], 2)
    assert str(basis.status) == "complete_up_to_order(2)"
    assert all(g.lm.order <= 2 for g in basis)


def _sigma_side_minimal_lms(basis, d):
    """Shift-expand the truncated basis leading monomials up to order d and
    minimalize classically."""
    ring = basis.ring
    monos = set()
    for g in basis:
        base = g.lm.order
        for s in enumerate_up_to_degree(d - base, ring.signature.shift_rank):
            monos.add(mono_to_oracle(g.lm.shift(s)))
    key = oracle_key(ring)
    minimal = []
    for m in sorted(monos, key=key):
        if not any(classical.m_divides(h, m) for h in minimal):
            minimal.append(m)
    return set(minimal)


def _oracle_side_minimal_lms(ring, gens, d):
    expanded = []
    for f in gens:
        base = f.order
        for s in enumerate_up_to_degree(d - base, ring.signature.shift_rank):
            expanded.append(to_oracle(f.shift(s)))
    if not expanded:
        return set()
    return set(classical.minimal_leading_monomials(expanded, oracle_key(ring)))


def _random_homogeneous_setup(seed):
    rng = random.Random(seed)
    rank = rng.choice([1, 2])
    symbols = ("x", "y")[: rng.choice([1, 2])]
    sp = list(range(rank))
    rng.shuffle(sp)
    yp = list(range(len(symbols)))
    rng.shuffle(yp)
    spec = OrderingSpec(rng.choice([DEGLEX, DEGREVLEX]), tuple(sp),
                        rng.choice([LEX, DEGLEX, DEGREVLEX]), tuple(yp))
    ring = make_ring(rank, symbols, spec=spec)
    gens = []
    for _ in range(rng.randint(1, 2)):
        ordv = rng.randint(0, 2)
        gens.append(random_polynomial(rng, ring, max_terms=2, order_exact=ordv,
                                      max_factors=2, max_exp=2))
    d = rng.randint(0, 4)
    return ring, [g for g in gens if g], d


@pytest.mark.parametrize("seed", range(8))
def test_truncation_matches_classical_oracle(seed):
    ring, gens, d = _random_homogeneous_setup(seed)
    assert all(g.is_order_homogeneous for g in gens)
    basis = sigma_gbasis_truncated(gens, d)
    left = _sigma_side_minimal_lms(basis, d)
    right = _oracle_side_minimal_lms(ring, [g for g in gens if g.order <= d], d)
    assert left == right


# --- adaptive -----------------------------------------------------------------


def test_adaptive_single_binomial():
    ring = R1()
    basis = sigma_gbasis_adaptive([x(ring, 1) * x(ring, 0)])
    assert basis.status.kind == "complete"
    assert list(basis) == [x(ring, 1) * x(ring, 0)]


def test_adaptive_linear_family_one_sweep():
    ring = make_ring(2, ("x",))
    f11 = ring.var("x", (2, 0)) - ring.var("x", (0, 0))
    f12 = ring.var("x", (0, 1)) - ring.var("x", (0, 0))
    basis = sigma_gbasis_adaptive([f11, f12])
    assert basis.status.kind == "complete"
    assert set(basis.elements) == {f11, f12}
    assert basis.stats.new_elements == 0


def test_adaptive_requires_order_compatible():
    ring = make_ring(1, ("x",), spec=OrderingSpec(LEX, None, LEX, None))
    with pytest.raises(ValueError):
        sigma_gbasis_adaptive([x(ring, 1) - x(ring, 0)])


def test_adaptive_order_cap():
    ring = R1()
    f = x(ring, 0) * x(ring, 2) - x(ring, 1, 2)
    basis = sigma_gbasis_adaptive([f], max_order_cap=3)
    assert basis.status.kind == "budget_exhausted"


# --- verification --------------------------------------------------------------


def test_verify_accepts_complete_basis():
    ring = R1()
    basis = sigma_gbasis([x(ring, 1, 2) - x(ring, 0), x(ring, 1) * x(ring, 0) - x(ring, 0)])
    assert basis.status.kind == "complete"
    assert verify_sigma_gbasis(basis.elements).ok


def test_verify_rejects_with_witness():
    ring = R1()
    g1 = x(ring, 1, 2) - x(ring, 0)
    g2 = x(ring, 1) * x(ring, 0) - x(ring, 0)
    report = verify_sigma_gbasis([g1, g2])
    assert not report.ok
    remainders = {str(r.monic()) for *_ignore, r in report.failures}
    assert "x(0)^2 - x(0)" in remainders


def test_verify_single_variable():
    ring = make_ring(2, ("x",))
    assert verify_sigma_gbasis([ring.var("x", (0, 0))]).ok


def test_verify_requires_order_compatible():
    ring = make_ring(1, ("x",), spec=OrderingSpec(LEX, None, LEX, None))
    with pytest.raises(ValueError):
        verify_sigma_gbasis([x(ring, 1) - x(ring, 0)])


def test_verify_matches_completion_status():
    rng = random.Random(77)
    ring = make_ring(1, ("x", "y"))
    for _ in range(8):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1)
                for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        basis = sigma_gbasis(gens, max_pair_budget=3000)
        if basis.status.kind == "complete" and basis.elements:
            assert verify_sigma_gbasis(basis.elements).ok


# --- membership -----------------------------------------------------------------


def test_membership_table_direct():
    ring = make_ring(2, ("x",))
    gens = [ring.var("x", (2, 0)), ring.var("x", (0, 3))]
    assert pure_power_table(ring, [g.lm for g in gens]) == [[2, 3]]


def test_membership_incomplete_is_none():
    ring = make_ring(2, ("x",))
    gens = [ring.var("x", (1, 0))]
    assert normal_variables(ring, [g.lm for g in gens]) is None
    assert pure_power_table(ring, [g.lm for g in gens]) == [[1, None]]


def test_membership_ignores_mixed_shifts_and_powers():
    ring = make_ring(2, ("x",))
    mixed = ring.var("x", (1, 1))           # not a pure power
    cube = ring.var("x", (3, 0))            # pure power, d=3
    square = ring.var("x", (1, 0), 2)       # exponent 2: not a variable
    assert pure_power_table(ring, [g.lm for g in (mixed, cube, square)]) == [[3, None]]


def test_membership_identity_covers_all_directions():
    ring = make_ring(3, ("x", "y"))
    gens = [ring.var("x", (0, 0, 0))]
    assert pure_power_table(ring, [g.lm for g in gens]) == [[0, 0, 0], [None, None, None]]


def test_membership_predicts_adaptive_termination():
    ring = make_ring(1, ("x",))
    f = x(ring, 2) - x(ring, 0) * x(ring, 1)
    g = x(ring, 0, 3) - x(ring, 1)
    basis = sigma_gbasis([f, g], max_pair_budget=20000)
    if normal_variables(ring, [g.lm for g in basis.elements]) is not None:
        adaptive = sigma_gbasis_adaptive([f, g], max_pair_budget=50000)
        assert adaptive.status.kind == "complete"


# --- minimalize / interreduce -----------------------------------------------------


def test_minimalize_drops_shift_multiples():
    ring = R1()
    basis = minimalize([x(ring, 0), x(ring, 1) * x(ring, 0)])
    assert basis == [x(ring, 0)]


def test_minimalize_keeps_linear_family():
    ring = make_ring(2, ("x",))
    f11 = ring.var("x", (2, 0)) - ring.var("x", (0, 0))
    f12 = ring.var("x", (0, 1)) - ring.var("x", (0, 0))
    assert set(minimalize([f11, f12])) == {f11, f12}


def test_minimalize_idempotent():
    rng = random.Random(5)
    ring = R1()
    gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=2) for _ in range(4)]
    basis = sigma_gbasis([g for g in gens if g], max_pair_budget=2000)
    once = minimalize(list(basis.elements))
    assert minimalize(once) == once


def test_interreduce_self_reduced():
    ring = R1()
    basis = sigma_gbasis([x(ring, 1, 2) - x(ring, 0), x(ring, 1) * x(ring, 0) - x(ring, 0)])
    reduced = interreduce(basis)
    from dgb.reduction import reduce_full

    for i, g in enumerate(reduced.elements):
        others = [h for j, h in enumerate(reduced.elements) if j != i]
        assert reduce_full(g, others) == g
        assert g.lc == ring.field.one


def test_interreduce_idempotent_and_canonical():
    # the reduced basis is unique: generator order must not matter
    rng = random.Random(123)
    ring = make_ring(1, ("x", "y"))
    for _ in range(6):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1,
                                  max_factors=2)
                for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        forward = sigma_gbasis(gens, max_pair_budget=300)
        backward = sigma_gbasis(list(reversed(gens)), max_pair_budget=300)
        if forward.status.kind != "complete" or backward.status.kind != "complete":
            continue
        a = interreduce(forward)
        b = interreduce(backward)
        assert set(a.elements) == set(b.elements)
        again = interreduce(a)
        assert set(again.elements) == set(a.elements)


def test_adaptive_agrees_with_plain_when_both_complete():
    rng = random.Random(321)
    ring = make_ring(2, ("x",))
    for _ in range(6):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1)
                for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        plain = sigma_gbasis(gens, max_pair_budget=300)
        if plain.status.kind != "complete":
            continue
        adaptive = sigma_gbasis_adaptive(gens, max_pair_budget=300, max_order_cap=16)
        if adaptive.status.kind != "complete":
            continue
        assert set(interreduce(plain).elements) == set(interreduce(adaptive).elements)
