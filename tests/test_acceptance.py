"""Acceptance suite: one test per criterion, each ending with a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All comparisons are exact (rational arithmetic, zero
tolerance); wall-clock bounds are asserted where stated.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import classical
import golden_cycle8
import golden_navier
from dgb import VarRef, spoly
from dgb.cli import parse_polynomial, parse_problem, run
from dgb.completion import (PairStats, interreduce, minimalize, sigma_gbasis,
                            sigma_gbasis_adaptive, sigma_gbasis_truncated,
                            verify_sigma_gbasis)
from dgb.orderings import DEGLEX, DEGREVLEX, LEX, OrderingSpec
from dgb.quotient import (LinearRelation, PermutationAction,
                          QuotientPresentation, expand_classical_basis)

from helpers import (compare_monomials, enumerate_up_to_degree, gamma_basis,
                     is_order_homogeneous, make_ring, mono_to_oracle, oracle_key,
                     random_monomial, random_polynomial, to_oracle)

DATA = Path(__file__).parent / "data"


def _report(number, text):
    print(f"\nPASS criterion {number}: {text}")


def _load_flow_problem():
    return parse_problem((DATA / "navier_stokes.dgb").read_text())


def _cycle8_setup():
    # the generators are parsed into the action's own ring, the ring of
    # the README example, so both share one computation
    problem = parse_problem((DATA / "twisted_cubic_cycle8.dgb").read_text())
    action = PermutationAction(problem.permutation)
    gens = [parse_polynomial(action.ring, str(f)) for f in problem.polynomials]
    return action, gens


def _cycle8_gamma():
    """The invariant-basis computation, shared between criteria 2 and 6
    and the README test through `helpers.gamma_basis`."""
    action, gens = _cycle8_setup()
    return action, gens, gamma_basis(action, gens)


def test_criterion_1_flow_discretization_golden(capsys):
    started = time.monotonic()
    code = run(["compute", "--input", str(DATA / "navier_stokes.dgb"),
                "--adaptive", "--minimal", "--interreduce", "--json"])
    elapsed = time.monotonic() - started
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "complete"
    assert len(out["basis"]) == 4
    assert set(out["leading_monomials"]) == golden_navier.LEADING_MONOMIALS

    problem = _load_flow_problem()
    ring = problem.ring
    elements = [parse_polynomial(ring, text) for text in out["basis"]]
    expected_second = parse_polynomial(ring, golden_navier.REDUCED_SECOND)
    expected_pressure = parse_polynomial(ring, golden_navier.PRESSURE_ELEMENT)
    by_lm = {str(g): g for g in elements}
    got_second = next(g for g in elements if g.lm == expected_second.lm)
    got_pressure = next(g for g in elements if g.lm == expected_pressure.lm)
    assert got_second == expected_second, "second element differs term-for-term"
    assert got_pressure == expected_pressure, "pressure element differs term-for-term"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, expected well under 10s"
    _report(1, f"flow golden basis reproduced exactly in {elapsed:.2f}s")


def test_criterion_2_symmetric_ideal_golden():
    started = time.monotonic()
    action, gens, gamma = _cycle8_gamma()
    ring = action.ring

    assert gamma.status.kind == "complete"
    # the printed basis depends on which pairs get reduced, so pin every
    # pair decision of the run, not only its result
    assert gamma.stats == PairStats(generated=52912, killed_sigma=8013,
                                    killed_chain=51520, reduced_to_zero=1222,
                                    new_elements=170)
    assert len(gamma.elements) == 32
    expected = {parse_polynomial(ring, text) for text in golden_cycle8.GAMMA_BASIS}
    assert set(gamma.elements) == expected, "group-invariant basis differs"
    expected_lms = {parse_polynomial(ring, t).lm
                    for t in golden_cycle8.GAMMA_LEADING_MONOMIALS}
    assert {g.lm for g in gamma.elements} == expected_lms

    classical_basis = expand_classical_basis(action, gamma.elements)
    assert len(classical_basis) == 54
    expected_54 = {parse_polynomial(ring, t).lm
                   for t in golden_cycle8.CLASSICAL_LEADING_MONOMIALS}
    assert {g.lm for g in classical_basis} == expected_54

    # independent cross-check: textbook computation on the orbit of the
    # generators inside the 8-variable ring, lex with x(7) largest
    def var(k):
        return VarRef(0, (k,))

    def orbit_binomial(spec):
        (a, b), (c, d) = spec
        return {
            tuple(sorted({var(a): 1, var(b): 1}.items())) if a != b
            else ((var(a), 2),): Fraction(1),
            tuple(sorted({var(c): 1, var(d): 1}.items())) if c != d
            else ((var(c), 2),): Fraction(-1),
        }

    orbit = []
    for k in range(8):
        orbit.append(orbit_binomial((((k) % 8, (k + 2) % 8), ((k + 1) % 8, (k + 1) % 8))))
        orbit.append(orbit_binomial((((k) % 8, (k + 3) % 8), ((k + 1) % 8, (k + 2) % 8))))

    def lex_key(mono):
        exps = [0] * 8
        for (sym, shift), e in mono:
            exps[shift[0]] = e
        return tuple(reversed(exps))

    oracle_minimal = classical.minimalize(classical.buchberger(orbit, lex_key), lex_key)
    oracle_lms = {classical.p_lm(g, lex_key) for g in oracle_minimal}
    mine_as_oracle = [to_oracle(g) for g in classical_basis]
    assert {classical.p_lm(g, lex_key) for g in mine_as_oracle} == oracle_lms

    # reduced bases are canonical: both routes must coincide exactly
    oracle_reduced = {frozenset(g.items())
                      for g in classical.interreduce(oracle_minimal, lex_key)}
    mine_reduced = {frozenset(g.items())
                    for g in classical.interreduce(mine_as_oracle, lex_key)}
    assert oracle_reduced == mine_reduced

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, expected under 60s"
    _report(2, f"32-element invariant basis and 54-element expansion in {elapsed:.1f}s")


def test_criterion_3_linear_families_reduce_to_zero():
    started = time.monotonic()
    rng = random.Random(2024)
    for trial in range(50):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        ring = make_ring(r, tuple(f"x{i}" for i in range(n)))
        relations = []
        for i in range(n):
            for j in range(r):
                d = rng.randint(1, 4)
                coeffs = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                               for _ in range(d)) + (Fraction(1),)
                relations.append(LinearRelation(i, j, coeffs))
        pres = QuotientPresentation(ring, relations)
        report = verify_sigma_gbasis(pres.relation_polynomials)
        assert report.ok, f"trial {trial}: some S-polynomial did not reduce to zero"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, expected under 30s"
    _report(3, f"50 random relation families verified in {elapsed:.1f}s")


def _random_homogeneous_instance(rng):
    rank = rng.choice([1, 2])
    symbols = ("x", "y")[: rng.choice([1, 1, 2])]  # bias to one symbol: more overlaps
    sp = list(range(rank))
    rng.shuffle(sp)
    yp = list(range(len(symbols)))
    rng.shuffle(yp)
    spec = OrderingSpec(rng.choice([DEGLEX, DEGREVLEX]), tuple(sp),
                        rng.choice([LEX, DEGLEX, DEGREVLEX]), tuple(yp))
    ring = make_ring(rank, symbols, spec=spec)
    gens = []
    top = 0
    for _ in range(2):
        ordv = rng.randint(1, 2)
        top = max(top, ordv)
        gens.append(random_polynomial(rng, ring, max_terms=2, order_exact=ordv,
                                      max_factors=2, max_exp=2))
    return ring, [g for g in gens if g], rng.randint(top, 4)


def test_criterion_4_truncation_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(777)
    for trial in range(25):
        ring, gens, d = _random_homogeneous_instance(rng)
        assert all(is_order_homogeneous(g) for g in gens)
        basis = sigma_gbasis_truncated(gens, d)
        assert str(basis.status) == f"complete_up_to_order({d})"

        key = oracle_key(ring)
        expanded_mine = set()
        for g in basis:
            room = d - g.lm.order
            for s in enumerate_up_to_degree(room, ring.signature.shift_rank):
                expanded_mine.add(mono_to_oracle(g.lm.shift(s)))
        minimal_mine = []
        for m in sorted(expanded_mine, key=key):
            if not any(classical.m_divides(h, m) for h in minimal_mine):
                minimal_mine.append(m)

        finite_input = []
        for f in gens:
            if f.order > d:
                continue
            room = d - f.order
            for s in enumerate_up_to_degree(room, ring.signature.shift_rank):
                finite_input.append(to_oracle(f.shift(s)))
        oracle_lms = (set(classical.minimal_leading_monomials(finite_input, key))
                      if finite_input else set())
        assert set(minimal_mine) == oracle_lms, f"trial {trial} diverged"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s, expected under 2 minutes"
    _report(4, f"25 truncated runs match the textbook expansion in {elapsed:.1f}s")


def test_criterion_5_equivariance_and_ordering_properties():
    started = time.monotonic()
    rng = random.Random(5150)
    ring = make_ring(2, ("x", "y"))
    ordering = ring.ordering

    checked = 0
    for _ in range(1000):
        f = random_polynomial(rng, ring, max_terms=3)
        g = random_polynomial(rng, ring, max_terms=3)
        if not f or not g:
            continue
        s = (rng.randint(0, 2), rng.randint(0, 2))
        assert spoly(f, g).shift(s) == spoly(f.shift(s), g.shift(s))
        checked += 1
    assert checked >= 900

    for _ in range(1000):
        m = random_monomial(rng, ring)
        n = random_monomial(rng, ring)
        s = (rng.randint(0, 3), rng.randint(0, 3))
        if compare_monomials(ordering, m, n) == -1:
            assert compare_monomials(ordering, m.shift(s), n.shift(s)) == -1
        assert compare_monomials(ordering, m.shift(s), m) >= 0

    for _ in range(1000):
        m = random_monomial(rng, ring)
        n = random_monomial(rng, ring)
        assert (m * n).order == max(m.order, n.order)

    for _ in range(1000):
        m = random_monomial(rng, ring)
        s = (rng.randint(0, 3), rng.randint(0, 3))
        assert m.shift(s).order == sum(s) + m.order

    elapsed = time.monotonic() - started
    _report(5, f"4 property suites x 1000 random cases, zero failures, {elapsed:.1f}s")


def _scale_term(f, mono_text, factor):
    ring = f.ring
    target = parse_polynomial(ring, mono_text).lm
    terms = [(c * ring.field.rational(factor) if m == target else c, m)
             for m, c in f.terms]
    assert any(m == target for m, _ in f.terms)
    return ring.polynomial(terms)


def test_criterion_6_verifier_soundness():
    started = time.monotonic()
    # completed bases must be accepted
    problem = _load_flow_problem()
    flow = interreduce(sigma_gbasis_adaptive(problem.polynomials))
    assert flow.status.kind == "complete"
    assert verify_sigma_gbasis(flow.elements).ok

    action, gens, gamma = _cycle8_gamma()
    full_cycle = list(gamma.elements) + action.presentation.relation_polynomials
    assert verify_sigma_gbasis(full_cycle).ok

    ring1 = make_ring(1, ("x",))
    x = lambda k, e=1: ring1.var("x", (k,), e)
    ordinary = sigma_gbasis([x(1, 2) - x(0), x(1) * x(0) - x(0)])
    assert ordinary.status.kind == "complete"
    assert verify_sigma_gbasis(ordinary.elements).ok

    rng = random.Random(31337)
    accepted = 3
    for _ in range(5):
        gens_r = [random_polynomial(rng, ring1, max_terms=2, max_shift_deg=1)
                  for _ in range(2)]
        basis = sigma_gbasis([g for g in gens_r if g], max_pair_budget=3000)
        if basis.status.kind == "complete" and basis.elements:
            assert verify_sigma_gbasis(basis.elements).ok
            accepted += 1

    # ten hand-perturbed non-bases must be rejected with a concrete witness
    flow_elems = list(flow.elements)
    second = next(g for g in flow_elems if str(g).startswith("v(1,1,0)"))
    pressure = next(g for g in flow_elems if str(g).startswith("p(2,0,0)"))
    continuity = next(g for g in flow_elems if str(g).startswith("u(1,0,0)"))
    others_flow = lambda *drop: [g for g in flow_elems if g not in drop]

    def drop_cycle(lm_text):
        t = parse_polynomial(action.ring, lm_text).lm
        return [h for h in full_cycle if h.lm != t]

    twisted = next(h for h in full_cycle if str(h) == "x(2)*x(0) - x(1)^2")
    ordinary_elems = list(ordinary.elements)
    quad = next(h for h in ordinary_elems if str(h) == "x(0)^2 - x(0)")

    perturbed = [
        others_flow(pressure),
        others_flow(second) + [_scale_term(second, "u(0,2,0)", 2)],
        others_flow(pressure) + [_scale_term(pressure, "p(0,2,0)", 3)],
        others_flow(continuity) + [_scale_term(continuity, "v(0,1,0)", 2)],
        drop_cycle("x(7)^2"),
        drop_cycle("x(2)^4"),
        [h for h in full_cycle if h is not twisted] + [_scale_term(twisted, "x(1)^2", 2)],
        list(gamma.elements),  # cycle relations removed
        [h for h in ordinary_elems if h != quad],
        [h for h in ordinary_elems if h != quad] + [_scale_term(quad, "x(0)", 2)],
    ]
    assert len(perturbed) == 10
    for idx, bad in enumerate(perturbed):
        report = verify_sigma_gbasis(bad)
        assert not report.ok, f"perturbation {idx} was wrongly accepted"
        assert report.failures, f"perturbation {idx} lacks a witness"
        i, j, si, sj, remainder = report.failures[0]
        assert remainder, "witness remainder must be nonzero"

    elapsed = time.monotonic() - started
    _report(6, f"{accepted} complete bases accepted, 10 perturbations rejected "
               f"with witnesses, {elapsed:.1f}s")


def test_criterion_7_normal_form_cross_check():
    started = time.monotonic()
    rng = random.Random(4242)
    for trial in range(50):
        n, r = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        ring = make_ring(r, tuple(f"x{i}" for i in range(n)))
        relations = []
        max_d = 0
        for i in range(n):
            for j in range(r):
                d = rng.randint(1, 3)
                max_d = max(max_d, d)
                coeffs = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                               for _ in range(d)) + (Fraction(1),)
                relations.append(LinearRelation(i, j, coeffs))
        pres = QuotientPresentation(ring, relations)
        for i in range(n):
            for shift in enumerate_up_to_degree(2 * max_d, r):
                var = VarRef(i, shift)
                assert pres.normal_form_reduction(var) == pres.normal_form_companion(var), \
                    f"trial {trial}: paths disagree on {var}"
    elapsed = time.monotonic() - started
    _report(7, f"50 random presentations, both normal-form routes agree, {elapsed:.1f}s")
