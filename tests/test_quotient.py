import json
import random
from fractions import Fraction

import pytest

from dgb import ParseError, RingMismatchError, StaircaseError, VarRef, quotient
from dgb.reduction import reduce_full
from dgb.completion import verify_sigma_gbasis
from dgb.quotient import (LinearRelation, PermutationAction,
                          QuotientPresentation, expand_classical_basis,
                          groebner_gamma_basis, normal_variables, parse_cycles,
                          pure_power_table, symmetric_setup)

from helpers import enumerate_up_to_degree, make_ring


def test_normal_variables_box():
    ring = make_ring(2, ("x",))
    lms = [ring.monomial([("x", (2, 0), 1)]), ring.monomial([("x", (0, 3), 1)])]
    vars_ = normal_variables(ring, lms)
    assert len(vars_) == 6
    assert set(vars_) == {VarRef(0, (a, b)) for a in range(2) for b in range(3)}


def test_normal_variables_infinite():
    ring = make_ring(2, ("x",))
    lms = [ring.monomial([("x", (1, 0), 1)])]
    assert normal_variables(ring, lms) is None
    assert pure_power_table(ring, lms) == [[1, None]]


def test_normal_variables_cyclic_staircase():
    ring = make_ring(1, ("x",))
    lms = [ring.monomial([("x", (8,), 1)])]
    vars_ = normal_variables(ring, lms)
    assert vars_ == [VarRef(0, (k,)) for k in range(8)]


def test_normal_variables_extra_generators_cut_the_box():
    ring = make_ring(2, ("x",))
    lms = [ring.monomial([("x", (2, 0), 1)]), ring.monomial([("x", (0, 2), 1)]),
           ring.monomial([("x", (1, 1), 1)])]
    vars_ = normal_variables(ring, lms)
    assert set(vars_) == {VarRef(0, (0, 0)), VarRef(0, (1, 0)), VarRef(0, (0, 1))}


def test_is_noetherian_quotient():
    ring = make_ring(2, ("x",))
    assert normal_variables(ring, []) is None
    pres = QuotientPresentation(ring, [
        LinearRelation(0, 0, (Fraction(-1), Fraction(1))),
        LinearRelation(0, 1, (Fraction(2), Fraction(0), Fraction(1))),
    ])
    lms = [f.lm for f in pres.relation_polynomials]
    assert normal_variables(ring, lms) is not None
    # the worked flow example: no pure power for v/p directions
    nav = make_ring(3, ("u", "v", "p"))
    lms = [nav.monomial([("u", (1, 0, 0), 1)]),
           nav.monomial([("v", (1, 1, 0), 1)]),
           nav.monomial([("v", (2, 0, 0), 1)]),
           nav.monomial([("p", (2, 0, 0), 1)])]
    assert normal_variables(nav, lms) is None


def test_presentation_validation():
    ring = make_ring(2, ("x",))
    with pytest.raises(ValueError):
        QuotientPresentation(ring, [LinearRelation(0, 0, (Fraction(1), Fraction(1)))])
    with pytest.raises(ValueError):
        LinearRelation(0, 0, (Fraction(1), Fraction(2)))  # not monic


def test_presentation_dimension_and_staircase():
    ring = make_ring(2, ("x", "y"))
    pres = QuotientPresentation(ring, [
        LinearRelation(0, 0, (Fraction(-1), Fraction(1))),           # degree 1
        LinearRelation(0, 1, (Fraction(1), Fraction(0), Fraction(1))),  # degree 2
        LinearRelation(1, 0, (Fraction(-2), Fraction(1), Fraction(1))),
        LinearRelation(1, 1, (Fraction(1), Fraction(1))),
    ])
    lms = [f.lm for f in pres.relation_polynomials]
    assert pure_power_table(ring, lms) == [[1, 2], [2, 1]]
    assert pres.dimension == 1 * 2 + 2 * 1
    assert len(normal_variables(ring, lms)) == pres.dimension


def test_relations_are_groebner_examples():
    ring = make_ring(2, ("x",))
    pres = QuotientPresentation(ring, [
        LinearRelation(0, 0, (Fraction(-1), Fraction(0), Fraction(1))),  # x(s1^2) - x(1)
        LinearRelation(0, 1, (Fraction(1), Fraction(1))),               # x(s2) + x(1)
    ])
    assert verify_sigma_gbasis(pres.relation_polynomials).ok


def test_relations_are_groebner_cycles():
    action = PermutationAction([(1, 2, 3), (4, 5, 6, 7, 8)])
    assert verify_sigma_gbasis(action.presentation().relation_polynomials).ok


@pytest.mark.parametrize("seed", range(6))
def test_relations_are_groebner_random(seed):
    rng = random.Random(seed)
    n, r = rng.choice([(1, 2), (2, 2), (2, 1), (1, 3)])
    ring = make_ring(r, tuple(f"x{i}" for i in range(n)))
    rels = []
    for i in range(n):
        for j in range(r):
            d = rng.randint(1, 3)
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d)) + (Fraction(1),)
            rels.append(LinearRelation(i, j, coeffs))
    pres = QuotientPresentation(ring, rels)
    assert verify_sigma_gbasis(pres.relation_polynomials).ok


def test_normal_form_cyclic_wraps():
    action = PermutationAction([(1, 2, 3, 4, 5, 6, 7, 8)])
    pres = action.presentation()
    nf = pres.normal_form_variable(VarRef(0, (9,)))
    assert nf == action.ring.var("x", (1,))


def test_normal_form_direct_rewrite():
    ring = make_ring(1, ("x",))
    pres = QuotientPresentation(ring, [
        LinearRelation(0, 0, (Fraction(1), Fraction(1), Fraction(1))),
    ])
    nf = pres.normal_form_variable(VarRef(0, (2,)))
    assert nf == -ring.var("x", (1,)) - ring.var("x", (0,))


def test_normal_form_two_directions():
    ring = make_ring(2, ("x",))
    pres = QuotientPresentation(ring, [
        LinearRelation(0, 0, (Fraction(-1), Fraction(0), Fraction(1))),  # x(s1^2)=x(1)
        LinearRelation(0, 1, (Fraction(0), Fraction(-1), Fraction(1))),  # x(s2^2)=x(s2)
    ])
    assert pres.normal_form_variable(VarRef(0, (2, 2))) == ring.var("x", (0, 1))


def test_normal_form_identity_on_staircase():
    ring = make_ring(1, ("x",))
    pres = QuotientPresentation(ring, [
        LinearRelation(0, 0, (Fraction(2), Fraction(-1), Fraction(1))),
    ])
    for var in normal_variables(ring, [f.lm for f in pres.relation_polynomials]):
        assert pres.normal_form_variable(var) == ring.var(var.symbol, var.shift)


@pytest.mark.parametrize("seed", range(10))
def test_normal_form_cross_check_random(seed):
    rng = random.Random(seed)
    n, r = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    ring = make_ring(r, tuple(f"x{i}" for i in range(n)))
    rels = []
    max_d = 0
    for i in range(n):
        for j in range(r):
            d = rng.randint(1, 3)
            max_d = max(max_d, d)
            coeffs = tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                           for _ in range(d)) + (Fraction(1),)
            rels.append(LinearRelation(i, j, coeffs))
    pres = QuotientPresentation(ring, rels)
    for i in range(n):
        for shift in enumerate_up_to_degree(2 * max_d, r):
            a = pres.normal_form_reduction(VarRef(i, shift))
            b = pres.normal_form_companion(VarRef(i, shift))
            assert a == b


def test_normal_form_linearity():
    ring = make_ring(1, ("x",))
    pres = QuotientPresentation(ring, [
        LinearRelation(0, 0, (Fraction(1), Fraction(-2), Fraction(1))),
    ])
    nf3 = pres.normal_form_variable(VarRef(0, (3,)))
    nf4 = pres.normal_form_variable(VarRef(0, (4,)))
    combo = nf3.scale(Fraction(2)) + nf4
    direct = ring.var("x", (3,)).scale(Fraction(2)) + ring.var("x", (4,))
    from dgb.reduction import tail_reduce
    assert tail_reduce(direct, pres.relation_polynomials) == combo


# --- permutations ----------------------------------------------------------------


def test_parse_cycles():
    assert parse_cycles("(1 2 3)(4 5)") == [(1, 2, 3), (4, 5)]
    assert parse_cycles("(1, 2, 3)") == [(1, 2, 3)]
    with pytest.raises(ParseError):
        parse_cycles("1 2 3")
    with pytest.raises(ParseError):
        parse_cycles("")


def test_permutation_normalization():
    act = PermutationAction([(4, 5), (2, 3, 1), (6,)])
    # cycles sorted by smallest point; fixed point 6 becomes a 1-cycle
    assert act.cycles == ((1, 2, 3), (4, 5), (6,))
    assert act.cycle_lengths == (3, 2, 1)
    assert act.order == 6
    assert [str(f) for f in act.relations()] == [
        "x1(3) - x1(0)", "x2(2) - x2(0)", "x3(1) - x3(0)"]


def test_cycle_relations_by_hand():
    action = PermutationAction("(1 2 3)(4 5)")
    ring = action.ring
    assert action.relations() == [ring.var("x1", (3,)) - ring.var("x1", (0,)),
                                  ring.var("x2", (2,)) - ring.var("x2", (0,))]


def test_empty_cycle_same_error_as_list_or_text():
    messages = set()
    for cycles in ([(), (1, 2)], "()(1 2)"):
        with pytest.raises(ValueError) as err:
            PermutationAction(cycles)
        messages.add(str(err.value))
    assert messages == {"empty cycle in permutation"}


def test_permutation_validation():
    with pytest.raises(ValueError):
        PermutationAction([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        PermutationAction([(0, 1)])


@pytest.mark.parametrize("cycles,count", [([(1, 2, 3)], 1), ([(1, 2), (4, 5)], 3)])
def test_permutation_symbol_count_must_match_cycles(cycles, count):
    # fixed points are cycles of length one and need a symbol each
    with pytest.raises(ValueError, match=f"needs {count} symbols.* but 2 were given"):
        PermutationAction(cycles, make_ring(1, ("x", "y")))
    symbols = tuple(f"z{i}" for i in range(count))
    assert len(PermutationAction(cycles, make_ring(1, symbols)).cycles) == count


def test_symmetric_setup_staircase_error():
    action = PermutationAction([(1, 2, 3)])
    ring = action.ring
    bad = ring.var("x", (3,)) - ring.var("x", (0,))
    with pytest.raises(StaircaseError):
        symmetric_setup(action, [bad])


def test_symmetric_setup_includes_relations():
    action = PermutationAction([(1, 2, 3, 4, 5, 6, 7, 8)])
    ring = action.ring
    g1 = ring.var("x", (0,)) * ring.var("x", (2,)) - ring.var("x", (1,), 2)
    lifted = symmetric_setup(action, [g1])
    assert lifted[-1] == ring.var("x", (8,)) - ring.var("x", (0,))
    assert len(lifted) == 2


def test_gamma_basis_principal_orbit():
    action = PermutationAction([(1, 2, 3, 4, 5, 6, 7, 8)])
    ring = action.ring
    basis = groebner_gamma_basis(action, [ring.var("x", (0,))])
    assert list(basis) == [ring.var("x", (0,))]
    assert basis.status.kind == "complete"


def test_gamma_basis_empty_generators():
    action = PermutationAction([(1, 2, 3)])
    basis = groebner_gamma_basis(action, [])
    assert basis.elements == ()


def test_gamma_basis_coprime_heads_fixed():
    action = PermutationAction([(1, 2, 3), (4, 5, 6)])
    ring = action.ring
    g = ring.var("x1", (0,)) - ring.var("x2", (0,))
    basis = groebner_gamma_basis(action, [g])
    assert basis.status.kind == "complete"
    # x1 is rewritten in terms of x2 everywhere; the basis stays small
    assert all(h.lm.order <= 3 for h in basis)
    assert verify_sigma_gbasis(list(basis.elements) + action.relations()).ok


def test_gamma_basis_returns_generators_unchanged_when_orbit_coprime():
    action = PermutationAction([(1, 2, 3), (4, 5, 6)])
    ring = action.ring
    g = ring.var("x1", (0,)) * ring.var("x2", (0,))
    basis = groebner_gamma_basis(action, [g])
    assert basis.status.kind == "complete"
    assert list(basis) == [g]


def test_expand_classical_principal():
    action = PermutationAction([(1, 2, 3, 4, 5, 6, 7, 8)])
    ring = action.ring
    out = expand_classical_basis(action, [ring.var("x", (0,))])
    assert out == [ring.var("x", (k,)) for k in range(8)]
    assert expand_classical_basis(action, []) == []


def test_gamma_invariance_of_expansion():
    # each returned element stays in the ideal under the group action
    action = PermutationAction([(1, 2, 3, 4)])
    ring = action.ring
    g = ring.var("x", (0,)) * ring.var("x", (2,)) - ring.var("x", (1,), 2)
    basis = groebner_gamma_basis(action, [g])
    classical_basis = expand_classical_basis(action, basis.elements)
    from dgb.reduction import tail_reduce

    for h in classical_basis:
        for k in range(action.order):
            image = tail_reduce(h.shift((k,)), action.relations())
            assert tail_reduce(image, classical_basis) == ring.zero


def test_expansion_cross_checked_against_oracle_small_cycle():
    import classical as oracle
    from fractions import Fraction
    from helpers import to_oracle

    action = PermutationAction([(1, 2, 3, 4, 5, 6)])
    ring = action.ring
    g1 = ring.var("x", (0,)) * ring.var("x", (2,)) - ring.var("x", (1,), 2)
    g2 = ring.var("x", (0,)) * ring.var("x", (3,)) - ring.var("x", (1,)) * ring.var("x", (2,))
    gamma = groebner_gamma_basis(action, [g1, g2])
    expanded = expand_classical_basis(action, gamma.elements)

    def lex_key(mono):
        exps = [0] * 6
        for (sym, shift), e in mono:
            exps[shift[0]] = e
        return tuple(reversed(exps))

    orbit = []
    for g in (g1, g2):
        for k in range(action.order):
            from dgb.reduction import tail_reduce
            orbit.append(to_oracle(tail_reduce(g.shift((k,)), action.relations())))
    oracle_minimal = oracle.minimalize(oracle.buchberger(orbit, lex_key), lex_key)
    mine = [to_oracle(h) for h in expanded]
    assert {oracle.p_lm(h, lex_key) for h in mine} == \
        {oracle.p_lm(h, lex_key) for h in oracle_minimal}
    assert {frozenset(h.items()) for h in oracle.interreduce(oracle_minimal, lex_key)} == \
        {frozenset(h.items()) for h in oracle.interreduce(mine, lex_key)}


def test_explicit_one_cycles_are_fixed_points():
    explicit = PermutationAction("(1 2)(3)")
    assert explicit.cycles == ((1, 2), (3,))
    assert explicit.degree == 3
    assert explicit.ring.signature.symbols == ("x1", "x2")


def test_symmetric_setup_rejects_a_foreign_ring():
    action = PermutationAction([(1, 2, 3)])
    other = make_ring(1, ("y",))
    with pytest.raises(RingMismatchError):
        symmetric_setup(action, [other.var("y", (0,))])


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_linear_relation_from_polynomial_round_trip(rank):
    rng = random.Random(rank)
    ring = make_ring(rank, ("x", "y"))
    for _ in range(20):
        d = rng.randint(1, 3)
        coeffs = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                       for _ in range(d)) + (Fraction(1),)
        rel = LinearRelation(rng.randrange(2), rng.randrange(rank), coeffs)
        f = rel.polynomial(ring)
        assert LinearRelation.from_polynomial(f) == rel
        assert LinearRelation.from_polynomial(f.scale(Fraction(-3, 2))) == rel


def test_linear_relation_from_polynomial_rejects_non_relations():
    ring = make_ring(2, ("x", "y"))

    def x(*shift, e=1):
        return ring.var("x", shift, e)

    assert LinearRelation.from_polynomial(x(2, 0) - ring.var("y", (0, 0))) is None
    assert LinearRelation.from_polynomial(x(2, 0) - x(0, 1)) is None
    assert LinearRelation.from_polynomial(x(1, 1) - x(0, 0)) is None
    assert LinearRelation.from_polynomial(x(2, 0) * x(0, 0) - x(0, 0)) is None
    assert LinearRelation.from_polynomial(x(2, 0, e=2) - x(0, 0)) is None
    assert LinearRelation.from_polynomial(x(1, 0) + ring.one) is None
    assert LinearRelation.from_polynomial(ring.zero) is None
    # the unshifted variable alone is the degree-0 relation along operator 0
    assert LinearRelation.from_polynomial(x(0, 0).scale(Fraction(3))) == \
        LinearRelation(0, 0, (Fraction(1),))


@pytest.mark.parametrize("symbol_order", ["lex", "deglex"])
def test_symmetric_command_honours_the_file_order(tmp_path, capsys, symbol_order):
    # two cycles, two symbols, and a symbol priority against the declared
    # order: the command and the library compute in the file's own ring
    import classical as oracle
    from dgb.cli import parse_problem, run

    from helpers import oracle_key, to_oracle

    order = f"block(shifts=deglex[s1], symbols={symbol_order}[b>a])"
    text = (f"ring {{ shifts: 1; symbols: a, b; order: {order}; }}\n"
            "ideal { a(0)*b(1) - a(1)^2; b(2) - a(0); }\n"
            "symmetric { perm: (1 2 3)(4 5 6); }\n")
    gens = tmp_path / "gens.dgb"
    gens.write_text(text)
    problem = parse_problem(text)
    action = PermutationAction(problem.permutation, problem.ring)
    gamma = groebner_gamma_basis(action, problem.polynomials)
    assert gamma.status.kind == "complete"
    assert run(["symmetric", "--gens", str(gens), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["order"] == order
    assert out["basis"] == [str(g) for g in gamma.elements]

    key = oracle_key(problem.ring)
    orbit = [to_oracle(reduce_full(g.shift((k,)), action.relations()))
             for g in problem.polynomials for k in range(action.order)]
    oracle_minimal = oracle.minimalize(oracle.buchberger(orbit, key), key)
    expanded = expand_classical_basis(action, gamma.elements)
    assert {oracle.p_lm(to_oracle(h), key) for h in expanded} == \
        {oracle.p_lm(h, key) for h in oracle_minimal}


def test_one_presentation_and_one_relation_reducer_per_action(monkeypatch):
    counts = {"presentations": 0, "relation_reducers": 0}

    class CountingPresentation(quotient.QuotientPresentation):
        def __init__(self, *args):
            counts["presentations"] += 1
            super().__init__(*args)

    class CountingReducer(quotient.ReducerBasis):
        def __init__(self, *args):
            counts["relation_reducers"] += 1
            super().__init__(*args)

    monkeypatch.setattr(quotient, "QuotientPresentation", CountingPresentation)
    monkeypatch.setattr(quotient, "ReducerBasis", CountingReducer)
    action = PermutationAction("(1 2 3 4)")
    ring = action.ring
    g = ring.var("x", (0,)) * ring.var("x", (2,)) - ring.var("x", (1,), 2)
    gamma = groebner_gamma_basis(action, [g])
    assert len(expand_classical_basis(action, gamma.elements)) > len(gamma.elements)
    assert counts == {"presentations": 1, "relation_reducers": 1}


def test_degree_zero_relation_empties_its_symbol():
    ring = make_ring(1, ("u",))
    presentation = QuotientPresentation(ring, [LinearRelation(0, 0, (Fraction(1),))])
    assert presentation.dimension == 0
    assert presentation.normal_form_reduction(VarRef(0, (3,))) == ring.zero
    assert presentation.normal_form_companion(VarRef(0, (3,))) == ring.zero
