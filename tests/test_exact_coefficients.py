"""Every coefficient the library returns has a canonical exact type.

README promises that no floating point is used anywhere.  A constant is
an int or a Fraction over Q and over Q(parameters) alike, and a
RationalFunction always involves a parameter (`helpers.is_exact_coefficient`).
As ``int / int`` is a float, a coefficient quotient that some route wrote
with ``/`` in place of ``ConstantField.quotient`` shows up here as a
float.  Each test drives parsing, certified reduction and its replay,
normal forms, monic, shifted S-polynomials, the completion modes,
interreduce, minimalize and the verifier over Q, Q(H) and Q(H, K); the
symmetric path is read off the cycle8 run that `helpers.gamma_basis`
shares with the acceptance suite.  The routes that take a coefficient
from the caller refuse a float, or any other inexact value, and a value
of another field.
"""

import importlib.util
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from dgb import CoefficientTypeError, DGBError, OrderingSpec, RingMismatchError
from dgb.cli import parse_polynomial, parse_problem
from dgb.completion import (interreduce, minimalize, sigma_gbasis, sigma_gbasis_adaptive,
                            sigma_gbasis_truncated, verify_sigma_gbasis)
from dgb.orderings import DEGREVLEX
from dgb.quotient import (LinearRelation, PermutationAction, QuotientPresentation,
                          expand_classical_basis)
from dgb.reduction import reduce, reduce_full, replay_certificate, tail_reduce
from dgb.ring import shifted_spoly

from helpers import gamma_basis, is_exact_coefficient, make_ring
from test_completion import _PINNED_MODES, _seeded_run

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"


def _assert_exact(*polys):
    for f in polys:
        for _, c in f.terms:
            assert is_exact_coefficient(c), (type(c), c if type(c) is float else None)


def _assert_exact_basis(basis):
    """The elements of basis, of its interreduced and minimal forms, and
    the remainders the verifier reports for it."""
    _assert_exact(*basis.elements, *interreduce(basis).elements, *minimalize(basis).elements)
    if basis.ring.ordering.is_order_compatible:
        report = verify_sigma_gbasis(basis.elements)
        _assert_exact(*(h for *_, h in report.failures))


def _assert_exact_reduction(f, G):
    """Certified head reduction and its replay, tail reduction and the
    monic normal form of f against G."""
    h, steps = reduce(f, G, certificate=True)
    _assert_exact(h, replay_certificate(h, steps, G), tail_reduce(f, G), reduce_full(f, G))
    assert replay_certificate(h, steps, G) == f
    for coeff, *_ in steps:
        assert is_exact_coefficient(coeff)


# Coefficients with division by constants, fractions that cancel to
# integers, and (with parameters) quotients that cancel to constants.
_TEXTS = {
    (): ["3*x(1)^2*y(0) - 2/4*x(0)*y(1) + 6/3*y(0)",
         "2*x(1)*x(0) - 3/7*y(0)^2 + 4",
         "x(2)*y(0)/2 - 4/6*x(0)^2 + (1/3 + 2/3)*y(1)"],
    ("H",): ["(H + 1)/2*x(1)^2*y(0) - 2/(3*H)*x(0)*y(1) + H/H*y(0)",
             "2*x(1)*x(0) - (H^2 - 1)/(H - 1)*y(0)^2 + 4",
             "3*H*x(2)*y(0)/2 - 4/6*x(0)^2 + (H/(H + 1) + 1/(H + 1))*y(1)"],
    ("H", "K"): ["(H + K)/2*x(1)^2*y(0) - 2/(3*H*K)*x(0)*y(1) + K/K*y(0)",
                 "2*x(1)*x(0) - (H*K - K)/(H - 1)*y(0)^2 + 4",
                 "3*H*x(2)*y(0)/2 - 4/6*x(0)^2 + (H/(H + K) + K/(H + K))*y(1)"],
}


@pytest.mark.parametrize("parameters", list(_TEXTS), ids=["Q", "Q(H)", "Q(H,K)"])
def test_every_route_returns_exact_coefficients(parameters):
    ring = make_ring(1, ("x", "y"), parameters, OrderingSpec(DEGREVLEX, None, DEGREVLEX, None))
    polys = [parse_polynomial(ring, text) for text in _TEXTS[parameters]]
    _assert_exact(*polys)
    # 6/3, H/H and K/K come back as plain ints, and so does a sum of
    # parameter quotients that cancels to 1
    y0, y1 = (parse_polynomial(ring, text).lm for text in ("y(0)", "y(1)"))
    assert dict(polys[0].terms)[y0] == (1 if parameters else 2)
    assert type(dict(polys[0].terms)[y0]) is int
    assert dict(polys[2].terms)[y1] == 1
    if parameters:
        assert type(dict(polys[2].terms)[y1]) is int
    gens = polys[:2]
    f = polys[2] * polys[0] + polys[1] * polys[1]
    _assert_exact(f, *(g.monic() for g in polys))
    _assert_exact_reduction(f, gens)
    _assert_exact(shifted_spoly(gens[0], (1,), gens[1], (0,)),
                  shifted_spoly(gens[1], (0,), gens[1], (2,)))
    for basis in (sigma_gbasis(gens, max_pair_budget=12),
                  sigma_gbasis(gens, max_pair_budget=12, use_chain_criterion=False),
                  sigma_gbasis_truncated(gens, 2, max_pair_budget=12),
                  sigma_gbasis_adaptive(gens, max_pair_budget=12, max_order_cap=3)):
        _assert_exact_basis(basis)
        _assert_exact_reduction(f, basis.elements)
    # the verifier's remainders of an incomplete set
    assert not verify_sigma_gbasis(gens).ok
    _assert_exact(*(h for *_, h in verify_sigma_gbasis(gens).failures))


def test_seeded_completions_have_exact_coefficients():
    # the pinned seeds of tests/test_completion.py, over Q, in all five modes
    for seed in range(45):
        gens, _, basis = _seeded_run(seed, budget=150, modes=_PINNED_MODES)
        _assert_exact(*gens)
        _assert_exact_basis(basis)
        if basis.elements and gens:
            _assert_exact_reduction(gens[0] * gens[-1], basis.elements)


def _flowstream():
    spec = importlib.util.spec_from_file_location("flowstream",
                                                  ROOT / "perfbench" / "flowstream.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flow_run_has_exact_coefficients():
    # Q(H): the flow completion and the membership items of its benchmark
    text = (DATA / "navier_stokes.dgb").read_text()
    problem = parse_problem(text)
    ring = problem.ring
    _assert_exact(*problem.polynomials)
    basis = sigma_gbasis_adaptive(problem.polynomials)
    _assert_exact_basis(basis)
    G = list(interreduce(basis).elements)
    flowstream = _flowstream()
    stream = flowstream.ItemStream(flowstream.ideal_equations(text), ring.signature.symbols,
                                   ring.signature.shift_rank, 7, 0)
    for _ in range(20):
        f_text, r_text = stream.next_item()
        f, r = parse_polynomial(ring, f_text), parse_polynomial(ring, r_text)
        _assert_exact_reduction(f, G)
        assert reduce_full(f, G) == reduce_full(r, G)


def test_symmetric_path_has_exact_coefficients():
    # the cycle8 invariant basis and its classical expansion, over Q
    problem = parse_problem((DATA / "twisted_cubic_cycle8.dgb").read_text())
    action = PermutationAction(problem.permutation)
    gens = [parse_polynomial(action.ring, str(f)) for f in problem.polynomials]
    gamma = gamma_basis(action, gens)
    _assert_exact(*gamma.elements)
    _assert_exact(*expand_classical_basis(action, gamma.elements[:3]))
    # companion matrices and reduction over Q(H), each checking the other
    problem = parse_problem((DATA / "cli" / "relations.dgb").read_text())
    presentation = QuotientPresentation(
        problem.ring, [LinearRelation.from_polynomial(f) for f in problem.polynomials])
    for shift in ((4, 5), (7, 3), (9, 0)):
        _assert_exact(presentation.normal_form_variable((0, shift)))


def _coefficient_routes(ring, c):
    """Each library route that takes a coefficient c from the caller, as a
    call: a constant, a polynomial from pairs, a scaled polynomial and the
    polynomial of a linear relation."""
    x1 = ring.var("x", (1,))
    return [lambda: ring.constant(c),
            lambda: ring.polynomial([(c, x1.lm)]),
            lambda: x1.scale(c),
            lambda: LinearRelation(0, 0, (c, 1)).polynomial(ring)]


@pytest.mark.parametrize("parameters", [(), ("H",)], ids=["Q", "Q(H)"])
@pytest.mark.parametrize("value", [0.5, 2.0, 0.0, Decimal("0.5"), "3", None],
                         ids=["0.5", "2.0", "0.0", "Decimal", "str", "None"])
def test_inexact_coefficients_are_refused(parameters, value):
    # a float is refused whatever its value, integral or zero included
    ring = make_ring(1, ("x",), parameters)
    for route in _coefficient_routes(ring, value):
        with pytest.raises(CoefficientTypeError, match="is not exact"):
            route()
    assert issubclass(CoefficientTypeError, DGBError)
    assert issubclass(CoefficientTypeError, TypeError)


def test_coefficients_of_another_field_are_refused():
    over_h = make_ring(1, ("x",), ("H",))
    h = over_h.field.parameter("H") + 1
    for ring in (make_ring(1, ("x",)), make_ring(1, ("x",), ("K",)),
                 make_ring(1, ("x",), ("H", "K"))):
        for route in _coefficient_routes(ring, h):
            with pytest.raises(RingMismatchError):
                route()
    # an equal field of another ring is the same field
    for route in _coefficient_routes(make_ring(1, ("x",), ("H",)), h):
        _assert_exact(route())


@pytest.mark.parametrize("parameters", [(), ("H",)], ids=["Q", "Q(H)"])
def test_exact_coefficients_are_accepted_on_every_route(parameters):
    ring = make_ring(1, ("x",), parameters)
    values = [3, -1, Fraction(1, 2), Fraction(4, 2)]
    if parameters:
        values.append(ring.field.parameter("H") / 2)
    for value in values:
        polys = [route() for route in _coefficient_routes(ring, value)]
        _assert_exact(*polys)
        assert [f.terms[-1][1] for f in polys] == [value] * 4
    # Fraction(4, 2) comes back as the int 2 on every route, scale included
    polys = [route() for route in _coefficient_routes(ring, Fraction(4, 2))]
    assert [type(f.terms[-1][1]) for f in polys] == [int] * 4
    assert not ring.constant(0) and not ring.var("x", (1,)).scale(Fraction(0))
