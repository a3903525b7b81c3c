"""The expression layer of the problem-file parser against its reference.

`cli._Parser` evaluates an expression into a term dict in one pass over the
tokens.  `helpers.reference_parse_polynomial` keeps the parser it replaced,
which builds a Polynomial for every operator.  Both must give equal
polynomials, and the same (message, line, column) for every error, apart
from four intended changes, each asserted as such:

* an expression that ends early reports `unexpected end of input`, where the
  reference reported `unexpected ''`;
* a parameter followed by a shift tuple, `H(1)`, reports `parameter 'H'
  takes no shift tuple` at the parameter, where the reference reported the
  `(` after it as trailing input or as a missing `)` or `;`;
* parentheses nested deeper than `MAX_NESTING` are a positioned parse error,
  where the recursive reference ran out of stack;
* a power of a base of two or more terms whose expansion bound is above
  `MAX_POWER_WORK` is a positioned parse error at its `^`, where the
  reference expanded it without a bound; so is a power of one term whose
  coefficient has a numerator or denominator of two or more terms in
  Q(parameters), with t the longer one's term count;
* a power that gives a coefficient with an integer of more digits than
  `sys.get_int_max_str_digits()` is a positioned parse error at its `^`,
  where the reference computed it, however large.
"""

import ast
import importlib.util
import json
import re
import sys
from fractions import Fraction
from itertools import cycle, product
from math import comb, log10
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_cycle8
import golden_navier
from dgb import CoefficientSizeError, DGBError, ParseError, format_monomial, format_polynomial
from dgb.cli import MAX_NESTING, MAX_POWER_WORK, parse_polynomial, parse_problem, run, tokenize
from helpers import make_ring, reference_ideal_polynomials, reference_parse_polynomial
from test_cli_snapshots import CASES

TESTS = Path(__file__).parent
ROOT = TESTS.parent
DATA = TESTS / "data"
CLI_SOURCE = ROOT / "src" / "dgb" / "cli.py"

FLOW = parse_problem((DATA / "navier_stokes.dgb").read_text()).ring
RING_X = make_ring(1, ("x",))
RING_XY = make_ring(2, ("x", "y"), ("H", "K"))

DIGITS = sys.get_int_max_str_digits()  # the longest literal int() converts
LONG = "1" * (DIGITS + 1)
NINES = "9" * DIGITS  # the largest exponent a literal can give

_OPEN_PAREN_FOUND = {"trailing input '('", "expected ')', found '('", "expected ';', found '('"}


def _outcome(parse, *args):
    """What a parse gives: its value, or its error as (message, line, column)."""
    try:
        return parse(*args)
    except ParseError as exc:
        return (exc.message, exc.line, exc.column)


def _intended(ring, text, reference):
    """The reference outcome under the intended message changes."""
    if not isinstance(reference, tuple):
        return reference
    message, line, column = reference
    if message == "unexpected ''":
        return ("unexpected end of input", line, column)
    if message in _OPEN_PAREN_FOUND:
        tokens = tokenize(text)
        k = next(k for k, tok in enumerate(tokens) if (tok.line, tok.column) == (line, column))
        before = tokens[k - 1] if k else None
        if before is not None and before.value in ring.signature.parameters:
            return (f"parameter {before.value!r} takes no shift tuple",
                    before.line, before.column)
    return reference


def _assert_matches_reference(ring, text):
    got = _outcome(parse_polynomial, ring, text)
    assert got == _intended(ring, text, _outcome(reference_parse_polynomial, ring, text)), text


def _ring_of(text):
    """The ring of a problem text, read from the text before its first ideal
    block."""
    return parse_problem(re.split(r"\bideal\b", text, maxsplit=1)[0]).ring


def _problem_outcome(text):
    """The ideal polynomials of a problem text, by the parser and by the
    reference."""
    ring = _ring_of(text)
    got = _outcome(lambda: parse_problem(text).polynomials)
    reference = _outcome(reference_ideal_polynomials, ring, text)
    return got, _intended(ring, text, reference)


@pytest.mark.parametrize("path", sorted(DATA.rglob("*.dgb")) + sorted(
    (ROOT / "perfbench" / "data").glob("*.dgb")), ids=lambda path: path.name)
def test_matches_reference_on_data_files(path):
    got, expected = _problem_outcome(path.read_text())
    assert got == expected


def _snapshot_texts(name):
    """The polynomial and monomial texts printed by a pinned CLI run."""
    stdout = (DATA / "cli" / f"{name}.out").read_text().split("--- stdout\n")[1]
    stdout = stdout.split("--- stderr\n")[0]
    if stdout.startswith("{"):
        report = json.loads(stdout.replace("<masked>", "0"))
        texts = []
        for key in ("basis", "classical_basis", "leading_monomials"):
            texts.extend(report.get(key) or [])
        texts.extend(report[key] for key in ("remainder", "normal_form") if key in report)
        texts.extend(step["cofactor"] for step in report.get("certificate", []))
        texts.extend(failure["remainder"] for failure in report.get("failures", []))
        return texts
    texts = [line.strip() for line in stdout.splitlines()
             if line.startswith("  ") and ":" not in line]
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        if key in ("remainder", "normal_form"):
            texts.append(value)
        elif key == "leading monomials":
            texts.extend(value.split(", "))
    return texts


def _golden_texts():
    cycle8 = parse_problem((DATA / "twisted_cubic_cycle8.dgb").read_text()).ring
    cases = [(cycle8, text) for text in (golden_cycle8.GAMMA_BASIS
                                         + golden_cycle8.GAMMA_LEADING_MONOMIALS
                                         + golden_cycle8.CLASSICAL_LEADING_MONOMIALS)]
    cases += [(FLOW, text) for text in (sorted(golden_navier.LEADING_MONOMIALS)
                                        + [golden_navier.REDUCED_SECOND,
                                           golden_navier.PRESSURE_ELEMENT])]
    for name, argv in sorted(CASES.items()):
        source = argv[argv.index("--input" if "--input" in argv else "--gens") + 1]
        ring = _ring_of((DATA / source).read_text())
        cases += [(ring, text) for text in _snapshot_texts(name)]
    return cases


def test_matches_reference_on_golden_texts():
    cases = _golden_texts()
    assert len(cases) > 150
    for ring, text in cases:
        assert not isinstance(_outcome(parse_polynomial, ring, text), tuple), text
        _assert_matches_reference(ring, text)


def test_matches_reference_on_readme_examples():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (problem,) = [block for block in re.findall(r"^```\n(.*?)^```", readme, re.S | re.M)
                  if block.startswith("ring {")]
    got, expected = _problem_outcome(problem)
    assert len(got) == 2 and got == expected
    spans = re.findall(r"`([^`\n]+)`", readme) + re.findall(r'--(?:poly|var) "([^"]+)"', readme)
    assert {"(H^2+1)*u(0,0,0)", "u(1,0,0)", "x(3)", "3/4", "x(3)*x(2)", "u(2,0,1)"} <= set(spans)
    for text in spans:
        for ring in (FLOW, RING_X):
            _assert_matches_reference(ring, text)


def _flowstream():
    spec = importlib.util.spec_from_file_location("flowstream",
                                                  ROOT / "perfbench" / "flowstream.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matches_reference_on_flow_items():
    flowstream = _flowstream()
    equations = flowstream.ideal_equations((DATA / "navier_stokes.dgb").read_text())
    for seed in (91, 92, 93):
        stream = flowstream.ItemStream(equations, FLOW.signature.symbols, 3, seed, 0)
        for _ in range(40):
            for text in stream.next_item():
                _assert_matches_reference(FLOW, text)


# --- random expression trees ------------------------------------------------

RINGS = [make_ring(rank, ("x", "y", "z")[:rank], parameters)
         for rank in (1, 2, 3) for parameters in ((), ("H", "K"))]

# strategies are built once: building one is much dearer than drawing from it
_BLANKS = st.lists(st.sampled_from(["", "", "", " ", "  ", "\n", " # note\n", "\t"]),
                   min_size=1, max_size=6)
_POWER = st.sampled_from(["", "", "", "", "^0", "^1", "^2", "^3"])
_SIGN = st.sampled_from(["", "", "-", "+"])
_PRODUCTS = st.lists(st.sampled_from("***/"), max_size=1)
_SUMS = st.lists(st.sampled_from("+-"), max_size=2)


def _atoms(ring):
    """Integers, parameters and variables with shift entries up to 2."""
    rank = ring.signature.shift_rank
    shifts = [",".join(map(str, s)) for s in product(range(3), repeat=rank)]
    variables = [f"{name}({s})" for name in ring.signature.symbols for s in shifts]
    kinds = [st.sampled_from([str(k) for k in range(13)]), st.sampled_from(variables),
             st.sampled_from(variables)]
    if ring.signature.parameters:
        kinds.append(st.sampled_from(ring.signature.parameters))
    return st.one_of(kinds)


def _divisors(ring):
    """Nonzero constants; the edits below make zero and non-constant ones.
    The one parameter divisor keeps coefficient gcds cheap."""
    constants = ["2", "3", "7", "12"]
    if ring.signature.parameters:
        constants += [ring.signature.parameters[0]]
    return st.sampled_from(constants)


def _edits(ring):
    """(how, where, text): delete the character at a fraction of the text,
    or insert or append a character, a zero divisor, an atom as a divisor
    or a shift tuple."""
    inserts = list("()+-*/^,;x0H$\n") + ["/0", "/(1 - 1)", "(1)", "(0,1)"]
    return st.tuples(st.sampled_from(["delete", "insert", "append"]), st.floats(0, 1),
                     st.one_of(st.sampled_from(inserts), _atoms(ring).map("/".__add__)))


_LARGE_EXPONENT = re.compile(r"\^(?:\s|#[^\n]*)*(?:[4-9]|\d\d)")

_PER_RING = {id(ring): (_atoms(ring), _divisors(ring),
                        st.lists(_edits(ring), min_size=1, max_size=2)) for ring in RINGS}


@st.composite
def _expressions(draw, ring, depth=2):
    """Expression trees over one of RINGS as text: unary signs, sums,
    products, `/` by divisors, `^` on atoms and on parenthesized
    expressions, with blanks, newlines and comments between tokens."""
    blank = cycle(draw(_BLANKS)).__next__
    atoms, divisors, _ = _PER_RING[id(ring)]

    def factor(depth):
        if depth and draw(st.booleans()):
            body = f"({blank()}{expression(depth - 1)}{blank()})"
        else:
            body = draw(atoms)
        return body + draw(_POWER).replace("^", f"{blank()}^{blank()}")

    def term(depth):
        out = factor(depth)
        for op in draw(_PRODUCTS):
            out += f"{blank()}{op}{blank()}" + (factor(depth) if op == "*" else draw(divisors))
        return out

    def expression(depth):
        out = draw(_SIGN) + term(depth)
        for op in draw(_SUMS):
            out += f"{blank()}{op}{blank()}" + term(depth)
        return out

    return expression(depth)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_matches_reference_on_random_expressions(data):
    """Each drawn expression is compared as drawn, then after one or two
    edits, which mostly make it malformed."""
    ring = data.draw(st.sampled_from(RINGS))
    text = data.draw(_expressions(ring))
    _assert_matches_reference(ring, text)
    for how, where, insert in data.draw(_PER_RING[id(ring)][2]):
        at = len(text) if how == "append" else int(where * len(text))
        if how == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + insert + text[at:]
    # an edit that joins an exponent to the digits after it, as in ^2*3 ->
    # ^23, can ask for a power of a sum too large to expand in a test
    if not _LARGE_EXPONENT.search(text):
        _assert_matches_reference(ring, text)


# --- every message ------------------------------------------------------------

R1 = "ring { shifts: 1; symbols: x; }\n"
R2 = "ring { shifts: 2; symbols: x, y; parameters: H, K; }\n"

# (ring for a polynomial text, or None for a problem text), text, outcome
MESSAGES = [
    (RING_X, "x(0) $ 1", ("unexpected character '$'", 1, 6)),
    (RING_X, "x(0) + )", ("unexpected ')'", 1, 8)),
    (RING_X, "x(0)*-x(1)", ("unexpected '-'", 1, 6)),
    (RING_X, "x(0) +", ("unexpected end of input", 1, 7)),
    (RING_X, "", ("unexpected end of input", 1, 1)),
    (RING_X, "x(0)^y(0)", ("expected an integer exponent", 1, 6)),
    (RING_X, "x(0)^", ("expected an integer exponent", 1, 6)),
    (RING_X, "x(0)/0", ("division by zero", 1, 6)),
    (RING_X, "x(0)/(1 - 1)", ("division by zero", 1, 6)),
    (RING_X, "x(0)/x(1)", ("can only divide by a constant coefficient", 1, 6)),
    (RING_X, "1/(x(0) + 1)", ("can only divide by a constant coefficient", 1, 3)),
    (RING_XY, "w(1,0)", ("unknown symbol 'w'", 1, 1)),
    (RING_XY, "H(1)", ("parameter 'H' takes no shift tuple", 1, 1)),
    (RING_XY, "(H(1))", ("parameter 'H' takes no shift tuple", 1, 2)),
    (RING_XY, "2*x", ("symbol 'x' needs a shift tuple", 1, 3)),
    (RING_X, "x(70000)",
     ("total shift degree 70000 exceeds the limit 65535 of a packed variable", 1, 1)),
    (RING_XY, "x(1,-2)", ("negative shift entry -2", 1, 5)),
    (RING_XY, "x(-", ("negative shift entry -", 1, 3)),
    (RING_XY, "x(a,0)", ("expected a shift exponent", 1, 3)),
    (RING_XY, "x(1,", ("expected a shift exponent", 1, 5)),
    (RING_XY, "x(1 0)", ("expected ',' or ')' in shift tuple", 1, 5)),
    (RING_XY, "x(1", ("expected ',' or ')' in shift tuple", 1, 4)),
    (RING_XY, "x(1,0,2)", ("shift tuple of arity 3 in a ring of rank 2", 1, 1)),
    (RING_X, "(x(0) + 1", ("expected ')', found end of input", 1, 10)),
    (RING_X, "(x(0) + 1]", ("expected ')', found ']'", 1, 10)),
    (RING_X, "x(1) x(2)", ("trailing input 'x'", 1, 6)),
    (RING_XY, "x(0,0)^2^3", ("trailing input '^'", 1, 9)),
    (RING_X, "(" * (MAX_NESTING + 1) + "x(0)" + ")" * (MAX_NESTING + 1),
     (f"parentheses nested more than {MAX_NESTING} deep", 1, MAX_NESTING + 1)),
    (RING_X, "(x(0) + 1)^1000", ("power ^1000 of a 2-term base is too large to expand", 1, 11)),
    (RING_X, "x(0) - 2^20000*x(1)",
     (f"power ^20000 gives a coefficient of more than {DIGITS} digits", 1, 9)),
    (RING_X, "2*x(0) - " + LONG + "*x(1)",
     (f"integer literal of {len(LONG)} digits exceeds the limit of {DIGITS} digits", 1, 10)),
    (RING_X, f"(x(0)^{NINES})^2",
     (f"power gives an exponent of more than {DIGITS} digits", 1, DIGITS + 8)),
    (RING_X, f"x(1) + x(0)^{NINES}*x(0)",
     (f"product gives an exponent of more than {DIGITS} digits", 1, DIGITS + 13)),
    (RING_XY, f"x(0,0)/H^{NINES}/H",
     (f"quotient gives an exponent of more than {DIGITS} digits", 1, DIGITS + 10)),
    (None, R1 + R1, ("duplicate ring block", 2, 1)),
    (None, "ideal { x(0); }", ("ideal block before ring block", 1, 1)),
    (None, "symmetric { perm: (1 2); }", ("symmetric block before ring block", 1, 1)),
    (None, R1 + "group { }", ("unknown section 'group'", 2, 1)),
    (None, "# only a comment\n", ("problem file has no ring block", 2, 1)),
    (None, "ring { shifts: 1; symbols: x; colour: red; }", ("unknown ring item 'colour'", 1, 31)),
    (None, "ring { shifts: 1; shifts: 2; symbols: x; }", ("duplicate shifts item", 1, 19)),
    (None, "ring { symbols: x; }", ("ring block is missing 'shifts'", 1, 20)),
    (None, "ring { shifts: 1; }", ("ring block is missing 'symbols'", 1, 19)),
    (None, "ring { shifts: 0; symbols: x; }", ("shift rank must be at least 1", 1, 1)),
    (None, "ring { shifts: 65; symbols: x; }", ("shift rank 65 exceeds the limit 64", 1, 1)),
    (None, "ring { shifts: 1; symbols: x, ½; }", ("invalid identifier '½'", 1, 1)),
    (None, "ring { shifts: 1; symbols: x; parameters: x; }",
     ("symbol and parameter names must be distinct", 1, 1)),
    (None, "ring { shifts: x; symbols: x; }", ("expected an integer shift rank", 1, 16)),
    (None, "ring { shifts: 1; symbols: 1; }", ("expected an identifier", 1, 28)),
    (None, "ring { shifts: 1; symbols: x; order: block(shifts=grlex[s1], symbols=lex[x]); }",
     ("unknown ordering 'grlex'", 1, 51)),
    (None, "ring { shifts: 2; symbols: x; order: block(shifts=lex[s1>s1], symbols=lex[x]); }",
     ("shift priority must name s1, s2 exactly once each", 1, 31)),
    (None, "ring { shifts: 1; symbols: x, y; order: block(shifts=lex[s1], symbols=lex[x]); }",
     ("symbol priority must name every declared symbol exactly once", 1, 34)),
    (None, "ring { shifts: 1; symbols: x; order: block(shift=lex[s1], symbols=lex[x]); }",
     ("expected 'shifts', found 'shift'", 1, 44)),
    (None, R1 + "symmetric { perm: (1 x); }", ("non-integer point in cycle (1 x)", 2, 13)),
    (None, R1 + "symmetric { group: (1 2); }", ("unknown symmetric item 'group'", 2, 13)),
    (None, R1 + "symmetric { perm: (1 2); perm: (1 2 3); }", ("duplicate perm item", 2, 26)),
    (None, R1 + "symmetric { perm: (1 2); }\nsymmetric { perm: (1 2 3); }",
     ("duplicate symmetric block", 3, 1)),
    (None, R1 + "ideal { x(1) + ; }", ("unexpected ';'", 2, 16)),
    (None, R1 + "ideal { x(1) x(2); }", ("expected ';', found 'x'", 2, 14)),
    (None, R1 + "ideal { x(1) # c", ("expected ';', found end of input", 2, 17)),
    (None, R2 + "ideal {\n  x(1,0) + (K*H(0,1)); }", ("parameter 'H' takes no shift tuple", 3, 15)),
    (None, R1 + "ideal { x(1) € 2; }", ("unexpected character '€'", 2, 14)),
]


@pytest.mark.parametrize("ring, text, outcome", MESSAGES,
                         ids=[outcome[0][:40] for _, _, outcome in MESSAGES])
def test_every_message_is_positioned(ring, text, outcome):
    if ring is None:
        assert _outcome(parse_problem, text) == outcome
        if text.startswith("ring") and "ideal" in text:
            got, expected = _problem_outcome(text)
            assert got == expected == outcome
    else:
        assert _outcome(parse_polynomial, ring, text) == outcome
        if not outcome[0].startswith(("parentheses nested", "power ", "product ", "quotient ")):
            _assert_matches_reference(ring, text)


def _pattern(node):
    """A message node as a pattern: a replacement field matches any text."""
    if isinstance(node, ast.Constant):
        return re.escape(node.value) + r"\Z"
    return "".join(re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                   for part in node.values) + r"\Z"


def _message_templates():
    """The literal messages that cli.py passes to `fail`, `_error` and
    `ParseError`, as patterns."""
    templates = []
    for node in ast.walk(ast.parse(CLI_SOURCE.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name not in ("fail", "_error", "ParseError"):
            continue
        message = node.args[1 if name == "_error" else 0]
        for part in ([message.body, message.orelse] if isinstance(message, ast.IfExp)
                     else [message]):
            if isinstance(part, ast.JoinedStr) or (
                    isinstance(part, ast.Constant) and isinstance(part.value, str)):
                templates.append(_pattern(part))
    return templates


def test_message_table_covers_every_message():
    templates = _message_templates()
    assert len(templates) >= 30
    messages = [outcome[0] for _, _, outcome in MESSAGES]
    missing = [t for t in templates if not any(re.match(t, m) for m in messages)]
    assert missing == []


# --- the intended changes -------------------------------------------------------


@pytest.mark.parametrize("ring, text, reference, outcome", [
    (RING_X, "x(0) +", ("unexpected ''", 1, 7), ("unexpected end of input", 1, 7)),
    (RING_X, "", ("unexpected ''", 1, 1), ("unexpected end of input", 1, 1)),
    (RING_XY, "H(1)", ("trailing input '('", 1, 2), ("parameter 'H' takes no shift tuple", 1, 1)),
    (RING_XY, "2*(K*H(0,1))", ("expected ')', found '('", 1, 7),
     ("parameter 'H' takes no shift tuple", 1, 6)),
])
def test_intended_message_changes(ring, text, reference, outcome):
    assert _outcome(reference_parse_polynomial, ring, text) == reference
    assert _outcome(parse_polynomial, ring, text) == outcome


def test_nesting_limit():
    deep = "(" * MAX_NESTING + "x(1)" + ")" * MAX_NESTING
    assert parse_polynomial(RING_X, deep) == RING_X.var("x", (1,))
    assert parse_polynomial(RING_X, f"-{deep}^2 + 1") == \
        parse_polynomial(RING_X, "-x(1)^2 + 1")
    # the reference recursed once per level and ran out of stack
    with pytest.raises(RecursionError):
        reference_parse_polynomial(RING_X, "(" * 1000 + "x(1)" + ")" * 1000)
    with pytest.raises(ParseError) as err:
        parse_polynomial(RING_X, "(" * 5000 + "x(1)" + ")" * 5000)
    assert (err.value.message, err.value.line, err.value.column) == (
        f"parentheses nested more than {MAX_NESTING} deep", 1, MAX_NESTING + 1)


def test_power_expansion_limit():
    # The largest accepted power of a t-term base has e * C(e + t - 1, t - 1)
    # at most MAX_POWER_WORK; one more in the exponent is refused at the '^',
    # at once, where the reference took seconds to minutes and unbounded
    # memory, as for (x(0) + x(1) + x(2) + x(3))^60 and its 39,711 terms.
    assert MAX_POWER_WORK == 30_000
    largest = {2: 172, 3: 38, 4: 19, 8: 7, 16: 4}
    for t, e in largest.items():
        base = " + ".join(f"x({k})" for k in range(t))
        assert e * comb(e + t - 1, t - 1) <= MAX_POWER_WORK < (e + 1) * comb(e + t, t - 1)
        f = parse_polynomial(RING_X, f"({base})^{e}")
        assert len(f.terms) == comb(e + t - 1, t - 1)
        assert _outcome(parse_polynomial, RING_X, f"2*({base})^{e + 1}") == (
            f"power ^{e + 1} of a {t}-term base is too large to expand", 1, len(base) + 5)
    f = parse_polynomial(RING_X, "(x(0) + 1)^172")
    assert f.terms == parse_polynomial(RING_X, " + ".join(
        f"{comb(172, k)}*x(0)^{k}" for k in range(173))).terms
    # no binomial of a huge exponent is computed; zero and one-term bases
    # need no expansion, and ^0 and ^1 none either
    assert _outcome(parse_polynomial, RING_X, "(x(0) - 1)^" + "9" * 40)[0] == (
        f"power ^{'9' * 40} of a 2-term base is too large to expand")
    assert parse_polynomial(RING_X, "(x(0) - x(0))^1000000000") == RING_X.zero
    assert parse_polynomial(RING_X, "(x(0) - x(0))^0") == RING_X.one
    assert parse_polynomial(RING_X, "(2*x(1))^1000") == \
        parse_polynomial(RING_X, f"{2 ** 1000}*x(1)^1000")
    assert parse_polynomial(RING_XY, "(x(0,1) + H*y(1,0) - 1/2)^1") == \
        parse_polynomial(RING_XY, "x(0,1) + H*y(1,0) - 1/2")


def test_cli_refuses_a_large_power(tmp_path, capsys):
    problem = tmp_path / "power.dgb"
    problem.write_text(R1 + "ideal { x(1) - x(0); }\n")
    assert run(["reduce", "--input", str(problem), "--poly", "(x(0) + 1)^1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dgb: power ^1000 of a 2-term base is too large to expand "
                            "at line 1, column 11\n")
    problem.write_text(R1 + "ideal {\n  (x(0) + x(1) + x(2) + x(3))^60; }\n")
    assert run(["compute", "--input", str(problem)]) == 1
    assert capsys.readouterr().err == ("dgb: power ^60 of a 4-term base is too large to "
                                       "expand at line 3, column 30\n")


def test_cli_reports_deep_nesting_and_early_end(tmp_path, capsys):
    problem = tmp_path / "deep.dgb"
    problem.write_text(R1 + "ideal { x(1) - " + "(" * 250 + "x(0)" + ")" * 250 + "; }\n")
    assert run(["compute", "--input", str(problem)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dgb: parentheses nested more than {MAX_NESTING} deep "
                            f"at line 2, column {16 + MAX_NESTING}\n")
    problem.write_text(R1 + "ideal { x(1) - x(0); }\n")
    assert run(["reduce", "--input", str(problem), "--poly", ""]) == 1
    assert capsys.readouterr().err == "dgb: unexpected end of input at line 1, column 1\n"
    assert run(["reduce", "--input", str(problem), "--poly", "x(0) +"]) == 1
    assert capsys.readouterr().err == "dgb: unexpected end of input at line 1, column 7\n"


@pytest.mark.parametrize("text", [
    "ring { shifts: LONG; symbols: x; }",
    R1 + "ideal { LONG*x(0); }",
    R1 + "ideal { x(0)^LONG; }",
    R1 + "ideal { x(LONG); }",
    R1 + "ideal { x(0)/LONG; }",
    R1 + "symmetric { perm: (1 LONG); }",
], ids=["rank", "coefficient", "exponent", "shift entry", "divisor", "perm point"])
def test_long_integer_literals_are_positioned_errors(text):
    text = text.replace("LONG", LONG)
    offset = text.index(LONG)
    line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    assert _outcome(parse_problem, text) == (
        f"integer literal of {len(LONG)} digits exceeds the limit of {DIGITS} digits",
        line, column)


def test_long_priority_name_is_a_positioned_error():
    # s<digits> is a name, not a literal: the priority check refuses it
    text = f"ring {{ shifts: 1; symbols: x; order: block(shifts=lex[s{LONG}], symbols=lex[x]); }}"
    assert _outcome(parse_problem, text) == (
        "shift priority must name s1 exactly once each", 1, text.index("order") + 1)


def test_cli_refuses_a_long_integer_literal(capsys):
    assert run(["reduce", "--input", str(DATA / "navier_stokes.dgb"),
                "--poly", f"{LONG}*u(0,0,0)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dgb: integer literal of {len(LONG)} digits exceeds the limit "
                            f"of {DIGITS} digits at line 1, column 1\n")


def _largest_power(base):
    """The largest e with base^e below 10^DIGITS: base^e has DIGITS digits
    at most, base^(e + 1) more."""
    e = int(DIGITS / log10(base))
    while base ** e >= 10 ** DIGITS:
        e -= 1
    while base ** (e + 1) < 10 ** DIGITS:
        e += 1
    return e


def test_powers_past_the_digit_limit_are_positioned_errors():
    # A power whose coefficient would have an integer of more than DIGITS
    # digits is refused at its '^', exactly past the limit, whether the
    # integer is a numerator, a denominator or a coefficient in Q(H, K), and
    # at once for an exponent of thousands of digits, which is not computed.
    def refused(e, column):
        return f"power ^{e} gives a coefficient of more than {DIGITS} digits", 1, column

    for base in (2, 3, 10):
        e = _largest_power(base)
        assert parse_polynomial(RING_X, f"{base}^{e}*x(1)").lc == base ** e
        assert _outcome(parse_polynomial, RING_X, f"{base}^{e + 1}*x(1)") == refused(
            e + 1, len(str(base)) + 1)
        assert parse_polynomial(RING_X, f"x(1)/{base}^{e}").lc == Fraction(1, base ** e)
        assert _outcome(parse_polynomial, RING_X, f"x(1)/{base}^{e + 1}") == refused(
            e + 1, len(str(base)) + 6)
    e = _largest_power(2)
    assert _outcome(parse_polynomial, RING_X, f"-(1/2)^{e + 1}") == refused(e + 1, 7)
    huge = "9" * (DIGITS - 1)
    assert _outcome(parse_polynomial, RING_X, f"2^{huge}*x(1)") == refused(huge, 2)
    assert _outcome(parse_polynomial, RING_X, f"1^{huge}*x(1)") == RING_X.var("x", (1,))
    # ^1 of a product already past the limit, and of one just inside it
    d = (DIGITS + 1) // 2
    assert _outcome(parse_polynomial, RING_X, f"(10^{d}*10^{d})^1") == refused(
        1, 2 * len(str(d)) + 10)
    assert parse_polynomial(RING_X, f"(10^{d}*10^{DIGITS - 1 - d})^1").lc == 10 ** (DIGITS - 1)
    # Q(H, K): a parameter monomial, and a quotient with a constant denominator
    h = RING_XY.field.parameter("H")
    assert parse_polynomial(RING_XY, f"(2*H)^{e}*x(0,0)").lc == (2 * h) ** e
    assert _outcome(parse_polynomial, RING_XY, f"(2*H)^{e + 1}*x(0,0)") == refused(e + 1, 6)
    assert _outcome(parse_polynomial, RING_XY, f"(H/2)^{e + 1}*x(0,0)") == refused(e + 1, 6)
    # a base of two or more terms is judged on the expanded power
    d = (DIGITS - 1) // 2  # 10^(2d) fits, 10^(2d + 2) does not
    f = parse_polynomial(RING_X, f"(10^{d}*x(1) + 1)^2")
    assert [c for _, c in f.terms] == [10 ** (2 * d), 2 * 10 ** d, 1]
    assert _outcome(parse_polynomial, RING_X, f"(10^{d + 1}*x(1) + 1)^2") == refused(
        2, len(str(d + 1)) + 15)


def test_powers_of_parameter_polynomials_are_bounded_like_polynomial_powers():
    # A one-term base whose coefficient has a numerator or denominator of t
    # terms expands like a t-term base, under the same bound.
    for t, e in {2: 172, 3: 38}.items():
        base = " + ".join(["H", "K", "1"][:t])
        f = parse_polynomial(RING_XY, f"({base})^{e}*x(0,0)")
        assert f.lc == parse_polynomial(RING_XY, f"({base})").lc ** e
        assert _outcome(parse_polynomial, RING_XY, f"({base})^{e + 1}*x(0,0)") == (
            f"power ^{e + 1} of a {t}-term base is too large to expand", 1, len(base) + 3)
        assert _outcome(parse_polynomial, RING_XY, f"x(0,0)/({base})^{e + 1}") == (
            f"power ^{e + 1} of a {t}-term base is too large to expand", 1, len(base) + 10)


def test_format_refuses_an_integer_past_the_digit_limit():
    # A coefficient computed past the limit (a product is not judged at
    # parse time) prints as a typed error, not Python's bare ValueError.
    q = RING_X.field
    assert q.format(Fraction(10 ** (DIGITS - 1))).body == "1" + "0" * (DIGITS - 1)
    for value in (Fraction(10 ** DIGITS), Fraction(1, 10 ** DIGITS)):
        with pytest.raises(CoefficientSizeError) as err:
            q.format(value)
        assert isinstance(err.value, DGBError) and isinstance(err.value, ValueError)
    h = RING_XY.field.parameter("H")
    for value in (h * 10 ** DIGITS, h ** (10 ** DIGITS)):
        with pytest.raises(CoefficientSizeError):
            RING_XY.field.format(value)


def test_exponents_past_the_digit_limit_are_positioned_errors():
    # An exponent that a power, product or quotient pushes to DIGITS + 1
    # digits is refused at its operator, for a symbol or a parameter; one of
    # DIGITS digits is kept, however it was reached.
    def refused(what, text):
        at = text.rindex({"power": "^", "product": "*", "quotient": "/"}[what])
        return f"{what} gives an exponent of more than {DIGITS} digits", 1, at + 1

    top = 10 ** DIGITS - 1
    half = "5" + "0" * (DIGITS - 1)  # (top + 1) / 2
    kept = [(RING_X, f"x(0)^{NINES}"), (RING_X, f"(x(0)^{NINES})^1*x(1)^{NINES}"),
            (RING_X, f"x(0)^{top - 1}*x(0)"), (RING_X, f"x(0)^{half}*x(0)^{int(half) - 1}"),
            (RING_X, f"(x(0)^{NINES[:-1]}*x(1))^10"), (RING_XY, f"H^{NINES}*x(0,0)"),
            (RING_XY, f"x(0,0)/H^{top - 1}/H"), (RING_XY, f"(K*H^{NINES})^1*x(0,0)")]
    for ring, text in kept:
        format_polynomial(parse_polynomial(ring, text))  # every exponent converts
    assert parse_polynomial(RING_XY, f"x(0,0)/H^{top - 1}/H").lc.den == {(top, 0): 1}
    for ring, what, text in [
            (RING_X, "power", f"(x(0)^{NINES})^2"),
            (RING_X, "power", f"(x(0)^{NINES[:-1]}*x(1) + 1)^11"),
            (RING_X, "product", f"x(0)^{half}*x(0)^{half}"),
            (RING_X, "product", f"x(1)*(x(0)^{NINES} + 1)*(x(0) + 1)"),
            (RING_XY, "power", f"(H^{NINES})^{NINES}*x(0,0)"),
            (RING_XY, "product", f"x(0,0)*H*H^{NINES}"),
            (RING_XY, "quotient", f"x(0,0)/H^{NINES}/H"),
            (RING_XY, "quotient", f"x(0,0)/(2*K^{NINES})/K")]:
        assert _outcome(parse_polynomial, ring, text) == refused(what, text), text[:30]


def test_format_refuses_an_exponent_past_the_digit_limit():
    # An exponent computed past the limit outside the parser, as by
    # Polynomial arithmetic, prints as a typed error.
    top = 10 ** DIGITS - 1
    assert format_monomial(RING_X.monomial([(0, (1,), top)]), RING_X) == f"x(1)^{NINES}"
    half = RING_X.monomial([(0, (1,), (top + 1) // 2)])
    for m in (RING_X.monomial([(0, (1,), top + 1)]), half * half):
        with pytest.raises(CoefficientSizeError, match="an exponent is an integer of more than"):
            format_monomial(m, RING_X)
    h = RING_XY.field.parameter("H")
    with pytest.raises(CoefficientSizeError, match="an exponent is an integer of more than"):
        RING_XY.field.format(h ** (top + 1))


def test_cli_refuses_exponents_past_the_digit_limit(tmp_path, capsys):
    problem = tmp_path / "p.dgb"
    problem.write_text(R1 + "ideal { x(1) - x(0); }\n")
    nines = "9" * 3000
    assert run(["reduce", "--input", str(problem), "--poly", f"(x(0)^{nines})^{nines}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dgb: power gives an exponent of more than {DIGITS} digits "
                            f"at line 1, column {len(nines) + 8}\n")


@pytest.mark.parametrize("flags", [[], ["--json"], ["--certificate"], ["--json", "--certificate"]],
                         ids=["text", "json", "certificate", "json certificate"])
def test_cli_refuses_coefficients_past_the_digit_limit(tmp_path, capsys, flags):
    problem = tmp_path / "p.dgb"
    problem.write_text(R1 + "ideal { x(1) - x(0); }\n")
    assert run(["reduce", "--input", str(problem), "--poly", "2^20000*x(5)"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dgb: power ^20000 gives a coefficient of more than {DIGITS} "
                            f"digits at line 1, column 2\n")
    # each power fits, their product does not: refused when it is printed
    d = DIGITS // 2 + 1
    assert run(["reduce", "--input", str(problem), "--poly", f"10^{d}*10^{d}*x(5)"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dgb: a coefficient has an integer of more than {DIGITS} digits, "
                            f"which Python does not convert to text\n")
