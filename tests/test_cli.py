import json
import random
from pathlib import Path

import jsonschema
import pytest

from dgb import (InternalCheckError, LinearRelation, ParseError,
                 QuotientPresentation, VarRef, format_polynomial)
from dgb import completion, reduction
from dgb.cli import format_ordering, parse_polynomial, parse_problem, run, serialize_basis
from dgb.completion import (VerificationReport, interreduce, sigma_gbasis,
                            sigma_gbasis_adaptive, sigma_gbasis_truncated)

from helpers import Token, make_ring, num_den, random_polynomial, tokenize

DATA = Path(__file__).parent / "data"

RING_X = "ring { shifts: 1; symbols: x; }\n"

RING_HEADER = """
ring {
  shifts: 3;
  symbols: u, v, p;
  parameters: H;
  order: block(shifts=degrevlex[s1>s2>s3], symbols=lex[u>v>p]);
}
"""


def test_parse_flow_generator():
    text = RING_HEADER + "ideal { u(1,0,0)+v(0,1,0)-u(0,0,0)-v(0,0,0); }"
    problem = parse_problem(text)
    ring = problem.ring
    assert ring.signature.symbols == ("u", "v", "p")
    assert ring.signature.parameters == ("H",)
    (f1,) = problem.polynomials
    assert f1 == (ring.var("u", (1, 0, 0)) + ring.var("v", (0, 1, 0))
                  - ring.var("u", (0, 0, 0)) - ring.var("v", (0, 0, 0)))
    assert f1.lm == ring.monomial([("u", (1, 0, 0), 1)])


def test_parse_error_unclosed_tuple():
    text = RING_HEADER + "ideal { u(1,0; }"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.line is not None


def test_parse_error_arity():
    text = RING_HEADER + "ideal { u(1,0); }"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "arity 2" in str(err.value)


def test_parse_error_unknown_symbol():
    text = RING_HEADER + "ideal { w(1,0,0); }"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "unknown symbol 'w'" in str(err.value)


def test_parse_error_negative_shift():
    text = RING_HEADER + "ideal { u(1,-2,0); }"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "negative shift" in str(err.value)


def test_parse_error_duplicate_ring():
    text = RING_HEADER + RING_HEADER
    with pytest.raises(ParseError):
        parse_problem(text)


def _reference_tokenize(text):
    """The character loop that tokenize replaced, kept as the reference."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "{}()[]=,;:^*/+->":
            tokens.append(Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _tokens(tokenizer, text):
    """(kind, value, line, column) of each token, or the ParseError's
    (message, line, column)."""
    try:
        return [(tok.kind, tok.value, tok.line, tok.column) for tok in tokenizer(text)]
    except ParseError as exc:
        return (exc.message, exc.line, exc.column)


_AS_LETTER = {"²": "Z", "½": "W"}


def _expected_tokens(text):
    """The reference result with the only two intended differences: an
    alphanumeric character that is neither a letter nor a decimal digit,
    such as ² or ½, lexes like a letter (a stand-in letter is lexed in its
    place), and after a final comment with no newline the eof column is at
    the end of the text rather than at the '#'."""
    for char, letter in _AS_LETTER.items():
        text = text.replace(char, letter)
    out = _tokens(_reference_tokenize, text)
    if isinstance(out, tuple):
        return out
    for char, letter in _AS_LETTER.items():
        out = [(kind, value.replace(letter, char), line, col)
               for kind, value, line, col in out]
    last_line = text[text.rfind("\n") + 1:]
    if "#" in last_line:
        kind, value, line, _ = out[-1]
        out[-1] = (kind, value, line, len(last_line) + 1)
    return out


@pytest.mark.parametrize("path", sorted(DATA.glob("*.dgb")) + sorted(
    (Path(__file__).parent.parent / "perfbench" / "data").glob("*.dgb")),
    ids=lambda path: path.name)
def test_tokenize_matches_reference_on_data_files(path):
    text = path.read_text()
    assert _tokens(tokenize, text) == _tokens(_reference_tokenize, text)


def test_tokenize_matches_reference_on_random_text():
    rng = random.Random(8)
    alphabet = "xyH_s09{}()[]=,;:^*/+->#$ \t\r\n²½"
    changed = 0
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        got = _tokens(tokenize, text)
        assert got == _expected_tokens(text), text
        changed += got != _tokens(_reference_tokenize, text)
    assert changed > 100


def test_tokenize_intended_differences(tmp_path, capsys):
    assert _tokens(_reference_tokenize, "x # c")[-1] == ("eof", "", 1, 3)
    assert _tokens(tokenize, "x # c")[-1] == ("eof", "", 1, 6)
    assert _tokens(_reference_tokenize, "1²")[0] == ("int", "1²", 1, 1)
    assert _tokens(tokenize, "1²")[:2] == [("int", "1", 1, 1), ("ident", "²", 1, 2)]
    assert _tokens(_reference_tokenize, "½") == ("unexpected character '½'", 1, 1)
    assert _tokens(tokenize, "½")[0] == ("ident", "½", 1, 1)
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(1) - ²; }\n")
    assert run(["compute", "--input", str(prob)]) == 1
    assert capsys.readouterr().err == "dgb: unknown symbol '²' at line 2, column 16\n"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(1) # c")
    assert run(["compute", "--input", str(prob)]) == 1
    assert capsys.readouterr().err == (
        "dgb: expected ';', found end of input at line 2, column 17\n")


@pytest.mark.parametrize("symmetric,message,line", [
    ("symmetric { perm: (1 2); perm: (1 2 3); }", "duplicate perm item", 2),
    ("symmetric { perm: (1 2); }\nsymmetric { perm: (1 2 3 4); }",
     "duplicate symmetric block", 3),
])
def test_cli_repeated_permutation_is_an_error(tmp_path, capsys, symmetric, message, line):
    gens = tmp_path / "gens.dgb"
    gens.write_text("ring { shifts: 1; symbols: x; }\n" + symmetric + "\n")
    with pytest.raises(ParseError) as err:
        parse_problem(gens.read_text())
    assert (err.value.message, err.value.line) == (message, line)
    assert run(["symmetric", "--gens", str(gens)]) == 1
    assert capsys.readouterr().err.startswith(f"dgb: {message} at line {line}")


def test_parse_coefficient_forms():
    ring = parse_problem(RING_HEADER).ring
    H = ring.constant(ring.field.parameter("H"))
    half = ring.field.rational(1, 2)
    f = parse_polynomial(ring, "-2*H*u(1,0,0)^2*v(0,0,0) + 1/2*p(0,0,0) - (H^2+1)")
    expected = (ring.var("u", (1, 0, 0), 2) * ring.var("v", (0, 0, 0)) * H.scale(ring.field.rational(-2))
                + ring.var("p", (0, 0, 0)).scale(half)
                - (H * H + ring.one))
    assert f == expected


def test_parse_bare_integer_shift_rank_one():
    ring = make_ring(1, ("x",))
    f = parse_polynomial(ring, "x(3)^2*x(0) - 5")
    assert f == ring.var("x", (3,), 2) * ring.var("x", (0,)) - ring.constant(5)
    problem = parse_problem("ring { shifts: 1; symbols: x; parameters: ; }\n"
                            "ideal { +x(3)^2*x(0) - 5; }")
    assert problem.ring.signature.parameters == ()
    assert problem.polynomials == [f]


class _Unscannable(tuple):
    def __contains__(self, item):
        raise AssertionError(f"scanned a name tuple for {item!r}")


def test_parse_looks_names_up_without_scanning():
    ring = parse_problem(RING_HEADER).ring
    H = ring.constant(ring.field.parameter("H"))
    expected = H * ring.var("u", (1, 0, 0)) - ring.var("p", (0, 0, 0))
    signature = ring.signature
    signature.symbols = _Unscannable(signature.symbols)
    signature.parameters = _Unscannable(signature.parameters)
    assert parse_polynomial(ring, "H*u(1,0,0) - p(0,0,0)") == expected
    for text, message, column in [("u(0,0,0) + w(1,0,0)", "unknown symbol 'w'", 12),
                                  ("2*u", "symbol 'u' needs a shift tuple", 3)]:
        with pytest.raises(ParseError) as err:
            parse_polynomial(ring, text)
        assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)


def test_parse_division_by_constants_only():
    ring = parse_problem(RING_HEADER).ring
    f = parse_polynomial(ring, "u(0,0,0)/2")
    assert f == ring.var("u", (0, 0, 0)).scale(ring.field.rational(1, 2))
    with pytest.raises(ParseError):
        parse_polynomial(ring, "u(0,0,0)/v(0,0,0)")


@pytest.mark.parametrize("parameters,bases", [
    ((), ["x(1)", "3/2*x(1)^2*x(0)", "-2", "x(1) + 2*x(0)", "x(1)*x(0) - 1/3"]),
    (("H",), ["-H*x(1)", "(H + 1)/2*x(0)^2", "H", "H*x(1) - x(0) + 1", "H + 1"]),
])
def test_parse_power_matches_repeated_product(parameters, bases):
    ring = make_ring(1, ("x",), parameters)
    for base_text in bases:
        base = parse_polynomial(ring, base_text)
        expected = ring.one
        for e in range(6):
            assert parse_polynomial(ring, f"({base_text})^{e}") == expected
            expected = expected * base


def test_parse_large_power_of_a_single_term():
    ring = make_ring(1, ("x",))
    f = parse_polynomial(ring, "x(0)^100000")
    assert f == ring.var("x", (0,), 100000)
    assert len(f.terms) == 1 and f.lm.factors[0][1] == 100000


def test_roundtrip_parse_print():
    rng = random.Random(9)
    ring = make_ring(2, ("x", "y"))
    for _ in range(40):
        f = random_polynomial(rng, ring, max_terms=4, max_shift_deg=3, max_exp=3)
        assert parse_polynomial(ring, format_polynomial(f)) == f
    assert format_polynomial(ring.zero) == "0"
    assert parse_polynomial(ring, "0") == ring.zero


def test_roundtrip_with_parameters():
    ring = parse_problem(RING_HEADER).ring
    texts = [
        "u(1,0,0) + v(0,1,0) - u(0,0,0) - v(0,0,0)",
        "-2*H*u(1,0,0)^2 + (H^2+1)*p(0,0,0) - 1/2",
        "(1/2*H - 3)*u(0,0,1) + H*v(0,0,0)^2",
    ]
    for text in texts:
        f = parse_polynomial(ring, text)
        assert parse_polynomial(ring, format_polynomial(f)) == f


def test_monic_print_example():
    ring = make_ring(1, ("x",))
    f = parse_polynomial(ring, "2*x(0)-2").monic()
    assert format_polynomial(f) == "x(0) - 1"


def test_serialize_basis_roundtrip():
    rng = random.Random(4)
    ring = make_ring(2, ("x", "y"))
    gens = [random_polynomial(rng, ring, max_terms=2) for _ in range(2)]
    basis = sigma_gbasis([g for g in gens if g], max_pair_budget=500)
    text = serialize_basis(ring, basis.elements)
    reparsed = parse_problem(text)
    assert reparsed.ring == ring
    assert tuple(reparsed.polynomials) == tuple(basis.elements)
    assert serialize_basis(reparsed.ring, reparsed.polynomials) == text


def _flow_basis():
    problem = parse_problem((DATA / "navier_stokes.dgb").read_text())
    return problem.ring, interreduce(sigma_gbasis_adaptive(problem.polynomials)).elements


def _swell_basis():
    problem = parse_problem((DATA / "qh_swell.dgb").read_text())
    return problem.ring, sigma_gbasis_truncated(problem.polynomials, 2,
                                                max_pair_budget=54).elements


@pytest.mark.parametrize("build", [_flow_basis, _swell_basis], ids=["flow", "swell"])
def test_serialize_basis_roundtrip_over_parameters(build):
    # the ring's parameters line is read back, and so are coefficients in
    # Q(H); the swell basis divides by long parameter polynomials, so
    # reading it back runs GCDHEU on large coefficients
    ring, elements = build()
    assert ring.signature.parameters == ("H",)
    long_denominators = any(len(num_den(ring.field, c)[1]) > 1
                            for g in elements for _, c in g.terms)
    assert long_denominators == (build is _swell_basis)
    reparsed = parse_problem(serialize_basis(ring, elements))
    assert reparsed.ring == ring
    assert tuple(reparsed.polynomials) == tuple(elements)


def test_format_ordering_text():
    ring = parse_problem(RING_HEADER).ring
    assert format_ordering(ring) == \
        "block(shifts=degrevlex[s1>s2>s3], symbols=lex[u>v>p])"


# --- command line ------------------------------------------------------------


def test_cli_help_exit_zero(capsys):
    assert run(["--help"]) == 0
    assert run([]) == 0


def test_cli_usage_error_exit_one(capsys):
    assert run(["compute"]) == 1  # missing --input
    assert run(["frobnicate"]) == 1


def test_cli_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.dgb"
    bad.write_text("ring { shifts: 1; symbols: x; }\nideal { x(1,0); }\n")
    assert run(["compute", "--input", str(bad)]) == 1
    assert "arity" in capsys.readouterr().err


def test_cli_missing_file_exit_one(capsys):
    assert run(["compute", "--input", "/nonexistent/nope.dgb"]) == 1


def test_cli_unreadable_input_exit_one(tmp_path, capsys):
    assert run(["compute", "--input", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dgb:") and "Traceback" not in err


def test_cli_negative_truncation_exit_one(tmp_path, capsys):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(0); }\n")
    assert run(["compute", "--input", str(prob), "--truncate", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_cli_shift_past_packed_width_exits_one(tmp_path, capsys):
    # a variable beyond the packed width is refused where it is written,
    # and a shift the completion would make past it ends the run
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(0) - x(65536); }\n")
    assert run(["compute", "--input", str(prob)]) == 1
    err = capsys.readouterr().err
    assert "exceeds the limit 65535" in err and "line 2, column 16" in err
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(65535)*x(0) - x(1); }\n")
    assert run(["compute", "--input", str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dgb:") and "exceeds the limit 65535" in err


def test_cli_symmetric_staircase_error_exit_one(tmp_path, capsys):
    gens = tmp_path / "gens.dgb"
    gens.write_text("ring { shifts: 1; symbols: x; }\nideal { x(5); }\n")
    assert run(["symmetric", "--perm", "(1 2 3)", "--gens", str(gens)]) == 1
    assert "staircase" in capsys.readouterr().err


def test_cli_compute_flow_json(capsys):
    code = run(["compute", "--input", str(DATA / "navier_stokes.dgb"),
                "--adaptive", "--minimal", "--interreduce", "--stats", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "complete"
    assert len(out["basis"]) == 4
    assert sorted(out["leading_monomials"]) == \
        ["p(2,0,0)", "u(1,0,0)", "v(1,1,0)", "v(2,0,0)"]
    assert out["stats"]["generated"] == 2
    assert out["membership"] is None
    assert out["exit_code"] == 0
    assert "wall_clock_seconds" in out


def test_cli_compute_truncated(tmp_path, capsys):
    prob = tmp_path / "trunc.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(2)*x(1) - x(1)^2; }\n")
    code = run(["compute", "--input", str(prob), "--truncate", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "complete_up_to_order(3)"


def test_cli_compute_budget_exit_two(tmp_path, capsys):
    prob = tmp_path / "grow.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(0)*x(2) - x(1)^2; }\n")
    code = run(["compute", "--input", str(prob), "--pair-budget", "10", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "budget_exhausted"


def test_cli_pair_budget_is_not_read_from_the_environment(capsys, monkeypatch):
    # --pair-budget is the one way to set the budget: a DGB_PAIR_BUDGET in
    # the environment changes neither the output nor the exit code.
    argv = ["compute", "--input", str(DATA / "cli" / "perturbed.dgb"), "--adaptive",
            "--minimal", "--json"]
    monkeypatch.delenv("DGB_PAIR_BUDGET", raising=False)
    code = run(argv)
    expected = json.loads(capsys.readouterr().out)
    assert code == 0 and expected["config"]["pair_budget"] == 200_000
    monkeypatch.setenv("DGB_PAIR_BUDGET", "1")
    assert run(argv) == code
    got = json.loads(capsys.readouterr().out)
    expected["wall_clock_seconds"] = got["wall_clock_seconds"]
    assert got == expected


def test_cli_verify_accepts_and_rejects(tmp_path, capsys):
    ring = make_ring(1, ("x",))
    x = lambda k, e=1: ring.var("x", (k,), e)
    complete = sigma_gbasis([x(1, 2) - x(0), x(1) * x(0) - x(0)])
    assert complete.status.kind == "complete"
    good = tmp_path / "good.dgb"
    good.write_text(serialize_basis(ring, complete.elements))
    assert run(["verify", "--input", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.dgb"
    bad.write_text("ring { shifts: 1; symbols: x; }\n"
                   "ideal { x(1)^2 - x(0); x(1)*x(0) - x(0); }\n")
    code = run(["verify", "--input", str(bad), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "not_a_basis"
    assert out["failures"], "expected a failing-pair witness"
    assert "remainder" in out["failures"][0]


def test_cli_verifies_the_pinned_cycle8_basis(capsys):
    # The benchmark's pinned basis (the 32 golden cycle8 elements and the
    # cycle relation), read and not written: the verifier checks all 1,980
    # surviving pairs, as many as a fresh derivation per pair of elements
    # gives, and finds it complete.
    path = Path(__file__).parent.parent / "perfbench" / "data" / "cycle8_basis.dgb"
    assert run(["verify", "--json", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["checked_pairs"], out["exit_code"]) == ("verified", 1980, 0)
    leads = [g.lm for g in parse_problem(path.read_text()).polynomials]
    assert sum(len(completion.shift_pair_candidates(leads[i], leads[j], i == j, {})[0])
               for j in range(len(leads)) for i in range(j + 1)) == 1980


def test_cli_reduce_with_certificate(tmp_path, capsys):
    prob = tmp_path / "red.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(1) - x(0); }\n")
    code = run(["reduce", "--input", str(prob), "--poly", "x(3)*x(2)",
                "--certificate", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["remainder"] == "x(0)^2"
    assert out["certificate_ok"] is True
    assert len(out["certificate"]) >= 2


def test_cli_verify_indices_are_file_positions(tmp_path, capsys):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { 0; x(1)^2 - x(0); x(1)*x(0) - x(0); }\n")
    assert run(["verify", "--input", str(prob), "--json"]) == 2
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert [(f["left_index"], f["right_index"]) for f in failures] == [
        (1, 2), (1, 2), (2, 2)]


def test_cli_reduce_certificate_indices_are_file_positions(tmp_path, capsys):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { 0; x(2)*x(0) - x(1); 0; x(1)^2 - x(0); }\n")
    assert run(["reduce", "--input", str(prob), "--poly", "x(3)^2 + x(2)*x(0)",
                "--certificate", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate_ok"] is True
    assert sorted({step["basis_index"] for step in out["certificate"]}) == [1, 3]


def test_cli_symmetric_trivial(tmp_path, capsys):
    gens = tmp_path / "gens.dgb"
    gens.write_text("ring { shifts: 1; symbols: x; }\nideal { x(0); }\n")
    code = run(["symmetric", "--perm", "(1 2 3 4)", "--gens", str(gens),
                "--classical", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["basis"] == ["x(0)"]
    assert out["classical_basis"] == ["x(0)", "x(1)", "x(2)", "x(3)"]


def test_cli_symmetric_perm_from_file(tmp_path, capsys):
    gens = tmp_path / "gens.dgb"
    gens.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(0); }\n"
                    "symmetric { perm: (1 2 3); }\n")
    code = run(["symmetric", "--gens", str(gens), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["basis"] == ["x(0)"]


@pytest.mark.parametrize("perm", ["", "()", "(1 a)", "1 2 3"])
def test_cli_malformed_perm_same_message_on_both_routes(tmp_path, capsys, perm):
    header = "ring { shifts: 1; symbols: x; }\nideal { x(0); }\n"
    gens = tmp_path / "gens.dgb"
    gens.write_text(header)
    assert run(["symmetric", "--gens", str(gens), "--perm", perm]) == 1
    from_flag = capsys.readouterr().err.strip()
    in_file = tmp_path / "perm.dgb"
    in_file.write_text(header + f"symmetric {{\n  perm: {perm};\n}}\n")
    assert run(["symmetric", "--gens", str(in_file)]) == 1
    from_file = capsys.readouterr().err.strip()
    assert from_flag.startswith("dgb: ") and "\n" not in from_flag
    assert from_file == f"{from_flag} at line 4, column 3"


def test_cli_symmetric_explicit_one_cycle(tmp_path, capsys):
    header = "ring { shifts: 1; symbols: x, y; }\nideal { x(0)*y(0); }\n"
    gens = tmp_path / "gens.dgb"
    gens.write_text(header + "symmetric { perm: (1 2)(3); }\n")
    for extra in ([], ["--perm", "(1 2)(3)"]):
        assert run(["symmetric", "--gens", str(gens), "--json"] + extra) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["perm"] == "(1 2)(3)"
        assert out["basis"] == ["x(0)*y(0)", "x(1)*y(0)"]


def test_cli_non_integer_shift_rank(tmp_path, capsys):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring {\n  shifts: x;\n  symbols: x;\n}\n")
    assert run(["compute", "--input", str(prob)]) == 1
    assert capsys.readouterr().err.strip() == (
        "dgb: expected an integer shift rank at line 2, column 11")


@pytest.mark.parametrize("ring_block, message, position", [
    ("ring {\n  shifts: 0;\n  symbols: x;\n}", "shift rank must be at least 1", (1, 1)),
    ("\nring { shifts: 1; symbols: x, x; }",
     "symbol and parameter names must be distinct", (2, 1)),
    ("ring {\n  symbols: x;\n}", "ring block is missing 'shifts'", (3, 1)),
    ("ring { shifts: 1; }", "ring block is missing 'symbols'", (1, 19)),
    ("ring { shifts: 1; symbols: x;\n  order: block(shifts=lex[s1], symbols=lex[y]); }",
     "symbol priority must name every declared symbol exactly once", (2, 3)),
    ("ring { shifts: 2; symbols: x;\n  order: block(shifts=lex[s1], symbols=lex[x]); }",
     "shift priority must name s1, s2 exactly once each", (2, 3)),
    ("", "problem file has no ring block", (2, 1)),
    ("ring { shifts: 1; symbols: x;\n  order: block(shifts=lex[s1], symbols=lex[x>]); }",
     "expected an identifier", (2, 46)),
    ("ring { shifts: 1; symbols: x;\n  order: block(shifts=lex[;], symbols=lex[x]); }",
     "expected an identifier", (2, 27)),
    ("ring {\n  shifts: 65;\n  symbols: x;\n}", "shift rank 65 exceeds the limit 64", (1, 1)),
    ("ideal { x(0); }\n" + RING_X, "ideal block before ring block", (1, 1)),
    ("symmetric { perm: (1 2); }\n" + RING_X, "symmetric block before ring block", (1, 1)),
    (RING_X + "graph { }", "unknown section 'graph'", (2, 1)),
    ("ring { shifts: 1; symbols: x;\n  weights: 1; }", "unknown ring item 'weights'", (2, 3)),
    ("ring { shifts: 1; symbols: x;\n  order: block(shifts=revlex[s1], symbols=lex[x]); }",
     "unknown ordering 'revlex'", (2, 23)),
    (RING_X + "symmetric { group: (1 2); }", "unknown symmetric item 'group'", (2, 13)),
    (RING_X + "ideal { x(1)^y(0); }", "expected an integer exponent", (2, 14)),
    (RING_X + "ideal { x(1) * x; }", "symbol 'x' needs a shift tuple", (2, 16)),
    (RING_X + "ideal { x(a); }", "expected a shift exponent", (2, 11)),
    # an item may appear once; a repeat is refused at its name
    ("ring { shifts: 1; symbols: x;\n  shifts: 2; symbols: y, z; }", "duplicate shifts item",
     (2, 3)),
    ("ring { shifts: 1; symbols: x; shifts: 2; }", "duplicate shifts item", (1, 31)),
    ("ring { shifts: 1; symbols: x;\n  symbols: y; }", "duplicate symbols item", (2, 3)),
    ("ring { shifts: 1; symbols: x; parameters: H;\n  parameters: K; }",
     "duplicate parameters item", (2, 3)),
    ("ring { shifts: 1; symbols: x; parameters: ;\n  parameters: ; }",
     "duplicate parameters item", (2, 3)),
    ("ring { shifts: 1; symbols: x; order: block(shifts=lex[s1], symbols=lex[x]);\n"
     "  order: block(shifts=lex[s1], symbols=lex[x]); }", "duplicate order item", (2, 3)),
])
def test_ring_block_errors_carry_positions(ring_block, message, position, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_problem(ring_block + "\n")
    assert err.value.message == message
    assert (err.value.line, err.value.column) == position
    prob = tmp_path / "p.dgb"
    prob.write_text(ring_block + "\n")
    assert run(["compute", "--input", str(prob)]) == 1
    line, column = position
    assert capsys.readouterr().err == f"dgb: {message} at line {line}, column {column}\n"


RING_UV = "ring { shifts: 2; symbols: u, v; }\nideal { u(2,0) - u(0,0); v(0,1) - v(0,0); }\n"


@pytest.mark.parametrize("problem, argv, message", [
    (RING_X + "ideal { x(1) - x(0); }", ["reduce", "--poly", "x(1) x(2)"],
     "dgb: trailing input 'x' at line 1, column 6"),
    (RING_X + "ideal { x(1) - x(0); }", ["compute", "--adaptive", "--truncate", "2"],
     "dgb compute: --adaptive and --truncate are exclusive"),
    (RING_X + "ideal { x(1) - x(0); }", ["symmetric"],
     "dgb symmetric: no permutation given (use --perm or a symmetric block)"),
    # the command's own rank check fires before the action's
    (RING_UV, ["symmetric", "--perm", "(1 2)"],
     "dgb symmetric: the generators ring must have shift rank 1"),
    (RING_X + "ideal { x(1) - x(0); }", ["normal-form", "--var", "2*x(1)"],
     "dgb normal-form: --var must be a single variable"),
    (RING_X + "ideal { x(2)*x(1) + x(0); }", ["normal-form", "--var", "x(2)"],
     "dgb normal-form: x(2)*x(1) + x(0) is not a monic linear relation in the pure "
     "powers of one shift operator"),
    (RING_X + "ideal { x(2) - x(0); x(1) + x(0); }", ["normal-form", "--var", "x(2)"],
     "dgb normal-form: duplicate relation for x along s1"),
    (RING_UV, ["normal-form", "--var", "u(1,0)"],
     "dgb normal-form: missing relations for u along s2, v along s1"),
    # the cap bounds only the adaptive driver's doubling order bound
    (RING_X + "ideal { x(1) - x(0); }", ["compute", "--order-cap", "3"],
     "dgb compute: --order-cap needs --adaptive"),
    (RING_X + "ideal { x(1) - x(0); }", ["compute", "--truncate", "2", "--order-cap", "3"],
     "dgb compute: --order-cap needs --adaptive"),
])
def test_cli_errors_name_their_cause(tmp_path, capsys, problem, argv, message):
    prob = tmp_path / "p.dgb"
    prob.write_text(problem + "\n")
    flag = "--gens" if argv[0] == "symmetric" else "--input"
    assert run(argv[:1] + [flag, str(prob)] + argv[1:]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("perm,count", [("(1 2 3)", 1), ("(1 2)(4 5)", 3)])
def test_cli_symmetric_symbol_count_mismatch(tmp_path, capsys, perm, count):
    gens = tmp_path / "gens.dgb"
    gens.write_text("ring { shifts: 1; symbols: x, y; }\n"
                    "ideal { x(0)*y(0) - x(1)*y(1); }\n")
    assert run(["symmetric", "--gens", str(gens), "--perm", perm]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dgb: ") and f"needs {count} symbols" in err
    assert "but 2 were given" in err


def test_cli_normal_form(tmp_path, capsys):
    prob = tmp_path / "nf.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(2) + x(1) + x(0); }\n")
    code = run(["normal-form", "--input", str(prob), "--var", "x(2)", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["normal_form"] == "-x(1) - x(0)"
    assert out["normal_variables"] == 2


def test_cli_normal_form_over_parameter_field(tmp_path, capsys):
    prob = tmp_path / "nf.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; parameters: H; }\n"
                    "ideal { H*x(2) - (H+1)*x(1) + 1/2*x(0); }\n")
    code = run(["normal-form", "--input", str(prob), "--var", "x(4)", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["normal_form"] == ("((H^3 + 2*H^2 + 2*H + 1)/H^3)*x(1)"
                                  " - ((2*H^2 + 3*H + 2)/(4*H^3))*x(0)")
    assert out["normal_variables"] == 2


@pytest.mark.parametrize("poly", ["x(1)/0", "x(1)/(H-H)"])
def test_cli_division_by_zero(tmp_path, capsys, poly):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; parameters: H; }\n"
                    "ideal { x(1) - x(0); }\n")
    assert run(["reduce", "--input", str(prob), "--poly", poly]) == 1
    err = capsys.readouterr().err
    assert "division by zero at line 1, column 6" in err


def test_cli_normal_form_rejects_nonlinear(tmp_path, capsys):
    prob = tmp_path / "nf.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(2)*x(1) + x(0); }\n")
    assert run(["normal-form", "--input", str(prob), "--var", "x(2)"]) == 1


def test_reports_are_deterministic(tmp_path, capsys):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(1)^2 - x(0); x(1)*x(0) - x(0); }\n")
    argv = ["compute", "--input", str(prob), "--stats", "--json"]
    run(argv)
    first = json.loads(capsys.readouterr().out)
    run(argv)
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_clock_seconds")
    second.pop("wall_clock_seconds")
    assert first == second


def test_cli_no_chain_flag(tmp_path, capsys):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(1)^2 - x(0); x(1)*x(0) - x(0); }\n")
    run(["compute", "--input", str(prob), "--no-chain", "--stats", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["chain_criterion"] is False
    assert out["stats"]["killed_chain"] == 0


def test_json_report_matches_schema_shape(tmp_path, capsys):
    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "run_report.schema.json").read_text())
    required = schema["required"]
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(1) - x(0); }\n")
    run(["compute", "--input", str(prob), "--stats", "--json"])
    out = json.loads(capsys.readouterr().out)
    for key in required:
        assert key in out, f"missing required report key {key}"
    assert out["command"] in schema["properties"]["command"]["enum"]
    assert out["exit_code"] in (0, 2)
    assert set(out["stats"]) == set(schema["properties"]["stats"]["required"])
    jsonschema.validate(out, schema)

    bad = tmp_path / "bad.dgb"
    bad.write_text("ring { shifts: 1; symbols: x; }\n"
                   "ideal { x(1)^2 - x(0); x(1)*x(0) - x(0); }\n")
    nf = tmp_path / "nf.dgb"
    nf.write_text("ring { shifts: 1; symbols: x; }\nideal { x(2) + x(1) + x(0); }\n")
    commands = [
        ["verify", "--input", str(bad)],
        ["reduce", "--input", str(prob), "--poly", "x(3)*x(2)", "--certificate"],
        ["symmetric", "--perm", "(1 2 3 4)", "--gens", str(prob), "--classical",
         "--stats"],
        ["normal-form", "--input", str(nf), "--var", "x(2)"],
    ]
    for argv in commands:
        run(argv + ["--json"])
        out = json.loads(capsys.readouterr().out)
        assert out["command"] == argv[0]
        jsonschema.validate(out, schema)


def test_text_reports(tmp_path, capsys):
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(1)^2 - x(0); x(1)*x(0) - x(0); }\n")

    def report_lines(argv, exit_code):
        assert run(argv) == exit_code
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("wall clock: ")
        return lines[:-1]

    assert report_lines(["compute", "--input", str(prob), "--stats"], 0) == [
        "status: complete",
        "basis (4 elements):",
        "  x(0)^2 - x(0)",
        "  x(1) - x(0)",
        "  x(1)*x(0) - x(0)",
        "  x(1)^2 - x(0)",
        "leading monomials: x(0)^2, x(1), x(1)*x(0), x(1)^2",
        "membership table: [[1]]",
        "pairs: generated=10, killed_product=0, killed_sigma=6, killed_chain=5, "
        "killed_truncation=0, reduced_to_zero=3, new_elements=2, sweeps=1",
    ]
    assert report_lines(["verify", "--input", str(prob)], 2) == [
        "status: not_a_basis",
        "checked_pairs: 3",
        "failures:",
        "  {'left_index': 0, 'right_index': 1, 'left_shift': [0], "
        "'right_shift': [0], 'remainder': '-x(0)^2 + x(0)'}",
        "  {'left_index': 0, 'right_index': 1, 'left_shift': [0], "
        "'right_shift': [1], 'remainder': '-x(2)*x(0) + x(1)^2'}",
        "  {'left_index': 1, 'right_index': 1, 'left_shift': [0], "
        "'right_shift': [1], 'remainder': '-x(2)*x(0) + x(1)*x(0)'}",
    ]

    small = tmp_path / "small.dgb"
    small.write_text("ring { shifts: 1; symbols: x; }\nideal { x(1) - x(0); }\n")
    step = ("  {{'basis_index': 0, 'shift': [{}], 'cofactor': '{}', "
            "'coefficient': '1', 'coefficient_negative': False}}")
    assert report_lines(["reduce", "--input", str(small), "--poly", "x(3)*x(2)",
                         "--certificate"], 0) == [
        "status: reduced",
        "certificate:",
        step.format(1, "x(3)"),
        step.format(0, "x(3)"),
        step.format(2, "x(0)"),
        step.format(1, "x(0)"),
        step.format(0, "x(0)"),
        "certificate_ok: True",
        "remainder: x(0)^2",
    ]
    assert report_lines(["symmetric", "--perm", "(1 2 3 4)", "--gens", str(small),
                         "--classical", "--stats"], 0) == [
        "status: complete",
        "basis (1 elements):",
        "  x(1) - x(0)",
        "leading monomials: x(1)",
        "membership table: [[1]]",
        "pairs: generated=1, killed_product=0, killed_sigma=2, killed_chain=0, "
        "killed_truncation=0, reduced_to_zero=1, new_elements=0, sweeps=1",
        "classical_basis:",
        "  x(1) - x(0)",
        "  x(2) - x(1)",
        "  x(3) - x(2)",
        "classical_count: 3",
    ]
    nf = tmp_path / "nf.dgb"
    nf.write_text("ring { shifts: 1; symbols: x; parameters: H; }\n"
                  "ideal { H*x(2) - (H+1)*x(1) + 1/2*x(0); }\n")
    assert report_lines(["normal-form", "--input", str(nf), "--var", "x(4)"], 0) == [
        "status: ok",
        "normal_form: ((H^3 + 2*H^2 + 2*H + 1)/H^3)*x(1)"
        " - ((2*H^2 + 3*H + 2)/(4*H^3))*x(0)",
        "normal_variables: 2",
    ]


@pytest.mark.parametrize("flags", [["--pair-budget", "-5"], ["--order-cap", "-1"]])
def test_cli_rejects_nonpositive_budgets(flags, capsys):
    code = run(["compute", "--input", str(DATA / "navier_stokes.dgb"), "--adaptive"]
               + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "dgb: budget caps must be positive\n"


# --- failed internal self-checks: a typed error, exit code 1 ------------------


def test_step_limit_is_a_typed_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reduction, "HEAD_STEP_LIMIT", 0)
    ring = make_ring(1, ("x",))
    with pytest.raises(InternalCheckError, match="step safety limit"):
        reduction.reduce(ring.var("x", (3,)), [ring.var("x", (1,)) - ring.var("x", (0,))])
    prob = tmp_path / "red.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(1) - x(0); }\n")
    assert run(["reduce", "--input", str(prob), "--poly", "x(3)"]) == 1
    assert capsys.readouterr().err == (
        "dgb: reduction of x(3) exceeded the step safety limit of 0 steps\n")


def test_adaptive_verification_failure_is_a_typed_error(tmp_path, capsys, monkeypatch):
    def failing(basis):
        return VerificationReport(False, [(0, 1, (0,), (1,), basis.elements[0])], 1)

    monkeypatch.setattr(completion, "verify_sigma_gbasis", failing)
    prob = tmp_path / "p.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\n"
                    "ideal { x(1)^2 - x(0); x(1)*x(0) - x(0); }\n")
    problem = parse_problem(prob.read_text())
    with pytest.raises(InternalCheckError, match=r"remainder x\(0\)\^2 - x\(0\)"):
        completion.sigma_gbasis_adaptive(problem.polynomials)
    assert run(["compute", "--input", str(prob), "--adaptive"]) == 1
    assert capsys.readouterr().err.startswith(
        "dgb: adaptive completion failed verification: the pair of elements 0 shifted")


def test_normal_form_route_mismatch_is_a_typed_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(QuotientPresentation, "normal_form_companion",
                        lambda self, var: self.ring.zero)
    ring = make_ring(1, ("x",))
    presentation = QuotientPresentation(ring, [LinearRelation(0, 0, (1, 1, 1))])
    with pytest.raises(InternalCheckError, match="normal form mismatch"):
        presentation.normal_form_variable(VarRef(0, (2,)))
    prob = tmp_path / "nf.dgb"
    prob.write_text("ring { shifts: 1; symbols: x; }\nideal { x(2) + x(1) + x(0); }\n")
    assert run(["normal-form", "--input", str(prob), "--var", "x(2)"]) == 1
    assert capsys.readouterr().err.startswith("dgb: normal form mismatch for")
