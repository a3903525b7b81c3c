"""Output checks for the benchmark workloads.

The cycle8 checks read the CLI's JSON report and compare it with the golden
expectations in ``tests/golden_cycle8.py``.  Polynomials are compared as
canonical term maps built by a parser of this file, not by `dgb`, so a
change that broke the formatter and parser alike would still be caught, and
the factor order the formatter picks (``x(6)*x(0)`` against the golden
``x(0)*x(6)``) does not matter.
"""

import importlib.util
import json
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_]\w*\([\d\s,]*\))"
                    r"|(?P<op>[-+*^]))")


def canonical(text):
    """{monomial: Fraction} for a polynomial over Q written as sums of
    products of rationals and variables like ``x(0)`` or ``u(1,0,2)^3``.
    A monomial is a sorted tuple of (variable, exponent) pairs."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unexpected text {text[pos:pos + 12]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
        pos = m.end()
    terms = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in (("op", "+"), ("op", "-")):
            sign = -sign if tokens[i][1] == "-" else sign
            i += 1
        coeff = Fraction(sign)
        exps = {}
        while True:
            if i >= len(tokens):
                raise ValueError(f"incomplete term in {text!r}")
            kind, value = tokens[i]
            i += 1
            if kind == "num":
                coeff *= Fraction(value)
            elif kind == "var":
                name, _, rest = value.partition("(")
                var = (name, tuple(int(a) for a in rest.rstrip(")").split(",")))
                e = 1
                if i < len(tokens) and tokens[i] == ("op", "^"):
                    e = int(tokens[i + 1][1])
                    i += 2
                exps[var] = exps.get(var, 0) + e
            else:
                raise ValueError(f"unexpected {value!r} in {text!r}")
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                continue
            break
        mono = tuple(sorted(exps.items()))
        terms[mono] = terms.get(mono, 0) + coeff
    return {m: c for m, c in terms.items() if c}


def leading_monomial(text):
    """The first printed term's monomial: `dgb` prints terms descending."""
    first = re.split(r"\s[-+]\s", text.strip(), maxsplit=1)[0]
    (mono,) = canonical(first)
    return mono


def frozen(text):
    return frozenset(canonical(text).items())


def load_golden(root, name):
    path = root / "tests" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"golden_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(stdout, exit_code, problems):
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        return json.loads(stdout)
    except ValueError:
        problems.append("output is not a JSON report")
        return None


def check_symmetric(stdout, exit_code, golden):
    """Problems with a `dgb symmetric --classical --stats --json` report on
    the cycle8 input; empty when it matches the golden basis exactly."""
    problems = []
    out = _report(stdout, exit_code, problems)
    if out is None:
        return problems
    if out.get("status") != "complete":
        problems.append(f"status {out.get('status')!r}")
    try:
        basis = {frozen(t) for t in out["basis"]}
        lms = {leading_monomial(t) for t in out["leading_monomials"]}
        classical = [leading_monomial(t) for t in out["classical_basis"]]
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"malformed report: {exc!r}"]
    if len(out["basis"]) != len(golden.GAMMA_BASIS) or \
            basis != {frozen(t) for t in golden.GAMMA_BASIS}:
        problems.append("group-invariant basis differs from the golden one")
    if lms != {leading_monomial(t) for t in golden.GAMMA_LEADING_MONOMIALS}:
        problems.append("gamma leading monomials differ")
    expected = {leading_monomial(t) for t in golden.CLASSICAL_LEADING_MONOMIALS}
    if len(classical) != len(expected) or set(classical) != expected \
            or out.get("classical_count") != len(expected):
        problems.append("classical leading monomials differ")
    if not isinstance(out.get("stats"), dict):
        problems.append("no --stats counters in the report")
    return problems


def check_verify(stdout, exit_code):
    """Problems with a `dgb verify --json` report that must say verified."""
    problems = []
    out = _report(stdout, exit_code, problems)
    if out is not None and out.get("status") != "verified":
        problems.append(f"status {out.get('status')!r}, expected 'verified'")
    return problems
