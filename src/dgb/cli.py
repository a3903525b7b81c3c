"""Problem-file language, serialization and the `dgb` command line.

A problem file has a ring block, an optional ideal block and an optional
symmetric block::

    ring {
      shifts: 3;
      symbols: u, v, p;
      parameters: H;
      order: block(shifts=degrevlex[s1>s2>s3], symbols=lex[u>v>p]);
    }
    ideal {
      u(1,0,0) + v(0,1,0) - u(0,0,0) - v(0,0,0);
      -2*H*u(1,0,0)^2*v(0,0,0) + (H^2+1)*p(0,0,1);
    }
    symmetric {
      perm: (1 2 3 4 5 6 7 8);
    }

Polynomials use explicit `*`, `^` for exponents, rationals like 3/4, and
parameter polynomials in parentheses.  Shift tuples are positional; rank-1
rings accept a bare integer.  `#` starts a line comment.

The symmetric block holds exactly `perm: CYCLES;`, with CYCLES in the cycle
notation of `--perm`, e.g. `(1 2 3)(4 5)`; points not named are fixed.
`dgb symmetric` computes in the file's ring, under its order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .completion import (CompletionOptions, interreduce, minimalize,
                         sigma_gbasis, sigma_gbasis_adaptive,
                         sigma_gbasis_truncated, verify_sigma_gbasis)
from .errors import DGBError, ParseError, ShiftWidthError
from .orderings import _ORDER_NAMES, OrderingSpec
from .quotient import (LinearRelation, PermutationAction, QuotientPresentation,
                       expand_classical_basis, groebner_gamma_basis,
                       parse_cycles, pure_power_table)
from .reduction import reduce as head_reduce
from .reduction import replay_certificate
from .ring import (DifferenceRing, Monomial, Signature, format_monomial,
                   format_polynomial)

_TOKEN = re.compile(r"(?P<nl>\n)|[ \t\r]+|#[^\n]*|(?P<int>\d+)|(?P<ident>[^\W\d]\w*)"
                    r"|(?P<punct>[{}()\[\]=,;:^*/+\->])")


# --- tokenizer -----------------------------------------------------------


class Token(NamedTuple):
    kind: str  # ident | int | punct | eof
    value: str
    line: int
    column: int


def tokenize(text):
    tokens = []
    line, line_start, end = 1, 0, 0
    for match in _TOKEN.finditer(text):
        if match.start() != end:
            break
        end = match.end()
        kind = match.lastgroup
        if kind == "nl":
            line, line_start = line + 1, end
        elif kind:
            tokens.append(Token(kind, match.group(), line, match.start() - line_start + 1))
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", line, end - line_start + 1)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# --- parser --------------------------------------------------------------


@dataclass
class ProblemFile:
    ring: DifferenceRing
    polynomials: list
    permutation: tuple = None  # tuple of cycles, 1-based points


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, value):
        tok = self.next()
        if tok.value != value:
            found = repr(tok.value) if tok.value else "end of input"
            self.fail(f"expected {value!r}, found {found}", tok)
        return tok

    def ident(self):
        tok = self.next()
        if tok.kind != "ident":
            self.fail("expected an identifier", tok)
        return tok.value

    def at(self, value):
        return self.peek().value == value

    # --- problem structure ---------------------------------------------

    def parse_problem(self):
        ring = None
        polynomials = []
        permutation = None
        seen = set()
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.value in ("ring", "symmetric"):
                if tok.value in seen:
                    self.fail(f"duplicate {tok.value} block", tok)
                seen.add(tok.value)
            if tok.value == "ring":
                ring = self.parse_ring_block(tok)
            elif tok.value == "ideal":
                if ring is None:
                    self.fail("ideal block before ring block", tok)
                polynomials.extend(self.parse_poly_block(ring))
            elif tok.value == "symmetric":
                if ring is None:
                    self.fail("symmetric block before ring block", tok)
                permutation = self.parse_symmetric_block()
            else:
                self.fail(f"unknown section {tok.value!r}", tok)
        if ring is None:
            self.fail("problem file has no ring block")
        return ProblemFile(ring, polynomials, permutation)

    def parse_ring_block(self, ring_tok):
        self.expect("{")
        shifts = None
        symbols = None
        parameters = ()
        order = None
        while not self.at("}"):
            tok = self.next()
            if tok.value == "shifts":
                self.expect(":")
                rank = self.next()
                if rank.kind != "int":
                    self.fail("expected an integer shift rank", rank)
                shifts = int(rank.value)
            elif tok.value == "symbols":
                self.expect(":")
                symbols = self.parse_ident_list()
            elif tok.value == "parameters":
                self.expect(":")
                parameters = self.parse_ident_list(allow_empty=True)
            elif tok.value == "order":
                self.expect(":")
                order = (tok, self.parse_order_spec())
            else:
                self.fail(f"unknown ring item {tok.value!r}", tok)
            self.expect(";")
        close = self.expect("}")
        if shifts is None:
            self.fail("ring block is missing 'shifts'", close)
        if symbols is None:
            self.fail("ring block is missing 'symbols'", close)
        try:
            signature = Signature(shifts, symbols, parameters)
        except ValueError as exc:
            self.fail(str(exc), ring_tok)
        spec = self.resolve_order_spec(order, signature)
        return DifferenceRing(signature, spec)

    def parse_ident_list(self, allow_empty=False):
        names = []
        if allow_empty and self.at(";"):
            return names
        while True:
            names.append(self.ident())
            if not self.at(","):
                return names
            self.next()

    def parse_order_spec(self):
        self.expect("block")
        self.expect("(")
        self.expect("shifts")
        self.expect("=")
        shift_name, shift_prio = self.parse_order_half()
        self.expect(",")
        self.expect("symbols")
        self.expect("=")
        symbol_name, symbol_prio = self.parse_order_half()
        self.expect(")")
        return (shift_name, shift_prio, symbol_name, symbol_prio)

    def parse_order_half(self):
        tok = self.next()
        if tok.value not in _ORDER_NAMES:
            self.fail(f"unknown ordering {tok.value!r}", tok)
        self.expect("[")
        names = [self.ident()]
        while self.at(">"):
            self.next()
            names.append(self.ident())
        self.expect("]")
        return tok.value, names

    def resolve_order_spec(self, order, signature):
        if order is None:
            return OrderingSpec()
        tok, (shift_name, shift_names, symbol_name, symbol_names) = order
        expected = [f"s{i + 1}" for i in range(signature.shift_rank)]
        if sorted(shift_names) != sorted(expected):
            self.fail(
                f"shift priority must name {', '.join(expected)} exactly once each", tok)
        shift_prio = tuple(int(name[1:]) - 1 for name in shift_names)
        if sorted(symbol_names) != sorted(signature.symbols):
            self.fail("symbol priority must name every declared symbol exactly once", tok)
        index = {name: i for i, name in enumerate(signature.symbols)}
        symbol_prio = tuple(index[name] for name in symbol_names)
        return OrderingSpec(shift_name, shift_prio, symbol_name, symbol_prio)

    def parse_poly_block(self, ring):
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(self.parse_expr(ring))
            self.expect(";")
        self.expect("}")
        return out

    def parse_symmetric_block(self):
        self.expect("{")
        permutation = None
        while not self.at("}"):
            tok = self.next()
            if tok.value != "perm":
                self.fail(f"unknown symmetric item {tok.value!r}", tok)
            if permutation is not None:
                self.fail("duplicate perm item", tok)
            self.expect(":")
            text = []
            while not self.at(";") and self.peek().kind != "eof":
                text.append(self.next().value)
            try:
                permutation = tuple(parse_cycles(" ".join(text)))
            except ParseError as exc:
                raise ParseError(exc.message, tok.line, tok.column) from None
            self.expect(";")
        self.expect("}")
        return permutation

    # --- polynomial expressions ------------------------------------------

    def parse_expr(self, ring):
        negative = False
        if self.at("-"):
            self.next()
            negative = True
        elif self.at("+"):
            self.next()
        acc = self.parse_term(ring)
        if negative:
            acc = -acc
        while self.at("+") or self.at("-"):
            op = self.next().value
            term = self.parse_term(ring)
            acc = acc - term if op == "-" else acc + term
        return acc

    def parse_term(self, ring):
        acc = self.parse_factor(ring)
        while self.at("*") or self.at("/"):
            op = self.next().value
            tok = self.peek()
            rhs = self.parse_factor(ring)
            if op == "*":
                acc = acc * rhs
            else:
                if not rhs:
                    self.fail("division by zero", tok)
                if len(rhs.terms) != 1 or not rhs.terms[0][0].is_one:
                    self.fail("can only divide by a constant coefficient", tok)
                acc = acc.scale(ring.field.one / rhs.terms[0][1])
        return acc

    def parse_factor(self, ring):
        base = self.parse_atom(ring)
        if self.at("^"):
            self.next()
            tok = self.next()
            if tok.kind != "int":
                self.fail("expected an integer exponent", tok)
            e = int(tok.value)
            if len(base.terms) == 1 and e:
                # a single term c*m raises directly to c^e * m^e
                mono, coeff = base.terms[0]
                power = Monomial([(var, k * e) for var, k in mono.factors], mono.ordering)
                return ring.polynomial([(coeff ** e, power)])
            out = ring.one
            for _ in range(e):
                out = out * base
            return out
        return base

    def parse_atom(self, ring):
        tok = self.next()
        if tok.kind == "int":
            return ring.constant(int(tok.value))
        if tok.value == "(":
            inner = self.parse_expr(ring)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            name = tok.value
            try:
                symbol = ring.symbol_index(name)
            except KeyError:
                try:
                    return ring.constant(ring.field.parameter(name))
                except ParseError:
                    self.fail(f"unknown symbol {name!r}", tok)
            if not self.at("("):
                self.fail(f"symbol {name!r} needs a shift tuple", tok)
            self.next()
            shift = self.parse_shift_tuple(ring, tok)
            try:
                return ring.var(symbol, shift)
            except ShiftWidthError as exc:
                self.fail(str(exc), tok)
        self.fail(f"unexpected {tok.value!r}", tok)

    def parse_shift_tuple(self, ring, head):
        entries = []
        while True:
            tok = self.next()
            if tok.value == "-":
                inner = self.next()
                self.fail(f"negative shift entry -{inner.value}", tok)
            if tok.kind != "int":
                self.fail("expected a shift exponent", tok)
            entries.append(int(tok.value))
            tok = self.next()
            if tok.value == ")":
                break
            if tok.value != ",":
                self.fail("expected ',' or ')' in shift tuple", tok)
        if len(entries) != ring.signature.shift_rank:
            self.fail(
                f"shift tuple of arity {len(entries)} in a ring of rank "
                f"{ring.signature.shift_rank}", head)
        return tuple(entries)


def parse_problem(text) -> ProblemFile:
    return _Parser(text).parse_problem()


def parse_polynomial(ring, text):
    """Parse a single polynomial expression over an existing ring."""
    parser = _Parser(text)
    poly = parser.parse_expr(ring)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.column)
    return poly


# --- serialization --------------------------------------------------------


def format_ordering(ring) -> str:
    spec = ring.ordering.spec
    shift_prio = ring.ordering._shift_prio
    symbol_prio = ring.ordering._symbol_prio
    shift_names = ">".join(f"s{i + 1}" for i in shift_prio)
    symbol_names = ">".join(ring.signature.symbols[i] for i in symbol_prio)
    return (f"block(shifts={spec.shift_order}[{shift_names}], "
            f"symbols={spec.symbol_order}[{symbol_names}])")


def serialize_ring(ring) -> str:
    sig = ring.signature
    lines = ["ring {"]
    lines.append(f"  shifts: {sig.shift_rank};")
    lines.append(f"  symbols: {', '.join(sig.symbols)};")
    if sig.parameters:
        lines.append(f"  parameters: {', '.join(sig.parameters)};")
    lines.append(f"  order: {format_ordering(ring)};")
    lines.append("}")
    return "\n".join(lines)


def serialize_basis(ring, polynomials) -> str:
    lines = [serialize_ring(ring), "ideal {"]
    for f in polynomials:
        lines.append(f"  {format_polynomial(f)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- reports ---------------------------------------------------------------


@dataclass
class RunReport:
    command: str
    status: str
    exit_code: int
    config: dict
    fields: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    def to_json(self):
        return {
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "config": self.config,
            "wall_clock_seconds": self.wall_clock_seconds,
            "membership": None,
            **self.fields,
        }

    def to_text(self):
        lines = [f"status: {self.status}"]
        for key, value in self.fields.items():
            if key == "basis":
                lines.append(f"basis ({len(value)} elements):")
                lines.extend(f"  {p}" for p in value)
            elif key == "leading_monomials":
                lines.append("leading monomials: " + ", ".join(value))
            elif key == "membership":
                if value is not None:
                    lines.append(f"membership table: {value}")
            elif key == "stats":
                lines.append("pairs: " + ", ".join(f"{k}={v}" for k, v in value.items()))
            elif isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {v}" for v in value)
            else:
                lines.append(f"{key}: {value}")
        lines.append(f"wall clock: {self.wall_clock_seconds:.3f}s")
        return "\n".join(lines)


class _ArgumentParser(argparse.ArgumentParser):
    """Exit code 1 (not argparse's 2) on usage errors, per the convention
    that 2 is reserved for uncertified computational outcomes."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


class UsageError(DGBError):
    """Command-line misuse; mapped to exit code 1."""


def _build_arg_parser():
    parser = _ArgumentParser(prog="dgb", description=(
        "Groebner bases of ideals of partial difference polynomials"))
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("compute", help="complete an ideal basis")
    p.add_argument("--input", required=True)
    p.add_argument("--truncate", type=int, default=None, metavar="D",
                   help="bounded run: ignore pairs above order D")
    p.add_argument("--adaptive", action="store_true",
                   help="self-certifying run with an adapting order bound")
    p.add_argument("--no-chain", action="store_true", help="disable the chain criterion")
    p.add_argument("--minimal", action="store_true", help="minimalize the result")
    p.add_argument("--interreduce", action="store_true",
                   help="minimalize and tail-reduce the result")
    p.add_argument("--pair-budget", type=int, default=None, metavar="N")
    p.add_argument("--order-cap", type=int, default=None, metavar="D")
    p.add_argument("--stats", action="store_true", help="emit pair statistics")
    common(p)

    p = sub.add_parser("verify", help="check completeness of a basis")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("reduce", help="head-reduce a polynomial")
    p.add_argument("--input", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--certificate", action="store_true",
                   help="emit and replay the reduction certificate")
    common(p)

    p = sub.add_parser("symmetric", help="Groebner basis of a cyclic-group invariant ideal")
    p.add_argument("--perm", default=None, help='cycles, e.g. "(1 2 3 4 5 6 7 8)"')
    p.add_argument("--gens", required=True, help="problem file with the generators")
    p.add_argument("--classical", action="store_true",
                   help="also expand to the plain minimal basis of the finite ring")
    p.add_argument("--pair-budget", type=int, default=None, metavar="N")
    p.add_argument("--stats", action="store_true", help="emit pair statistics")
    common(p)

    p = sub.add_parser("normal-form", help="normal form modulo a monic linear relation family")
    p.add_argument("--input", required=True)
    p.add_argument("--var", required=True, help='variable reference, e.g. "u(2,0,1)"')
    common(p)

    return parser


def _load_problem(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _completion_options(args) -> CompletionOptions:
    """Options from the flags and DGB_PAIR_BUDGET, validated by the
    CompletionOptions constructor."""
    chosen = {"use_chain_criterion": not getattr(args, "no_chain", False)}
    budget = getattr(args, "pair_budget", None)
    env = os.environ.get("DGB_PAIR_BUDGET")
    if budget is None and env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"DGB_PAIR_BUDGET must be an integer, got {env!r}") from None
    if budget is not None:
        chosen["max_pair_budget"] = budget
    if getattr(args, "order_cap", None) is not None:
        chosen["max_order_cap"] = args.order_cap
    return CompletionOptions(**chosen)


def _basis_report(command, args, basis, config) -> RunReport:
    ring = basis.ring
    membership = None
    if basis.elements:
        table = pure_power_table(ring, [g.lm for g in basis.elements])
        if all(k is not None for row in table for k in row):
            membership = table
    fields = {
        "basis": [format_polynomial(g) for g in basis.elements],
        "leading_monomials": [format_monomial(g.lm, ring) for g in basis.elements],
        "membership": membership,
    }
    if getattr(args, "stats", False):
        fields["stats"] = basis.stats.as_dict()
    exit_code = 2 if basis.status.kind == "budget_exhausted" else 0
    return RunReport(command, str(basis.status), exit_code, config, fields)


def _cmd_compute(args) -> RunReport:
    problem = _load_problem(args.input)
    options = _completion_options(args)
    config = {
        "input": args.input,
        "order": format_ordering(problem.ring),
        "mode": "adaptive" if args.adaptive else (
            f"truncated({args.truncate})" if args.truncate is not None else "plain"),
        "chain_criterion": options.use_chain_criterion,
        "pair_budget": options.max_pair_budget,
        "minimal": args.minimal,
        "interreduce": args.interreduce,
    }
    if args.adaptive and args.truncate is not None:
        raise UsageError("dgb compute: --adaptive and --truncate are exclusive")
    if args.adaptive:
        basis = sigma_gbasis_adaptive(problem.polynomials, options)
    elif args.truncate is not None:
        basis = sigma_gbasis_truncated(problem.polynomials, args.truncate, options)
    else:
        basis = sigma_gbasis(problem.polynomials, options)
    if args.interreduce:
        basis = interreduce(basis)
    elif args.minimal:
        basis = minimalize(basis)
    return _basis_report("compute", args, basis, config)


def _cmd_verify(args) -> RunReport:
    problem = _load_problem(args.input)
    report = verify_sigma_gbasis(problem.polynomials)
    config = {"input": args.input, "order": format_ordering(problem.ring)}
    fields = {"checked_pairs": report.checked_pairs}
    if not report.ok:
        # the verifier numbers nonzero generators; report ideal-block positions
        positions = [k for k, g in enumerate(problem.polynomials) if g]
        fields["failures"] = [
            {
                "left_index": positions[i],
                "right_index": positions[j],
                "left_shift": list(si),
                "right_shift": list(sj),
                "remainder": format_polynomial(rem),
            }
            for i, j, si, sj, rem in report.failures
        ]
    return RunReport("verify", "verified" if report.ok else "not_a_basis",
                     0 if report.ok else 2, config, fields)


def _cmd_reduce(args) -> RunReport:
    problem = _load_problem(args.input)
    poly = parse_polynomial(problem.ring, args.poly)
    # certificates number nonzero generators; report ideal-block positions
    positions = [k for k, g in enumerate(problem.polynomials) if g]
    basis = [problem.polynomials[k] for k in positions]
    fields = {}
    if args.certificate:
        remainder, steps = head_reduce(poly, basis, certificate=True)
        replay = replay_certificate(remainder, steps, basis)
        fields["certificate"] = [
            {
                "basis_index": positions[index],
                "shift": list(shift),
                "cofactor": format_monomial(cofactor, problem.ring),
                "coefficient": problem.ring.field.format(coeff).body,
                "coefficient_negative": problem.ring.field.format(coeff).negative,
            }
            for coeff, cofactor, shift, index in steps
        ]
        fields["certificate_ok"] = replay == poly
    else:
        remainder = head_reduce(poly, basis)
    fields["remainder"] = format_polynomial(remainder)
    config = {"input": args.input, "poly": args.poly}
    return RunReport("reduce", "reduced", 0, config, fields)


def _cmd_symmetric(args) -> RunReport:
    problem = _load_problem(args.gens)
    if args.perm is not None:
        cycles = parse_cycles(args.perm)
    elif problem.permutation:
        cycles = problem.permutation
    else:
        raise UsageError("dgb symmetric: no permutation given (use --perm or a symmetric block)")
    if problem.ring.signature.shift_rank != 1:
        raise UsageError("dgb symmetric: the generators ring must have shift rank 1")
    action = PermutationAction(cycles, problem.ring)
    basis = groebner_gamma_basis(action, problem.polynomials, _completion_options(args))
    config = {
        "gens": args.gens,
        "perm": str(action),
        "order": format_ordering(problem.ring),
    }
    report = _basis_report("symmetric", args, basis, config)
    if args.classical:
        classical = expand_classical_basis(action, basis.elements)
        report.fields["classical_basis"] = [format_polynomial(g) for g in classical]
        report.fields["classical_count"] = len(classical)
    return report


def _cmd_normal_form(args) -> RunReport:
    problem = _load_problem(args.input)
    ring = problem.ring
    presentation = _presentation_from_polynomials(ring, problem.polynomials)
    target = parse_polynomial(ring, args.var)
    if len(target.terms) != 1 or target.lc != ring.field.one \
            or len(target.lm.factors) != 1 or target.lm.factors[0][1] != 1:
        raise UsageError("dgb normal-form: --var must be a single variable")
    var = target.lm.decoded()[0][0]
    nf = presentation.normal_form_variable(var)
    config = {"input": args.input, "var": args.var}
    fields = {"normal_form": format_polynomial(nf),
              "normal_variables": presentation.dimension}
    return RunReport("normal-form", "ok", 0, config, fields)


def _presentation_from_polynomials(ring, polynomials) -> QuotientPresentation:
    relations = []
    for f in polynomials:
        rel = LinearRelation.from_polynomial(f)
        if rel is None:
            raise UsageError(
                f"dgb normal-form: {format_polynomial(f)} is not a monic linear "
                "relation in the pure powers of one shift operator")
        relations.append(rel)
    try:
        return QuotientPresentation(ring, relations)
    except ValueError as exc:
        raise UsageError(f"dgb normal-form: {exc}") from None


def run(argv) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 0
    handlers = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "reduce": _cmd_reduce,
        "symmetric": _cmd_symmetric,
        "normal-form": _cmd_normal_form,
    }
    started = time.monotonic()
    try:
        report = handlers[args.command](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, DGBError, ValueError) as exc:
        print(f"dgb: {exc}", file=sys.stderr)
        return 1
    report.wall_clock_seconds = time.monotonic() - started
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return report.exit_code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
