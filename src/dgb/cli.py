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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .completion import (CompletionOptions, interreduce, minimalize,
                         sigma_gbasis, sigma_gbasis_adaptive,
                         sigma_gbasis_truncated, verify_sigma_gbasis)
from .errors import DGBError, ParseError
from .orderings import _ORDER_NAMES, OrderingSpec
from .quotient import (LinearRelation, PermutationAction, QuotientPresentation,
                       expand_classical_basis, groebner_gamma_basis,
                       parse_cycles, pure_power_table)
from .reduction import reduce as head_reduce
from .reduction import replay_certificate
from .ring import (DifferenceRing, Monomial, Signature, format_monomial,
                   format_polynomial)

_PUNCT = set("{}()[]=,;:^*/+->")


# --- tokenizer -----------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    value: str
    line: int
    column: int


def tokenize(text):
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
        if c in _PUNCT:
            tokens.append(Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
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

    def at(self, value):
        return self.peek().value == value

    # --- problem structure ---------------------------------------------

    def parse_problem(self):
        ring = None
        polynomials = []
        permutation = None
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.value == "ring":
                if ring is not None:
                    self.fail("duplicate ring block", tok)
                ring = self.parse_ring_block()
            elif tok.value == "ideal":
                if ring is None:
                    self.fail("ideal block before ring block", tok)
                polynomials.extend(self.parse_poly_block(ring))
            elif tok.value == "symmetric":
                if ring is None:
                    self.fail("symmetric block before ring block", tok)
                perm = self.parse_symmetric_block()
                if perm is not None:
                    permutation = perm
            else:
                self.fail(f"unknown section {tok.value!r}", tok)
        if ring is None:
            raise ParseError("problem file has no ring block")
        return ProblemFile(ring, polynomials, permutation)

    def parse_ring_block(self):
        self.expect("{")
        shifts = None
        symbols = None
        parameters = ()
        order_parts = None
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
                order_parts = self.parse_order_spec()
            else:
                self.fail(f"unknown ring item {tok.value!r}", tok)
            self.expect(";")
        self.expect("}")
        if shifts is None:
            raise ParseError("ring block is missing 'shifts'")
        if symbols is None:
            raise ParseError("ring block is missing 'symbols'")
        try:
            signature = Signature(shifts, symbols, parameters)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        spec = self.resolve_order_spec(order_parts, signature)
        return DifferenceRing(signature, spec)

    def parse_ident_list(self, allow_empty=False):
        names = []
        if allow_empty and self.at(";"):
            return names
        while True:
            tok = self.next()
            if tok.kind != "ident":
                self.fail("expected an identifier", tok)
            names.append(tok.value)
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
        names = [self.next().value]
        while self.at(">"):
            self.next()
            names.append(self.next().value)
        self.expect("]")
        return tok.value, names

    def resolve_order_spec(self, parts, signature):
        if parts is None:
            return OrderingSpec()
        shift_name, shift_names, symbol_name, symbol_names = parts
        expected = [f"s{i + 1}" for i in range(signature.shift_rank)]
        if sorted(shift_names) != sorted(expected):
            raise ParseError(
                f"shift priority must name {', '.join(expected)} exactly once each")
        shift_prio = tuple(int(name[1:]) - 1 for name in shift_names)
        if sorted(symbol_names) != sorted(signature.symbols):
            raise ParseError(
                "symbol priority must name every declared symbol exactly once")
        symbol_prio = tuple(signature.symbols.index(name) for name in symbol_names)
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
                power = Monomial(tuple((var, k * e) for var, k in mono.factors))
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
            if name in ring.signature.symbols:
                if not self.at("("):
                    self.fail(f"symbol {name!r} needs a shift tuple", tok)
                self.next()
                shift = self.parse_shift_tuple(ring, tok)
                return ring.var(name, shift)
            if name in ring.signature.parameters:
                return ring.constant(ring.field.parameter(name))
            self.fail(f"unknown symbol {name!r}", tok)
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
    basis: list = None
    leading_monomials: list = None
    stats: dict = None
    membership: list = None
    wall_clock_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "config": self.config,
            "wall_clock_seconds": self.wall_clock_seconds,
        }
        if self.basis is not None:
            out["basis"] = self.basis
        if self.leading_monomials is not None:
            out["leading_monomials"] = self.leading_monomials
        if self.stats is not None:
            out["stats"] = self.stats
        out["membership"] = self.membership
        out.update(self.details)
        return out

    def to_text(self):
        lines = [f"status: {self.status}"]
        if self.basis is not None:
            lines.append(f"basis ({len(self.basis)} elements):")
            lines.extend(f"  {p}" for p in self.basis)
        if self.leading_monomials is not None:
            lines.append("leading monomials: " + ", ".join(self.leading_monomials))
        if self.membership is not None:
            lines.append(f"membership table: {self.membership}")
        if self.stats is not None:
            pairs = ", ".join(f"{k}={v}" for k, v in self.stats.items())
            lines.append(f"pairs: {pairs}")
        for key, value in self.details.items():
            if isinstance(value, list):
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
        budget = int(env)
    if budget is not None:
        chosen["max_pair_budget"] = budget
    if getattr(args, "order_cap", None) is not None:
        chosen["max_order_cap"] = args.order_cap
    return CompletionOptions(**chosen)


def _basis_report(command, args, basis, config) -> RunReport:
    ring = basis.ring
    elements = [format_polynomial(g) for g in basis.elements]
    lms = [format_monomial(g.lm, ring) for g in basis.elements]
    membership = None
    if basis.elements:
        table = pure_power_table(ring, [g.lm for g in basis.elements])
        if all(k is not None for row in table for k in row):
            membership = table
    status = str(basis.status)
    exit_code = 2 if basis.status.kind == "budget_exhausted" else 0
    stats = basis.stats.as_dict() if getattr(args, "stats", False) else None
    return RunReport(command, status, exit_code, config, elements, lms, stats,
                     membership)


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
    details = {"checked_pairs": report.checked_pairs}
    if not report.ok:
        ring = problem.ring
        details["failures"] = [
            {
                "left_index": i,
                "right_index": j,
                "left_shift": list(si),
                "right_shift": list(sj),
                "remainder": format_polynomial(rem),
            }
            for i, j, si, sj, rem in report.failures
        ]
    return RunReport("verify", "verified" if report.ok else "not_a_basis",
                     0 if report.ok else 2, config, details=details)


def _cmd_reduce(args) -> RunReport:
    problem = _load_problem(args.input)
    poly = parse_polynomial(problem.ring, args.poly)
    basis = [g for g in problem.polynomials if g]
    details = {}
    if args.certificate:
        remainder, steps = head_reduce(poly, basis, certificate=True)
        replay = replay_certificate(remainder, steps, basis)
        details["certificate"] = [
            {
                "basis_index": index,
                "shift": list(shift),
                "cofactor": format_monomial(cofactor, problem.ring),
                "coefficient": problem.ring.field.format(coeff).body,
                "coefficient_negative": problem.ring.field.format(coeff).negative,
            }
            for coeff, cofactor, shift, index in steps
        ]
        details["certificate_ok"] = replay == poly
    else:
        remainder = head_reduce(poly, basis)
    details["remainder"] = format_polynomial(remainder)
    config = {"input": args.input, "poly": args.poly}
    return RunReport("reduce", "reduced", 0, config, details=details)


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
    action = PermutationAction(
        cycles, symbols=problem.ring.signature.symbols,
        parameters=problem.ring.signature.parameters)
    lifted = [_transplant(g, action.ring) for g in problem.polynomials]
    options = _completion_options(args)
    basis = groebner_gamma_basis(action, lifted, options)
    config = {
        "gens": args.gens,
        "perm": "".join("(" + " ".join(map(str, c)) + ")" for c in action.cycles),
        "order": format_ordering(action.ring),
    }
    report = _basis_report("symmetric", args, basis, config)
    if args.classical:
        classical = expand_classical_basis(action, basis.elements)
        report.details["classical_basis"] = [format_polynomial(g) for g in classical]
        report.details["classical_count"] = len(classical)
    return report


def _transplant(poly, ring):
    """Rebuild a polynomial over an equal-signature ring (the symmetric
    driver fixes its own ordering, so only signatures must agree)."""
    if poly.ring.signature != ring.signature:
        raise UsageError("dgb symmetric: generators ring does not match the permutation")
    return ring.polynomial((c, m) for m, c in poly.terms)


def _cmd_normal_form(args) -> RunReport:
    problem = _load_problem(args.input)
    ring = problem.ring
    presentation = _presentation_from_polynomials(ring, problem.polynomials)
    target = parse_polynomial(ring, args.var)
    if len(target.terms) != 1 or target.lc != ring.field.one \
            or len(target.lm.factors) != 1 or target.lm.factors[0][1] != 1:
        raise UsageError("dgb normal-form: --var must be a single variable")
    var = target.lm.factors[0][0]
    nf = presentation.normal_form_variable(var)
    config = {"input": args.input, "var": args.var}
    details = {"normal_form": format_polynomial(nf),
               "normal_variables": presentation.dimension}
    return RunReport("normal-form", "ok", 0, config, details=details)


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
    except (FileNotFoundError, DGBError, ValueError) as exc:
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
