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

The ring block needs `shifts` and `symbols`; `parameters` and `order` are
optional.  The symmetric block holds `perm: CYCLES;`, with CYCLES in the
cycle notation of `--perm`, e.g. `(1 2 3)(4 5)`; points not named are
fixed.  An item may appear at most once in its block, and a block at most
once in a file.  `dgb symmetric` computes in the file's ring, under its
order.

Each completion setting has one flag: `--no-chain`, `--pair-budget` and,
for `--adaptive` runs only, `--order-cap`.  The flags become the keywords
of the library driver, which validates them.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from typing import NamedTuple

from .completion import (CompletionOptions, interreduce, minimalize,
                         sigma_gbasis, sigma_gbasis_adaptive,
                         sigma_gbasis_truncated, verify_sigma_gbasis)
from .errors import DGBError, ParseError, ShiftWidthError
from .orderings import _ORDER_NAMES, OrderingSpec
from .quotient import (LinearRelation, PermutationAction, QuotientPresentation,
                       expand_classical_basis, groebner_gamma_basis,
                       parse_cycles, pure_power_table)
from .records import Factory, Record
from .reduction import reduce as head_reduce
from .reduction import replay_certificate
from .ring import (DifferenceRing, Signature, _add, _polynomial, _power, _product,
                   format_monomial, format_polynomial)

_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|(?P<int>\d+)|(?P<ident>[^\W\d]\w*)"
                    r"|(?P<punct>[{}()\[\]=,;:^*/+\->])")

MAX_NESTING = 240  # how deep parentheses may nest in one expression
# The largest work bound e * C(e + t - 1, t - 1) of a power of a t-term base,
# t >= 2, that the parser expands: e products, none with more terms than the
# C(e + t - 1, t - 1) monomials of degree e in t variables.
MAX_POWER_WORK = 30_000


# --- tokenizer -----------------------------------------------------------


class Token(NamedTuple):
    kind: str  # ident | int | punct | eof
    value: str
    line: int
    column: int


# 0 (no limit) where Python has no limit on converting a digit string to int
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _scan(text):
    """The tokens of text in one pass, as parallel lists of kinds, values
    and offsets, closed by an eof token at the end of the text; blanks and
    comments are skipped.  A character no token matches is an error, and so
    is an integer literal longer than Python converts (see
    sys.get_int_max_str_digits), so that every int() of a token succeeds."""
    kinds, values, offsets = [], [], []
    end = 0
    digits = _int_max_str_digits() or len(text)
    for match in _TOKEN.finditer(text):
        start = match.start()
        if start != end:
            break
        end = match.end()
        kind = match.lastgroup
        if kind:
            if kind == "int" and end - start > digits:
                raise _error(text, f"integer literal of {end - start} digits exceeds "
                                   f"the limit of {digits} digits", start)
            kinds.append(kind)
            values.append(match.group())
            offsets.append(start)
    if end < len(text):
        raise _error(text, f"unexpected character {text[end]!r}", end)
    kinds.append("eof")
    values.append("")
    offsets.append(end)
    return kinds, values, offsets


def _error(text, message, offset):
    """A ParseError at an offset of text; line and column count from 1."""
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, text.count("\n", 0, offset) + 1, column)


def tokenize(text):
    """The tokens of text with their lines and columns, ending with eof."""
    kinds, values, offsets = _scan(text)
    tokens = []
    line, line_start, last = 1, 0, 0
    for kind, value, offset in zip(kinds, values, offsets):
        newlines = text.count("\n", last, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, offset) + 1
        last = offset
        tokens.append(Token(kind, value, line, offset - line_start + 1))
    return tokens


# --- parser --------------------------------------------------------------


class ProblemFile(Record):
    ring: DifferenceRing
    polynomials: list
    permutation: tuple = None  # tuple of cycles, 1-based points


class _Tok(NamedTuple):
    kind: str
    value: str
    offset: int


class _Parser:
    """A parser over the tokens of one text, kept as parallel lists of kinds,
    values and offsets.  The block layer reads them as `_Tok`s through
    peek/next; the expression layer walks the lists itself."""

    def __init__(self, text):
        self.text = text
        self.kinds, self.values, self.offsets = _scan(text)
        self.pos = 0

    def peek(self, i=None):
        """The token at index i, by default the next one."""
        i = self.pos if i is None else i
        return _Tok(self.kinds[i], self.values[i], self.offsets[i])

    def next(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        raise _error(self.text, message, (tok or self.peek()).offset)

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
        return self.values[self.pos] == value

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

    def parse_items(self, block, readers):
        """The items `name: value;` of a block in braces, as ({name: (name
        token, value)}, closing brace): readers[name] reads the value, and
        an error it raises without a position is placed at the name.  An
        item may appear once."""
        self.expect("{")
        items = {}
        while not self.at("}"):
            tok = self.next()
            if tok.value not in readers:
                self.fail(f"unknown {block} item {tok.value!r}", tok)
            if tok.value in items:
                self.fail(f"duplicate {tok.value} item", tok)
            self.expect(":")
            try:
                items[tok.value] = (tok, readers[tok.value]())
            except ParseError as exc:
                if exc.line is not None:
                    raise
                raise _error(self.text, exc.message, tok.offset) from None
            self.expect(";")
        return items, self.expect("}")

    def parse_ring_block(self, ring_tok):
        items, close = self.parse_items("ring", {
            "shifts": self.parse_rank,
            "symbols": self.parse_ident_list,
            "parameters": lambda: [] if self.at(";") else self.parse_ident_list(),
            "order": self.parse_order_spec,
        })
        for name in ("shifts", "symbols"):
            if name not in items:
                self.fail(f"ring block is missing {name!r}", close)
        values = {name: value for name, (_, value) in items.items()}
        try:
            signature = Signature(values["shifts"], values["symbols"],
                                  values.get("parameters", ()))
        except ValueError as exc:
            self.fail(str(exc), ring_tok)
        spec = self.resolve_order_spec(items.get("order"), signature)
        return DifferenceRing(signature, spec)

    def parse_rank(self):
        rank = self.next()
        if rank.kind != "int":
            self.fail("expected an integer shift rank", rank)
        return int(rank.value)

    def parse_ident_list(self):
        names = []
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
        shift_prio = tuple(map(expected.index, shift_names))
        if sorted(symbol_names) != sorted(signature.symbols):
            self.fail("symbol priority must name every declared symbol exactly once", tok)
        index = {name: i for i, name in enumerate(signature.symbols)}
        symbol_prio = tuple(index[name] for name in symbol_names)
        return OrderingSpec(shift_name, shift_prio, symbol_name, symbol_prio)

    def parse_poly_block(self, ring):
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(_polynomial(ring, self.parse_terms(ring)))
            self.expect(";")
        self.expect("}")
        return out

    def parse_symmetric_block(self):
        items, _ = self.parse_items("symmetric", {"perm": self.parse_perm})
        return items["perm"][1] if "perm" in items else None

    def parse_perm(self):
        text = []
        while not self.at(";") and self.peek().kind != "eof":
            text.append(self.next().value)
        return tuple(parse_cycles(" ".join(text)))

    # --- polynomial expressions ------------------------------------------
    #
    #   expr   := ['+' | '-'] term (('+' | '-') term)*
    #   term   := factor (('*' | '/') factor)*
    #   factor := atom ['^' int]
    #   atom   := int | parameter | symbol '(' int (',' int)* ')' | '(' expr ')'
    #
    # An expression evaluates to a term dict: packed factor tuple (the form
    # of Monomial.factors) -> nonzero coefficient, added, multiplied and
    # raised by ring.py's term-dict kernel.  Each value is a fresh dict that
    # its reader owns, so a sum adds into it in place.

    def parse_terms(self, ring):
        """The expression at the current token, as a term dict.  One loop
        reads it left to right; an open parenthesis saves the state of the
        enclosing expression on a stack of at most MAX_NESTING entries."""
        kinds, values = self.kinds, self.values
        stack = []
        i = self.pos
        # no exponent reaches tokens * (product of ^ literals): check once those pass `room` digits
        digits = _int_max_str_digits()
        room, spent = digits - len(str(len(values))) if digits else math.inf, 0
        # op is '*' or '/' before the factor that starts at token rhs
        total, term, op, rhs = {}, None, None, 0
        minus = values[i] == "-"  # the term being read is subtracted
        if minus or values[i] == "+":
            i += 1
        while True:
            value, kind = values[i], kinds[i]
            if value == "(":
                if len(stack) == MAX_NESTING:
                    self.fail(f"parentheses nested more than {MAX_NESTING} deep", self.peek(i))
                stack.append((total, term, op, rhs, minus))
                i += 1
                total, term, op = {}, None, None
                minus = values[i] == "-"
                if minus or values[i] == "+":
                    i += 1
                continue
            if kind == "int":
                c = int(value)
                value = {(): c} if c else {}
                i += 1
            elif kind == "ident":
                value, i = self._name(ring, i)
            else:
                self.fail(f"unexpected {value!r}" if value else "unexpected end of input",
                          self.peek(i))
            while True:  # value is an atom, or a parenthesized expression
                if values[i] == "^":
                    i += 1
                    if kinds[i] != "int":
                        self.fail("expected an integer exponent", self.peek(i))
                    # each coefficient counts its longer part's terms, as
                    # the power expands the numerators and denominators
                    e, t = int(values[i]), sum(map(ring.field.term_count, value.values()))
                    one_term = len(value) == 1
                    if one_term:
                        (c,) = value.values()
                    if t > 1 and (e * t > MAX_POWER_WORK  # e * t is at most the bound
                                  or e * math.comb(e + t - 1, t - 1) > MAX_POWER_WORK):
                        self.fail(f"power ^{e} of a {t}-term base is too large to expand",
                                  self.peek(i - 1))
                    # no coefficient of the power may pass the int-to-text
                    # limit; that of c**e is judged before it is computed
                    if digits and one_term and ring.field.power_digits_exceed(c, e, digits):
                        self._power_too_long(e, digits, i - 1)
                    value = _power(ring, value, e)
                    if digits and not one_term and any(
                            ring.field.digits_exceed(c, digits) for c in value.values()):
                        self._power_too_long(e, digits, i - 1)
                    spent += len(values[i])
                    if spent > room:
                        self._check_exponents(ring, value, digits, "power", i - 1)
                    i += 1
                if op is None:
                    term = value
                elif op == "*":
                    term = _product(term, value)
                else:
                    term = self._quotient(ring, term, value, rhs)
                if op and spent > room:
                    self._check_exponents(ring, term, digits,
                                          "product" if op == "*" else "quotient", rhs - 1)
                sep = values[i]
                if sep == "*" or sep == "/":
                    op = sep
                    i += 1
                    rhs = i
                    break
                _add(total, term, minus)
                if sep == "+" or sep == "-":
                    minus = sep == "-"
                    term = op = None
                    i += 1
                    break
                if not stack:
                    self.pos = i
                    return total
                if sep != ")":
                    found = repr(sep) if sep else "end of input"
                    self.fail(f"expected ')', found {found}", self.peek(i))
                i += 1
                value = total
                total, term, op, rhs, minus = stack.pop()

    def _power_too_long(self, e, digits, at):
        self.fail(f"power ^{e} gives a coefficient of more than {digits} digits",
                  self.peek(at))

    def _check_exponents(self, ring, terms, digits, what, at):
        limit = 10 ** digits
        if any(k >= limit for f in terms for _, k in f) or any(
                ring.field.exponent_exceeds(c, limit) for c in terms.values()):
            self.fail(f"{what} gives an exponent of more than {digits} digits", self.peek(at))

    def _name(self, ring, i):
        """(term dict, next index) of the symbol or parameter at token i."""
        name = self.values[i]
        try:
            symbol = ring.symbol_index(name)
        except KeyError:
            try:
                value = ring.field.parameter(name)
            except KeyError:
                self.fail(f"unknown symbol {name!r}", self.peek(i))
            if self.values[i + 1] == "(":
                self.fail(f"parameter {name!r} takes no shift tuple", self.peek(i))
            return {(): value}, i + 1
        if self.values[i + 1] != "(":
            self.fail(f"symbol {name!r} needs a shift tuple", self.peek(i))
        shift, end = self._shift_tuple(ring, i)
        try:
            var = ring.ordering.variable(symbol, shift)
        except ShiftWidthError as exc:
            self.fail(str(exc), self.peek(i))
        return {((var, 1),): ring.field.one}, end

    def _shift_tuple(self, ring, head):
        """(shift, next index) of the tuple after the symbol at token head."""
        kinds, values = self.kinds, self.values
        entries = []
        i = head + 2
        while True:
            if values[i] == "-":
                self.fail(f"negative shift entry -{values[i + 1]}", self.peek(i))
            if kinds[i] != "int":
                self.fail("expected a shift exponent", self.peek(i))
            entries.append(int(values[i]))
            sep = values[i + 1]
            i += 2
            if sep == ")":
                break
            if sep != ",":
                self.fail("expected ',' or ')' in shift tuple", self.peek(i - 1))
        rank = ring.signature.shift_rank
        if len(entries) != rank:
            self.fail(f"shift tuple of arity {len(entries)} in a ring of rank {rank}",
                      self.peek(head))
        return tuple(entries), i

    def _quotient(self, ring, term, divisor, at):
        """term / divisor, which must be a nonzero constant; a divisor that
        is not is an error at token at, where it starts."""
        if not divisor:
            self.fail("division by zero", self.peek(at))
        if len(divisor) != 1 or () not in divisor:
            self.fail("can only divide by a constant coefficient", self.peek(at))
        quotient, d = ring.field.quotient, divisor[()]
        return {f: quotient(c, d) for f, c in term.items()}


def parse_problem(text) -> ProblemFile:
    return _Parser(text).parse_problem()


def parse_polynomial(ring, text):
    """Parse a single polynomial expression over an existing ring."""
    parser = _Parser(text)
    poly = _polynomial(ring, parser.parse_terms(ring))
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input {tok.value!r}", tok)
    return poly


# --- serialization --------------------------------------------------------


def format_ordering(ring) -> str:
    spec = ring.ordering.spec
    shift_names = ">".join(f"s{i + 1}" for i in spec.shift_priority)
    symbol_names = ">".join(ring.signature.symbols[i] for i in spec.symbol_priority)
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


class RunReport(Record):
    command: str
    status: str
    exit_code: int
    config: dict
    fields: dict = Factory(dict)
    wall_clock_seconds: float = 0.0

    def to_json(self):
        report = self.as_dict()
        fields = report.pop("fields")
        return {**report, "membership": None, **fields}

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
    p.add_argument("--pair-budget", type=int, metavar="N",
                   default=CompletionOptions.max_pair_budget)
    p.add_argument("--order-cap", type=int, default=None, metavar="D",
                   help="with --adaptive: stop once the order bound would exceed D")
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
    p.add_argument("--pair-budget", type=int, metavar="N",
                   default=CompletionOptions.max_pair_budget)
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


def _limits(args) -> dict:
    """The completion keywords from the flags; the driver they go to
    validates them."""
    limits = {"use_chain_criterion": not getattr(args, "no_chain", False),
              "max_pair_budget": args.pair_budget}
    if getattr(args, "order_cap", None) is not None:
        limits["max_order_cap"] = args.order_cap
    return limits


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
    limits = _limits(args)
    config = {
        "input": args.input,
        "order": format_ordering(problem.ring),
        "mode": "adaptive" if args.adaptive else (
            f"truncated({args.truncate})" if args.truncate is not None else "plain"),
        "chain_criterion": limits["use_chain_criterion"],
        "pair_budget": limits["max_pair_budget"],
        "minimal": args.minimal,
        "interreduce": args.interreduce,
    }
    if args.adaptive and args.truncate is not None:
        raise UsageError("dgb compute: --adaptive and --truncate are exclusive")
    if args.order_cap is not None and not args.adaptive:
        raise UsageError("dgb compute: --order-cap needs --adaptive")
    if args.adaptive:
        basis = sigma_gbasis_adaptive(problem.polynomials, **limits)
    elif args.truncate is not None:
        basis = sigma_gbasis_truncated(problem.polynomials, args.truncate, **limits)
    else:
        basis = sigma_gbasis(problem.polynomials, **limits)
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
    basis = groebner_gamma_basis(action, problem.polynomials, **_limits(args))
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
