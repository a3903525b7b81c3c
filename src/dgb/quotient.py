"""Noetherian quotients by monic linear relations and cyclic symmetries.

A relation family assigns to every (symbol, shift operator) pair a monic
linear polynomial in the pure powers of that operator applied to that
symbol.  Such a family is automatically a complete basis; the quotient is
a finitely generated polynomial algebra whose variables are the finite
staircase left under the relation leading monomials.  Normal forms can be
computed two independent ways: by reduction, and through the action of
companion matrices combined with Kronecker products.  Cyclic permutation
symmetries are the special case where every companion polynomial is
s^d - 1; ideals invariant under such a group are completed by adjoining
the cycle relations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product

from .completion import SigmaBasis, minimalize, sigma_gbasis
from .errors import (InternalCheckError, ParseError, RingMismatchError,
                     StaircaseError)
from .orderings import DEGLEX, OrderingSpec, VarRef
from .reduction import ReducerBasis, reduce_full, tail_reduce
from .ring import DifferenceRing, Polynomial, Signature


@dataclass(frozen=True)
class LinearRelation:
    """A monic linear rewrite rule for one symbol along one shift operator:
    coefficients (c_0, ..., c_d) with c_d = 1 encode the polynomial
    sum_k c_k * symbol(op^k), whose leading monomial is symbol(op^d)."""

    symbol_index: int
    shift_index: int
    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a relation needs at least the top coefficient")
        if self.coefficients[-1] != 1:
            raise ValueError("relation must be monic in its top power")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def polynomial(self, ring: DifferenceRing) -> Polynomial:
        r = ring.signature.shift_rank
        pairs = []
        for k, c in enumerate(self.coefficients):
            shift = tuple(k if j == self.shift_index else 0 for j in range(r))
            pairs.append((ring.field.coerce(c), ring.monomial([(self.symbol_index, shift, 1)])))
        return ring.polynomial(pairs)

    @classmethod
    def from_polynomial(cls, f):
        """The relation whose polynomial is f made monic, or None when f is
        not a combination of pure powers of one symbol along one operator."""
        powers = [_pure_power(m) for m, _ in f.terms]
        if not f or None in powers:
            return None
        symbols = {sym for sym, _, _ in powers}
        operators = {j for _, j, _ in powers if j is not None}
        if len(symbols) > 1 or len(operators) > 1:
            return None
        by_power = {k: c for (_, _, k), (_, c) in zip(powers, f.monic().terms)}
        zero = f.ring.field.zero
        coefficients = tuple(by_power.get(k, zero) for k in range(max(by_power) + 1))
        return cls(symbols.pop(), min(operators, default=0), coefficients)


def _pure_power(m):
    """(symbol, operator, k) when the monomial is the variable
    symbol(op^k) with exponent one, else None.  The unshifted variable is
    a pure power of every operator and gives (symbol, None, 0)."""
    if len(m.factors) != 1 or m.factors[0][1] != 1:
        return None
    (sym, shift), _ = m.decoded()[0]
    support = [j for j, a in enumerate(shift) if a]
    if not support:
        return sym, None, 0
    if len(support) == 1:
        return sym, support[0], shift[support[0]]
    return None


def pure_power_table(ring, monomials):
    """The Noetherian criterion: entry [i][j] is the least k such that
    symbol_i(op_j^k) is reachable from one of the monomials under the shift
    action, None when no such k exists.  The quotient by the shift-closed
    ideal of the monomials has finitely many variables exactly when no
    entry is None.
    """
    r = ring.signature.shift_rank
    table = [[None] * r for _ in ring.signature.symbols]
    for m in monomials:
        power = _pure_power(m)
        if power is None:
            continue
        sym, j, k = power
        if j is None:
            table[sym] = [0] * r
        elif table[sym][j] is None or k < table[sym][j]:
            table[sym][j] = k
    return table


def normal_variables(ring, lm_generators):
    """The finite set of variables outside the shift-closed monomial ideal
    of the given leading monomials, or None when that set is infinite.

    Only variable generators matter: a variable is divisible by a shifted
    monomial exactly when that monomial is itself a single variable with
    exponent one and a componentwise smaller shift.
    """
    lm_generators = list(lm_generators)
    table = pure_power_table(ring, lm_generators)
    if any(k is None for row in table for k in row):
        return None
    variables = [m.decoded()[0][0] for m in lm_generators
                 if len(m.factors) == 1 and m.factors[0][1] == 1]
    out = []
    for i, bounds in enumerate(table):
        betas = [beta for sym, beta in variables if sym == i]
        for omega in product(*(range(b) for b in bounds)):
            if not any(all(a <= w for a, w in zip(beta, omega)) for beta in betas):
                out.append(VarRef(i, omega))
    return out


class QuotientPresentation:
    """A full matrix of monic linear relations, one per (symbol, operator)."""

    def __init__(self, ring: DifferenceRing, relations):
        symbols = ring.signature.symbols
        n, r = len(symbols), ring.signature.shift_rank
        matrix = {}
        for rel in relations:
            key = (rel.symbol_index, rel.shift_index)
            if not (0 <= rel.symbol_index < n and 0 <= rel.shift_index < r):
                raise ValueError(f"relation indices {key} out of range")
            if key in matrix:
                raise ValueError(f"duplicate relation for {symbols[key[0]]} along s{key[1] + 1}")
            matrix[key] = rel
        missing = [f"{symbols[i]} along s{j + 1}"
                   for i in range(n) for j in range(r) if (i, j) not in matrix]
        if missing:
            raise ValueError(f"missing relations for {', '.join(missing)}")
        self.ring = ring
        self.relations = matrix
        self.relation_polynomials = [matrix[key].polynomial(ring) for key in sorted(matrix)]
        self.reducer = ReducerBasis(self.relation_polynomials)

    @property
    def dimension(self):
        lms = [p.lm for p in self.relation_polynomials]
        return sum(map(math.prod, pure_power_table(self.ring, lms)))

    def _companion_power_basis(self, i, j, k):
        """The vector of the k-th companion power applied to the first
        basis vector, i.e. the coordinates of symbol_i(op_j^k)."""
        field = self.ring.field
        rel = self.relations[(i, j)]
        d = rel.degree
        if d == 0:
            return []
        coeffs = [field.coerce(c) for c in rel.coefficients]
        vec = [field.one] + [field.zero] * (d - 1)
        for _ in range(k):  # one application of the companion matrix
            top = vec[-1]
            vec = [a - c * top for a, c in zip([field.zero] + vec[:-1], coeffs)]
        return vec

    def normal_form_companion(self, var):
        """Normal form of a variable through the Kronecker product of
        companion-matrix powers; a relation of degree 0 leaves no basis
        vector, so the product, and the normal form, is empty."""
        i, shift = var
        ring = self.ring
        vectors = [self._companion_power_basis(i, j, k) for j, k in enumerate(shift)]
        pairs = []
        for combo in product(*(range(len(v)) for v in vectors)):
            coeff = ring.field.one
            for v, t in zip(vectors, combo):
                coeff = coeff * v[t]
            if coeff:
                pairs.append((coeff, ring.monomial([(i, combo, 1)])))
        return ring.polynomial(pairs)

    def normal_form_reduction(self, var):
        """Normal form of a variable by reduction against the relations."""
        i, shift = var
        return tail_reduce(self.ring.var(i, shift), self.reducer)

    def normal_form_variable(self, var):
        """Normal form of a variable, computed along both routes; the two
        must agree and the common value is returned."""
        by_reduction = self.normal_form_reduction(var)
        by_companion = self.normal_form_companion(var)
        if by_reduction != by_companion:
            raise InternalCheckError(
                f"normal form mismatch for {var}: reduction gave "
                f"{by_reduction}, companion action gave {by_companion}")
        return by_reduction


_CYCLE_TEXT = re.compile(r"\(([^()]*)\)")


class PermutationAction:
    """A permutation of 1..degree acting on a finite polynomial ring.

    Cycles are listed by increasing smallest point; points below the
    largest named one are fixed when not named, and later fixed points are
    written as one-cycles, as in "(1 2)(3)".  Cycle i is carried by symbol
    i of the rank-one ring given (by default x, or x1..xn, under a deglex
    shift and lex symbol order), with the cycle relation
    symbol_i(s^d_i) - symbol_i(0) closing it; the relations and their
    reducer are built once, with the action.
    """

    def __init__(self, cycles, ring=None):
        if isinstance(cycles, str):
            cycles = parse_cycles(cycles)
        cycles = [tuple(int(p) for p in c) for c in cycles]
        seen = set()
        for c in cycles:
            if not c:
                raise ValueError("empty cycle in permutation")
            for p in c:
                if p < 1:
                    raise ValueError("cycle points are 1-based positive integers")
                if p in seen:
                    raise ValueError(f"point {p} appears in two cycles")
                seen.add(p)
        self.degree = max(seen, default=0)
        fixed = [(p,) for p in range(1, self.degree + 1) if p not in seen]
        # rotate each cycle to start at its smallest point, then sort
        cycles = [c[c.index(min(c)):] + c[:c.index(min(c))] for c in cycles + fixed]
        cycles.sort(key=lambda c: c[0])
        self.cycles = tuple(cycles)
        self.cycle_lengths = tuple(len(c) for c in self.cycles)
        n = len(self.cycles)
        if ring is None:
            symbols = ("x",) if n == 1 else tuple(f"x{i + 1}" for i in range(n))
            ring = DifferenceRing(Signature(1, symbols), OrderingSpec(DEGLEX))
        elif ring.signature.shift_rank != 1:
            raise ValueError("a permutation acts on a ring of shift rank 1")
        elif len(ring.signature.symbols) != n:
            raise ValueError(
                f"the permutation needs {n} symbols, one per cycle (fixed "
                f"points included), but {len(ring.signature.symbols)} were given")
        self.ring = ring
        self._presentation = QuotientPresentation(ring, [
            LinearRelation(i, 0, (-1,) + (0,) * (d - 1) + (1,))
            for i, d in enumerate(self.cycle_lengths)])

    @property
    def order(self):
        return math.lcm(*self.cycle_lengths)

    def relations(self):
        return self._presentation.relation_polynomials

    def presentation(self) -> QuotientPresentation:
        return self._presentation

    def __str__(self):
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles)

    def __repr__(self):
        return f"PermutationAction({self})"


def parse_cycles(text):
    """Parse disjoint cycle notation like "(1 2 3)(4 5)"; commas allowed.
    Messages quote the input respaced, so they do not depend on layout."""
    text = " ".join(re.findall(r"[()]|[^\s(),]+", text))
    if not text:
        raise ParseError("empty permutation")
    leftovers = _CYCLE_TEXT.sub("", text).strip()
    if leftovers:
        raise ParseError(f"bad permutation syntax near {leftovers!r}")
    cycles = []
    for body in _CYCLE_TEXT.findall(text):
        points = body.split()
        if not points:
            raise ParseError("empty cycle in permutation")
        try:
            cycles.append(tuple(int(p) for p in points))
        except ValueError:
            raise ParseError(f"non-integer point in cycle ({body.strip()})") from None
    return cycles


def symmetric_setup(action: PermutationAction, generators):
    """Generators of the invariant ideal lifted to the difference ring,
    together with the cycle relations.  Generators must live inside the
    staircase: symbol i may only appear with shifts below its cycle length."""
    ring = action.ring
    gens = []
    for g in generators:
        if g.ring is not ring and g.ring != ring:
            raise RingMismatchError("generator built over a different ring")
        for m, _ in g.terms:
            for (sym, shift), _e in m.decoded():
                if shift[0] >= action.cycle_lengths[sym]:
                    raise StaircaseError(
                        f"generator mentions {ring.signature.symbols[sym]}({shift[0]}), "
                        f"outside the staircase of cycle length "
                        f"{action.cycle_lengths[sym]}")
        if g:
            gens.append(g)
    return gens + action.relations()


def groebner_gamma_basis(action: PermutationAction, generators,
                         options=None, **overrides) -> SigmaBasis:
    """Complete the invariant ideal inside the quotient: run completion on
    the lifted generators plus cycle relations (termination is guaranteed
    because every pure power is covered), minimalize, and drop the cycle
    relations from the returned elements."""
    lifted = symmetric_setup(action, generators)
    basis = minimalize(sigma_gbasis(lifted, options, **overrides))
    relation_lms = {rel.lm for rel in action.relations()}
    kept = tuple(g for g in basis.elements if g.lm not in relation_lms)
    return SigmaBasis(basis.ring, kept, basis.status, basis.stats)


def expand_classical_basis(action: PermutationAction, gamma_elements):
    """Unfold a group-invariant basis into the plain minimal basis of the
    finite ring: apply all powers of the shift, wrap through the cycle
    relations, deduplicate, and minimalize with plain divisibility."""
    relations = action.presentation().reducer
    copies = {}
    for g in gamma_elements:
        for k in range(action.order):
            c = reduce_full(g.shift((k,)), relations)
            if c:
                copies.setdefault(c, None)
    kept = []
    for g in sorted(copies, key=lambda g: g.lm.key):
        if not any(h.lm.divides(g.lm) for h in kept):
            kept.append(g)
    return kept
