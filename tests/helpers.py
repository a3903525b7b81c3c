"""Shared helpers for the test suite: small rings, seeded random data,
and converters into the oracle's plain-dict polynomial format."""

from fractions import Fraction
from functools import cmp_to_key
from heapq import heappop, heappush
from itertools import chain, combinations_with_replacement
from math import comb
from operator import sub

from dgb import DifferenceRing, Monomial, ParseError, Polynomial, ShiftWidthError, Signature
from dgb.cli import tokenize
from dgb.field import RationalFunction
from dgb.orderings import DEGLEX, LEX
from dgb.quotient import groebner_gamma_basis
from dgb.reduction import ReducerBasis, reduce_full
from dgb.ring import _lcm, _same_ring, spoly


def make_ring(rank=1, symbols=("x",), parameters=(), spec=None):
    return DifferenceRing(Signature(rank, symbols, parameters), spec)


_GAMMA_BASES = {}


def gamma_basis(action, generators):
    """`groebner_gamma_basis(action, generators)`, computed once per test
    session for each (cycles, generators).  The acceptance suite and the
    README test both need the cycle8 basis, which takes seconds; the
    computation is deterministic, so sharing it hides no difference."""
    key = (action.cycles, tuple(generators))
    if key not in _GAMMA_BASES:
        _GAMMA_BASES[key] = groebner_gamma_basis(action, generators)
    return _GAMMA_BASES[key]


def random_shift(rng, rank, max_deg, exact=None):
    total = exact if exact is not None else rng.randint(0, max_deg)
    shift = [0] * rank
    for _ in range(total):
        shift[rng.randrange(rank)] += 1
    return tuple(shift)


def enumerate_up_to_degree(d, rank: int) -> list:
    """All shift elements of degree <= d, in a fixed deterministic order.

    The order is graded by degree, ties broken by reverse-lexicographic
    comparison of the exponent tuples, so repeated runs enumerate
    identically.  There are C(d + rank, rank) elements.  A negative bound
    (including -inf) yields the empty list.
    """
    if d != d or d < 0:  # also rejects NaN defensively
        return []
    d = int(d)
    out = []
    for total in range(d + 1):
        layer = []
        # weak compositions of `total` into `rank` parts
        for cuts in combinations_with_replacement(range(total + 1), rank - 1):
            parts = []
            prev = 0
            for c in cuts:
                parts.append(c - prev)
                prev = c
            parts.append(total - prev)
            layer.append(tuple(parts))
        layer.sort(key=lambda s: tuple(reversed(s)))
        out.extend(layer)
    assert len(out) == comb(d + rank, rank)
    return out


def random_monomial(rng, ring, max_factors=3, max_shift_deg=2, max_exp=2,
                    order_exact=None):
    """A random nonempty monomial; with order_exact the maximal shift
    degree over the factors is exactly that value."""
    rank = ring.signature.shift_rank
    n = len(ring.signature.symbols)
    count = rng.randint(1, max_factors)
    factors = []
    for i in range(count):
        if order_exact is not None:
            deg = order_exact if i == 0 else rng.randint(0, order_exact)
            shift = random_shift(rng, rank, deg, exact=deg)
        else:
            shift = random_shift(rng, rank, max_shift_deg)
        factors.append((rng.randrange(n), shift, rng.randint(1, max_exp)))
    return ring.monomial(factors)


def random_coeff(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_polynomial(rng, ring, max_terms=3, order_exact=None, **mono_kw):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = random_monomial(rng, ring, order_exact=order_exact, **mono_kw)
        terms.append((random_coeff(rng), mono))
    return ring.polynomial(terms)


def to_oracle(poly):
    """Convert a difference polynomial over plain Q into the oracle's
    dict-of-monomials representation, whose coefficients are Fractions."""
    out = {}
    for m, c in poly.terms:
        assert type(c) in (int, Fraction), "oracle conversion needs a parameter-free ring"
        out[mono_to_oracle(m)] = Fraction(c)
    return out


def num_den(field, c):
    """The numerator and denominator of the coefficient c over field as
    dicts from exponent tuples to nonzero ints: a RationalFunction's own,
    and for a plain number its numerator and denominator at the all-zero
    exponent tuple, the zero numerator empty."""
    if isinstance(c, RationalFunction):
        return c.num, c.den
    z = (0,) * len(field.parameters)
    return ({z: c.numerator} if c else {}), {z: c.denominator}


def is_exact_coefficient(c):
    """Whether c has a canonical type: an int, a Fraction, or a
    RationalFunction that involves a parameter.  Never a float or a bool,
    and never a RationalFunction equal to a constant."""
    if type(c) in (int, Fraction):
        return True
    return type(c) is RationalFunction and any(any(e) for part in (c.num, c.den) for e in part)


def mono_to_oracle(m):
    return tuple(sorted(m.decoded()))


def compare_shifts(ordering, s, t):
    """-1, 0 or 1 as s <, ==, > t, read off the ordering's shift keys."""
    a, b = ordering.shift_key(s), ordering.shift_key(t)
    return (a > b) - (a < b)


def compare_monomials(ordering, m, n):
    """-1, 0 or 1 as m <, ==, > n, read off the ordering's monomial keys."""
    a, b = ordering.monomial_key(m.factors), ordering.monomial_key(n.factors)
    return (a > b) - (a < b)


def is_order_homogeneous(f):
    """Whether every monomial of f has the same order."""
    return len({m.order for m, _ in f.terms}) <= 1


def monomial_gcd(m, n):
    """The greatest common divisor of two monomials of one ring."""
    exps = dict(n.factors)
    return Monomial([(var, min(e, exps[var])) for var, e in m.factors if var in exps],
                    m.ordering or n.ordering)


def shifted_lcm(m, s, n, t):
    """The factor tuple of m.shift(s).lcm(n.shift(t)), merged in one pass
    and with no Monomial built: the overlap of a queued pair in
    ReferenceRun.  A zero shift moves nothing, so it is neither applied
    nor checked."""
    ordering = m.ordering or n.ordering
    fa, fb = m.factors, n.factors
    if fa and any(s):
        offset = ordering.offset(s, ordering.order(fa))
        fa = [(var + offset, e) for var, e in fa]
    if fb and any(t):
        offset = ordering.offset(t, ordering.order(fb))
        fb = [(var + offset, e) for var, e in fb]
    return _lcm(fa, fb)


def dense_evaluate(f, v, x):
    """field._evaluate by a list of every power of x up to the degree in
    parameter v: the reference for the running-power walk."""
    powers = [1]
    for _ in range(max(e[v] for e in f)):
        powers.append(powers[-1] * x)
    h = {}
    for e, c in f.items():
        m = e[:v] + (0,) + e[v + 1:]
        h[m] = h.get(m, 0) + c * powers[e[v]]
    return {m: c for m, c in h.items() if c}


def divisor_hits(basis, target, first=()):
    """Every hit (index, shift) of basis.divisor_runs on the monomial
    target, one run after another: the distinct indices of first in their
    order, then the others lowest index first; the shifts of one index
    ascending in the shift ordering.  Lazy, as the search is."""
    for hits in basis.divisor_runs(target.factors, tuple(dict.fromkeys(first))):
        yield from hits


def reference_shift_pair_candidates(left, right, same: bool, derived):
    """Surviving (s, t) shift pairs for two decoded leading monomials.

    Returns (pairs, raw_count): the deduplicated list, sorted for
    determinism, plus the number of raw factor matches before collapsing
    duplicates and identity self-pairs.  derived maps each pair (alpha,
    beta) of factor shifts met so far to its shift pair, with the common
    shift divided out; the call fills it, so callers that share it derive
    each pair once.  The reference for completion.shift_pair_candidates,
    which reads the same pairs off the packed factors.
    """
    raw = 0
    out = set()
    for (sym_a, alpha), _ in left:
        for (sym_b, beta), _ in right:
            if sym_a != sym_b:
                continue
            raw += 1
            pair = derived.get((alpha, beta))
            if pair is None:
                common = tuple(map(min, alpha, beta))
                pair = derived[alpha, beta] = (tuple(map(sub, beta, common)),
                                               tuple(map(sub, alpha, common)))
            if same:
                sigma, tau = pair
                if sigma == tau:
                    continue  # the trivial self-overlap
                if sigma > tau:
                    pair = tau, sigma  # symmetric duplicate
            out.add(pair)
    return sorted(out), raw


def instance_id(i, si, j, sj):
    """Canonical identity of a pair of shifted basis elements, with the
    common shift divided out so that equivalent pairs coincide, as the
    flat (i, si, j, sj) that a queued pair id of the completion decodes to:
    the reference for the id lookup of the chain test."""
    delta = tuple(map(min, si, sj))
    a = (i, tuple(map(sub, si, delta)))
    b = (j, tuple(map(sub, sj, delta)))
    return a + b if a <= b else b + a


class ReferenceRun:
    """The pair loop with one heap entry (order, flat key, seq, id,
    overlap factors) per queued pair and one divisor_hits search per chain
    query: the reference for the grouped queue of completion._Run, which
    must pop the same pairs in the same order and decide each alike.  It
    takes the arguments of _Run and keeps its attributes queue, open,
    reducer and killer."""

    def __init__(self, G, options, bound, stats):
        self.options = options
        self.bound = bound
        self.stats = stats
        self.reducer = ReducerBasis(G)
        self.queue = []
        self.seq = 0
        self.open = set()
        self.killer = {}

    def _push_pairs(self, i, j):
        reducer, stats = self.reducer, self.stats
        lm_i, lm_j = reducer.polys[i].lm, reducer.polys[j].lm
        ordering = reducer.ring.ordering
        pairs, raw = reference_shift_pair_candidates(lm_i.decoded(), lm_j.decoded(), i == j,
                                                     {})
        if raw == 0:
            stats.killed_product += 1
        stats.killed_sigma += raw - len(pairs)
        for sigma, tau in pairs:
            overlap = shifted_lcm(lm_i, sigma, lm_j, tau)
            bound = ordering.order(overlap)
            if self.bound is not None and bound > self.bound:
                stats.killed_truncation += 1
                continue
            stats.generated += 1
            pair_id = (i, sigma, j, tau)
            self.open.add(pair_id)
            key = tuple(chain.from_iterable(ordering.monomial_key(overlap)))
            heappush(self.queue, (bound, key, self.seq, pair_id, overlap))
            self.seq += 1

    def _certified(self, a, b):
        return (a + b if a <= b else b + a) not in self.open

    def _chain_skippable(self, a, b, overlap):
        killer = self.killer
        i, j = a[0], b[0]
        first = {killer[n]: None for n in (i, j) if n in killer}
        for c in divisor_hits(self.reducer, overlap, first):
            if c == a or c == b:
                continue
            if self._certified(a, c) and self._certified(c, b):
                killer[i] = killer[j] = c[0]
                return True
        return False

    def run(self):
        G = self.reducer.polys
        for j in range(len(G)):
            for i in range(j + 1):
                self._push_pairs(i, j)
        queue, stats, options = self.queue, self.stats, self.options
        ordering = self.reducer.ring.ordering
        pops = 0
        while queue:
            _, _, _, pair_id, overlap = heappop(queue)
            pops += 1
            if pops > options.max_pair_budget:
                return G, True
            self.open.remove(pair_id)
            i, sigma, j, tau = pair_id
            if options.use_chain_criterion and self._chain_skippable(
                    (i, sigma), (j, tau), Monomial(overlap, ordering)):
                stats.killed_chain += 1
                continue
            h = reduce_full(spoly(G[i].shift(sigma), G[j].shift(tau)), self.reducer)
            if not h:
                stats.reduced_to_zero += 1
                continue
            if h.lm.is_one:
                return [self.reducer.ring.one], False
            self.reducer.append(h)
            stats.new_elements += 1
            new = len(G) - 1
            for t in range(new + 1):
                self._push_pairs(t, new)
        return G, False


# --- reduction by shift, term product and merge: the reference route ---------
#
# Before reduction merged each step into the remainder, a step built the
# shifted element, multiplied it by the term, and added the product to the
# whole remainder.  These functions keep that route, for differential tests.
# Its sum and product, reference_add and reference_mul, are a two-pointer
# merge and a Monomial-keyed product that share no code with
# ring._add_multiple and ring._product, which Polynomial + and * run: the
# reference does not run the arithmetic that it checks.


def reference_add(f, g):
    """f + g by a two-pointer merge of the terms on the monomial keys."""
    _same_ring(f, g)
    out = []
    i = j = 0
    ta, tb = f.terms, g.terms
    la, lb = len(ta), len(tb)
    while i < la and j < lb:
        ma, ca = ta[i]
        mb, cb = tb[j]
        ka, kb = ma.key, mb.key
        if ka == kb:
            c = ca + cb
            if c:
                out.append((ma, c))
            i += 1
            j += 1
        elif ka > kb:
            out.append(ta[i])
            i += 1
        else:
            out.append(tb[j])
            j += 1
    out.extend(ta[i:])
    out.extend(tb[j:])
    return Polynomial(f.ring, tuple(out))


def reference_mul(f, g):
    """f * g with one Monomial per term product, collected in a dict keyed
    by Monomial and canonicalized by DifferenceRing.polynomial."""
    _same_ring(f, g)
    if not f.terms or not g.terms:
        return f.ring.zero
    acc = {}
    for ma, ca in f.terms:
        for mb, cb in g.terms:
            m = ma * mb
            c = acc.get(m)
            acc[m] = ca * cb if c is None else c + ca * cb
    return f.ring.polynomial((c, m) for m, c in acc.items())


def mul_term(p, coeff, mono):
    """p times coeff*mono, term by term."""
    if not coeff:
        return p.ring.zero
    return Polynomial(p.ring, tuple((m * mono, c * coeff) for m, c in p.terms))


def reference_reduce(f, G, certificate=False):
    """reduction.reduce by shift, mul_term and reference_add."""
    basis = G if isinstance(G, ReducerBasis) else ReducerBasis([g for g in G if g])
    steps = []
    h = f
    while h:
        hit = basis.find_divisor(h.lm)
        if hit is None:
            break
        index, shift = hit
        g = basis.polys[index].shift(shift)
        coeff = h.ring.field.quotient(h.lc, g.lc)
        cofactor = h.lm / g.lm
        h = reference_add(h, mul_term(g, -coeff, cofactor))
        steps.append((coeff, cofactor, shift, index))
    return (h, steps) if certificate else h


def reference_tail_reduce(f, G):
    """reduction.tail_reduce as head reductions of the remainder with its
    leading term removed."""
    basis = G if isinstance(G, ReducerBasis) else ReducerBasis([g for g in G if g])
    terms = []
    h = f
    while h:
        h = reference_reduce(h, basis)
        if not h:
            break
        terms.append(h.terms[0])
        h = Polynomial(h.ring, h.terms[1:])
    return Polynomial(f.ring, tuple(terms))


def reference_replay(h, steps, G):
    """reduction.replay_certificate by shift, mul_term and reference_add."""
    polys = [g for g in G if g]
    total = h
    for coeff, cofactor, shift, index in steps:
        total = reference_add(total, mul_term(polys[index].shift(shift), coeff, cofactor))
    return total


def reference_spoly(f, g):
    """ring.spoly as the sum of two whole term products."""
    field = f.ring.field
    lcm = f.lm.lcm(g.lm)
    return reference_add(mul_term(f, field.quotient(field.one, f.lc), lcm / f.lm),
                         mul_term(g, field.quotient(-1, g.lc), lcm / g.lm))


def _graded_key(kind, exps):
    """Monotone key of an exponent vector listed from the most to the least
    significant entry under the named ordering."""
    if kind == LEX:
        return tuple(exps)
    if kind == DEGLEX:
        return (sum(exps),) + tuple(exps)
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def reference_shift_key(ordering, s):
    """The shift-order key as the engine computed it before packing: a
    tuple of the entries in priority order, under the degree if graded."""
    prio = ordering.spec.shift_priority or tuple(range(ordering.rank))
    return _graded_key(ordering.spec.shift_order, [s[i] for i in prio])


def reference_monomial_key(ordering, m):
    """The block-order key as the engine computed it on unpacked variables:
    blocks of equal shift by descending tuple shift key, each compared by
    the symbol order on its exponents in symbol priority order."""
    symbol_prio = ordering.spec.symbol_priority or tuple(range(ordering.n_symbols))
    blocks = {}
    for (sym, shift), e in m.decoded():
        blocks.setdefault(shift, {})[sym] = e
    parts = []
    for shift in sorted(blocks, key=lambda s: reference_shift_key(ordering, s), reverse=True):
        exps = [blocks[shift].get(sym, 0) for sym in symbol_prio]
        parts.append((reference_shift_key(ordering, shift),
                      _graded_key(ordering.spec.symbol_order, exps)))
    return tuple(parts)


def oracle_key(ring):
    """An independently implemented comparator for the ring's block order,
    usable as a sort key on oracle monomials."""
    spec = ring.ordering.spec
    rank = ring.signature.shift_rank
    n = len(ring.signature.symbols)
    shift_prio = spec.shift_priority or tuple(range(rank))
    symbol_prio = spec.symbol_priority or tuple(range(n))

    def shift_cmp(s, t):
        if spec.shift_order in ("deglex", "degrevlex"):
            if sum(s) != sum(t):
                return -1 if sum(s) < sum(t) else 1
        if spec.shift_order == "degrevlex":
            for j in reversed(shift_prio):
                if s[j] != t[j]:
                    return -1 if s[j] > t[j] else 1
            return 0
        for j in shift_prio:
            if s[j] != t[j]:
                return -1 if s[j] < t[j] else 1
        return 0

    def block_cmp(a, b):
        va = [a.get(i, 0) for i in symbol_prio]
        vb = [b.get(i, 0) for i in symbol_prio]
        if spec.symbol_order in ("deglex", "degrevlex"):
            if sum(va) != sum(vb):
                return -1 if sum(va) < sum(vb) else 1
        if spec.symbol_order == "degrevlex":
            for x, y in zip(reversed(va), reversed(vb)):
                if x != y:
                    return -1 if x > y else 1
            return 0
        for x, y in zip(va, vb):
            if x != y:
                return -1 if x < y else 1
        return 0

    def mono_cmp(m, n):
        blocks_m = {}
        blocks_n = {}
        for (sym, shift), e in m:
            blocks_m.setdefault(shift, {})[sym] = e
        for (sym, shift), e in n:
            blocks_n.setdefault(shift, {})[sym] = e
        all_shifts = sorted(set(blocks_m) | set(blocks_n),
                            key=cmp_to_key(shift_cmp), reverse=True)
        for shift in all_shifts:
            c = block_cmp(blocks_m.get(shift, {}), blocks_n.get(shift, {}))
            if c:
                return c
        return 0

    return cmp_to_key(mono_cmp)


class _ReferenceParser:
    """The expression layer that `cli._Parser` replaced, kept as the
    reference: it reads `cli.tokenize`'s tokens through peek/next, and each
    operator builds a Polynomial, by reference_add and reference_mul."""

    def __init__(self, tokens, pos=0):
        self.tokens = tokens
        self.pos = pos

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
            acc = reference_add(acc, -term if op == "-" else term)
        return acc

    def parse_term(self, ring):
        acc = self.parse_factor(ring)
        while self.at("*") or self.at("/"):
            op = self.next().value
            tok = self.peek()
            rhs = self.parse_factor(ring)
            if op == "*":
                acc = reference_mul(acc, rhs)
            else:
                if not rhs:
                    self.fail("division by zero", tok)
                if len(rhs.terms) != 1 or not rhs.terms[0][0].is_one:
                    self.fail("can only divide by a constant coefficient", tok)
                acc = acc.scale(ring.field.quotient(ring.field.one, rhs.terms[0][1]))
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
                out = reference_mul(out, base)
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
                    value = ring.field.parameter(name)
                except KeyError:
                    self.fail(f"unknown symbol {name!r}", tok)
                return ring.constant(value)
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


def reference_parse_polynomial(ring, text):
    """`cli.parse_polynomial` as the reference expression layer reads it."""
    parser = _ReferenceParser(tokenize(text))
    poly = parser.parse_expr(ring)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.column)
    return poly


def reference_ideal_polynomials(ring, text):
    """The polynomials of every `ideal { ... }` block of a problem text,
    read by the reference expression layer over the tokens of the whole
    text, so error positions are those of the file."""
    tokens = tokenize(text)
    out = []
    k = 0
    while tokens[k].kind != "eof":
        if tokens[k].value != "ideal":
            k += 1
            continue
        parser = _ReferenceParser(tokens, k + 1)
        parser.expect("{")
        while not parser.at("}"):
            out.append(parser.parse_expr(ring))
            parser.expect(";")
        k = parser.expect("}") and parser.pos
    return out
