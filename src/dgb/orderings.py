"""Block monomial orderings compatible with the shift action.

An ordering is assembled from two pieces: a monomial ordering on the shift
monoid (lex / deglex / degrevlex with a declared priority of the shift
operators) and a monomial ordering on the symbol set.  Monomials are
compared by factoring them into blocks of equal shift, walking the blocks
by strictly descending shift, and comparing the first differing block with
the symbol ordering.  The result is a total multiplicative well-ordering
with 1 minimal that also respects the shift action: m < n implies
s*m < s*n for every shift s.

Everything is realized through monotone sort keys (tuples of ints), so
``sorted``, ``max`` and merges work directly on keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RankMismatchError

LEX = "lex"
DEGLEX = "deglex"
DEGREVLEX = "degrevlex"
_ORDER_NAMES = (LEX, DEGLEX, DEGREVLEX)


@dataclass(frozen=True)
class OrderingSpec:
    """Declarative description of a block ordering.

    Priorities list indices from most to least significant; ``None`` means
    natural order (s1 > s2 > ... and first declared symbol highest).
    """

    shift_order: str = DEGREVLEX
    shift_priority: tuple = None
    symbol_order: str = LEX
    symbol_priority: tuple = None

    def __post_init__(self):
        if self.shift_order not in _ORDER_NAMES:
            raise ValueError(f"unknown shift order {self.shift_order!r}")
        if self.symbol_order not in _ORDER_NAMES:
            raise ValueError(f"unknown symbol order {self.symbol_order!r}")


def _graded_key(kind, exps):
    """Monotone key of an exponent vector listed from the most to the least
    significant entry under the named ordering."""
    if kind == LEX:
        return tuple(exps)
    if kind == DEGLEX:
        return (sum(exps),) + tuple(exps)
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def _check_priority(priority, count, what):
    if priority is None:
        return tuple(range(count))
    priority = tuple(priority)
    if sorted(priority) != list(range(count)):
        raise ValueError(f"{what} priority {priority} is not a permutation of 0..{count - 1}")
    return priority


class Ordering:
    """An OrderingSpec bound to a concrete signature (rank and symbol count)."""

    __slots__ = ("spec", "rank", "n_symbols", "_shift_prio", "_symbol_prio",
                 "_symbol_value", "_key_cache")

    def __init__(self, shift_rank, n_symbols, spec=None):
        self.spec = spec or OrderingSpec()
        self.rank = shift_rank
        self.n_symbols = n_symbols
        self._shift_prio = _check_priority(self.spec.shift_priority, shift_rank, "shift")
        self._symbol_prio = _check_priority(self.spec.symbol_priority, n_symbols, "symbol")
        # higher-priority symbol -> larger value, so plain int compare works
        self._symbol_value = [0] * n_symbols
        for pos, sym in enumerate(self._symbol_prio):
            self._symbol_value[sym] = n_symbols - pos
        self._key_cache = {}

    def _identity(self):
        # resolved priorities, so a spelled-out natural priority equals the default
        return (self.spec.shift_order, self._shift_prio,
                self.spec.symbol_order, self._symbol_prio,
                self.rank, self.n_symbols)

    def __eq__(self, other):
        return isinstance(other, Ordering) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    # --- shifts ---------------------------------------------------------

    def shift_key(self, s):
        """Monotone key: shift_key(s) < shift_key(t) iff s < t."""
        if len(s) != self.rank:
            raise RankMismatchError(f"shift {s} has rank {len(s)}, expected {self.rank}")
        return _graded_key(self.spec.shift_order, [s[i] for i in self._shift_prio])

    def compare_shifts(self, s, t):
        """-1, 0 or 1 as s <, ==, > t."""
        a, b = self.shift_key(s), self.shift_key(t)
        return (a > b) - (a < b)

    @property
    def is_order_compatible(self):
        """Whether the ordering refines the grading by the order function
        (true exactly when the shift ordering is degree-compatible)."""
        return self.spec.shift_order in (DEGLEX, DEGREVLEX)

    # --- variables ------------------------------------------------------

    def variable_key(self, var):
        """Monotone key for single variables (symbol index, shift)."""
        sym, shift = var
        return (self.shift_key(shift), self._symbol_value[sym])

    # --- monomials ------------------------------------------------------

    def monomial_key(self, m):
        """Monotone key realizing the block ordering on whole monomials."""
        factors = m.factors
        key = self._key_cache.get(factors)
        if key is None:
            blocks = {}
            for (sym, shift), e in factors:
                blocks.setdefault(shift, {})[sym] = e
            parts = []
            for shift in sorted(blocks, key=self.shift_key, reverse=True):
                block = blocks[shift]
                exps = [block.get(sym, 0) for sym in self._symbol_prio]
                parts.append((self.shift_key(shift),
                              _graded_key(self.spec.symbol_order, exps)))
            key = tuple(parts)
            self._key_cache[factors] = key
        return key

    def compare_monomials(self, m, n):
        """-1, 0 or 1 as m <, ==, > n under the block ordering."""
        a, b = self.monomial_key(m), self.monomial_key(n)
        return (a > b) - (a < b)
