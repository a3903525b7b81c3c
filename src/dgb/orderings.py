"""Block monomial orderings compatible with the shift action, on packed
variables.

An ordering is assembled from a monomial ordering on the shift monoid (lex
/ deglex / degrevlex with a declared priority of the shift operators) and
one on the symbol set.  Monomials are compared by factoring them into
blocks of equal shift, walking the blocks by strictly descending shift,
and comparing the first differing block with the symbol ordering.  This
is a total multiplicative well-ordering with 1 minimal that respects the
shift action: m < n implies s*m < s*n for every shift s.

*Packing.*  The key of a shift s is one int: its entries in priority
order, in fields of SHIFT_BITS bits, most significant first, under the
total degree for deglex and degrevlex (degrevlex stores M - s_j in reversed
priority order, M = MAX_SHIFT_DEGREE).  On shifts of degree at most M the
key is monotone and affine, key(s + t) = key(s) + key(t) - key(0).  The
variable symbol(s) is key(s) * n + v, n the symbol count and v in 0..n-1
growing with the symbol's priority: ints compare variables by shift, then
symbol, and shifting by t adds n * (key(t) - key(0)).

*Monomial keys.*  Factors are (variable, exponent) pairs in descending
variable order.  Under a lex symbol order the block order is lex on
exponent vectors over the variables in descending order (blocks go by
descending shift, a block's symbols by descending priority, and a missing
shift is a block of zeros), and the factor tuple is its key.  Proof: take
the first position where two factor tuples differ.  If the variables
agree, it is the largest variable with differing exponents, and the
exponents decide as the tuples do.  If m has v where n has w < v, then v
is absent from n (earlier variables are shared and larger, later ones of
n lie below w), so v is the largest differing variable, positive in m: m
is larger, as its tuple is.  A proper prefix lacks the largest differing
variable and is smaller, as a tuple too.  Under graded symbol orders the
key has one (shift key, degree, run) per run of factors of equal shift,
built in one pass: deglex breaks degree ties by lex, which the run's
descending pairs compare as above; degrevlex by the smaller exponent from
the lowest-priority symbol up, which the ascending (variable, -exponent)
pairs compare, as of two runs of equal degree neither is a proper prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import NamedTuple

from .errors import RankMismatchError, ShiftWidthError

LEX = "lex"
DEGLEX = "deglex"
DEGREVLEX = "degrevlex"
_ORDER_NAMES = (LEX, DEGLEX, DEGREVLEX)

SHIFT_BITS = 16
MAX_SHIFT_DEGREE = (1 << SHIFT_BITS) - 1


class VarRef(NamedTuple):
    """The decoded view of a packed variable: symbol index and shift."""

    symbol: int
    shift: tuple


_varref = partial(tuple.__new__, VarRef)  # VarRef(...) without the Python-level __new__


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


def _check_priority(priority, count, what):
    if priority is None:
        return tuple(range(count))
    priority = tuple(priority)
    if sorted(priority) != list(range(count)):
        raise ValueError(f"{what} priority {priority} is not a permutation of 0..{count - 1}")
    return priority


def _inverse(permutation):
    """The inverse of a permutation of 0..n-1."""
    return tuple(sorted(range(len(permutation)), key=permutation.__getitem__))


class Ordering:
    """An OrderingSpec bound to a concrete signature (rank and symbol
    count): the packing of variables and the keys of the block order."""

    __slots__ = ("spec", "rank", "n_symbols", "_shift_prio", "_symbol_prio",
                 "_symbol_value", "_symbol_of", "_origin", "_weights", "_offsets",
                 "_degree_bits")

    def __init__(self, shift_rank, n_symbols, spec=None):
        self.spec = spec = spec or OrderingSpec()
        self.rank = shift_rank
        self.n_symbols = n_symbols
        self._shift_prio = _check_priority(spec.shift_priority, shift_rank, "shift")
        self._symbol_prio = _check_priority(spec.symbol_priority, n_symbols, "symbol")
        # the low digit v of a variable, and back from v to the symbol
        self._symbol_of = self._symbol_prio[::-1]
        self._symbol_value = _inverse(self._symbol_of)
        width = SHIFT_BITS * shift_rank
        revlex = spec.shift_order == DEGREVLEX
        columns = self._shift_prio if revlex else self._shift_prio[::-1]
        # the bit offset of each shift coordinate's field
        self._offsets = tuple(SHIFT_BITS * k for k in _inverse(columns))
        self._degree_bits = None if spec.shift_order == LEX else width
        # key(0): all fields M under degrevlex, where XOR with it turns a
        # field M - s_j back into s_j
        self._origin = (1 << width) - 1 if revlex else 0
        degree = 0 if spec.shift_order == LEX else 1 << width
        self._weights = tuple(degree + (-1 if revlex else 1) * (1 << offset)
                              for offset in self._offsets)

    def _identity(self):
        # resolved priorities, so a spelled-out natural priority equals the default
        return (self.spec.shift_order, self._shift_prio,
                self.spec.symbol_order, self._symbol_prio,
                self.rank, self.n_symbols)

    def __eq__(self, other):
        return isinstance(other, Ordering) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    @property
    def is_order_compatible(self):
        """Whether the ordering refines the grading by the order function
        (true exactly when the shift ordering is degree-compatible)."""
        return self.spec.shift_order in (DEGLEX, DEGREVLEX)

    # --- shifts and packed variables ------------------------------------

    def check_shift(self, s, order=0):
        """s as a tuple; refused when its rank is wrong, an entry is
        negative, or it would move a variable of the given order past the
        total shift degree MAX_SHIFT_DEGREE, which a packed variable holds."""
        s = tuple(s)
        if len(s) != self.rank:
            raise RankMismatchError(f"shift {s} has rank {len(s)}, expected {self.rank}")
        if min(s) < 0:
            raise ValueError(f"negative entry in shift {s}")
        if order + sum(s) > MAX_SHIFT_DEGREE:
            raise ShiftWidthError(f"total shift degree {order + sum(s)} exceeds the "
                                  f"limit {MAX_SHIFT_DEGREE} of a packed variable")
        return s

    def offset(self, s, order=0):
        """What shifting by s, after check_shift(s, order), adds to every
        packed variable; 0 exactly for the zero shift."""
        return sum(map(mul, self.check_shift(s, order), self._weights)) * self.n_symbols

    def shift_key(self, s):
        """Monotone key: shift_key(s) < shift_key(t) iff s < t."""
        return self._origin + self.offset(s) // self.n_symbols

    def variable(self, symbol, shift):
        """The packed variable symbol(shift)."""
        return self.shift_key(shift) * self.n_symbols + self._symbol_value[symbol]

    def decode(self, var):
        """The VarRef of a packed variable."""
        key, value = divmod(var, self.n_symbols)
        key ^= self._origin
        shift = tuple([key >> offset & MAX_SHIFT_DEGREE for offset in self._offsets])
        return _varref((self._symbol_of[value], shift))

    def order(self, factors):
        """Max total shift degree over a nonempty tuple of packed factors:
        the top field of the largest variable under graded shift orders."""
        if self._degree_bits is not None:
            return factors[0][0] // self.n_symbols >> self._degree_bits
        return max(sum(self.decode(v).shift) for v, _ in factors)

    def monomial_key(self, m):
        """Monotone key realizing the block ordering on whole monomials
        (see the module docstring); a Monomial keeps it as ``key``."""
        factors = m.factors
        symbol_order = self.spec.symbol_order
        if symbol_order == LEX:
            return factors
        n, parts, i = self.n_symbols, [], 0
        while i < len(factors):
            shift, j, degree = factors[i][0] // n, i, 0
            while j < len(factors) and factors[j][0] // n == shift:
                degree += factors[j][1]
                j += 1
            run = factors[i:j]
            if symbol_order == DEGREVLEX:
                run = tuple([(v, -e) for v, e in reversed(run)])
            parts.append((shift, degree, run))
            i = j
        return tuple(parts)
