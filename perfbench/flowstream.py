"""Seeded stream of ideal-membership items for the flow workload.

Item text is built here without `dgb`: f = m + r, where m is a rational
combination of shifted input equations, each times one variable (so m lies
in the ideal), and r is a small random polynomial.  Normal forms modulo a
complete basis are unique, so NF(f) must equal NF(r).

Shifts stay at total degree 1 for the equations and multipliers and 2 for
the variables of r.  With larger shifts a few items take tens of times the
median, and batches drawn from different seeds stop agreeing in cost.
"""

import random
import re

_VAR = re.compile(r"\b([A-Za-z_]\w*)\(([\d,\s]+)\)")
_IDEAL = re.compile(r"\bideal\s*\{(.*?)\}", re.S)


def ideal_equations(problem_text):
    """The polynomial texts of the ideal block of a problem file."""
    body = "\n".join(line.split("#", 1)[0] for line in problem_text.splitlines())
    block = _IDEAL.search(body)
    if block is None:
        raise ValueError("problem file has no ideal block")
    return [" ".join(eq.split()) for eq in block.group(1).split(";") if eq.strip()]


def shift_text(text, shift):
    """Translate every variable ``name(a,b,c)`` of a polynomial text."""
    def moved(m):
        entries = [int(a) + s for a, s in zip(m.group(2).split(","), shift)]
        return f"{m.group(1)}({','.join(map(str, entries))})"
    return _VAR.sub(moved, text)


class ItemStream:
    """Items of one batch; the same (seed, batch) gives the same items."""

    def __init__(self, equations, symbols, rank, seed, batch):
        self.equations = equations
        self.symbols = symbols
        self.rank = rank
        self.rng = random.Random(f"flow:{seed}:{batch}")

    def _shift(self, degree):
        s = [0] * self.rank
        for _ in range(self.rng.randint(0, degree)):
            s[self.rng.randrange(self.rank)] += 1
        return s

    def _var(self, degree):
        return f"{self.rng.choice(self.symbols)}({','.join(map(str, self._shift(degree)))})"

    def _rational(self):
        return f"{self.rng.choice((-3, -2, -1, 1, 2, 3))}/{self.rng.choice((1, 1, 2, 3))}"

    def next_item(self):
        """(f_text, r_text) with f - r in the ideal."""
        rng = self.rng
        m = []
        for _ in range(rng.randint(1, 2)):
            eq = shift_text(rng.choice(self.equations), self._shift(1))
            m.append(f"({self._rational()})*{self._var(1)}*({eq})")
        r = []
        for _ in range(rng.randint(1, 3)):
            term = f"({self._rational()})*{self._var(2)}"
            if rng.random() < 0.5:
                term += f"*{self._var(1)}"
            r.append(term)
        r_text = " + ".join(r)
        return " + ".join(m) + " + " + r_text, r_text
