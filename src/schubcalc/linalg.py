"""Exact linear algebra: one fraction-free integer row echelon.

The library's one elimination: `polytopes` pushes rows into `Echelon` for
the affine rank, the elimination vertices and the certified model map.  A
row is a coefficient vector followed by one or several right-hand sides.
Rational input is scaled to integers once, on entry; elimination
cross-multiplies (fraction-free, after Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", 1968) and each stored
row is divided by its content, so no Fraction is built before
back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

INDEPENDENT = "independent"
DEPENDENT = "dependent"
INCONSISTENT = "inconsistent"


def integer_row(values) -> list:
    """The entries (ints or Fractions) times their least common denominator."""
    values = tuple(values)
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


class Echelon:
    """Row echelon form of an integer system in `ncols` unknowns, built one
    row at a time.  Stored rows are primitive, have a positive pivot, and
    vanish at the pivots of the rows stored before them."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []  # (pivot column, row including right-hand side)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def push(self, row) -> str:
        """Reduce `row` against the stored rows and store it if it is
        INDEPENDENT; a DEPENDENT or INCONSISTENT (0 = c, some right-hand
        side c != 0) row is not stored."""
        row = integer_row(row)
        for piv, erow in self.rows:
            f = row[piv]
            if f:
                a = erow[piv]
                g = gcd(a, f)
                a, f = a // g, f // g
                row = [a * x - f * y for x, y in zip(row, erow)]
        piv = next((j for j in range(self.ncols) if row[j]), None)
        if piv is None:
            return INCONSISTENT if any(row[self.ncols :]) else DEPENDENT
        g = gcd(*row)
        if row[piv] < 0:
            g = -g
        self.rows.append((piv, [x // g for x in row]))
        return INDEPENDENT

    def pop(self):
        """Drop the most recently stored row."""
        self.rows.pop()

    def solve(self, rhs: int = 0):
        """The unique solution for right-hand side `rhs` (0-based) as a tuple
        of Fractions, or None while some unknown is free.  With full rank
        every column is a pivot, so each row is resolved by the rows stored
        after it, num[piv] still 0 while the row is read."""
        n = self.ncols
        if len(self.rows) < n:
            return None
        num = [0] * n  # solution = num / den, den > 0
        den = 1
        for piv, row in reversed(self.rows):
            s = row[n + rhs] * den - sum(map(mul, row, num))
            a = row[piv]
            if a != 1:
                num = [x * a for x in num]
                den *= a
            num[piv] = s
        return tuple(Fraction(x, den) for x in num)

