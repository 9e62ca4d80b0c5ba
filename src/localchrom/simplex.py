"""One-phase primal simplex over exact rationals with Bland's rule.

Small dense LPs only (the weighting LPs have ~n variables and ~n rows).
Every row is "<=" with a nonnegative right-hand side, so x = 0 is feasible
and the simplex starts from the slack basis; "=" and ">=" rows and negative
right-hand sides are rejected, since no caller needs them.  Bland's
anti-cycling rule guarantees termination.  Inputs and outputs are exact
Fractions; inside, the tableau is integer over one common denominator and
pivots fraction-free (Bareiss, Math. Comp. 22, 1968; Edmonds, J. Res. NBS
71B, 1967).  An optimal solution comes with one dual multiplier per input
row, read off the final tableau, so the dual LP is never solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass
class LPSolution:
    status: str  # "optimal" | "unbounded"
    x: list[Fraction]
    value: Fraction | None
    # One multiplier per input row, each >= 0;
    # A^T y >= objective and rhs . y == value.  Empty unless optimal.
    dual: list[Fraction]


def solve_lp(
    objective: list[Fraction],
    rows: list[tuple[list[Fraction], str, Fraction]],
) -> LPSolution:
    """Maximize objective . x subject to rows (coeffs, rel, rhs), x >= 0.

    rel is "<=" and rhs >= 0, so each row starts basic in its own slack
    column; anything else raises ValueError.
    """
    nvar, m = len(objective), len(rows)
    for coeffs, rel, b in rows:
        if len(coeffs) != nvar:
            raise ValueError("row length mismatch")
        if rel != "<=":
            raise ValueError(f"bad relation {rel!r}")
        if b < 0:
            raise ValueError("negative right-hand side")

    # Columns: structural | one slack per row | rhs.  Each row starts with its
    # slack basic; that column's final reduced cost is minus the row's dual
    # multiplier.  The integer tableau starts at d = 1 with rows and costs
    # times scale, and each slack rescaled by scale to keep its unit column;
    # every later entry is then a signed minor of that integer matrix, so
    # each division is exact.  The factors are positive, so Bland's rule
    # reads the same signs and ratios as in the rational tableau.
    data = [*objective, *(a for coeffs, _, b in rows for a in [*coeffs, b])]
    scale = lcm(*{a.denominator for a in data})
    total_cols = nvar + m
    pad = [0] * m

    def integer(values: list[Fraction]) -> list[int]:
        return [a.numerator * (scale // a.denominator) for a in values]

    table = [integer([*coeffs, *pad, b]) for coeffs, _, b in rows]
    basis = list(range(nvar, total_cols))
    for row, column in zip(table, basis):
        row[column] = 1
    obj = integer([*objective, *pad, Fraction(0)])  # reduced costs, then -value
    d = 1  # entry (i, j) stands for table[i][j] / d; basic columns are d e_i

    def pivot(r: int, c: int) -> None:
        """Fraction-free pivot: row r stays and every other row becomes
        (a p - f b) / d, exact by Sylvester's identity; then d = p."""
        nonlocal d
        p, pivot_row = table[r][c], table[r]
        for row in [*(table[i] for i in range(m) if i != r), obj]:
            f = row[c]
            if f:
                row[:] = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
            elif p != d:
                row[:] = [a * p // d for a in row]
        d = p
        basis[r] = c

    while True:
        enter = next((j for j in range(total_cols) if obj[j] > 0), -1)  # Bland: smallest index
        if enter < 0:
            break
        # Least ratio rhs / a over a > 0 (cross-multiplied); ties to the least basis index.
        leave = -1
        for i, row in enumerate(table):
            a = row[enter]
            if a > 0 and (leave < 0 or (row[-1] * table[leave][enter], basis[i])
                          < (table[leave][-1] * a, basis[leave])):
                leave = i
        if leave < 0:
            return LPSolution("unbounded", [], None, [])
        pivot(leave, enter)

    level = {b: row[-1] for row, b in zip(table, basis)}
    x = [Fraction(level.get(j, 0), d) for j in range(nvar)]
    dual = [Fraction(-obj[c], d) for c in range(nvar, total_cols)]  # the scales cancel
    return LPSolution("optimal", x, Fraction(-obj[-1], d * scale), dual)
