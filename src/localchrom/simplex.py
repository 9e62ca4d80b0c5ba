"""Two-phase primal simplex over exact rationals with Bland's rule.

Small dense LPs only (the weighting LPs have ~n variables and ~n rows).
Rows are "<=" or "=" with a nonnegative right-hand side; ">=" rows and
negative right-hand sides are rejected, since no caller needs them.
Bland's anti-cycling rule guarantees termination.  Inputs and outputs are
exact Fractions; inside, the tableau is integer over one common denominator
and pivots fraction-free (Bareiss, Math. Comp. 22, 1968; Edmonds, J. Res.
NBS 71B, 1967).  An optimal solution comes with one dual multiplier per
input row, read off the final tableau, so the dual LP is never solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import CertificateError

@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction]
    value: Fraction | None
    # One multiplier per input row: >= 0 for "<=", free for "=";
    # A^T y >= objective and rhs . y == value.  Empty unless optimal.
    dual: list[Fraction]


def solve_lp(
    objective: list[Fraction],
    rows: list[tuple[list[Fraction], str, Fraction]],
) -> LPSolution:
    """Maximize objective . x subject to rows (coeffs, rel, rhs), x >= 0.

    rel is "<=" or "=" and rhs >= 0, so each row starts basic in its own
    unit column (its slack or its artificial); anything else raises
    ValueError.
    """
    nvar, m = len(objective), len(rows)
    for coeffs, rel, b in rows:
        if len(coeffs) != nvar:
            raise ValueError("row length mismatch")
        if rel not in ("<=", "="):
            raise ValueError(f"bad relation {rel!r}")
        if b < 0:
            raise ValueError("negative right-hand side")

    # Columns: structural | one slack per "<=" row | one artificial per "="
    # row | rhs.  Each row starts with its unit column basic; that column's
    # final reduced cost is minus the row's dual multiplier.  The integer
    # tableau starts at d = 1 with rows and costs times scale, and each slack
    # and artificial rescaled by scale to keep its unit column; every later
    # entry is then a signed minor of that integer matrix, so each division is
    # exact.  The factors are positive, so Bland's rule reads the same signs
    # and ratios as in the rational tableau.
    data = [*objective, *(a for coeffs, _, b in rows for a in [*coeffs, b])]
    scale = lcm(*{a.denominator for a in data})
    art = nvar + sum(rel == "<=" for _, rel, _ in rows)
    total_cols = art + sum(rel == "=" for _, rel, _ in rows)
    art_cols = range(art, total_cols)
    pad = [0] * (total_cols - nvar)

    def integer(values: list[Fraction]) -> list[int]:
        return [a.numerator * (scale // a.denominator) for a in values]

    table = [integer([*coeffs, *pad, b]) for coeffs, _, b in rows]
    slacks, artificials = iter(range(nvar, art)), iter(art_cols)
    basis = [next(slacks if rel == "<=" else artificials) for _, rel, _ in rows]
    for row, column in zip(table, basis):
        row[column] = 1
    unit = list(basis)
    d = 1  # entry (i, j) stands for table[i][j] / d; basic columns are d e_i

    def pivot(r: int, c: int, obj: list[int]) -> None:
        """Fraction-free pivot: row r stays and every other row becomes
        (a p - f b) / d, exact by Sylvester's identity; then d = p."""
        nonlocal d
        if table[r][c] < 0:  # only in the artificial drive-out; keeps d > 0
            table[r] = [-a for a in table[r]]
        p, pivot_row = table[r][c], table[r]
        for row in [*(table[i] for i in range(m) if i != r), obj]:
            f = row[c]
            if f:
                row[:] = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
            elif p != d:
                row[:] = [a * p // d for a in row]
        d = p
        basis[r] = c

    def price_out(costs: list[int]) -> list[int]:
        """Objective row, times d, for these integer column costs at the
        current basis: reduced costs, then minus the objective value."""
        obj = [cost * d for cost in costs] + [0]
        for row, b in zip(table, basis):
            if costs[b]:
                obj = [o - costs[b] * a for o, a in zip(obj, row)]
        return obj

    def run_simplex(obj: list[int], blocked: range) -> str:
        while True:
            enter = -1
            for j in range(total_cols):
                if j not in blocked and obj[j] > 0:
                    enter = j  # Bland: smallest index
                    break
            if enter < 0:
                return "optimal"
            # Least ratio rhs / a over a > 0 (cross-multiplied); ties to the least basis index.
            leave = -1
            for i, row in enumerate(table):
                a = row[enter]
                if a > 0 and (leave < 0 or (row[-1] * table[leave][enter], basis[i])
                              < (table[leave][-1] * a, basis[leave])):
                    leave = i
            if leave < 0:
                return "unbounded"
            pivot(leave, enter, obj)

    # Phase 1: maximize -(sum of artificials).
    if art_cols:
        obj = price_out([0] * art_cols.start + [-1] * len(art_cols))
        # Phase 1 is bounded (objective <= 0).
        if run_simplex(obj, blocked=range(0)) != "optimal":
            raise CertificateError("phase 1 of the simplex is unbounded")
        if obj[-1] != 0:
            return LPSolution("infeasible", [], None, [])
        # Drive remaining artificials out of the basis.
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(art_cols.start):
                    if table[i][j] != 0:
                        pivot(i, j, obj)
                        break
                # else: redundant all-zero row; harmless to leave in place

    # Phase 2: original objective, artificials blocked.
    obj = price_out(integer([*objective, *pad]))
    if run_simplex(obj, blocked=art_cols) == "unbounded":
        return LPSolution("unbounded", [], None, [])
    level = {b: row[-1] for row, b in zip(table, basis)}
    x = [Fraction(level.get(j, 0), d) for j in range(nvar)]
    dual = [Fraction(-obj[c], d) for c in unit]  # the scales cancel
    return LPSolution("optimal", x, Fraction(-obj[-1], d * scale), dual)
