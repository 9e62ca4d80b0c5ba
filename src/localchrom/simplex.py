"""Two-phase primal simplex over exact rationals with Bland's rule.

Small dense LPs only (the weighting LPs have ~n variables and ~n rows).
Rows are "<=" or "=" with a nonnegative right-hand side; ">=" rows and
negative right-hand sides are rejected, since no caller needs them.
Bland's anti-cycling rule guarantees termination; everything is a Fraction so
strict-inequality semantics downstream are meaningful.  An optimal solution
comes with one dual multiplier per input row, read off the final tableau, so
the dual LP never has to be solved separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import CertificateError

ZERO = Fraction(0)
ONE = Fraction(1)


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
    nvar = len(objective)
    m = len(rows)
    for coeffs, rel, b in rows:
        if len(coeffs) != nvar:
            raise ValueError("row length mismatch")
        if rel not in ("<=", "="):
            raise ValueError(f"bad relation {rel!r}")
        if Fraction(b) < 0:
            raise ValueError("negative right-hand side")

    # Columns: structural | one slack per "<=" row | one artificial per "="
    # row | rhs.  Each row starts with its unit column basic; that column's
    # final reduced cost is minus the row's dual multiplier.
    slack = nvar
    art = nvar + sum(rel == "<=" for _, rel, _ in rows)
    total_cols = art + sum(rel == "=" for _, rel, _ in rows)
    art_cols = range(art, total_cols)
    table: list[list[Fraction]] = []
    basis: list[int] = []
    for coeffs, rel, b in rows:
        row = [Fraction(c) for c in coeffs] + [ZERO] * (total_cols - nvar)
        row.append(Fraction(b))
        if rel == "<=":
            column, slack = slack, slack + 1
        else:
            column, art = art, art + 1
        row[column] = ONE
        basis.append(column)
        table.append(row)
    unit = list(basis)

    def eliminate(target: list[Fraction], r: int, c: int) -> list[Fraction]:
        """target minus the multiple of row r that zeroes its column c."""
        f = target[c]
        return [a - f * b for a, b in zip(target, table[r])]

    def pivot(r: int, c: int, obj: list[Fraction]) -> None:
        inv = ONE / table[r][c]
        table[r] = [a * inv for a in table[r]]
        for i in range(m):
            if i != r and table[i][c]:
                table[i] = eliminate(table[i], r, c)
        if obj[c]:
            obj[:] = eliminate(obj, r, c)
        basis[r] = c

    def price_out(costs: list[Fraction]) -> list[Fraction]:
        """Objective row for these column costs at the current basis: reduced
        costs, then minus the objective value."""
        obj = costs + [ZERO]
        for i, b in enumerate(basis):
            if obj[b]:
                obj = eliminate(obj, i, b)
        return obj

    def run_simplex(obj: list[Fraction], blocked: range) -> str:
        while True:
            enter = -1
            for j in range(total_cols):
                if j not in blocked and obj[j] > 0:
                    enter = j  # Bland: smallest index
                    break
            if enter < 0:
                return "optimal"
            leave, best_ratio, best_var = -1, None, None
            for i in range(m):
                a = table[i][enter]
                if a > 0:
                    ratio = table[i][-1] / a
                    if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < best_var
                    ):
                        leave, best_ratio, best_var = i, ratio, basis[i]
            if leave < 0:
                return "unbounded"
            pivot(leave, enter, obj)

    # Phase 1: maximize -(sum of artificials).
    if art_cols:
        obj = price_out([ZERO] * art_cols.start + [-ONE] * len(art_cols))
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
    obj = price_out([Fraction(c) for c in objective] + [ZERO] * (total_cols - nvar))
    if run_simplex(obj, blocked=art_cols) == "unbounded":
        return LPSolution("unbounded", [], None, [])
    x = [ZERO] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = table[i][-1]
    return LPSolution("optimal", x, -obj[-1], [-obj[c] for c in unit])
