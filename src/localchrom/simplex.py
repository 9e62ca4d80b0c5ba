"""Two-phase primal simplex over exact rationals with Bland's rule.

Small dense LPs only (the weighting LPs have ~n variables and ~n rows).
Bland's anti-cycling rule guarantees termination; everything is a Fraction so
strict-inequality semantics downstream are meaningful.
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


def solve_lp(
    objective: list[Fraction],
    rows: list[tuple[list[Fraction], str, Fraction]],
) -> LPSolution:
    """Maximize objective . x subject to rows (coeffs, rel, rhs), x >= 0.

    rel is one of "<=", ">=", "=".
    """
    rows = list(rows)
    nvar = len(objective)
    m = len(rows)
    for coeffs, rel, _ in rows:
        if len(coeffs) != nvar:
            raise ValueError("row length mismatch")
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {rel!r}")

    # Columns: structural | one slack per inequality | one artificial per row
    # that needs one.  Build equality-form rows with rhs >= 0 first.
    eq_rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_col_of_row: dict[int, int] = {}
    ncols = nvar
    for i, (coeffs, rel, b) in enumerate(rows):
        row = [Fraction(c) for c in coeffs]
        b = Fraction(b)
        if b < 0:
            row = [-c for c in row]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        if rel != "=":
            slack_col_of_row[i] = ncols
            ncols += 1
        eq_rows.append(row)
        rhs.append(b)
        rows[i] = (coeffs, rel, b)  # normalised view: rhs >= 0

    table: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    for i, (coeffs, rel, b) in enumerate(rows):
        row = eq_rows[i] + [ZERO] * (ncols - nvar)
        if i in slack_col_of_row:
            row[slack_col_of_row[i]] = ONE if rel == "<=" else -ONE
        table.append(row)

    # Basic feasible start: slack for "<=" rows, artificial otherwise.
    total_cols = ncols
    for i, (_, rel, _) in enumerate(rows):
        if rel == "<=":
            basis.append(slack_col_of_row[i])
        else:
            for r in table:
                r.append(ZERO)
            table[i][total_cols] = ONE
            art_cols.append(total_cols)
            basis.append(total_cols)
            total_cols += 1

    def pivot(r: int, c: int, obj: list[Fraction], objval: list[Fraction]) -> None:
        piv = table[r][c]
        inv = ONE / piv
        table[r] = [a * inv for a in table[r]]
        rhs[r] *= inv
        for i in range(m):
            if i != r and table[i][c]:
                f = table[i][c]
                table[i] = [a - f * b for a, b in zip(table[i], table[r])]
                rhs[i] -= f * rhs[r]
        if obj[c]:
            f = obj[c]
            for j in range(len(obj)):
                obj[j] -= f * table[r][j]
            objval[0] -= f * rhs[r]
        basis[r] = c

    def run_simplex(obj: list[Fraction], objval: list[Fraction], blocked: set[int]) -> str:
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
                    ratio = rhs[i] / a
                    if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < best_var
                    ):
                        leave, best_ratio, best_var = i, ratio, basis[i]
            if leave < 0:
                return "unbounded"
            pivot(leave, enter, obj, objval)

    # Phase 1: maximize -(sum of artificials).
    if art_cols:
        obj1 = [ZERO] * total_cols
        for c in art_cols:
            obj1[c] = -ONE
        objval1 = [ZERO]
        for i, b in enumerate(basis):
            if obj1[b]:
                f = obj1[b]
                for j in range(total_cols):
                    obj1[j] -= f * table[i][j]
                objval1[0] -= f * rhs[i]
        # Phase 1 is bounded (objective <= 0).
        if run_simplex(obj1, objval1, blocked=set()) != "optimal":
            raise CertificateError("phase 1 of the simplex is unbounded")
        if objval1[0] != 0:
            return LPSolution("infeasible", [], None)
        # Drive remaining artificials out of the basis.
        art_set = set(art_cols)
        for i in range(m):
            if basis[i] in art_set:
                for j in range(total_cols):
                    if j not in art_set and table[i][j] != 0:
                        pivot(i, j, obj1, objval1)
                        break
                # else: redundant all-zero row; harmless to leave in place

    # Phase 2: original objective, artificials blocked.
    obj2 = [Fraction(c) for c in objective] + [ZERO] * (total_cols - nvar)
    objval2 = [ZERO]
    for i, b in enumerate(basis):
        if obj2[b]:
            f = obj2[b]
            for j in range(total_cols):
                obj2[j] -= f * table[i][j]
            objval2[0] -= f * rhs[i]
    blocked = set(art_cols)
    status = run_simplex(obj2, objval2, blocked)
    if status == "unbounded":
        return LPSolution("unbounded", [], None)
    x = [ZERO] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = rhs[i]
    return LPSolution("optimal", x, -objval2[0])
