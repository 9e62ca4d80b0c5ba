"""Optimal blow-up weightings: maximize the minimum weighted degree.

t*(G) = max over weightings omega (normalised to total weight 1, zeros
allowed) of min_v sum of omega over the neighbours of v.  "G beats c" means
t* > c: a strictly positive weighting above c exists iff t* > c, by
perturbing zeros (the figure's 0+ classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import CertificateError, Graph, WeightedGraph, bits, min_weighted_degree
from .simplex import solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class WeightingResult:
    optimum: Fraction
    weights: tuple[Fraction, ...]  # total weight 1
    dual: tuple[Fraction, ...]  # distribution certifying optimality
    support_full: bool  # some optimal weighting is strictly positive everywhere
    has_isolated_vertex: bool

    def beats(self, c: Fraction | int) -> bool:
        return self.optimum > Fraction(c)


def _degree_row(g: Graph, v: int) -> list[Fraction]:
    row = [ZERO] * g.n
    for u in bits(g.adj[v]):
        row[u] = ONE
    return row


def _check_certificates(g: Graph, t: Fraction, omega, dual) -> None:
    """Re-check the primal and dual certificates of t* exactly; raise if either fails."""
    n = g.n
    if not (sum(omega) == 1 and all(w >= 0 for w in omega)):
        raise CertificateError("primal weighting is not a distribution")
    if not (sum(dual) == 1 and all(y >= 0 for y in dual)):
        raise CertificateError("dual weighting is not a distribution")
    degrees = [sum(omega[u] for u in bits(g.adj[v])) for v in range(n)]
    if min(degrees) != t:
        raise CertificateError("primal weighting does not attain t*")
    # Dual feasibility: every vertex sees dual mass at most t*, which bounds
    # every weighting's minimum degree by t* (weak duality, checked exactly):
    # min_v A.omega <= omega . A.y <= t*.
    if not all(sum(dual[v] for v in bits(g.adj[u])) <= t for u in range(n)):
        raise CertificateError("dual weighting is not feasible")


def _optimal(solution, what: str):
    if solution.status != "optimal":
        raise CertificateError(f"{what} LP is {solution.status}")
    return solution


def optimal_weighting(g: Graph) -> WeightingResult:
    """Exact t*(g) with primal and dual certificates, via three LP solves:
    the primal, the dual and the full-support LP."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no weighting")
    uniform = tuple(Fraction(1, n) for _ in range(n))
    isolated = [v for v in range(n) if g.adj[v] == 0]
    if isolated:
        # Any weighting gives the isolated vertex degree 0, so t* = 0; the
        # dual concentrates on an isolated vertex (no one sees its mass).
        dual = tuple(ONE if v == isolated[0] else ZERO for v in range(n))
        return WeightingResult(ZERO, uniform, dual, True, True)

    # Primal: variables (omega_0..omega_{n-1}, t), maximize t.
    cols = n + 1
    objective = [ZERO] * n + [ONE]
    rows = []
    for v in range(n):
        row = [-c for c in _degree_row(g, v)] + [ONE]  # t - deg_omega(v) <= 0
        rows.append((row, "<=", ZERO))
    rows.append(([ONE] * n + [ZERO], "=", ONE))
    primal = _optimal(solve_lp(objective, rows), "primal")
    t_star = primal.value
    omega = tuple(primal.x[:n])

    # Dual: variables (y_0..y_{n-1}, z), minimize z s.t. deg_y(u) <= z, sum y = 1.
    objective = [ZERO] * n + [-ONE]
    rows = []
    for u in range(n):
        row = _degree_row(g, u) + [-ONE]
        rows.append((row, "<=", ZERO))
    rows.append(([ONE] * n + [ZERO], "=", ONE))
    dual_sol = _optimal(solve_lp(objective, rows), "dual")
    if -dual_sol.value != t_star:
        raise CertificateError("primal/dual optima disagree")
    dual = tuple(dual_sol.x[:n])

    _check_certificates(g, t_star, omega, dual)

    # Full support: maximize s subject to omega >= s, degrees >= t*, sum = 1.
    objective = [ZERO] * n + [ONE]
    rows = []
    for v in range(n):
        rows.append((_degree_row(g, v) + [ZERO], ">=", t_star))
    for v in range(n):
        row = [ZERO] * cols
        row[v] = -ONE
        row[n] = ONE
        rows.append((row, "<=", ZERO))  # s - omega_v <= 0
    rows.append(([ONE] * n + [ZERO], "=", ONE))
    support = _optimal(solve_lp(objective, rows), "full-support")
    support_full = support.value > 0

    return WeightingResult(t_star, omega, dual, support_full, False)


def verify_weighting(g: Graph, weights, c: Fraction | int) -> bool:
    """Exact check: does this weighting beat c (min degree > c * total weight)?"""
    wg = WeightedGraph(g, weights)
    total = wg.total_weight()
    if total == 0:
        raise ValueError("weighting must not be identically zero")
    return min_weighted_degree(wg) > Fraction(c) * total
