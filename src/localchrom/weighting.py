"""Optimal blow-up weightings: maximize the minimum weighted degree.

t*(G) = max over weightings omega (normalised to total weight 1, zeros
allowed) of min_v sum of omega over the neighbours of v.  "G beats c" means
t* > c: a strictly positive weighting above c exists iff t* > c, by
perturbing zeros (the figure's 0+ classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graphs import CertificateError, Graph, WeightedGraph, _weights_of, bits, min_weighted_degree
from .simplex import solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class WeightingResult:
    optimum: Fraction
    weights: tuple[Fraction, ...]  # total weight 1
    dual: tuple[Fraction, ...]  # distribution certifying optimality
    has_isolated_vertex: bool
    graph: Graph = field(repr=False, compare=False)

    @cached_property
    def support_full(self) -> bool:
        """Whether some optimal weighting is strictly positive everywhere.

        By strict complementarity (Goldman & Tucker, "Theory of linear
        programming", 1956), some optimal omega > 0 iff every optimal dual
        distribution y is tight at every vertex: deg_y(u) = t* for all u.
        For t* > 0 the optimal duals are exactly {y >= 0, sum y = 1,
        deg_y(u) <= t*}.  So take the cone of pairs (y, s) >= 0 with
        sum y = s <= 1 and deg_y(u) <= t* s, and maximise
        n t* s - sum_v deg(v) y_v, which equals sum_u (t* s - deg_y(u)) >= 0
        there (sum_u deg_y(u) = sum_v deg(v) y_v).  For s > 0, y / s is an
        optimal dual, so the maximum is 0 iff every optimal dual is tight.
        With an isolated vertex t* = 0, y sits on the isolated vertices, the
        objective is 0 and the answer is True (the uniform weighting is
        optimal).  One LP of n + 3 rows, all "<=" with right-hand side 0 but
        s <= 1, solved on the first read; its primal, its row multipliers
        and its value are re-checked exactly before the answer is read off.
        """
        g, t, n = self.graph, self.optimum, self.graph.n
        objective = [-Fraction(g.degree(v)) for v in range(n)] + [n * t]
        rows = [(_degree_row(g, u) + [-t], "<=", ZERO) for u in range(n)]
        rows += [([ONE] * n + [-ONE], "<=", ZERO), ([-ONE] * n + [ONE], "<=", ZERO)]
        rows.append(([ZERO] * n + [ONE], "<=", ONE))
        lp = _optimal(solve_lp(objective, rows), "full-support")
        (*y, s), z, (a, b, c) = lp.x, lp.dual[:n], lp.dual[n:]
        if not (
            len(y) == n and 0 <= s <= 1 and sum(y) == s and all(p >= 0 for p in y)
            and all(deg <= t * s for deg in _weights_of(g.adj, y))
        ):
            raise CertificateError("full-support primal is not feasible")
        if any(m < 0 for m in lp.dual) or any(
            deg + a - b < o for deg, o in zip(_weights_of(g.adj, z), objective)
        ) or -t * sum(z) - a + b + c < objective[n]:
            raise CertificateError("full-support dual is not feasible")
        # feasible on both sides with equal values, so both optimal (weak duality)
        if not sum(o * p for o, p in zip(objective, lp.x)) == c == lp.value:
            raise CertificateError("full-support primal and dual values differ")
        return lp.value == 0

    def beats(self, c: Fraction | int) -> bool:
        return self.optimum > Fraction(c)


def _degree_row(g: Graph, v: int) -> list[int]:
    row = [0] * g.n
    for u in bits(g.adj[v]):
        row[u] = 1
    return row


def _check_certificates(g: Graph, t: Fraction, omega, dual) -> None:
    """Re-check the primal and dual certificates of t* exactly; raise if either fails."""
    if not (sum(omega) == 1 and all(w >= 0 for w in omega)):
        raise CertificateError("primal weighting is not a distribution")
    if not (sum(dual) == 1 and all(y >= 0 for y in dual)):
        raise CertificateError("dual weighting is not a distribution")
    if min(_weights_of(g.adj, omega)) != t:
        raise CertificateError("primal weighting does not attain t*")
    # Dual feasibility: every vertex sees dual mass at most t*, which bounds
    # every weighting's minimum degree by t* (weak duality, checked exactly):
    # min_v A.omega <= omega . A.y <= t*.
    if max(_weights_of(g.adj, dual)) > t:
        raise CertificateError("dual weighting is not feasible")


def _optimal(solution, what: str):
    if solution.status != "optimal":
        raise CertificateError(f"{what} LP is {solution.status}")
    return solution


def optimal_weighting(g: Graph) -> WeightingResult:
    """Exact t*(g) with primal and dual certificates from one LP solve; the
    dual is the LP's row multipliers.  ``support_full`` solves one more LP,
    over the optimal duals, when it is first read."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no weighting")
    isolated = [v for v in range(n) if g.adj[v] == 0]
    if isolated:
        # Any weighting gives the isolated vertex degree 0, so t* = 0; the
        # dual concentrates on an isolated vertex (no one sees its mass).
        dual = tuple(ONE if v == isolated[0] else ZERO for v in range(n))
        return WeightingResult(ZERO, (Fraction(1, n),) * n, dual, True, g)  # uniform

    # Primal: variables (omega_0..omega_{n-1}, t), maximize t.  The multipliers
    # of the degree rows are the dual distribution y: deg_y(u) <= t*, sum y = 1.
    objective = [ZERO] * n + [ONE]
    rows = []
    for v in range(n):
        row = [-c for c in _degree_row(g, v)] + [ONE]  # t - deg_omega(v) <= 0
        rows.append((row, "<=", ZERO))
    # sum omega <= 1 is tight at every optimum: no vertex is isolated, so
    # t* > 0 and scaling omega up would raise t; and t > 0 makes sum y = 1
    # (complementary slackness)
    rows.append(([ONE] * n + [ZERO], "<=", ONE))
    primal = _optimal(solve_lp(objective, rows), "primal")
    t_star = primal.value
    omega = tuple(primal.x[:n])
    dual = tuple(primal.dual[:n])
    _check_certificates(g, t_star, omega, dual)
    return WeightingResult(t_star, omega, dual, False, g)


def verify_weighting(g: Graph, weights, c: Fraction | int) -> bool:
    """Exact check: does this weighting beat c (min degree > c * total weight)?"""
    wg = WeightedGraph(g, weights)
    total = wg.total_weight()
    if total == 0:
        raise ValueError("weighting must not be identically zero")
    return min_weighted_degree(wg) > Fraction(c) * total
