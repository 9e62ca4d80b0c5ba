"""Exact simplex and blow-up weighting tests."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from localchrom import families, weighting
from localchrom.graphs import (
    CertificateError,
    Graph,
    WeightedGraph,
    bits,
    blow_up,
    merge_twins,
    relabel,
)
from localchrom.simplex import solve_lp
from localchrom.weighting import optimal_weighting, verify_weighting

F = Fraction


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


class TestSimplex:
    def test_small_known_lp(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6 -> x = 8/5, y = 6/5
        sol = solve_lp([F(1), F(1)], [([F(1), F(2)], "<=", F(4)), ([F(3), F(1)], "<=", F(6))])
        assert sol.status == "optimal"
        assert sol.value == F(14, 5)
        assert sol.x == [F(8, 5), F(6, 5)]

    def test_equality_constraint(self):
        sol = solve_lp([F(2), F(3)], [([F(1), F(1)], "=", F(1))])
        assert sol.status == "optimal" and sol.value == F(3) and sol.x == [F(0), F(1)]

    def test_infeasible(self):
        sol = solve_lp([F(1)], [([F(1)], "=", F(1)), ([F(1)], "=", F(2))])
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve_lp([F(1)], [([F(-1)], "<=", F(1))])
        assert sol.status == "unbounded"

    def test_ge_rows_and_negative_rhs_rejected(self):
        for row in [([F(1)], ">=", F(2)), ([F(-1)], "<=", F(-2)), ([F(1)], "=", F(-1))]:
            with pytest.raises(ValueError):
                solve_lp([F(1)], [([F(1)], "<=", F(3)), row])

    def test_degenerate_cycling_guard(self):
        # Beale's cycling example; Bland's rule must terminate at 1/20
        rows = [
            ([F(1, 4), F(-60), F(-1, 25), F(9)], "<=", F(0)),
            ([F(1, 2), F(-90), F(-1, 50), F(3)], "<=", F(0)),
            ([F(0), F(0), F(1), F(0)], "<=", F(1)),
        ]
        sol = solve_lp([F(3, 4), F(-150), F(1, 50), F(-6)], rows)
        assert sol.status == "optimal"
        assert sol.value == F(1, 20)

    def test_row_duals_certify_the_optimum(self):
        # seeded bounded feasible LPs: a known feasible point x0 fixes each
        # rhs (an "=" row is negated where its lhs at x0 is negative), and a
        # box keeps it bounded
        rng = random.Random(41)
        for _ in range(150):
            nvar, m = rng.randint(1, 4), rng.randint(1, 5)
            x0 = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(nvar)]
            rows = []
            for _ in range(m):
                coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvar)]
                lhs = sum(a * x for a, x in zip(coeffs, x0))
                rel = rng.choice(["<=", "="])
                if rel == "<=":
                    rhs = max(lhs, 0) + rng.randint(0, 3)
                elif lhs < 0:
                    coeffs, rhs = [-a for a in coeffs], -lhs
                else:
                    rhs = lhs
                rows.append((coeffs, rel, rhs))
            rows += [([F(int(j == i)) for j in range(nvar)], "<=", F(5)) for i in range(nvar)]
            objective = [F(rng.randint(-4, 4)) for _ in range(nvar)]
            sol = solve_lp(objective, rows)
            assert sol.status == "optimal" and len(sol.dual) == len(rows)
            for y, (_, rel, _) in zip(sol.dual, rows):
                if rel == "<=":
                    assert y >= 0
            for j, c in enumerate(objective):
                assert sum(y * coeffs[j] for y, (coeffs, _, _) in zip(sol.dual, rows)) >= c
            assert sum(y * rhs for y, (_, _, rhs) in zip(sol.dual, rows)) == sol.value

    def test_drive_out_on_a_negative_entry(self):
        # Phase 1 pivots x2 into row 0, then x1 into row 2, whose ratio ties
        # with row 1's and whose slack has the lesser index; row 1's
        # artificial stays basic at level zero, so the drive-out pivots on
        # row 1's entry -2/5 in that slack's column, and phase 2 still has
        # x3 to bring in, reading signs on the tableau the drive-out left
        objective = [F(1), F(1, 2), F(1)]
        rows = [([F(-1, 2), F(1, 3), F(0)], "=", F(0)), ([F(0), F(2, 3), F(0)], "=", F(2))]
        rows += [([F(1), F(1), F(0)], "<=", F(5)), ([F(0), F(0), F(1)], "<=", F(1))]
        sol = solve_lp(objective, rows)
        assert (sol.status, sol.x, sol.value) == ("optimal", [F(2), F(3), F(1)], F(9, 2))
        assert sol.dual == [F(-2), F(7, 4), F(0), F(1)]
        assert all(v >= 0 for v in sol.x)
        for (coeffs, rel, rhs), y in zip(rows, sol.dual):
            lhs = sum(a * v for a, v in zip(coeffs, sol.x))
            assert lhs == rhs if rel == "=" else (lhs <= rhs and y >= 0)
        for j, c in enumerate(objective):
            assert sum(y * coeffs[j] for y, (coeffs, _, _) in zip(sol.dual, rows)) >= c
        assert sum(c * v for c, v in zip(objective, sol.x)) == sol.value
        assert sum(y * rhs for y, (_, _, rhs) in zip(sol.dual, rows)) == sol.value

    def test_random_lps_are_frozen(self):
        # SHA-256 over (status, x, value, dual) of 200 seeded LPs with
        # fractional data, sparse rows and zero right-hand sides (degenerate
        # ties), "=" rows with redundant multiples that leave an artificial
        # basic at level zero, and infeasible and unbounded cases; frozen from
        # the Fraction tableau, before the tableau became integer
        rng = random.Random(47)

        def coeff():
            return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)

        digest, statuses = hashlib.sha256(), []
        for _ in range(200):
            nvar, m = rng.randint(1, 5), rng.randint(1, 5)
            x0 = [F(rng.randint(0, 3), rng.randint(1, 2)) * rng.randint(0, 1) for _ in range(nvar)]
            consistent = rng.random() < 0.8
            rows = []
            for _ in range(m):
                coeffs, rel = [coeff() for _ in range(nvar)], rng.choice(["<=", "="])
                lhs = sum(a * x for a, x in zip(coeffs, x0))
                if not consistent:
                    rhs = F(rng.randint(0, 4), rng.randint(1, 3))
                elif rel == "<=":
                    rhs = max(lhs, 0) + rng.choice([0, 0, F(1, 2), 2])
                elif lhs < 0:
                    coeffs, rhs = [-a for a in coeffs], -lhs
                else:
                    rhs = lhs
                rows.append((coeffs, rel, rhs))
            equalities = [row for row in rows if row[1] == "="]
            if equalities and rng.random() < 0.4:
                (a, _, p), (b, _, q) = rng.choice(equalities), rng.choice(equalities)
                k = F(rng.randint(1, 3), rng.randint(1, 2))
                redundant = ([k * (s + t) for s, t in zip(a, b)], "=", k * (p + q))
                rows.insert(rng.randint(0, len(rows)), redundant)
            if rng.random() < 0.6:
                rows += [([F(int(j == i)) for j in range(nvar)], "<=", F(3)) for i in range(nvar)]
            sol = solve_lp([coeff() for _ in range(nvar)], rows)
            statuses.append(sol.status)
            digest.update(repr((sol.status, sol.x, sol.value, sol.dual)).encode())
        assert {s: statuses.count(s) for s in set(statuses)} == {
            "optimal": 163, "unbounded": 20, "infeasible": 17
        }
        expected = "a0825462a5151d5e0aa14a9934f7563882fbc096bb8ffe08f4e9f79a11011301"
        assert digest.hexdigest() == expected


def _relabelled_catalogue():
    """The 21 graphs of the benchmark's t* catalogue, relabelled as it relabels them."""
    ids = ["H2", "H2PLUS", "C7BAR", "COUNTEREXAMPLE8", "H2PLUS_AUG", "WHEEL(5)", "WHEEL(7)"]
    ids += [f"DELTA({ell})" for ell in range(3, 8)] + [f"ANDRASFAI({i})" for i in range(3, 9)]
    catalogue = [families.generate(fid) for fid in ids]
    h2plus, c7bar = families.h2plus(), families.c7bar()
    catalogue += [blow_up(h2plus, [2] * 8), blow_up(h2plus, [3] * 8), blow_up(c7bar, [3] * 7)]
    graphs = []
    rng = random.Random(1)
    for g in catalogue:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    return graphs


def _support_full_reference(g, t):
    """Primal test of full support: maximise s subject to omega_v >= s,
    deg_omega(v) >= t and sum omega = 1; full support iff the optimum s > 0.
    Variables omega (n), s, and one surplus per degree row (n)."""
    n = g.n
    objective = [F(0)] * n + [F(1)] + [F(0)] * n
    rows = []
    for v in range(n):
        row = [F(0)] * (2 * n + 1)
        for u in bits(g.adj[v]):
            row[u] = F(1)
        row[n + 1 + v] = F(-1)
        rows.append((row, "=", t))  # deg_omega(v) - surplus_v = t
        row = [F(0)] * (2 * n + 1)
        row[v], row[n] = F(-1), F(1)
        rows.append((row, "<=", F(0)))  # s - omega_v <= 0
    rows.append(([F(1)] * n + [F(0)] * (n + 1), "=", F(1)))
    sol = solve_lp(objective, rows)
    assert sol.status == "optimal"
    return sol.value > 0


class TestOptimalWeighting:
    def test_h2(self):
        r = optimal_weighting(families.h2())
        assert r.optimum == F(6, 11)
        assert r.weights == families.H2_FIGURE_WEIGHTS
        assert r.support_full

    def test_h2plus(self):
        r = optimal_weighting(families.h2plus())
        assert r.optimum == F(5, 9)
        assert r.weights == families.H2PLUS_FIGURE_WEIGHTS
        assert {v for v, w in enumerate(r.weights) if w == 0} == {1, 6}
        assert not r.support_full

    def test_c7bar_uniform(self):
        r = optimal_weighting(families.c7bar())
        assert r.optimum == F(4, 7)
        assert r.weights == tuple(F(1, 7) for _ in range(7))

    def test_counterexample8(self):
        r = optimal_weighting(families.counterexample8())
        assert r.optimum == F(6, 11)
        assert verify_weighting(
            families.counterexample8(), families.COUNTEREXAMPLE8_FIGURE_WEIGHTS, F(1, 2)
        )

    def test_vertex_transitive_uniform_attains(self):
        # the uniform weighting is optimal and positive, so support_full holds;
        # ANDRASFAI(14) has 41 vertices, an LP of 42 rows and 42 variables
        cases = [families.c7bar(), families.delta(3), families.delta(4)]
        cases += [families.andrasfai(i) for i in (2, 3, 4, 14)]
        for g in cases:
            r = optimal_weighting(g)
            assert r.optimum == F(g.min_degree(), g.n) and r.support_full is True

    def test_dual_distribution(self):
        r = optimal_weighting(families.h2plus())
        assert sum(r.dual) == 1 and all(y >= 0 for y in r.dual)

    def test_one_lp_unless_support_is_read(self, monkeypatch):
        calls = []

        def counted(objective, rows):
            calls.append(rows)
            return solve_lp(objective, rows)

        monkeypatch.setattr(weighting, "solve_lp", counted)
        r = optimal_weighting(families.h2plus())
        assert len(calls) == 1
        assert not r.support_full
        assert len(calls) == 2
        assert not r.support_full
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "field, corrupt, message",
        [
            ("x", lambda x: [x[0] + F(1, 100), *x[1:]], "primal is not a distribution"),
            ("x", lambda x: [F(1)] + [F(0)] * (len(x) - 1), "primal is not feasible"),
            ("dual", lambda d: [F(-1, 100), *d[1:]], "dual is not feasible"),
            ("dual", lambda d: [*d[:-1], d[-1] - 1], "dual is not feasible"),
            ("dual", lambda d: [*d[:-1], d[-1] + F(1, 100)], "values differ"),
        ],
        ids=["x-off-sum", "x-point-mass", "z-negative", "w-too-low", "w-too-high"],
    )
    def test_support_full_rechecks_its_lp(self, monkeypatch, field, corrupt, message):
        # a wrong primal or wrong row multipliers from the LP raise, never answer
        def corrupted(objective, rows):
            lp = solve_lp(objective, rows)
            return replace(lp, **{field: corrupt(getattr(lp, field))})

        for g in (families.h2(), families.h2plus(), families.c7bar()):
            r = optimal_weighting(g)
            monkeypatch.setattr(weighting, "solve_lp", corrupted)
            with pytest.raises(CertificateError, match=message):
                r.support_full
            monkeypatch.undo()

    def test_support_full_matches_the_primal_formulation(self):
        graphs = _relabelled_catalogue()
        rng = random.Random(43)
        graphs += [random_graph(rng, rng.randint(2, 9), rng.random()) for _ in range(150)]
        h2plus, c7bar = families.h2plus(), families.c7bar()
        for base in (h2plus, families.h2(), c7bar, families.counterexample8()):
            graphs.append(blow_up(base, [rng.randint(1, 3) for _ in range(base.n)]))
        graphs += [Graph(1), Graph(3, [(0, 1)]), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])]
        outcomes = set()
        for g in graphs:
            r = optimal_weighting(g)
            assert r.support_full == _support_full_reference(g, r.optimum), g
            outcomes.add((r.support_full, r.has_isolated_vertex))
        assert outcomes == {(True, False), (False, False), (True, True)}

    def test_results_are_frozen(self):
        # SHA-256 over (t*, weights, dual, support_full) of 206 graphs: the
        # relabelled catalogue, 150 random graphs on 2-9 vertices, the five
        # families the catalogue leaves out and 30 blow-ups with classes of
        # 1-2; frozen from the one-LP support_full, before any change to the
        # pivoting of simplex.py
        graphs = _relabelled_catalogue()
        rng = random.Random(43)
        graphs += [random_graph(rng, rng.randint(2, 9), rng.random()) for _ in range(150)]
        left_out = ("H0", "H1", "DELTA(2)", "ANDRASFAI(1)", "ANDRASFAI(2)")
        graphs += [families.generate(fid) for fid in left_out]
        rng = random.Random(44)
        for fid in ("H0", "H2", "H2PLUS", "C7BAR", "COUNTEREXAMPLE8") * 6:
            base = families.generate(fid)
            graphs.append(blow_up(base, [rng.randint(1, 2) for _ in range(base.n)]))
        assert len(graphs) == 206
        digest = hashlib.sha256()
        for g in graphs:
            r = optimal_weighting(g)
            digest.update(repr((r.optimum, r.weights, r.dual, r.support_full)).encode())
        expected = "11f48a1bf16f10b7b07efc81d269b303b351e9c43b81a8461baa46d50c65316a"
        assert digest.hexdigest() == expected

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            optimal_weighting(Graph(0))

    def test_isolated_vertex_flagged(self):
        g = Graph(3, [(0, 1)])
        r = optimal_weighting(g)
        assert r.optimum == 0 and r.has_isolated_vertex
        assert not r.beats(0)

    def test_k1(self):
        r = optimal_weighting(Graph(1))
        assert r.optimum == 0 and r.has_isolated_vertex

    def test_merge_twins_invariance(self):
        rng = random.Random(31)
        for fid in ("H2", "C7BAR", "H2PLUS"):
            g = families.generate(fid)
            base = optimal_weighting(g).optimum
            for _ in range(5):
                sizes = [rng.randint(1, 3) for _ in range(g.n)]
                merged = merge_twins(WeightedGraph(blow_up(g, sizes), [1] * sum(sizes)))
                assert optimal_weighting(merged.graph).optimum == base

    def test_edge_monotonicity(self):
        rng = random.Random(32)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.7))
            non_edges = list(g.non_edges())
            if not non_edges:
                continue
            before = optimal_weighting(g).optimum
            u, v = rng.choice(non_edges)
            after = optimal_weighting(g.with_edge(u, v)).optimum
            assert after >= before


class TestVerifyWeighting:
    def test_strictness_at_the_figure_value(self):
        g = families.h2()
        w = families.H2_FIGURE_WEIGHTS
        assert not verify_weighting(g, w, F(6, 11))  # equality, not strict
        assert verify_weighting(g, w, F(6, 11) - F(1, 1000))

    def test_c7bar_uniform_beats_half(self):
        assert verify_weighting(families.c7bar(), [1] * 7, F(1, 2))

    def test_k2_uniform_at_half(self):
        assert not verify_weighting(Graph(2, [(0, 1)]), [1, 1], F(1, 2))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_weighting(families.h2(), [0] * 7, F(1, 2))

    def test_beats_matches_threshold_semantics(self):
        r = optimal_weighting(families.h2plus())
        assert r.beats(F(1, 2))
        assert r.beats(F(5, 9) - F(1, 100))
        assert not r.beats(F(5, 9))


@pytest.mark.parametrize(
    "objective, rows, message",
    [
        ([F(1), F(1)], [([F(1)], "<=", F(1))], "row length mismatch"),
        ([F(1)], [([F(1)], ">=", F(1))], "bad relation '>='"),
        ([F(1)], [([F(1)], "=", F(-1))], "negative right-hand side"),
    ],
    ids=["short-row", "relation", "negative-rhs"],
)
def test_solve_lp_diagnostics(objective, rows, message):
    with pytest.raises(ValueError) as info:
        solve_lp(objective, rows)
    assert str(info.value) == message
