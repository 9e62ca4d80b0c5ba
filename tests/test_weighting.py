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
    min_weighted_degree,
    relabel,
    weighted_degree,
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

    def test_unbounded(self):
        sol = solve_lp([F(1)], [([F(-1)], "<=", F(1))])
        assert sol.status == "unbounded"

    def test_ge_rows_and_negative_rhs_rejected(self):
        rejected = [([F(1)], ">=", F(2)), ([F(-1)], "<=", F(-2)), ([F(1)], "=", F(-1))]
        for row in [*rejected, ([F(1)], "=", F(1))]:
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
        # seeded bounded LPs: a known feasible point x0 fixes each rhs, and a
        # box keeps it bounded
        rng = random.Random(41)
        for _ in range(150):
            nvar, m = rng.randint(1, 4), rng.randint(1, 5)
            x0 = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(nvar)]
            rows = []
            for _ in range(m):
                coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvar)]
                lhs = sum(a * x for a, x in zip(coeffs, x0))
                rows.append((coeffs, "<=", max(lhs, 0) + rng.randint(0, 3)))
            rows += [([F(int(j == i)) for j in range(nvar)], "<=", F(5)) for i in range(nvar)]
            objective = [F(rng.randint(-4, 4)) for _ in range(nvar)]
            sol = solve_lp(objective, rows)
            assert sol.status == "optimal" and len(sol.dual) == len(rows)
            assert all(y >= 0 for y in sol.dual)
            for j, c in enumerate(objective):
                assert sum(y * coeffs[j] for y, (coeffs, _, _) in zip(sol.dual, rows)) >= c
            assert sum(y * rhs for y, (_, _, rhs) in zip(sol.dual, rows)) == sol.value

    def test_random_lps_are_frozen(self):
        # SHA-256 over (status, x, value, dual) of 200 seeded LPs with
        # fractional data, sparse rows and zero right-hand sides (degenerate
        # ties), and unbounded cases; every row "<=", each rhs from a seeded
        # point x0 or drawn at random; frozen from the two-phase solver,
        # which solved an LP without "=" rows in phase 2 alone
        rng = random.Random(47)

        def coeff():
            return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)

        digest, statuses = hashlib.sha256(), []
        for _ in range(200):
            nvar, m = rng.randint(1, 5), rng.randint(1, 5)
            x0 = [F(rng.randint(0, 3), rng.randint(1, 2)) * rng.randint(0, 1) for _ in range(nvar)]
            at_x0 = rng.random() < 0.8
            rows = []
            for _ in range(m):
                coeffs = [coeff() for _ in range(nvar)]
                if at_x0:
                    lhs = sum(a * x for a, x in zip(coeffs, x0))
                    rhs = max(lhs, 0) + rng.choice([0, 0, F(1, 2), 2])
                else:
                    rhs = F(rng.randint(0, 4), rng.randint(1, 3))
                rows.append((coeffs, "<=", rhs))
            if rng.random() < 0.6:
                rows += [([F(int(j == i)) for j in range(nvar)], "<=", F(3)) for i in range(nvar)]
            sol = solve_lp([coeff() for _ in range(nvar)], rows)
            statuses.append(sol.status)
            digest.update(repr((sol.status, sol.x, sol.value, sol.dual)).encode())
        assert {s: statuses.count(s) for s in set(statuses)} == {"optimal": 171, "unbounded": 29}
        expected = "7778a8e56fb075a324bbae8cf5c6b3a95acd937cb6c604a07e2a788771a0b5af"
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
    """Primal test of full support: maximise e subject to e <= omega_v,
    t s <= deg_omega(v), sum omega = s and s <= 1; for s > 0, omega / s is
    an optimal weighting, so full support iff the optimum e > 0.
    Variables omega (n), s and e."""
    n = g.n
    objective = [F(0)] * (n + 1) + [F(1)]
    rows = []
    for v in range(n):
        row = [F(0)] * (n + 2)
        row[v], row[n + 1] = F(-1), F(1)
        rows.append((row, "<=", F(0)))  # e - omega_v <= 0
        row = [F(0)] * n + [t, F(0)]
        for u in bits(g.adj[v]):
            row[u] = F(-1)
        rows.append((row, "<=", F(0)))  # t s - deg_omega(v) <= 0
    rows.append(([F(1)] * n + [F(-1), F(0)], "<=", F(0)))  # sum omega - s <= 0
    rows.append(([F(-1)] * n + [F(1), F(0)], "<=", F(0)))  # s - sum omega <= 0
    rows.append(([F(0)] * n + [F(1), F(0)], "<=", F(1)))  # s <= 1
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
            ("x", lambda x: [x[0] + F(1, 100), *x[1:]], "primal is not feasible"),
            ("x", lambda x: [F(1)] + [F(0)] * (len(x) - 1), "primal is not feasible"),
            ("x", lambda x: [*x[:-1], x[-1] + F(1, 100)], "primal is not feasible"),
            ("dual", lambda d: [F(-1, 100), *d[1:]], "dual is not feasible"),
            ("dual", lambda d: [*d[:-3], d[-3] + 1, *d[-2:]], "dual is not feasible"),
            ("dual", lambda d: [*d[:-2], d[-2] + 1, d[-1]], "dual is not feasible"),
            ("dual", lambda d: [*d[:-1], d[-1] - 1], "dual is not feasible"),
            ("dual", lambda d: [*d[:-1], d[-1] + F(1, 100)], "values differ"),
        ],
        ids=[
            "x-off-sum", "x-point-mass", "s-off-sum", "z-negative",
            "sum-at-most-s-too-high", "s-at-most-sum-too-high", "w-too-low", "w-too-high",
        ],
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

    def test_support_full_on_large_blow_ups(self):
        # a blow-up keeps the answer of its base: 280 and 80 vertices
        assert optimal_weighting(blow_up(families.c7bar(), [40] * 7)).support_full is True
        assert optimal_weighting(blow_up(families.h2plus(), [10] * 8)).support_full is False

    def test_results_are_frozen(self):
        # SHA-256 over (t*, weights, dual, support_full) of 206 graphs: the
        # relabelled catalogue, 150 random graphs on 2-9 vertices, the five
        # families the catalogue leaves out and 30 blow-ups with classes of
        # 1-2; frozen from the one-phase simplex with sum omega <= 1.  The
        # answers alone, (t*, support_full), have their own SHA, frozen from
        # the two-phase simplex with sum omega = 1: the certificates may move
        # where the optimum is not unique, the answers may not
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
        digest, answers = hashlib.sha256(), hashlib.sha256()
        for g in graphs:
            r = optimal_weighting(g)
            digest.update(repr((r.optimum, r.weights, r.dual, r.support_full)).encode())
            answers.update(repr((r.optimum, r.support_full)).encode())
        expected = "e3a7cc1b1b87da31d16fee46faa0b2123a371bf6905040c36899b3f6cd30e758"
        assert answers.hexdigest() == expected
        expected = "18f3378d48febb1d9e1d1bf48d4b7467941b34fd72b763373d61b4a0ab996d7c"
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

    def test_weight_sums_match_plain_fraction_sums(self):
        # every exact weight sum against one written out Fraction by Fraction,
        # on weights mixing ints, zeros and several denominators
        rng = random.Random(34)

        def plain(weights, vertices):
            total = F(0)
            for v in vertices:
                total += F(weights[v])
            return total

        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8))
            b = blow_up(g, [rng.randint(1, 3) for _ in range(g.n)])
            weights = [
                rng.choice([0, rng.randint(1, 5), F(rng.randint(0, 7), rng.choice([2, 3, 4, 6, 9, 35]))])
                for _ in range(b.n)
            ]
            if not any(weights):
                weights[rng.randrange(b.n)] = F(1, 7)
            wg = WeightedGraph(b, weights)
            degrees = [plain(weights, bits(row)) for row in b.adj]
            assert [weighted_degree(wg, v) for v in range(b.n)] == degrees
            assert min_weighted_degree(wg) == min(degrees)
            total = plain(weights, range(b.n))
            ratio = min(degrees) / total
            for c in (ratio, ratio - F(1, 1000), F(rng.randint(0, 4), 5)):
                assert verify_weighting(b, weights, c) == (min(degrees) > c * total)
            classes = {}
            for v, row in enumerate(b.adj):
                classes.setdefault(row, []).append(v)
            assert list(merge_twins(wg).weights) == [plain(weights, vs) for vs in classes.values()]

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
        ([F(1)], [([F(1)], "=", F(1))], "bad relation '='"),
        ([F(1)], [([F(1)], "<=", F(-1))], "negative right-hand side"),
    ],
    ids=["short-row", "relation", "equality", "negative-rhs"],
)
def test_solve_lp_diagnostics(objective, rows, message):
    with pytest.raises(ValueError) as info:
        solve_lp(objective, rows)
    assert str(info.value) == message
