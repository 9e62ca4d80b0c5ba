"""Exact colouring and independence-number tests."""

import hashlib
import random
from itertools import combinations, product

import pytest

from localchrom import families
from localchrom.colouring import (
    chromatic_number,
    clique_number,
    greedy_clique,
    independence_number,
    k_colourable,
    normalise_colouring,
    validate_colouring,
)
from localchrom.graphs import Graph, bits, blow_up, complement, relabel


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


class TestKColourable:
    def test_c7bar_not_3_colourable(self):
        assert k_colourable(families.c7bar(), 3) is None

    def test_augmented_figure_graph(self):
        g = families.h2plus_augmented()
        col = k_colourable(g, 4)
        assert col is not None and validate_colouring(g, col, 4)
        assert validate_colouring(g, families.AUGMENTED_FIGURE_COLOURING, 4)

    def test_bipartite_always_2_colourable(self):
        rng = random.Random(1)
        for _ in range(30):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            g = blow_up(Graph(2, [(0, 1)]), [a, b])
            assert k_colourable(g, 2) is not None

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            k_colourable(families.h2(), 0)

    def test_k_above_n_allocates_nothing_per_colour(self):
        # a branch never offers a colour above n, so k is clamped to n and
        # the search's memory does not grow with k
        assert k_colourable(families.h2(), 10**12) == k_colourable(families.h2(), 7)

    def test_normalised_first_occurrence(self):
        col = k_colourable(families.c7bar(), 4)
        assert col[0] == 1
        seen = []
        for c in col:
            if c not in seen:
                seen.append(c)
        assert seen == sorted(seen)

    def test_none_is_order_robust(self):
        # a NONE verdict must survive relabelling the instance
        rng = random.Random(2)
        g = families.c7bar()
        assert k_colourable(g, 3) is None
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert k_colourable(relabel(g, perm), 3) is None

    def test_normalise_helper(self):
        assert normalise_colouring([3, 3, 1, 2]) == (1, 1, 2, 3)

    def test_deep_search_needs_no_recursion(self):
        # the search runs on an explicit stack: a 1500-vertex path is one
        # branch 1500 levels deep
        g = Graph(1500, [(i, i + 1) for i in range(1499)])
        col = k_colourable(g, 2)
        assert col is not None and validate_colouring(g, col, 2)

    def test_large_c7bar_blow_up_not_3_colourable(self):
        # 1,400 vertices; the search proves None in about 1,000 nodes
        assert k_colourable(blow_up(families.c7bar(), [200] * 7), 3) is None

    def test_certificates_are_frozen(self):
        # SHA-256 over k_colourable for k = 1..6 on 2,000 seeded random
        # graphs and 24 relabelled blow-ups, frozen at the full-scan DSATUR
        rng = random.Random(20121)
        graphs = [random_graph(rng, rng.randint(1, 16), rng.random()) for _ in range(2000)]
        for base in (families.c7bar(), families.h2plus(), families.delta(3)):
            for _ in range(8):
                g = blow_up(base, [rng.randint(1, 6) for _ in range(base.n)])
                perm = list(range(g.n))
                rng.shuffle(perm)
                graphs.append(relabel(g, perm))
        digest = hashlib.sha256()
        for g in graphs:
            for k in range(1, 7):
                digest.update(f"{k_colourable(g, k)}\n".encode())
        assert digest.hexdigest() == "6487c9593d2a255aeca4d3b952ced5236e27e5fb7e6abb9bd85041f2cf34e009"

    def test_vs_brute_force(self):
        # oracle: every map to 0..k-1, n <= 8
        rng = random.Random(31)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            edges = list(g.edges())
            for k in range(1, 5):
                brute = any(
                    all(col[u] != col[v] for u, v in edges)
                    for col in product(range(k), repeat=g.n)
                )
                col = k_colourable(g, k)
                assert (col is not None) == brute
                if col is not None:
                    assert all(1 <= c <= k for c in col)
                    assert all(col[u] != col[v] for u, v in edges)


class TestValidateColouring:
    def test_vs_edge_scan(self):
        rng = random.Random(41)
        verdicts = set()
        for _ in range(400):
            g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.1, 0.6))
            k = rng.randint(1, 4)
            colours = tuple(rng.randint(0, k + 1) for _ in range(g.n))
            expected = all(1 <= c <= k for c in colours) and all(
                colours[u] != colours[v] for u, v in g.edges()
            )
            assert validate_colouring(g, colours, k) == expected
            proper = all(colours[u] != colours[v] for u, v in g.edges())
            assert validate_colouring(g, colours) == proper
            verdicts.add((expected, proper))
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_wrong_length(self):
        assert not validate_colouring(families.c7bar(), (1, 2, 3))


class TestChromaticNumber:
    @pytest.mark.parametrize("fid", ["H0", "H1", "H2", "H2PLUS", "C7BAR", "WHEEL(7)"])
    def test_families_four_chromatic(self, fid):
        g = families.generate(fid)
        k, colouring = chromatic_number(g)
        assert k == 4
        assert validate_colouring(g, colouring, 4)
        assert k_colourable(g, 3) is None

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_delta_four_chromatic(self, ell):
        assert chromatic_number(families.delta(ell))[0] == 4

    def test_k1(self):
        assert chromatic_number(Graph(1))[0] == 1

    def test_empty_graph(self):
        assert chromatic_number(Graph(0)) == (0, ())

    def test_blow_up_invariance(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.7))
            sizes = [rng.randint(1, 3) for _ in range(g.n)]
            assert chromatic_number(blow_up(g, sizes))[0] == chromatic_number(g)[0]

    def test_counting_bound(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            chi = chromatic_number(g)[0]
            alpha = independence_number(g)[0]
            assert chi * alpha >= g.n


class TestIndependenceNumber:
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_delta(self, ell):
        assert independence_number(families.delta(ell))[0] == ell

    def test_c7bar_by_brute_force(self):
        g = families.c7bar()
        brute = max(
            len(s)
            for size in range(8)
            for s in combinations(range(7), size)
            if all(not g.has_edge(u, v) for u, v in combinations(s, 2))
        )
        assert brute == 2
        assert independence_number(g)[0] == 2

    def test_empty_graph_alpha_n(self):
        assert independence_number(Graph(6))[0] == 6

    def test_deep_search_needs_no_recursion(self):
        # the branch and bound runs on an explicit stack: every vertex of an
        # edgeless graph joins the independent set, one level each
        n = 1100
        assert independence_number(Graph(n)) == (n, (1 << n) - 1)
        assert clique_number(complement(Graph(n))) == n

    def test_witness_is_independent(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            size, mask = independence_number(g)
            members = list(bits(mask))
            assert len(members) == size
            assert all(not g.has_edge(u, v) for u, v in combinations(members, 2))

    def test_vs_brute_force(self):
        rng = random.Random(10)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            brute = max(
                (
                    len(s)
                    for size in range(g.n, -1, -1)
                    for s in combinations(range(g.n), size)
                    if all(not g.has_edge(u, v) for u, v in combinations(s, 2))
                ),
                default=0,
            )
            assert independence_number(g)[0] == brute


def greedy_clique_every_candidate(g):
    """Reference: ``greedy_clique`` as it was before it scored one candidate
    per open-twin class, scoring every candidate at each growth step."""
    best = 0
    grown = set()
    for start in sorted(range(g.n), key=lambda v: -g.degree(v)):
        if g.adj[start] in grown:
            continue
        grown.add(g.adj[start])
        clique = 1 << start
        candidates = g.adj[start]
        while candidates:
            v = max(bits(candidates), key=lambda u: (g.adj[u] & candidates).bit_count())
            clique |= 1 << v
            candidates &= g.adj[v]
        if clique.bit_count() > best.bit_count():
            best = clique
    return best


class TestCliqueHelpers:
    def test_greedy_clique_matches_scoring_every_candidate(self):
        rng = random.Random(2011)
        hosts = [random_graph(rng, rng.randint(0, 40), rng.random()) for _ in range(500)]
        for _ in range(40):  # relabelled blow-ups: open twin classes of up to four
            base = random_graph(rng, rng.randint(1, 8), rng.uniform(0.3, 0.9))
            g = blow_up(base, [rng.randint(1, 4) for _ in range(base.n)])
            perm = list(range(g.n))
            rng.shuffle(perm)
            hosts.append(relabel(g, perm))
        named = (families.c7bar(), families.h2plus(), families.delta(3))
        hosts += [blow_up(f, [20] * f.n) for f in named]
        hosts.append(blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [100] * 3))
        for g in hosts:
            assert greedy_clique(g) == greedy_clique_every_candidate(g)

    def test_greedy_clique_is_clique(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            members = list(bits(greedy_clique(g)))
            assert all(g.has_edge(u, v) for u, v in combinations(members, 2))

    def test_clique_number_blow_up_invariant(self):
        rng = random.Random(14)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 5), rng.uniform(0.3, 0.8))
            sizes = [rng.randint(1, 3) for _ in range(g.n)]
            assert clique_number(blow_up(g, sizes)) == clique_number(g)

    def test_clique_number_vs_complement_and_brute_force(self):
        rng = random.Random(15)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 7), rng.random())
            brute = max(
                len(s)
                for size in range(g.n + 1)
                for s in combinations(range(g.n), size)
                if all(g.has_edge(u, v) for u, v in combinations(s, 2))
            )
            assert clique_number(g) == independence_number(complement(g))[0] == brute


@pytest.mark.parametrize("k", [1, 3])
def test_the_empty_graph_is_coloured_by_the_empty_colouring(k):
    assert k_colourable(Graph(0), k) == ()
