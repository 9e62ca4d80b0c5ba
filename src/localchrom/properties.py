"""Seeded randomized property suites backing the acceptance report.

Each suite returns a list of violation strings (empty = pass) and is run with
a fixed seed and at least 200 cases by the acceptance layer; the same
functions are exercised from pytest.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from . import families
from .colouring import chromatic_number, clique_number, k_colourable
from .graphs import Graph, WeightedGraph, bits, blow_up, mask_of, merge_twins, relabel, weighted_degree
from .homomorphism import compose, find_homomorphism, find_subgraph, is_homomorphism, verify_hom_forces_induced
from .structure import PairClass, classify_pair, dense_set, is_locally_bipartite


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _random_high_degree_graph(rng: random.Random) -> Graph:
    """A graph with delta > n/2, by rejection sampling."""
    while True:
        n = rng.randint(5, 9)
        g = random_graph(rng, n, rng.uniform(0.6, 0.85))
        if 2 * g.min_degree() > n:
            return g


def _maximum_independent_sets(g: Graph) -> list[int]:
    out: list[int] = []
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                out.append(sum(1 << v for v in subset))
        if out:
            break
    return out


def suite_independent_set_pairs_dense(rng: random.Random, cases: int) -> list[str]:
    """delta > n/2: every pair inside any maximum independent set is dense."""
    violations = []
    for case in range(cases):
        g = _random_high_degree_graph(rng)
        for mask in _maximum_independent_sets(g):
            members = list(bits(mask))
            for u, v in combinations(members, 2):
                if classify_pair(g, u, v) is not PairClass.DENSE:
                    violations.append(f"case {case}: pair ({u},{v}) in max independent set not dense")
    return violations


def suite_c4_diagonal_dense(rng: random.Random, cases: int) -> list[str]:
    """delta > n/2: every induced 4-cycle has at least one dense diagonal."""
    violations = []
    for _ in range(cases):
        g = _random_high_degree_graph(rng)
        for subset in combinations(range(g.n), 4):
            # an induced 4-cycle: each member has exactly two neighbours among them
            members = mask_of(subset)
            if any((g.adj[v] & members).bit_count() != 2 for v in subset):
                continue
            diagonals = [(u, v) for u, v in combinations(subset, 2) if not g.has_edge(u, v)]
            if not any(classify_pair(g, u, v) is PairClass.DENSE for u, v in diagonals):
                violations.append(f"induced C4 {subset} has no dense diagonal")
    return violations


def _random_locally_bipartite_h0_free(rng: random.Random) -> Graph:
    h0 = families.h0()
    while True:
        n = rng.randint(5, 9)
        g = random_graph(rng, n, rng.uniform(0.25, 0.5))
        if is_locally_bipartite(g) and find_subgraph(h0, g) is None:
            return g


def suite_dense_sets_independent(rng: random.Random, cases: int) -> list[str]:
    """Locally bipartite and H0-free: every D_v is an independent set."""
    violations = []
    for case in range(cases):
        g = _random_locally_bipartite_h0_free(rng)
        for v in range(g.n):
            members = list(bits(dense_set(g, v)))
            for a, b in combinations(members, 2):
                if g.has_edge(a, b):
                    violations.append(f"case {case}: D_{v} contains edge ({a},{b})")
    return violations


def suite_hom_forces_induced(rng: random.Random, cases: int) -> list[str]:
    """Twin-free edge-maximal locally bipartite f homomorphic to locally
    bipartite g must appear induced in g; exercised on relabelled blow-ups."""
    violations = []
    anchors = [Graph(3, [(0, 1), (0, 2), (1, 2)]), families.c7bar(), families.h2plus()]
    for case in range(cases):
        f = anchors[case % len(anchors)]
        sizes = [rng.randint(1, 3) for _ in range(f.n)]
        g = relabel(blow_up(f, sizes), random_permutation(rng, sum(sizes)))
        report = verify_hom_forces_induced(f, g)
        if not report.hypotheses_hold:
            violations.append(f"case {case}: hypotheses unexpectedly fail: {report.failed_hypotheses()}")
        elif not report.conclusion_holds:
            violations.append(f"case {case}: no induced copy found")
    return violations


def suite_blowup_invariance(rng: random.Random, cases: int) -> list[str]:
    """Blow-ups preserve chromatic number, clique number, local bipartiteness.

    Instances reach 30 vertices (base n <= 6, classes up to size 5).
    """
    violations = []
    for case in range(cases):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.uniform(0.3, 0.7))
        sizes = [rng.randint(1, 5) for _ in range(n)]
        b = blow_up(g, sizes)
        if chromatic_number(b)[0] != chromatic_number(g)[0]:
            violations.append(f"case {case}: chi changed under blow-up")
        if clique_number(b) != clique_number(g):
            violations.append(f"case {case}: clique number changed under blow-up")
        if is_locally_bipartite(b) != is_locally_bipartite(g):
            violations.append(f"case {case}: local bipartiteness changed under blow-up")
    return violations


def suite_merge_twins(rng: random.Random, cases: int) -> list[str]:
    """merge_twins preserves total weight and surviving weighted degrees; idempotent."""
    violations = []
    for case in range(cases):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.uniform(0.3, 0.7))
        sizes = [rng.randint(1, 3) for _ in range(n)]
        b = blow_up(g, sizes)
        weights = [Fraction(rng.randint(1, 5)) for _ in range(b.n)]
        wg = WeightedGraph(b, weights)
        merged = merge_twins(wg)
        if merged.total_weight() != wg.total_weight():
            violations.append(f"case {case}: total weight changed")
        degrees_before = sorted(set(weighted_degree(wg, v) for v in range(b.n)))
        degrees_after = sorted(set(weighted_degree(merged, v) for v in range(merged.graph.n)))
        if degrees_before != degrees_after:
            violations.append(f"case {case}: weighted degree profile changed")
        if merge_twins(merged) != merged:
            violations.append(f"case {case}: merge_twins not idempotent")
    return violations


def suite_hom_composition(rng: random.Random, cases: int) -> list[str]:
    """Certificates compose: G -> H and H -> K validate as G -> K."""
    violations = []
    for case in range(cases):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        h = blow_up(g, [rng.randint(1, 2) for _ in range(n)])
        k = blow_up(h, [rng.randint(1, 2) for _ in range(h.n)])
        c1 = find_homomorphism(g, h)
        c2 = find_homomorphism(h, k)
        if c1 is None or c2 is None:
            violations.append(f"case {case}: expected homomorphisms missing")
            continue
        if not is_homomorphism(g, k, compose(c1, c2)):
            violations.append(f"case {case}: composition does not validate")
    return violations


def suite_degree_identity(rng: random.Random, cases: int) -> list[str]:
    """d(u,v) = d(u) + d(v) - |Gamma(u) u Gamma(v)| for every pair."""
    violations = []
    for case in range(cases):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.random())
        for u, v in combinations(range(n), 2):
            lhs = (g.adj[u] & g.adj[v]).bit_count()
            rhs = g.degree(u) + g.degree(v) - (g.adj[u] | g.adj[v]).bit_count()
            if lhs != rhs:
                violations.append(f"case {case}: identity fails at ({u},{v})")
    return violations


PROPERTY_SUITES = [
    ("independent-set-pairs-dense", suite_independent_set_pairs_dense),
    ("c4-diagonal-dense", suite_c4_diagonal_dense),
    ("dense-sets-independent", suite_dense_sets_independent),
    ("hom-forces-induced", suite_hom_forces_induced),
    ("blowup-invariance", suite_blowup_invariance),
    ("merge-twins", suite_merge_twins),
    ("hom-composition", suite_hom_composition),
    ("degree-identity", suite_degree_identity),
]


# ---------------------------------------------------------------------------
# AES r=2 sanity instances (triangle-free, delta > 2/5 n, must be 2-colourable).


def _has_triangle(g: Graph) -> bool:
    return any(g.adj[u] & g.adj[v] for u, v in g.edges())


def _aes_candidate(rng: random.Random) -> Graph:
    """A K2, P4 or C5 blow-up less up to a tenth of its edges.  A C5 one never
    has delta > 2/5 n: its five class degrees sum to 2n, and deletions lower them."""
    base_kind = rng.choice(["K2", "P4", "C5"])
    if base_kind == "K2":
        base = Graph(2, [(0, 1)])
    elif base_kind == "P4":
        # C5 minus a vertex; its blow-ups seldom beat 2/5 (4 of 6,587 drawn)
        base = Graph(4, [(0, 1), (1, 2), (2, 3)])
    else:
        base = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    sizes = [rng.randint(1, 5) for _ in range(base.n)]
    g = blow_up(base, sizes)
    # perturb: delete a few random edges
    edges = list(g.edges())
    rng.shuffle(edges)
    drop = set(edges[: rng.randint(0, max(1, len(edges) // 10))])
    return Graph(g.n, [e for e in g.edges() if e not in drop])


def aes_r2_instances(rng: random.Random, count: int) -> list[Graph]:
    """Graphs with delta > 2/5 n: perturbed K2 and P4 blow-ups, so bipartite by
    construction, and the triangle test rejects none.  With verify-paper's
    seed all 100 are K2 blow-ups, drawn from 2,461 candidates."""
    out = []
    while len(out) < count:
        g = _aes_candidate(rng)
        if g.n < 3 or 5 * g.min_degree() <= 2 * g.n:
            continue
        if _has_triangle(g):
            continue
        out.append(g)
    return out


def suite_aes_r2(rng: random.Random, count: int = 100) -> list[str]:
    violations = []
    for i, g in enumerate(aes_r2_instances(rng, count)):
        if k_colourable(g, 2) is None:
            violations.append(f"instance {i} (n={g.n}) not 2-colourable")
    return violations
