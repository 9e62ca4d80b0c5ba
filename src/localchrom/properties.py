"""Property suites backing the acceptance report, each over a named finite family.

A family is every graph of a class closed under induced subgraphs up to some
order, one per isomorphism class, from the extremal search's own generator
(``search.hereditary_graphs``), every small blow-up of some base graphs, or
such graphs paired with fixed anchors.  A suite checks every case of the family
it is given and returns the violations, each prefixed by the index of its case
(empty = pass).  It trusts the family to meet the hypothesis, so a graph just
outside it shows that the suite can fail.  ``verify_hom_forces_induced`` instead
audits every hypothesis of the induced-copy lemma on one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations, product
from typing import Iterable

from . import families
from .colouring import chromatic_number, clique_number, k_colourable
from .graphs import (
    Graph,
    WeightedGraph,
    _weights_of,
    bits,
    blow_up,
    complement,
    cycle_power,
    mask_of,
    merge_twins,
)
from .homomorphism import compose, find_homomorphism, find_subgraph, is_homomorphism
from .search import hereditary_graphs
from .structure import (
    PairClass,
    classify_pair,
    dense_set,
    is_edge_maximal_locally_bipartite,
    is_locally_bipartite,
    is_twin_free,
)


class Family:
    """The cases of a named family, generated as they are read, so that no
    family is held whole; ``size`` counts the cases read so far."""

    def __init__(self, description: str, cases: Iterable):
        self.description, self.size, self._cases = description, 0, cases

    def __iter__(self):
        for self.size, case in enumerate(self._cases, 1):
            yield case


# Classes for ``hereditary_graphs``: a table built once per parent, and a test
# of each mask, the neighbourhood of the new vertex, against it.
ANY_GRAPH = (lambda parent: None, lambda table, mask: True)
TRIANGLE_FREE = (lambda g: g.adj, lambda adj, mask: not any(adj[w] & mask for w in bits(mask)))


def _max_degree(k: int):
    """Vertices of degree k may not gain the new vertex, which has at most k neighbours."""
    return (
        lambda parent: mask_of(v for v, d in enumerate(parent.degrees()) if d >= k),
        lambda full, mask: not mask & full and mask.bit_count() <= k,
    )


def all_graphs(n_max: int) -> Family:
    return Family(f"graphs on <= {n_max} vertices", hereditary_graphs(n_max, ANY_GRAPH))


def triangle_free_graphs(n_max: int) -> Family:
    graphs = hereditary_graphs(n_max, TRIANGLE_FREE)
    return Family(f"triangle-free graphs on <= {n_max} vertices", graphs)


def dense_graphs(n_max: int) -> Family:
    """The graphs with delta > n/2.  A complement has max degree n - 1 - delta <
    n/2 - 1, so these are complements of graphs of max degree <= ceil(n_max/2) - 2."""
    sparse = hereditary_graphs(n_max, _max_degree((n_max + 1) // 2 - 2))
    graphs = (g for g in map(complement, sparse) if 2 * g.min_degree() > g.n)
    return Family(f"graphs on <= {n_max} vertices with delta > n/2", graphs)


def h0_free_locally_bipartite_graphs(n_max: int) -> Family:
    h0 = families.h0()
    graphs = (g for g in hereditary_graphs(n_max) if find_subgraph(h0, g) is None)
    return Family(f"locally bipartite H0-free graphs on <= {n_max} vertices", graphs)


def small_blow_ups(n_max: int) -> Family:
    """(g, sizes): every graph g on 2..n_max vertices with every class-size vector in {1, 2}^n."""
    bases = (g for g in hereditary_graphs(n_max, ANY_GRAPH) if g.n > 1)
    cases = ((g, sizes) for g in bases for sizes in product((1, 2), repeat=g.n))
    return Family(f"{{1,2}}-class blow-ups of the graphs on 2..{n_max} vertices", cases)


def anchor_hosts(n_max: int) -> Family:
    """(f, g): every locally bipartite g on <= n_max vertices with each anchor f of the
    induced-copy lemma: K3, C7BAR and H2PLUS.  The anchors' hypotheses are checked here,
    once, and a ValueError names an anchor that fails them."""
    anchors = {"K3": cycle_power(3, 1), "C7BAR": families.c7bar(), "H2PLUS": families.h2plus()}
    for name, f in anchors.items():
        if not (is_twin_free(f) and is_edge_maximal_locally_bipartite(f)):
            raise ValueError(f"anchor {name} is not twin-free edge-maximal locally bipartite")
    cases = ((f, g) for g in hereditary_graphs(n_max) for f in anchors.values())
    return Family(f"pairs of K3, C7BAR or H2PLUS with a locally bipartite graph on <= {n_max} vertices", cases)


def _each_case(check):
    """The suite that runs ``check`` on every case of a family and lists what it yields."""

    @wraps(check)
    def suite(cases) -> list[str]:
        return [f"case {i}: {v}" for i, case in enumerate(cases) for v in check(case)]

    return suite


@_each_case
def suite_independent_set_pairs_dense(g: Graph):
    """delta > n/2: every pair inside any maximum independent set is dense."""
    independent = [m for m in range(1 << g.n) if not any(g.adj[v] & m for v in bits(m))]
    alpha = max(m.bit_count() for m in independent)
    for mask in (m for m in independent if m.bit_count() == alpha):
        for u, v in combinations(bits(mask), 2):
            if classify_pair(g, u, v) is not PairClass.DENSE:
                yield f"pair ({u},{v}) in max independent set not dense"


@_each_case
def suite_c4_diagonal_dense(g: Graph):
    """delta > n/2: every induced 4-cycle has at least one dense diagonal."""
    for subset in combinations(range(g.n), 4):
        # an induced 4-cycle: each member has exactly two neighbours among them
        members = mask_of(subset)
        if any((g.adj[v] & members).bit_count() != 2 for v in subset):
            continue
        diagonals = [(u, v) for u, v in combinations(subset, 2) if not g.has_edge(u, v)]
        if not any(classify_pair(g, u, v) is PairClass.DENSE for u, v in diagonals):
            yield f"induced C4 {subset} has no dense diagonal"


@_each_case
def suite_dense_sets_independent(g: Graph):
    """Locally bipartite and H0-free: every D_v is an independent set."""
    for v in range(g.n):
        for a, b in combinations(bits(dense_set(g, v)), 2):
            if g.has_edge(a, b):
                yield f"D_{v} contains edge ({a},{b})"


@dataclass(frozen=True)
class InducedCopyReport:
    """Hypothesis-by-hypothesis audit of the induced-copy lemma on one pair (f, g)."""

    f_twin_free: bool
    f_edge_maximal_locally_bipartite: bool
    g_locally_bipartite: bool
    homomorphism: tuple[int, ...] | None
    hypotheses_hold: bool
    induced_embedding: tuple[int, ...] | None
    conclusion_holds: bool | None  # None when hypotheses fail

    def failed_hypotheses(self) -> list[str]:
        holds = {
            "twin-free": self.f_twin_free,
            "edge-maximal": self.f_edge_maximal_locally_bipartite,
            "locally-bipartite": self.g_locally_bipartite,
            "hom": self.homomorphism is not None,
        }
        return [name for name, held in holds.items() if not held]


def verify_hom_forces_induced(f: Graph, g: Graph) -> InducedCopyReport:
    """Check: twin-free edge-maximal locally bipartite f with f -> g and g
    locally bipartite forces an induced copy of f in g."""
    twin_free = is_twin_free(f)
    edge_max = is_edge_maximal_locally_bipartite(f)
    g_lb = is_locally_bipartite(g)
    hom = find_homomorphism(f, g)
    holds = twin_free and edge_max and g_lb and hom is not None
    embedding = find_subgraph(f, g, induced=True) if holds else None
    conclusion = embedding is not None if holds else None
    return InducedCopyReport(twin_free, edge_max, g_lb, hom, holds, embedding, conclusion)


@_each_case
def suite_hom_forces_induced(case: tuple[Graph, Graph]):
    """The induced-copy lemma: a twin-free edge-maximal locally bipartite f
    homomorphic to a locally bipartite g appears induced in g."""
    f, g = case
    if find_homomorphism(f, g) is not None and find_subgraph(f, g, induced=True) is None:
        yield "no induced copy found"


@_each_case
def suite_blowup_invariance(case: tuple[Graph, tuple[int, ...]]):
    """Blow-ups preserve chromatic number, clique number, local bipartiteness."""
    g, sizes = case
    b = blow_up(g, sizes)
    if chromatic_number(b)[0] != chromatic_number(g)[0]:
        yield "chi changed under blow-up"
    if clique_number(b) != clique_number(g):
        yield "clique number changed under blow-up"
    if is_locally_bipartite(b) != is_locally_bipartite(g):
        yield "local bipartiteness changed under blow-up"


@_each_case
def suite_merge_twins(case: tuple[Graph, tuple[int, ...]]):
    """merge_twins preserves total weight and surviving weighted degrees; idempotent.
    Vertex v of the blow-up weighs 1 + v % 5."""
    b = blow_up(*case)
    wg = WeightedGraph(b, [Fraction(1 + v % 5) for v in range(b.n)])
    merged = merge_twins(wg)
    if merged.total_weight() != wg.total_weight():
        yield "total weight changed"
    degrees_before = sorted(set(_weights_of(b.adj, wg.weights)))
    degrees_after = sorted(set(_weights_of(merged.graph.adj, merged.weights)))
    if degrees_before != degrees_after:
        yield "weighted degree profile changed"
    if merge_twins(merged) != merged:
        yield "merge_twins not idempotent"


@_each_case
def suite_hom_composition(case: tuple[Graph, tuple[int, ...]]):
    """Certificates compose: G -> H and H -> K validate as G -> K, for H the
    blow-up of G and K that of H with every class of two."""
    g, sizes = case
    h = blow_up(g, sizes)
    k = blow_up(h, [2] * h.n)
    c1 = find_homomorphism(g, h)
    c2 = find_homomorphism(h, k)
    if c1 is None or c2 is None:
        yield "expected homomorphisms missing"
    elif not is_homomorphism(g, k, compose(c1, c2)):
        yield "composition does not validate"


@_each_case
def suite_degree_identity(g: Graph):
    """d(u,v) = d(u) + d(v) - |Gamma(u) u Gamma(v)| for every pair."""
    for u, v in combinations(range(g.n), 2):
        lhs = (g.adj[u] & g.adj[v]).bit_count()
        rhs = g.degree(u) + g.degree(v) - (g.adj[u] | g.adj[v]).bit_count()
        if lhs != rhs:
            yield f"identity fails at ({u},{v})"


@_each_case
def suite_aes_r2(g: Graph):
    """Triangle-free with delta > 2n/5: 2-colourable (Andrasfai-Erdos-Sos, r = 2)."""
    if k_colourable(g, 2) is None:
        yield f"n={g.n} not 2-colourable"


# (name, suite, family, the family's size in verify-paper)
PROPERTY_SUITES = [
    ("independent-set-pairs-dense", suite_independent_set_pairs_dense, dense_graphs, 8),
    ("c4-diagonal-dense", suite_c4_diagonal_dense, dense_graphs, 8),
    ("dense-sets-independent", suite_dense_sets_independent, h0_free_locally_bipartite_graphs, 6),
    ("hom-forces-induced", suite_hom_forces_induced, anchor_hosts, 6),
    ("blowup-invariance", suite_blowup_invariance, small_blow_ups, 4),
    ("merge-twins", suite_merge_twins, small_blow_ups, 4),
    ("hom-composition", suite_hom_composition, small_blow_ups, 4),
    ("degree-identity", suite_degree_identity, all_graphs, 6),
]
