"""Independent cross-checks for the generation and optimisation internals."""

import hashlib
import random
import time
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest

from localchrom import families, search
from localchrom.colouring import SolverTimeout, chromatic_number, k_colourable
from localchrom.graphs import Graph, _classes_by_row, _twin_masks, bits, blow_up, relabel
from localchrom.homomorphism import (
    _automorphism_generators,
    _canonical_search,
    _encode,
    canonical_form,
    is_isomorphic,
    subgraph_embeddings,
)
from localchrom.properties import ANY_GRAPH, TRIANGLE_FREE, dense_graphs
from localchrom.search import _next_level, _orbit_minimal_masks, _searched_level, hereditary_graphs
from localchrom.structure import (
    NeighbourhoodSides,
    _two_colouring,
    is_locally_bipartite,
    is_twin_free,
    locally_bipartite_with_vertex,
)

# SHA-256 over repr([g.adj for g in level]) for levels 2..7, then over
# repr([canonical_form(g) for g in level 7]); frozen from the plain
# (colour, sorted neighbour colours) refinement that tried every mask.
FROZEN_LEVELS_AND_FORMS = "4f5f8f0df2d3cecefff338dd89a3f3b3ba970c0f9184474c570d2f10edc6191e"


def _levels(top: int) -> dict[int, search.Level]:
    levels = {1: _searched_level([Graph(1)])}
    for n in range(2, top + 1):
        levels[n] = _next_level(levels[n - 1])
    return levels


def _next_level_every_mask(level: list[Graph]) -> tuple[list[Graph], int]:
    """Reference generation: every mask of every parent, each child checked
    whole by ``is_locally_bipartite``; also returns the number of locally
    bipartite children, each of which gets a canonical form."""
    seen: dict[tuple[int, int], Graph] = {}
    children = 0
    for parent in level:
        for mask in range(1 << parent.n):
            child = parent.with_vertex(mask)
            if not is_locally_bipartite(child):
                continue
            children += 1
            key = canonical_form(child)
            if key not in seen:
                seen[key] = child
    return [seen[k] for k in sorted(seen)], children


def test_level_counts_match_exhaustive_labelled_enumeration():
    # isomorphism classes of locally bipartite graphs, counted two ways:
    # augment-by-vertex generation vs all labelled graphs keyed by the
    # permutation-minimum encoding (a different complete invariant)
    level = _searched_level([Graph(1)])
    counts = {1: len(level)}
    for n in range(2, 6):
        level = _next_level(level)
        counts[n] = len(level)

    for n in range(2, 6):
        classes = set()
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            if is_locally_bipartite(g):
                classes.add(min(_encode(g, list(p)) for p in permutations(range(n))))
        assert len(classes) == counts[n]
    # n = 4: every graph except K4 is locally bipartite
    assert counts[4] == 10


# L_n, the labelled locally bipartite graphs on n = 2..7 vertices
LABELLED_COUNTS = [2, 8, 63, 958, 27554, 1466437]
# T_n, the labelled twin-free locally bipartite graphs on n = 2..7 vertices
TWIN_FREE_LABELLED_COUNTS = [1, 4, 31, 532, 17167, 1019332]


def _stirling2(n: int, q: int) -> int:
    """S(n, q): the partitions of n labelled elements into q blocks."""
    row = [1] + [0] * q  # S(0, .)
    for i in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, q + 1)]
    return row[q]


def test_labelled_counts_by_vertex_extension():
    # a class G on n vertices has n!/|Aut G| labellings, |Aut G| counted as its
    # induced self-embeddings; and each labelled graph on n vertices is one on
    # n - 1 vertices (the class is hereditary) with vertex n - 1 joined by a mask
    levels = _levels(7)
    labellings = {
        g: factorial(n) // sum(1 for _ in subgraph_embeddings(g, g, induced=True))
        for n, level in levels.items()
        for g, _ in level
    }
    for n, expected in zip(range(2, 8), LABELLED_COUNTS):
        assert sum(labellings[g] for g, _ in levels[n]) == expected
        extended = sum(
            labellings[p] * sum(is_locally_bipartite(p.with_vertex(m)) for m in range(1 << p.n))
            for p, _ in levels[n - 1]
        )
        assert extended == expected
    # the twin-free subset the search keeps: merging the open-twin classes of
    # a labelled graph on n vertices into q blocks leaves a twin-free one on
    # the blocks, and blowing the blocks back up keeps local bipartiteness, so
    # L_n = sum over q of S(n, q) T_q
    twin_free = {n: sum(labellings[g] for g, _ in levels[n] if is_twin_free(g)) for n in levels}
    assert twin_free[1] == 1
    assert [twin_free[n] for n in range(2, 8)] == TWIN_FREE_LABELLED_COUNTS
    for n, expected in zip(range(2, 8), LABELLED_COUNTS):
        assert sum(_stirling2(n, q) * twin_free[q] for q in range(1, n + 1)) == expected


def _without(g: Graph, v: int) -> Graph:
    """G - v, the vertices above v moved down by one."""
    low = (1 << v) - 1
    return Graph.from_rows(row & low | row >> (v + 1) << v for u, row in enumerate(g.adj) if u != v)


def test_twin_free_counts_by_vertex_deletion():
    # the labelled twin-free graphs on n vertices whose vertex n - 1 can be
    # deleted leaving a twin-free graph, counted two ways.  By deletion: a class
    # G has n!/|Aut G| labellings, each with g(G) deletable vertices, and by
    # symmetry 1/n of these pairs delete vertex n - 1, which gives
    # sum_G (n - 1)! g(G) / |Aut G|.  By extension: a twin-free P on n - 1
    # vertices joined by a mask m, twin-free iff m is no row of P.  A lost or
    # merged class shortens the left side, a split one lengthens it.
    levels = _levels(7)
    twin_free = {n: [g for g, _ in level if is_twin_free(g)] for n, level in levels.items()}
    labellings = {
        g: factorial(n) // sum(1 for _ in subgraph_embeddings(g, g, induced=True))
        for n, level in twin_free.items()
        for g in level
    }
    for n in range(2, 8):
        deleted = sum(
            labellings[g] * sum(is_twin_free(_without(g, v)) for v in range(n)) for g in twin_free[n]
        )
        extended = sum(
            labellings[p]
            * sum(m not in p.adj and is_locally_bipartite(p.with_vertex(m)) for m in range(1 << p.n))
            for p in twin_free[n - 1]
        )
        assert deleted == n * extended


def test_other_hereditary_classes_match_oeis():
    # the search's generator, orbit pruning included, with the child test of
    # another class closed under induced subgraphs: OEIS A000088 (graphs) and
    # A006785 (triangle-free graphs) count the classes on n = 1, 2, ... vertices
    graphs = list(hereditary_graphs(8, ANY_GRAPH))
    assert list(Counter(g.n for g in graphs).values()) == [1, 2, 4, 11, 34, 156, 1044, 12346]
    triangle_free = Counter(g.n for g in hereditary_graphs(9, TRIANGLE_FREE))
    assert list(triangle_free.values()) == [1, 2, 3, 7, 14, 38, 107, 410, 1897]
    # the graphs with delta > n/2, generated as complements of a max-degree class
    dense = [g for g in graphs if 2 * g.min_degree() > g.n]
    assert len(dense) == 84
    assert sorted(canonical_form(g) for g in dense_graphs(8)) == sorted(map(canonical_form, dense))


def test_levels_and_canonical_forms_are_frozen():
    # the representatives, their order and the canonical-form values
    # themselves: a refinement key that ranks colours differently changes
    # the forms even where every class count still matches
    levels = _levels(7)
    digest = hashlib.sha256()
    for n in range(2, 8):
        digest.update(repr([g.adj for g, _ in levels[n]]).encode())
    assert len(levels[7]) == 674
    digest.update(repr([canonical_form(g) for g, _ in levels[7]]).encode())
    assert digest.hexdigest() == FROZEN_LEVELS_AND_FORMS


def test_orbit_pruning_matches_every_mask(monkeypatch):
    calls = [0]

    def counted(g, *set_up):
        calls[0] += 1
        return _canonical_search(g, *set_up)

    monkeypatch.setattr(search, "_canonical_search", counted)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)  # a worker's calls would go uncounted
    level = _searched_level([Graph(1)])
    stats: list[search.LevelStats] = []
    for n in range(2, 8):
        reference, children = _next_level_every_mask([g for g, _ in level])
        calls[0] = 0
        pruned = _next_level(level, stats)
        assert [g.adj for g, _ in pruned] == [g.adj for g in reference]
        # one canonical-form search per locally bipartite child, none for a parent
        assert calls[0] == stats[-1].children <= children
        level = pruned
    # from 6 to 7: fewer locally bipartite children than when every mask is tried
    assert children == 6487 and calls[0] < children


def test_child_set_up_is_derived_from_the_parent():
    # every locally bipartite child of levels 1..6: the root cells and twin
    # masks derived from its parent against those computed from the child
    for level in _levels(6).values():
        for parent, _ in level:
            set_up = search._ChildSetUp(parent)
            sides = NeighbourhoodSides(parent)
            for mask in range(1 << parent.n):
                if not locally_bipartite_with_vertex(sides, mask):
                    continue
                child = parent.with_vertex(mask)
                by_degree = _classes_by_row(child.degrees())
                assert set_up.root(mask) == [by_degree[d] for d in sorted(by_degree)]
                assert set_up.twin_masks(mask) == _twin_masks(child.adj)


def test_levels_carry_the_automorphisms_of_their_own_search():
    graphs = [(g, autos) for level in _levels(7).values() for g, autos in level]
    assert len(graphs) == 839
    for g, autos in graphs:
        assert autos == _canonical_search(g)[1]


def test_level_stats_count_the_pruned_work():
    stats: list[search.LevelStats] = []
    level = _searched_level([Graph(1)])
    for n in range(2, 7):
        level = _next_level(level, stats)
    assert [s.n for s in stats] == [2, 3, 4, 5, 6]
    assert [s.classes for s in stats] == [2, 4, 10, 29, 119]
    assert [s.parents for s in stats] == [1, 2, 4, 10, 29]
    # masks_tried: the orbits of Aut(parent) on the vertex subsets, summed
    assert [s.masks_tried for s in stats] == [2, 6, 20, 85, 482]
    assert [s.children for s in stats] == [2, 6, 19, 79, 425]
    for s in stats:
        assert s.canonical_forms == s.children
        assert s.seconds >= 0


def _edged_components(g: Graph, region: int) -> list[int]:
    """The components of g[region] that have an edge, as bitsets, by a plain search."""
    out = []
    left = region
    while left:
        component = frontier = left & -left
        while frontier:
            reached = 0
            for v in bits(frontier):
                reached |= g.adj[v] & region
            frontier = reached & ~component
            component |= frontier
        left &= ~component
        if component & (component - 1):
            out.append(component)
    return out


def _child_test_cases(parent: Graph) -> tuple[int, int]:
    """Checks the parent-side child test on every mask of ``parent`` against
    the whole child; returns how many masks give a child that is not locally
    bipartite although parent[mask] is bipartite, and how many give a locally
    bipartite child whose new vertex joins two components of some N(w)."""
    sides = NeighbourhoodSides(parent)
    odd_through_new = across_components = 0
    for mask in range(1 << parent.n):
        child = parent.with_vertex(mask)
        expected = is_locally_bipartite(child)
        assert locally_bipartite_with_vertex(sides, mask) == expected
        if not expected and _two_colouring(parent.adj, mask) is not None:
            odd_through_new += 1
        if expected and any(
            sum(1 for c in _edged_components(parent, parent.adj[w]) if c & mask) > 1
            for w in bits(mask)
        ):
            across_components += 1
    return odd_through_new, across_components


def test_child_test_matches_the_whole_child_on_levels_1_to_6():
    parents = [g for level in _levels(6).values() for g, _ in level]
    assert len(parents) == 165
    for g in parents:
        _child_test_cases(g)


def test_child_test_matches_the_whole_child_with_split_neighbourhoods():
    # locally bipartite graphs in which some N(w) has two components with an
    # edge: a mask can meet one component on both sides (an odd cycle through
    # the new vertex) or two components, one on each side (no conflict)
    rng = random.Random(1998)
    kept = odd_through_new = across_components = 0
    while kept < 30:
        n = rng.randint(5, 10)
        p = rng.uniform(0.2, 0.5)
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        if not is_locally_bipartite(g):
            continue
        if all(len(_edged_components(g, row)) < 2 for row in g.adj):
            continue
        kept += 1
        cases = _child_test_cases(g)
        odd_through_new += cases[0]
        across_components += cases[1]
    assert odd_through_new > 0 and across_components > 0


def _orbit_minimal_masks_by_embeddings(parent: Graph) -> list[int]:
    """Reference orbit minima: every automorphism listed as an induced
    self-embedding, each orbit-minimal mask mapped by all of them."""
    autos = list(subgraph_embeddings(parent, parent, induced=True))
    covered = bytearray(1 << parent.n)
    minimal = []
    for mask in range(1 << parent.n):
        if covered[mask]:
            continue
        minimal.append(mask)
        for p in autos:
            image = 0
            for v in bits(mask):
                image |= 1 << p[v]
            covered[image] = 1
    return minimal


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def _symmetric_graphs() -> list[Graph]:
    """Seeded relabelled blow-ups (twin classes) and twin-free symmetric graphs."""
    rng = random.Random(1212)
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    graphs = []
    for base, top in ((families.c7bar(), 2), (families.h2plus(), 2), (k3, 3)):
        for _ in range(4):
            g = blow_up(base, [rng.randint(1, top) for _ in range(base.n)])
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(relabel(g, perm))
    c9 = Graph(9, [(i, (i + 1) % 9) for i in range(9)])
    return graphs + [c9, families.c7bar(), _petersen()]


def _assert_generators_are_automorphisms(g: Graph, autos: tuple[tuple[int, ...], ...]) -> None:
    for p in _automorphism_generators(g, autos):
        assert sorted(p) == list(range(g.n))
        for u in range(g.n):
            assert sum(1 << p[v] for v in bits(g.adj[u])) == g.adj[p[u]]


def test_orbit_minimal_masks_match_self_embeddings_on_levels_1_to_7():
    parents = [(g, autos) for level in _levels(7).values() for g, autos in level]
    assert len(parents) == 839
    for g, autos in parents:
        _assert_generators_are_automorphisms(g, autos)
        assert _orbit_minimal_masks(g, autos) == _orbit_minimal_masks_by_embeddings(g)


def test_orbit_minimal_masks_match_self_embeddings_on_symmetric_graphs():
    graphs = _symmetric_graphs()
    for g in graphs:
        autos = _canonical_search(g)[1]
        _assert_generators_are_automorphisms(g, autos)
        assert _orbit_minimal_masks(g, autos) == _orbit_minimal_masks_by_embeddings(g)
    # C9 has no twins, so its dihedral group comes from the canonical-form
    # leaves alone: 46 orbits, the binary bracelets of length 9
    c9 = graphs[-3]
    assert len(_orbit_minimal_masks(c9, _canonical_search(c9)[1])) == 46
    assert max(g.n for g in graphs) > 10


def test_twin_only_groups_on_nine_vertices():
    # the twin transpositions alone: the whole symmetric group, so one orbit per size
    k9 = Graph(9, list(combinations(range(9), 2)))
    for g in (Graph(9), k9):
        assert _orbit_minimal_masks(g, _canonical_search(g)[1]) == [(1 << k) - 1 for k in range(10)]


def test_is_isomorphic_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(909)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.random()
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        edges, non_edges = list(h.edges()), list(h.non_edges())
        if edges and non_edges and rng.random() < 0.5:
            # move one edge: same vertex and edge counts, often another class
            drop, add = rng.choice(edges), rng.choice(non_edges)
            h = Graph(n, [e for e in edges if e != drop] + [add])
        expected = nx.is_isomorphic(_nx(nx, g), _nx(nx, h))
        assert is_isomorphic(g, h) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def _nx(nx, g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def test_level6_has_no_isomorphic_pair_by_networkx():
    nx = pytest.importorskip("networkx")
    level = [g for g, _ in _levels(6)[6]]
    by_degrees: dict[tuple[int, ...], list[Graph]] = {}
    for g in level:
        by_degrees.setdefault(tuple(sorted(g.degrees())), []).append(g)
    pairs = 0
    for graphs in by_degrees.values():
        for g, h in combinations(graphs, 2):
            pairs += 1
            assert not nx.is_isomorphic(_nx(nx, g), _nx(nx, h))
    assert len(level) == 119 and pairs > 0


def test_level7_has_no_isomorphic_pair_by_networkx():
    # as at level 6: only graphs with equal degree sequences can be isomorphic
    nx = pytest.importorskip("networkx")
    level = [g for g, _ in _levels(7)[7]]
    by_degrees: dict[tuple[int, ...], list[Graph]] = {}
    for g in level:
        by_degrees.setdefault(tuple(sorted(g.degrees())), []).append(g)
    pairs = [(g, h) for graphs in by_degrees.values() for g, h in combinations(graphs, 2)]
    assert len(level) == 674 and len(pairs) == 2106
    assert not any(nx.is_isomorphic(_nx(nx, g), _nx(nx, h)) for g, h in pairs)


def test_chromatic_number_vs_all_assignments():
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5])
        edges = list(g.edges())
        brute = next(
            k
            for k in range(1, n + 1)
            if any(
                all(col[u] != col[v] for u, v in edges)
                for col in product(range(k), repeat=n)
            )
        )
        assert chromatic_number(g)[0] == brute


def test_colouring_deadline_is_cooperative():
    # C9 with k=3 enters the search loop (the clique bound cannot answer),
    # so an already-expired deadline must surface as SolverTimeout
    g = Graph(9, [(i, (i + 1) % 9) for i in range(9)])
    with pytest.raises(SolverTimeout):
        k_colourable(g, 3, deadline=time.monotonic() - 1)
