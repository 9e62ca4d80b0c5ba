"""Local-structure tests, with an independent odd-wheel oracle."""

import hashlib
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from localchrom import families, structure
from localchrom.decompose import decompose_auto
from localchrom.graphs import Graph, bits, blow_up, mask_of, relabel
from localchrom.homomorphism import find_subgraph, subgraph_embeddings
from localchrom.search import _next_level, _searched_level, hereditary_graphs
from localchrom.structure import (
    NeighbourhoodSides,
    OddWheelWitness,
    PairClass,
    _two_colouring,
    classify_pair,
    dense_set,
    is_edge_maximal_locally_bipartite,
    is_locally_bipartite,
    is_twin_free,
    locally_bipartite_after_adding,
    odd_wheel,
    saturate,
    sparse_missing_spoke,
)


def k4():
    return Graph(4, [(u, v) for u, v in combinations(range(4), 2)])


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def relabelled_blow_ups(rng, count):
    """Blow-ups of named graphs with 1-3 copies per vertex, randomly relabelled,
    so that twins are scattered over the vertex order."""
    bases = [families.generate(fid) for fid in ("H0", "H2", "H2PLUS", "C7BAR", "DELTA(2)")]
    out = []
    for case in range(count):
        base = bases[case % len(bases)]
        sizes = [rng.randint(1, 3) for _ in range(base.n)]
        out.append(relabel(blow_up(base, sizes), rng.sample(range(sum(sizes)), sum(sizes))))
    return out


def per_vertex_pair_spoke(g: Graph) -> tuple[int, int] | None:
    """Oracle for sparse_missing_spoke: classify_pair on every ordered pair of
    distinct vertices, in (u, v) order, with no use of twins."""
    sides = NeighbourhoodSides(g)
    for u in range(g.n):
        for v in range(g.n):
            if u != v and classify_pair(g, u, v) is PairClass.SPARSE:
                if structure._closes_odd_cycle(sides[g.adj[u]], g.adj[u] & g.adj[v]):
                    return (u, v)
    return None


def odd_wheel_exists_oracle(g: Graph) -> bool:
    """Direct search: an odd wheel is a centre plus an odd vertex set of its
    neighbourhood carrying a Hamiltonian cycle.  Exponential; small n only."""
    for centre in range(g.n):
        nbrs = list(bits(g.adj[centre]))
        for size in range(3, len(nbrs) + 1, 2):
            for subset in combinations(nbrs, size):
                first = subset[0]
                for rest in permutations(subset[1:]):
                    cycle = (first,) + rest
                    if all(g.has_edge(cycle[i], cycle[(i + 1) % size]) for i in range(size)):
                        return True
    return False


class TestLocallyBipartite:
    def test_families(self):
        assert is_locally_bipartite(families.h0())
        assert not is_locally_bipartite(families.wheel(7))

    def test_k4_is_w3(self):
        witness = odd_wheel(k4())
        assert witness is not None and len(witness.rim) == 3

    def test_blow_up_preserves(self):
        rng = random.Random(3)
        for _ in range(20):
            sizes = [rng.randint(1, 3) for _ in range(8)]
            assert is_locally_bipartite(blow_up(families.h2plus(), sizes))

    def test_witness_validates_and_is_odd(self):
        for g in (families.wheel(5), families.wheel(7), k4(), families.wheel(9)):
            witness = odd_wheel(g)
            assert witness is not None
            assert witness.validate(g)

    def test_witness_shortest_rim(self):
        # a chord across the 7-rim shortens the apex's odd rim from 7 to 5
        g = families.wheel(7).with_edge(0, 3)
        witness = odd_wheel(g)
        assert witness.centre == 7 and len(witness.rim) == 5
        assert witness.validate(g)

    def test_against_oracle_random(self):
        rng = random.Random(20260810)
        agree = 0
        for _ in range(120):
            g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.8))
            assert is_locally_bipartite(g) == (not odd_wheel_exists_oracle(g))
            assert (odd_wheel(g) is None) == is_locally_bipartite(g)
            agree += 1
        assert agree == 120

    def test_incremental_matches_full(self):
        # random graphs, then relabelled blow-ups, where twins share one sides entry
        rng = random.Random(5)
        graphs = [random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.6)) for _ in range(60)]
        graphs += relabelled_blow_ups(rng, 40)
        outcomes = Counter()
        for g in graphs:
            sides = NeighbourhoodSides(g)
            if any(sides[row] is None for row in g.adj):
                continue
            for u, v in g.non_edges():
                expected = is_locally_bipartite(g.with_edge(u, v))
                assert locally_bipartite_after_adding(sides, u, v) == expected
                outcomes[expected] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_neighbourhood_sides_exist_iff_locally_bipartite(self):
        rng = random.Random(21)
        graphs = [random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8)) for _ in range(200)]
        graphs += relabelled_blow_ups(rng, 20)
        for g in graphs:
            sides = NeighbourhoodSides(g)
            read = [sides[row] for row in g.adj]
            assert (None in read) == (not is_locally_bipartite(g))
            assert len(sides) == len(set(g.adj))  # one entry per distinct row
            if None in read:
                continue
            for w, components in enumerate(read):
                # the components split N(w); each side is independent, every
                # edge of G[N(w)] joins the two sides of one component
                covered = 0
                for a, b in components:
                    assert a and b and not a & b and not covered & (a | b)
                    assert (a | b) & ~g.adj[w] == 0
                    assert all(g.adj[x] & (a | b) == g.adj[x] & g.adj[w] for x in bits(a | b))
                    assert all(g.adj[x] & a == 0 for x in bits(a))
                    assert all(g.adj[x] & b == 0 for x in bits(b))
                    covered |= a | b
                assert all(g.adj[x] & g.adj[w] == 0 for x in bits(g.adj[w] & ~covered))
                twins = [x for x in range(g.n) if g.adj[x] == g.adj[w]]
                assert all(read[x] is components for x in twins)

    def test_adding_an_edge_keeps_the_table_of_the_new_graph(self):
        # the table that saturate keeps: g's table, read in full, then told of
        # an addable non-edge uv, reads as a fresh table of g + uv, on every
        # row of g + uv and on every entry it kept
        rng = random.Random(24)
        graphs = [random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.6)) for _ in range(80)]
        graphs += relabelled_blow_ups(rng, 20)
        dropped = 0
        for g in graphs:
            if not is_locally_bipartite(g):
                continue
            for u, v in g.non_edges():
                h = g.with_edge(u, v)
                if not is_locally_bipartite(h):
                    continue
                rows = list(g.adj)
                sides = NeighbourhoodSides(g)
                assert None not in [sides[row] for row in g.adj]
                full = len(sides)
                sides.add_edge(u, v)
                dropped += full - len(sides)
                # the table edits its own rows, never g's
                assert sides.adj == list(h.adj)
                assert list(g.adj) == rows and not g.has_edge(u, v)
                fresh = NeighbourhoodSides(h)
                for row in h.adj:
                    assert sides[row] == fresh[row]
                for row in list(sides):
                    assert sides[row] == fresh[row]
        assert dropped > 0

    def test_large_c7bar_blow_up_has_no_odd_wheel(self):
        # 280 bipartite neighbourhoods of 120 vertices each, one 2-colouring per distinct row
        assert odd_wheel(blow_up(families.c7bar(), [40] * 7)) is None

    def test_odd_wheel_colours_each_distinct_row_once(self, monkeypatch):
        # 1,400 bipartite neighbourhoods, 7 distinct rows
        calls = Counter()
        colour = structure._two_colouring

        def counted(adj, region):
            calls[region] += 1
            return colour(adj, region)

        monkeypatch.setattr(structure, "_two_colouring", counted)
        assert odd_wheel(blow_up(families.c7bar(), [200] * 7)) is None
        assert sum(calls.values()) == 7 and set(calls.values()) == {1}

    def test_witness_str_format(self):
        witness = OddWheelWitness(2, (0, 1, 3))
        assert str(witness) == "centre: 2 rim: 0,1,3"


class TestPairClassification:
    def test_c7bar_dense_pair(self):
        assert classify_pair(families.c7bar(), 0, 3) is PairClass.DENSE

    def test_c5_explicit(self):
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert classify_pair(c5, 0, 2) is PairClass.SPARSE

    def test_adjacent(self):
        assert classify_pair(families.h2(), 0, 1) is PairClass.ADJACENT

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            classify_pair(families.h2(), 3, 3)

    def test_dense_iff_missing_k4_edge(self):
        # in a locally bipartite graph: dense <=> the missing edge of a K4
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 7), rng.uniform(0.3, 0.7))
            if not is_locally_bipartite(g):
                continue
            for u, v in g.non_edges():
                missing_k4 = any(
                    g.has_edge(x, y)
                    and all(g.has_edge(w, z) for w in (u, v) for z in (x, y))
                    for x, y in combinations(range(g.n), 2)
                    if len({u, v, x, y}) == 4
                )
                assert (classify_pair(g, u, v) is PairClass.DENSE) == missing_k4

    def test_exactly_one_class_per_pair(self):
        g = families.counterexample8()
        for u, v in combinations(range(g.n), 2):
            assert classify_pair(g, u, v) in PairClass


class TestDenseSet:
    def test_c7bar(self):
        assert dense_set(families.c7bar(), 0) == mask_of({3, 4})

    def test_c5_empty(self):
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert all(dense_set(c5, v) == 0 for v in range(5))


class TestSaturation:
    def test_h2_saturates_to_c7bar(self):
        assert saturate(families.h2()) == families.c7bar()

    def test_fixed_points(self):
        assert saturate(families.c7bar()) == families.c7bar()
        assert saturate(families.h2plus()) == families.h2plus()

    def test_empty_three_gives_k3(self):
        assert saturate(Graph(3)) == Graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_rejects_non_locally_bipartite(self):
        with pytest.raises(ValueError):
            saturate(k4())

    def test_matches_lexicographic_oracle(self):
        # the definition: try each non-edge in lexicographic order on the graph
        # built so far, and keep it when the whole graph stays locally bipartite
        def oracle(g):
            for u, v in combinations(range(g.n), 2):
                if not g.has_edge(u, v) and is_locally_bipartite(g.with_edge(u, v)):
                    g = g.with_edge(u, v)
            return g

        rng = random.Random(17)
        graphs = [random_graph(rng, rng.randint(3, 9), rng.uniform(0.1, 0.5)) for _ in range(80)]
        graphs += relabelled_blow_ups(rng, 30)
        grown = 0
        for g in graphs:
            if not is_locally_bipartite(g):
                continue
            expected = oracle(g)
            assert saturate(g) == expected
            grown += expected != g
        assert grown > 20

    def test_matches_the_loop_that_builds_a_graph_per_edge(self):
        # the loop that saturate replaced: a new Graph by with_edge and a fresh
        # table for every accepted edge
        def rebuilt(g):
            sides = NeighbourhoodSides(g)
            for u, v in combinations(range(g.n), 2):
                if not g.has_edge(u, v) and locally_bipartite_after_adding(sides, u, v):
                    g = g.with_edge(u, v)
                    sides = NeighbourhoodSides(g)
            return g

        rng = random.Random(25)
        graphs = []
        while len(graphs) < 300:
            g = random_graph(rng, rng.randint(3, 10), rng.uniform(0.1, 0.5))
            if is_locally_bipartite(g):
                graphs.append(g)
        graphs += relabelled_blow_ups(rng, 40)
        grown = 0
        for g in graphs:
            expected = rebuilt(g)
            assert saturate(g) == expected
            grown += expected != g
        assert grown > 200

    def test_builds_one_graph_for_its_result(self, monkeypatch):
        g = blow_up(families.h2(), [40] * 7)
        expected = blow_up(families.c7bar(), [40] * 7)  # 1,600 edges more
        calls = Counter()
        with_edge, from_rows = Graph.with_edge, Graph.from_rows.__func__

        def counted_with_edge(self, u, v):
            calls["with_edge"] += 1
            return with_edge(self, u, v)

        def counted_from_rows(cls, rows):
            calls["from_rows"] += 1
            return from_rows(cls, rows)

        monkeypatch.setattr(Graph, "with_edge", counted_with_edge)
        monkeypatch.setattr(Graph, "from_rows", classmethod(counted_from_rows))
        assert saturate(g) == expected
        assert calls["with_edge"] == 0 and calls["from_rows"] <= 1

    def test_output_edge_maximal_and_contains_input(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.5))
            if not is_locally_bipartite(g):
                continue
            s = saturate(g)
            assert is_edge_maximal_locally_bipartite(s)
            for u, v in g.edges():
                assert s.has_edge(u, v)


class TestEdgeMaximalAndTwins:
    def test_h0_not_edge_maximal(self):
        assert not is_edge_maximal_locally_bipartite(families.h0())

    def test_delta3_edge_maximal(self):
        assert is_edge_maximal_locally_bipartite(families.delta(3))

    def test_blow_up_not_twin_free(self):
        assert not is_twin_free(blow_up(families.h2(), [2, 1, 1, 1, 1, 1, 1]))

    def test_named_twin_free(self):
        for fid in ("H0", "H2", "H2PLUS", "C7BAR", "COUNTEREXAMPLE8"):
            assert is_twin_free(families.generate(fid)), fid

    def test_edge_maximal_matches_every_non_edge(self):
        # the definition, one non-edge at a time, on relabelled blow-ups whose
        # twin classes make many non-edges share a verdict, on random graphs
        # (some not locally bipartite) and their saturations, and on every
        # graph of the search's level 6
        rng = random.Random(1010)
        graphs = relabelled_blow_ups(rng, 300)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
            graphs += [g, saturate(g)] if is_locally_bipartite(g) else [g]
        level = _searched_level([Graph(1)])
        for _ in range(5):
            level = _next_level(level)
        graphs += [g for g, _ in level]
        outcomes = Counter()
        for case, g in enumerate(graphs):
            lb = is_locally_bipartite(g)
            expected = lb and not any(
                is_locally_bipartite(g.with_edge(u, v)) for u, v in g.non_edges()
            )
            assert is_edge_maximal_locally_bipartite(g) == expected, case
            outcomes[lb, expected] += 1
        assert len(level) == 119 and min(outcomes.values()) >= 20
        assert set(outcomes) == {(False, False), (True, False), (True, True)}


class TestFiveVertexCorollary:
    def test_no_vertex_has_five_neighbours_in_an_h0_copy(self):
        h0 = families.h0()
        for fid in ("C7BAR", "H2PLUS", "COUNTEREXAMPLE8"):
            g = families.generate(fid)
            count = 0
            for embedding in subgraph_embeddings(h0, g, induced=False):
                image = mask_of(embedding)
                assert all((g.adj[v] & image).bit_count() <= 4 for v in range(g.n))
                count += 1
                if count >= 50:
                    break
            assert count > 0  # these families all contain H0

    def test_five_vertex_sets_are_bipartite_iff_they_have_no_odd_cycle(self):
        # the H0 claim of verify-paper reads "a triangle or a 5-cycle" on five
        # vertices as "not 2-colourable"; networkx decides both sides here
        nx = pytest.importorskip("networkx")
        rng = random.Random(20260810)
        outcomes = Counter()
        for _ in range(200):
            g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.2, 0.8))
            for subset in combinations(range(g.n), 5):
                h = nx.Graph([(u, v) for u, v in combinations(subset, 2) if g.has_edge(u, v)])
                h.add_nodes_from(subset)
                bipartite = _two_colouring(g.adj, mask_of(subset)) is not None
                assert bipartite == nx.is_bipartite(h)
                assert bipartite == all(len(c) % 2 == 0 for c in nx.simple_cycles(h))
                outcomes[bipartite] += 1
        assert outcomes[True] > 1000 and outcomes[False] > 1000


def triangle_free_hub(rng, n):
    """A hub over a random triangle-free graph on n - 1 vertices, relabelled:
    its odd wheels, if any, have rims of length 5 or more."""
    rows = [0] * (n - 1)
    for _ in range(2 * n):
        u, v = rng.sample(range(n - 1), 2)
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    g = Graph.from_rows(rows).with_vertex((1 << (n - 1)) - 1)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_witnesses_are_frozen():
    # SHA-256 over odd_wheel's (centre, rim) and, where it finds none,
    # sparse_missing_spoke on 500 seeded graphs; the rim counts were frozen
    # while odd_wheel searched a relabelled induced copy
    rng = random.Random(3000)
    digest = hashlib.sha256()
    rims = Counter()
    spokes = 0
    for i in range(500):
        n = rng.randint(1, 13)
        if i % 3 == 0 and n > 2:
            g = triangle_free_hub(rng, n)
        else:
            g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        witness = odd_wheel(g)
        spoke = sparse_missing_spoke(g) if witness is None else None
        found = None if witness is None else (witness.centre, witness.rim)
        digest.update(repr((found, spoke)).encode())
        rims[None if witness is None else len(witness.rim)] += 1
        spokes += spoke is not None
    assert rims == {None: 323, 3: 105, 5: 71, 7: 1} and spokes == 8
    assert digest.hexdigest() == "6cbac2f755891751bdddc745bdf7712c2ad8c40dcc549e60fbdc2c12d5c1e93f"


class TestSparseMissingSpoke:
    def test_detects_w5_missing_spoke(self):
        # 5-wheel with one spoke removed: that spoke is a sparse pair
        g = families.wheel(5)
        rim0 = 0
        edges = [(u, v) for u, v in g.edges() if (u, v) != (rim0, 5)]
        broken = Graph(6, edges)
        assert classify_pair(broken, rim0, 5) is PairClass.SPARSE
        assert sparse_missing_spoke(broken) is not None

    def test_long_rim_needs_no_recursion(self):
        # a hub over a 1100-vertex path whose ends meet vertex 1101: the
        # odd cycle through 1101 is 1101 long, and (hub, 1101) is the missing
        # spoke of the odd wheel whose rim closes through 1101
        edges = [(0, i) for i in range(1, 1101)] + [(i, i + 1) for i in range(1, 1100)]
        g = Graph(1102, edges + [(1, 1101), (1100, 1101)])
        assert is_locally_bipartite(g)
        assert sparse_missing_spoke(g) == (0, 1101)

    def test_clean_on_k3_blow_ups(self):
        # hypotheses of the no-missing-spoke lemmas hold here
        g = blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [3, 3, 3])
        assert find_subgraph(families.h0(), g) is None
        assert 2 * g.min_degree() > g.n
        assert sparse_missing_spoke(g) is None

    @pytest.mark.parametrize("g", [families.wheel(5), k4()], ids=["W5", "K4"])
    def test_rejects_non_locally_bipartite(self, g):
        with pytest.raises(ValueError, match="requires a locally bipartite input"):
            sparse_missing_spoke(g)

    def test_matches_path_enumeration(self):
        # oracle: for the sparse pairs uv in the same order, an exhaustive
        # simple-path DFS for an odd cycle through v inside N(u) + v
        # (exponential, small n only); it does not use local bipartiteness
        def odd_cycle_through(g, region, target):
            def extend(path, on_path):
                for w in bits(g.adj[path[-1]] & region):
                    if w == target and len(path) >= 3 and len(path) % 2 == 1:
                        return True
                    if not on_path >> w & 1:
                        path.append(w)
                        if extend(path, on_path | 1 << w):
                            return True
                        path.pop()
                return False

            return extend([target], 1 << target)

        def oracle(g):
            for u in range(g.n):
                for v in range(g.n):
                    common = g.adj[u] & g.adj[v]
                    if u == v or g.has_edge(u, v) or any(g.adj[x] & common for x in bits(common)):
                        continue
                    if odd_cycle_through(g, g.adj[u] | 1 << v, v):
                        return (u, v)
            return None

        rng = random.Random(515)
        outcomes = Counter()
        while sum(outcomes.values()) < 300:
            if rng.random() < 0.5:
                # an odd wheel (hub k) less one spoke and about a tenth of
                # its other edges, perhaps with one more vertex, relabelled
                k = rng.choice((5, 7))
                spoke = (rng.randrange(k), k)
                g = families.wheel(k)
                g = Graph(k + 1, [e for e in g.edges() if e != spoke and rng.random() < 0.9])
                if k == 5 and rng.random() < 0.5:
                    g = g.with_vertex(rng.getrandbits(g.n))
                g = relabel(g, rng.sample(range(g.n), g.n))
            else:
                g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.7))
            if not is_locally_bipartite(g):
                continue
            spoke = sparse_missing_spoke(g)
            assert spoke == oracle(g), g.edges()
            outcomes[spoke is not None] += 1
        assert outcomes == {True: 52, False: 248}

    def test_twin_classes_give_the_per_vertex_pair_answer(self):
        # the 839 locally bipartite graphs on <= 7 vertices, a blow-up of each
        # with classes of 1-3 vertices, and that blow-up relabelled
        rng = random.Random(31)
        spokes = 0
        for g in hereditary_graphs(7):
            big = blow_up(g, [rng.randint(1, 3) for _ in range(g.n)])
            for h in (g, big, relabel(big, rng.sample(range(big.n), big.n))):
                spoke = sparse_missing_spoke(h)
                assert spoke == per_vertex_pair_spoke(h), h.edges()
                spokes += spoke is not None
        assert spokes == 78

    @pytest.mark.parametrize("m", [1, 2, 7, 50])
    def test_blown_up_w5_missing_spoke(self, m):
        # W5 less the spoke 0-5, each vertex blown up to m twins: the first
        # pair is the hub class's least vertex and vertex 0
        broken = Graph(6, [e for e in families.wheel(5).edges() if e != (0, 5)])
        g = blow_up(broken, [m] * 6)
        assert sparse_missing_spoke(g) == per_vertex_pair_spoke(g) == (5 * m, 0)

    def test_k3_blow_up_classifies_one_pair_per_class_pair(self, monkeypatch):
        # the audit of decompose_auto on K3[100]: 3 twin classes, so at most 9
        # classified pairs, against 300 * 299 = 89,700 ordered vertex pairs
        calls = 0

        def counted(g, u, v):
            nonlocal calls
            calls += 1
            return classify_pair(g, u, v)

        monkeypatch.setattr(structure, "classify_pair", counted)
        certificate = decompose_auto(blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [100] * 3))
        assert certificate.reason == "no H2PLUS copy"
        assert 0 < calls <= 9


W5_WITHOUT_SPOKE_4 = Graph(6, [e for e in families.wheel(5).edges() if e != (4, 5)])


@pytest.mark.parametrize(
    "witness, g",
    [
        (OddWheelWitness(5, (0, 1, 2, 3)), families.wheel(5)),  # an even rim
        (OddWheelWitness(5, (0, 1, 2, 3, 4)), W5_WITHOUT_SPOKE_4),  # 4 is outside N(5)
    ],
    ids=["even-rim", "rim-outside-the-centre"],
)
def test_odd_wheel_witness_refuses_a_rim_that_is_no_odd_wheel(witness, g):
    assert OddWheelWitness(5, (0, 1, 2, 3, 4)).validate(families.wheel(5))
    assert witness.validate(g) is False
