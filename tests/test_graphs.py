"""Core graph type and construction tests."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localchrom import families
from localchrom.graphs import (
    Graph,
    WeightedGraph,
    bits,
    blow_up,
    blow_up_classes,
    common_neighbourhood,
    complement,
    cycle_power,
    find_twins,
    mask_of,
    merge_twins,
    min_weighted_degree,
    relabel,
    weighted_degree,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, chosen)


def k4():
    return Graph(4, [(u, v) for u, v in combinations(range(4), 2)])


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def asymmetric_pairs(rows):
    """The per-bit scan: every (v, u) with u in row v but v not in row u."""
    return {(v, u) for v, row in enumerate(rows) for u in bits(row) if not rows[u] >> v & 1}


def blow_ups(rng, count):
    """Blow-ups of named graphs, some with one class of 30 twins, half relabelled."""
    bases = [families.generate(fid) for fid in ("H0", "H2PLUS", "C7BAR", "DELTA(3)")]
    out = []
    for case in range(count):
        base = bases[case % len(bases)]
        sizes = [rng.randint(1, 4) for _ in range(base.n)]
        if case % 3 == 0:
            sizes[rng.randrange(base.n)] = 30
        g = blow_up(base, sizes)
        if case % 2:
            g = relabel(g, rng.sample(range(g.n), g.n))
        out.append(g)
    return out


def flipped_row_sets(rng):
    """(kind, rows): random graphs and blow-ups, each as it is and with one bit
    flipped, on one side or on both; and, in each twin class of two or more,
    one member given an extra neighbour, and one member other than the least
    dropped from the row of a vertex that sees the class."""
    graphs = [random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.9)) for _ in range(150)]
    for g in graphs + blow_ups(rng, 40):
        rows = list(g.adj)
        yield "as is", rows
        v, u = rng.sample(range(g.n), 2)
        yield "one side", rows[:v] + [rows[v] ^ 1 << u] + rows[v + 1 :]
        both = list(rows)
        both[v] ^= 1 << u
        both[u] ^= 1 << v
        yield "both sides", both
        classes = {}
        for w, row in enumerate(rows):
            classes.setdefault(row, []).append(w)
        for row, members in classes.items():
            if len(members) < 2 or not row:
                continue
            x = rng.choice(members)
            w = rng.choice([w for w in range(g.n) if w != x and not rows[x] >> w & 1])
            yield "member gains", rows[:x] + [rows[x] | 1 << w] + rows[x + 1 :]
            c = rng.choice(members[1:])
            w = rng.choice(list(bits(row)))
            yield "later member dropped", rows[:w] + [rows[w] & ~(1 << c)] + rows[w + 1 :]


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_from_rows_validates_symmetry(self):
        with pytest.raises(ValueError):
            Graph.from_rows([0b010, 0b000, 0b000])

    def test_from_rows_accepts_iff_the_per_bit_scan_finds_no_asymmetric_pair(self):
        # from_rows checks one vertex per twin class; the scan here checks every bit
        rejected = Counter()
        for kind, rows in flipped_row_sets(random.Random(23)):
            pairs = asymmetric_pairs(rows)
            if not pairs:
                assert Graph.from_rows(rows).adj == tuple(rows), kind
                continue
            with pytest.raises(ValueError) as info:
                Graph.from_rows(rows)
            named = re.fullmatch(r"asymmetric adjacency at \((\d+), (\d+)\)", str(info.value))
            assert named, str(info.value)
            # the named pair is genuinely asymmetric: u in N(v), v not in N(u)
            assert (int(named[1]), int(named[2])) in pairs, kind
            rejected[kind] += 1
        assert rejected["one side"] == 190 and rejected["both sides"] == 0
        assert rejected["member gains"] >= 250 and rejected["later member dropped"] >= 250

    def test_relabel_matches_a_per_edge_relabel(self):
        rng = random.Random(29)
        graphs = [random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.9)) for _ in range(100)]
        for g in graphs + blow_ups(rng, 20):
            perm = rng.sample(range(g.n), g.n)
            assert relabel(g, perm) == Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    def test_with_vertex_matches_the_edge_list_constructor(self):
        # the child skips from_rows's checks, so compare it with the graph that
        # Graph() builds and checks from the child's edge list; the mask is
        # still checked
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(0, 9)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            mask = rng.getrandbits(n) if n else 0
            child = g.with_vertex(mask)
            assert child == Graph(n + 1, list(g.edges()) + [(v, n) for v in bits(mask)])
            assert child.adj[n] == mask and g.n == n
        for bad in (1 << 3, -1):
            with pytest.raises(ValueError):
                Graph(3).with_vertex(bad)

    def test_with_edge_matches_the_edge_list_constructor(self):
        # only the two endpoints are checked, with Graph()'s messages
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            u, v = rng.sample(range(n), 2)
            assert g.with_edge(u, v) == Graph(n, list(g.edges()) + [(u, v)])
            assert g.with_edge(u, v).has_edge(v, u) and g.n == n
        g = families.c7bar()
        for u, v in ((0, 7), (7, 0), (-1, 0), (0, -1), (3, 3)):
            message = f"edge ({u}, {v}) out of range for n=7" if u != v else "self-loop at vertex 3"
            for build in (lambda: Graph(7, [(u, v)]), lambda: g.with_edge(u, v)):
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == message

    def test_immutable(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5

    def test_edges_sorted(self):
        g = Graph(4, [(2, 3), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_invariants(self, g):
        for v, row in enumerate(g.adj):
            assert not row >> g.n
            assert not row >> v & 1
            for u in bits(row):
                assert g.adj[u] >> v & 1


class TestComplement:
    def test_complement_c7_is_square(self):
        # the same graph up to the relabelling i -> 3i mod 7
        comp = complement(cycle_power(7, 1))
        square = cycle_power(7, 2)
        assert relabel(comp, [3 * i % 7 for i in range(7)]) == square

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement(complement(g)) == g

    def test_complement_k4_empty(self):
        assert complement(k4()).edge_count() == 0


class TestCyclePower:
    def test_c7bar(self):
        g = cycle_power(7, 2)
        for v in range(7):
            assert g.neighbours(v) == mask_of({(v + d) % 7 for d in (1, 2, 5, 6)})

    def test_c5(self):
        assert cycle_power(5, 1) == Graph(5, [(i, (i + 1) % 5) for i in range(5)])

    def test_regularity_11_2(self):
        g = cycle_power(11, 2)
        assert g.n == 11 and all(g.degree(v) == 4 for v in range(11))

    @pytest.mark.parametrize("k,j", [(2, 0), (1, 0), (4, 2), (6, 3)])
    def test_rejects_bad_parameters(self, k, j):
        with pytest.raises(ValueError):
            cycle_power(k, j)

    def test_j_zero_empty(self):
        assert cycle_power(5, 0).edge_count() == 0


class TestBlowUp:
    @given(graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_identity_blow_up(self, g):
        assert blow_up(g, [1] * g.n) == g

    def test_k2_to_k23(self):
        b = blow_up(Graph(2, [(0, 1)]), [2, 3])
        assert b.n == 5 and b.edge_count() == 6
        assert all(b.has_edge(u, v) for u in (0, 1) for v in (2, 3, 4))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            blow_up(Graph(2, [(0, 1)]), [1, 0])

    def test_class_ranges(self):
        assert blow_up_classes([2, 1, 3]) == [range(0, 2), range(2, 3), range(3, 6)]

    def test_classes_independent_and_complete_between(self):
        g = families.c7bar()
        sizes = [2, 1, 3, 1, 2, 1, 1]
        b = blow_up(g, sizes)
        classes = blow_up_classes(sizes)
        for v, cls in enumerate(classes):
            for x, y in combinations(cls, 2):
                assert not b.has_edge(x, y)
            for u in range(g.n):
                expected = g.has_edge(u, v) if u != v else False
                for x in classes[u]:
                    for y in cls:
                        if x != y:
                            assert b.has_edge(x, y) == expected


class TestTwins:
    def test_doubled_class_pair(self):
        assert find_twins(blow_up(Graph(2, [(0, 1)]), [2, 1])) == [(0, 1)]

    def test_c7bar_twin_free_by_enumeration(self):
        g = families.c7bar()
        expected = [
            (u, v) for u, v in combinations(range(7), 2) if g.adj[u] == g.adj[v]
        ]
        assert expected == [] and find_twins(g) == []

    def test_k3_no_twins(self):
        assert find_twins(Graph(3, [(0, 1), (0, 2), (1, 2)])) == []

    def test_merge_undoes_blow_up(self):
        wg = WeightedGraph(blow_up(families.c7bar(), [2, 1, 1, 1, 1, 1, 1]), [1] * 8)
        merged = merge_twins(wg)
        assert merged.graph == families.c7bar()
        assert merged.weights == (Fraction(2), 1, 1, 1, 1, 1, 1)

    def test_merge_fixed_point(self):
        wg = WeightedGraph(families.h2(), [1] * 7)
        assert merge_twins(wg) is wg

    def test_merge_preserves_weighted_degrees_random(self):
        rng = random.Random(7)
        for _ in range(50):
            sizes = [rng.randint(1, 3) for _ in range(7)]
            b = blow_up(families.h2(), sizes)
            wg = WeightedGraph(b, [Fraction(rng.randint(1, 4)) for _ in range(b.n)])
            merged = merge_twins(wg)
            assert merged.total_weight() == wg.total_weight()
            assert min_weighted_degree(merged) == min_weighted_degree(wg)
            before = sorted(set(weighted_degree(wg, v) for v in range(b.n)))
            after = sorted(set(weighted_degree(merged, v) for v in range(merged.graph.n)))
            assert before == after


class TestNeighbourhoods:
    def test_h2_figure_weighting_is_regular(self):
        wg = WeightedGraph(families.h2(), families.H2_FIGURE_WEIGHTS)
        assert all(weighted_degree(wg, v) == Fraction(6, 11) for v in range(7))

    def test_h2plus_centre_degree(self):
        wg = WeightedGraph(families.h2plus(), families.H2PLUS_FIGURE_WEIGHTS)
        assert weighted_degree(wg, 7) == Fraction(2, 3)
        assert min_weighted_degree(wg) == Fraction(5, 9)

    def test_common_neighbourhood_c7bar(self):
        g = families.c7bar()
        assert common_neighbourhood(g, mask_of({0, 3})) == mask_of({1, 2, 5})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            common_neighbourhood(families.c7bar(), 0)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_union_identity(self, g):
        for u, v in combinations(range(g.n), 2):
            d_uv = (g.adj[u] & g.adj[v]).bit_count()
            assert d_uv == g.degree(u) + g.degree(v) - (g.adj[u] | g.adj[v]).bit_count()


class TestWeightedGraph:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightedGraph(families.h2(), [1, 1, 1, -1, 1, 1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            WeightedGraph(families.h2(), [1, 1])

    def test_total_weight_recomputed(self):
        wg = WeightedGraph(families.h2(), families.H2_FIGURE_WEIGHTS)
        assert wg.total_weight() == 1


K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Graph(-1), ValueError, "vertex count must be nonnegative"),
        # Graph.from_rows reads the rows of a resumed checkpoint
        (lambda: Graph.from_rows([2]), ValueError, "row 0 has bits beyond n-1"),
        (lambda: Graph.from_rows([1]), ValueError, "self-loop at vertex 0"),
        (lambda: relabel(K3, [0, 0, 1]), ValueError, "perm must be a permutation of 0..n-1"),
        (lambda: blow_up(K3, [1, 1]), ValueError, "need one class size per vertex"),
        (
            lambda: min_weighted_degree(WeightedGraph(Graph(0), [])),
            ValueError,
            "empty graph has no minimum degree",
        ),
        (lambda: common_neighbourhood(K3, 0b1000), ValueError, "vertex set has bits beyond n-1"),
        (
            lambda: setattr(WeightedGraph(K3, [1, 1, 1]), "weights", (0, 0, 0)),
            AttributeError,
            "WeightedGraph is immutable",
        ),
    ],
    ids=[
        "negative-n", "row-beyond-n", "row-self-loop", "not-a-permutation", "sizes",
        "empty-min-degree", "set-beyond-n", "weighted-immutable",
    ],
)
def test_input_diagnostics(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
