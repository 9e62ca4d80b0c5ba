"""Homomorphism / subgraph / isomorphism solver tests with brute-force oracles."""

import hashlib
import inspect
import random
import sys
import time
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from localchrom import families, verify_hom_forces_induced
from localchrom.colouring import chromatic_number
from localchrom.graphs import (
    Graph,
    _classes_by_row,
    _twin_masks,
    bits,
    blow_up,
    blow_up_classes,
    complement,
    cycle_power,
    mask_of,
    relabel,
)
from localchrom.homomorphism import (
    _backtrack,
    _canonical_search,
    _pattern_order,
    _refine,
    brute_force_homomorphism,
    canonical_form,
    compose,
    find_homomorphism,
    find_subgraph,
    is_homomorphism,
    is_isomorphic,
    subgraph_embeddings,
)


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def twin_host(rng, classes=(1, 5)):
    """A relabelled blow-up whose classes have 1-3 vertices, each class either
    independent (open twins) or a clique (closed, adjacent twins)."""
    base = random_graph(rng, rng.randint(*classes), rng.uniform(0.3, 0.9))
    sizes = [rng.randint(1, 3) for _ in range(base.n)]
    edges = list(blow_up(base, sizes).edges())
    for members in blow_up_classes(sizes):
        if rng.random() < 0.5:
            edges += combinations(members, 2)
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    return relabel(Graph(len(perm), edges), perm)


def all_maps_oracle(g, h):
    """Literal enumeration of all |h|^|g| maps."""
    if g.n == 0:
        return True
    edges = list(g.edges())
    for image in product(range(h.n), repeat=g.n):
        if all(h.has_edge(image[u], image[v]) for u, v in edges):
            return True
    return False


class TestFindHomomorphism:
    def test_paper_non_homomorphisms(self):
        pairs = [("H2PLUS", "C7BAR"), ("C7BAR", "H2PLUS"), ("H2PLUS", "H2"), ("C7BAR", "H2")]
        for src, dst in pairs:
            g, h = families.generate(src), families.generate(dst)
            assert find_homomorphism(g, h) is None, (src, dst)
            assert not brute_force_homomorphism(g, h), (src, dst)

    def test_identity(self):
        for fid in ("H0", "H2PLUS", "C7BAR"):
            g = families.generate(fid)
            cert = find_homomorphism(g, g)
            assert cert is not None and is_homomorphism(g, g, cert)

    def test_blow_up_collapse(self):
        g = families.c7bar()
        b = blow_up(g, [2, 1, 3, 1, 1, 2, 1])
        cert = find_homomorphism(b, g)
        assert cert is not None and is_homomorphism(b, g, cert)

    def test_solver_vs_all_maps_oracle(self):
        rng = random.Random(99)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            h = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            assert (find_homomorphism(g, h) is not None) == all_maps_oracle(g, h)
            assert brute_force_homomorphism(g, h) == all_maps_oracle(g, h)

    def test_certificate_validates_in_one_scan(self):
        g, h = families.h2(), families.c7bar()
        cert = find_homomorphism(g, h)
        assert cert is not None and is_homomorphism(g, h, cert)

    def test_composition(self):
        g = families.h2()
        h = blow_up(g, [2] * 7)
        k = blow_up(h, [1, 2] * 7)
        c1, c2 = find_homomorphism(g, h), find_homomorphism(h, k)
        assert is_homomorphism(g, k, compose(c1, c2))

    def test_hom_implies_chi_monotone_on_families(self):
        ids = ["H0", "H1", "H2", "H2PLUS", "C7BAR", "DELTA(3)", "ANDRASFAI(2)", "WHEEL(5)"]
        for a in ids:
            for b in ids:
                g, h = families.generate(a), families.generate(b)
                cert = find_homomorphism(g, h)
                if cert is not None:
                    assert chromatic_number(g)[0] <= chromatic_number(h)[0], (a, b)


class TestFindSubgraph:
    def test_h0_inside_c7bar_vs_injection_oracle(self):
        h0, host = families.h0(), families.c7bar()
        found = find_subgraph(h0, host) is not None
        oracle = any(
            all(host.has_edge(image[u], image[v]) for u, v in h0.edges())
            for image in permutations(range(7))
        )
        assert found == oracle == True  # noqa: E712

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_no_induced_h2_in_delta(self, ell):
        assert find_subgraph(families.h2(), families.delta(ell), induced=True) is None

    def test_h2_subgraph_but_not_induced_in_c7bar(self):
        assert find_subgraph(families.h2(), families.c7bar(), induced=False) is not None
        assert find_subgraph(families.h2(), families.c7bar(), induced=True) is None

    def test_k3_identity(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert find_subgraph(k3, k3, induced=True) == (0, 1, 2)

    def test_embeddings_are_injective_and_consistent(self):
        count = 0
        for emb in subgraph_embeddings(families.h2(), families.c7bar(), induced=False):
            assert len(set(emb)) == 7
            count += 1
        assert count > 0

    def test_induced_vs_oracle_random(self):
        rng = random.Random(4)
        for _ in range(80):
            p = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8))
            h = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            for induced in (False, True):
                oracle = False
                for image in permutations(range(h.n), p.n):
                    ok = all(h.has_edge(image[u], image[v]) for u, v in p.edges())
                    if ok and induced:
                        ok = all(
                            h.has_edge(image[u], image[v]) == p.has_edge(u, v)
                            for u, v in combinations(range(p.n), 2)
                        )
                    if ok:
                        oracle = True
                        break
                assert (find_subgraph(p, h, induced) is not None) == oracle


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def preserves(p, h, image, induced):
    """Edges map to edges; when induced, non-edges also map to non-edges."""
    for u, v in combinations(range(p.n), 2):
        if p.has_edge(u, v) and not h.has_edge(image[u], image[v]):
            return False
        if induced and not p.has_edge(u, v) and h.has_edge(image[u], image[v]):
            return False
    return True


def homs_in_order(p, h):
    """Every homomorphism p -> h, from itertools.product in lexicographic order
    of the images along _pattern_order."""
    order = _pattern_order(p)
    homs = []
    for images in product(range(h.n), repeat=p.n):
        image = [0] * p.n
        for v, x in zip(order, images):
            image[v] = x
        if preserves(p, h, image, False):
            homs.append(tuple(image))
    return homs


class TestBacktracker:
    """The one backtracker behind find_homomorphism, subgraph_embeddings and find_subgraph."""

    def test_long_patterns_do_not_recurse(self):
        k2 = Graph(2, [(0, 1)])
        hom = find_homomorphism(path(1500), k2)
        assert hom is not None and is_homomorphism(path(1500), k2, hom)
        emb = find_subgraph(path(1200), cycle_power(1300, 1))
        assert emb is not None and is_homomorphism(path(1200), cycle_power(1300, 1), emb)
        assert len(set(emb)) == 1200

    def test_brute_force_does_not_recurse(self):
        assert brute_force_homomorphism(path(1500), Graph(2, [(0, 1)]))

    def test_maps_on_twin_hosts_are_frozen(self):
        # the first homomorphism and every embedding on 300 twin-rich hosts,
        # hashed before the backtracker learned to prune twins
        rng = random.Random(2015)
        digest = hashlib.sha256()
        for _ in range(300):
            h = twin_host(rng)
            p = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            digest.update(repr(find_homomorphism(p, h)).encode())
            for induced in (False, True):
                digest.update(repr(list(subgraph_embeddings(p, h, induced))).encode())
        expected = "0db8815ed7532a8c5321a6e9f94abefbfbb4103e024717bc8ca3c2a49b69ed20"
        assert digest.hexdigest() == expected

    def test_negative_search_in_a_blow_up_prunes_twins(self):
        # unpruned, this search repeats every dead end once per twin (minutes)
        assert find_subgraph(families.c7bar(), blow_up(families.h2plus(), [10] * 8)) is None

    def test_enumeration_order_vs_labelled_oracle(self):
        # maps come out in lexicographic order of their images along _pattern_order,
        # on random hosts and on hosts full of open and closed twins, in both modes
        rng = random.Random(31)
        shared = 0  # maps sending two pattern vertices to one host vertex
        for case in range(250):
            p = random_graph(rng, rng.randint(0, 4), rng.uniform(0.2, 0.8))
            if case < 150:
                h = random_graph(rng, rng.randint(0, 6), rng.uniform(0.2, 0.8))
            else:
                h = twin_host(rng, classes=(1, 3))
            homs = homs_in_order(p, h)
            assert find_homomorphism(p, h) == (homs[0] if homs else None)
            for induced in (False, True):
                oracle = [img for img in homs if not induced or preserves(p, h, img, True)]
                assert list(_backtrack(p, h, injective=False, induced=induced)) == oracle
                injective = [img for img in oracle if len(set(img)) == p.n]
                assert list(subgraph_embeddings(p, h, induced)) == injective
                shared += len(oracle) - len(injective)
        assert shared

    def test_lists_vs_labelled_oracle(self):
        # with a list per pattern vertex, the maps are the oracle's maps that
        # keep the lists, in the oracle's order, in all four modes; on hosts
        # full of twins, a list that holds one twin of a class and not another
        # must keep the twin pruning from skipping the other
        rng = random.Random(47)
        split = 0
        for _ in range(150):
            h = twin_host(rng, classes=(1, 3))
            p = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8))
            lists = [mask_of(rng.sample(range(h.n), rng.randint(1, h.n))) for _ in range(p.n)]
            homs = [
                img
                for img in homs_in_order(p, h)
                if all(lists[v] >> x & 1 for v, x in enumerate(img))
            ]
            for induced in (False, True):
                oracle = [img for img in homs if not induced or preserves(p, h, img, True)]
                assert list(_backtrack(p, h, False, induced, lists)) == oracle
                injective = [img for img in oracle if len(set(img)) == p.n]
                assert list(_backtrack(p, h, True, induced, lists)) == injective
            twins = _twin_masks(h.adj)
            split += any(options & t not in (0, t) for options in lists for t in twins)
        assert split > 50

    def test_twin_of_a_used_image_is_still_tried(self):
        # u = 0 and v = 1 (degree 3) are placed first and are joined by a path of
        # length 3, so v cannot take u's image x; y, a closed twin of x, must still
        # be tried after x fails, because (x y) moves u's image
        p = Graph(8, [(0, 2), (2, 3), (3, 1), (0, 4), (0, 5), (1, 6), (1, 7)])
        assert _pattern_order(p)[:2] == [0, 1]
        for h in (cycle_power(3, 1), Graph(2, [(0, 1)])):
            homs = homs_in_order(p, h)
            assert homs and find_homomorphism(p, h) == homs[0]
            assert list(_backtrack(p, h, injective=False, induced=False)) == homs

    def test_embeddings_vs_networkx(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        def to_nx(g):
            out = nx.Graph()
            out.add_nodes_from(range(g.n))
            out.add_edges_from(g.edges())
            return out

        def as_maps(matches, n):
            """GraphMatcher yields {host vertex: pattern vertex}; invert to image tuples."""
            out = set()
            for match in matches:
                image = [0] * n
                for x, v in match.items():
                    image[v] = x
                out.add(tuple(image))
            return out

        rng = random.Random(57)
        named = [families.h0(), families.c7bar(), cycle_power(5, 1)]
        for case in range(45):
            if case < 30:
                h = random_graph(rng, rng.randint(8, 10), rng.uniform(0.3, 0.8))
            else:  # hosts with open and closed twins
                h = twin_host(rng, classes=(2, 4))
            if case < len(named):
                p = named[case]
            else:
                p = random_graph(rng, rng.randint(3, 5), rng.uniform(0.3, 0.8))
            matcher = GraphMatcher(to_nx(h), to_nx(p))
            mono = as_maps(matcher.subgraph_monomorphisms_iter(), p.n)
            iso = as_maps(matcher.subgraph_isomorphisms_iter(), p.n)
            assert set(subgraph_embeddings(p, h, induced=False)) == mono
            assert set(subgraph_embeddings(p, h, induced=True)) == iso


def disjoint_union(parts):
    """The disjoint union of ``parts``, each on the next block of labels."""
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return Graph(offset, edges)


def kaa_k4(a):
    """K_{a,a} on 0..2a-1, then K4: the K4 comes last in the search order and
    has no map into C7BAR, whose clique number is 3."""
    return disjoint_union([blow_up(Graph(2, [(0, 1)]), [a, a]), complement(Graph(4))])


class TestFirstMap:
    """find_homomorphism searches each component of the pattern on its own."""

    def test_vs_whole_pattern_search(self):
        # oracle: one search of the whole pattern, and brute force on small
        # pairs; the labels are shuffled so that the components interleave
        rng = random.Random(36)
        named = [families.c7bar(), families.h2plus(), families.h2(), families.delta(3)]
        named += [cycle_power(3, 1), cycle_power(5, 1), Graph(2, [(0, 1)])]
        outcomes = Counter()
        late = 0  # NO on a part whose least vertex comes after that of a part with maps
        for _ in range(300):
            parts = [random_graph(rng, rng.randint(1, 5), rng.uniform(0.3, 0.9)) for _ in range(rng.randint(2, 4))]
            perm = list(range(sum(part.n for part in parts)))
            rng.shuffle(perm)
            g = relabel(disjoint_union(parts), perm)
            starts, offset = [], 0
            for part in parts:
                starts.append(min(perm[offset : offset + part.n]))
                offset += part.n
            for h in named + [twin_host(rng, classes=(1, 3))]:
                first = find_homomorphism(g, h)
                assert first == next(_backtrack(g, h, False, False), None)
                if g.n <= 7 and h.n <= 8:
                    assert (first is not None) == brute_force_homomorphism(g, h)
                outcomes[first is not None] += 1
                if first is None:
                    maps = [find_homomorphism(part, h) is not None for part in parts]
                    fails = min(start for start, ok in zip(starts, maps) if not ok)
                    late += any(ok and start < fails for start, ok in zip(starts, maps))
        assert outcomes[True] and outcomes[False]
        assert late >= 50

    def test_one_search_per_component(self, monkeypatch):
        # K_{3,3} + K4 into C7BAR: a search of the 6 vertices, then of the 4,
        # where one search of the whole pattern has 10
        from localchrom import homomorphism

        sizes = []

        def counted(pattern, host, injective, induced, lists=None):
            sizes.append(pattern.n)
            return _backtrack(pattern, host, injective, induced, lists)

        monkeypatch.setattr(homomorphism, "_backtrack", counted)
        assert find_homomorphism(kaa_k4(3), families.c7bar()) is None
        assert sizes == [6, 4]

    def test_a_late_component_without_maps_ends_the_search(self):
        # one search of the whole pattern retries the K4 under every map of
        # the K_{6,6} into C7BAR: 22 s; one search per component, milliseconds
        start = time.perf_counter()
        assert find_homomorphism(kaa_k4(6), families.c7bar()) is None
        assert time.perf_counter() - start < 1.0

    def test_lone_vertices_take_their_least_candidate(self):
        # isolated vertices are not searched; the map is still the whole search's
        g = Graph(5, [(1, 3)])
        for h in (families.c7bar(), Graph(2, [(0, 1)]), Graph(3)):
            first = find_homomorphism(g, h)
            assert first == next(_backtrack(g, h, False, False), None)
        assert find_homomorphism(Graph(3), Graph(0)) is None
        assert find_homomorphism(Graph(0), Graph(0)) == ()


def refine_by_multisets(g, colour):
    """Reference colour refinement on a colour list: new colours are ranks of
    (old colour, sorted neighbour-colour multiset), until no class splits."""
    adj = g.adj
    while True:
        cells: dict[int, int] = {}
        for v, c in enumerate(colour):
            cells[c] = cells.get(c, 0) | 1 << v
        by_colour = sorted(cells.items())
        new = [0] * g.n
        rank = 0
        for _, cell in by_colour:
            if not cell & (cell - 1):
                new[cell.bit_length() - 1] = rank
                rank += 1
                continue
            split: dict[tuple[int, ...], list[int]] = {}
            for v in bits(cell):
                row = adj[v]
                multiset: list[int] = []
                for d, other in by_colour:
                    k = (row & other).bit_count()
                    if k:
                        multiset += (d,) * k
                split.setdefault(tuple(multiset), []).append(v)
            for key in sorted(split):
                for v in split[key]:
                    new[v] = rank
                rank += 1
        if rank == len(cells):
            return new
        colour = new


def colour_classes(colour):
    """The classes of a colour list as vertex bitsets, in ascending colour."""
    classes = _classes_by_row(colour)
    return [classes[c] for c in sorted(classes)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def refine_by_packed_signatures(g, cells, fresh=None):
    """Reference refinement: each vertex's counts against the fresh cells packed
    into one integer signature, each cell's groups emitted in descending
    signature, every round, until no cell splits."""
    width = len(g.adj).bit_length()
    if fresh is None:
        fresh = cells
    while fresh:
        new, created = [], []
        for cell in cells:
            split = {}
            for v in bits(cell):
                signature = 0
                for other in fresh:
                    signature = signature << width | (g.adj[v] & other).bit_count()
                split[signature] = split.get(signature, 0) | 1 << v
            pieces = [split[s] for s in sorted(split, reverse=True)]
            new += pieces
            if len(pieces) > 1:
                created += pieces
        cells, fresh = new, created
    return cells


class TestIsomorphism:
    def test_complement_c7_is_square(self):
        assert is_isomorphic(complement(cycle_power(7, 1)), cycle_power(7, 2))

    def test_delta2_c7bar(self):
        assert is_isomorphic(families.delta(2), families.c7bar())

    def test_different_n(self):
        assert not is_isomorphic(cycle_power(5, 1), cycle_power(7, 1))

    def test_relabel_invariance(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabel(g, perm))
            assert is_isomorphic(g, relabel(g, perm))

    def test_against_permutation_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            h = random_graph(rng, n, rng.uniform(0.2, 0.8))
            oracle = any(relabel(g, list(p)) == h for p in permutations(range(n)))
            assert is_isomorphic(g, h) == oracle

    def test_twin_rich_forms_are_frozen(self):
        # SHA-256 over canonical_form of 300 relabelled blow-ups with open and
        # closed twin classes of at most three vertices, frozen before the
        # search branched once per twin class
        rng = random.Random(1998)
        digest = hashlib.sha256()
        kept = 0
        while kept < 300:
            g = twin_host(rng, (2, 5))
            open_classes = Counter(g.adj)
            closed_classes = Counter(row | 1 << v for v, row in enumerate(g.adj))
            if g.n > 10 or max(*open_classes.values(), *closed_classes.values()) > 3:
                continue
            kept += 1
            digest.update(repr(canonical_form(g)).encode())
        expected = "de0a98cdb2e587f64bbed9e6bf14ce03b63f86dfdf1f0b292aed85cff3636efc"
        assert digest.hexdigest() == expected

    def test_refine_matches_multiset_ranking(self):
        # cells in order against the reference's classes in rank order: from
        # the degree partition against the unit colouring, and from every
        # individualisation of one vertex of the refined partition, refined
        # against every cell and against the new singleton alone
        rng = random.Random(2014)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 13), rng.uniform(0.1, 0.9))
            colour = refine_by_multisets(g, [0] * g.n)
            by_degree = _classes_by_row(g.degrees())
            cells = _refine(g, [by_degree[d] for d in sorted(by_degree)])
            assert cells == colour_classes(colour)
            for k, cell in enumerate(cells):
                for v in bits(cell):
                    rest = [cell ^ 1 << v] if cell & (cell - 1) else []
                    split = cells[:k] + [1 << v, *rest] + cells[k + 1 :]
                    individualised = [2 * c + (u != v) for u, c in enumerate(colour)]
                    expected = colour_classes(refine_by_multisets(g, individualised))
                    assert _refine(g, split) == expected
                    assert _refine(g, split, [1 << v]) == expected

    def test_refine_matches_packed_signatures(self):
        # bit-sliced counts against the packed-signature reference, on random
        # graphs, cycle powers and blow-ups of 1-40 vertices: from the unit
        # and the degree partition, after individualising any vertex of the
        # refined partition (fresh = [1 << v]), and in a cell inside one twin
        # class, where the reference splits nothing (fresh = [])
        rng = random.Random(2011)
        widest = 0  # the largest count against a fresh cell of the inputs
        for n in range(1, 41):
            base = random_graph(rng, rng.randint(1, 4), rng.uniform(0.3, 0.9))
            sizes = [rng.randint(1, 20) for _ in range(base.n)]
            hosts = [random_graph(rng, n, rng.uniform(0.1, 0.9))]
            if n >= 3:
                hosts.append(cycle_power(n, rng.randint(1, (n - 1) // 2)))
            if sum(sizes) <= 40:
                perm = list(range(sum(sizes)))
                rng.shuffle(perm)
                hosts.append(relabel(blow_up(base, sizes), perm))
            for g in hosts:
                by_degree = _classes_by_row(g.degrees())
                for root in ([(1 << g.n) - 1], [by_degree[d] for d in sorted(by_degree)]):
                    widest = max(widest, *((row & c).bit_count() for row in g.adj for c in root))
                    assert _refine(g, root) == refine_by_packed_signatures(g, root)
                cells = _refine(g, root)
                twins = _twin_masks(g.adj)
                for k, cell in enumerate(cells):
                    for v in bits(cell) if cell & (cell - 1) else ():
                        split = cells[:k] + [1 << v, cell ^ 1 << v] + cells[k + 1 :]
                        expected = refine_by_packed_signatures(g, split)
                        assert _refine(g, split, [1 << v]) == expected
                        if not cell & ~twins[v]:
                            assert expected == split
                            assert _refine(g, split, []) == split
        assert widest >= 16  # five count bits

    def test_canonical_search_is_frozen(self):
        # SHA-256 over _canonical_search (encoding and the automorphisms that
        # the orbit pruning reads) of 500 random graphs on 0-12 vertices,
        # C3-C20, the Petersen graph and 2-fold blow-ups of C7BAR, H2PLUS and
        # COUNTEREXAMPLE8, frozen while refinement ranked colour lists
        rng = random.Random(2014)
        panel = [random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.9)) for _ in range(500)]
        panel += [cycle_power(k, 1) for k in range(3, 21)] + [petersen()]
        named = (families.c7bar(), families.h2plus(), families.counterexample8())
        panel += [blow_up(f, [2] * f.n) for f in named]
        digest = hashlib.sha256()
        for g in panel:
            digest.update(repr(_canonical_search(g)).encode())
        expected = "2fa3298125cecc7479e457a00dd50ff2023e61220fe33250269bddf6265d6edd"
        assert digest.hexdigest() == expected

    def test_canonical_search_stops_at_a_known_encoding(self):
        # a relabelled copy of g stops at a leaf of g's encoding and returns it,
        # with no maps; a graph whose class is not known keeps its full search
        rng = random.Random(1998)
        panel = [random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8)) for _ in range(200)]
        panel += [families.c7bar(), families.h2plus(), families.counterexample8(), petersen()]
        panel += [blow_up(families.c7bar(), [2] * 7), cycle_power(12, 3)]
        searched = [(g, _canonical_search(g)) for g in panel]
        for g, (key, autos) in searched:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert _canonical_search(relabel(g, perm), known={key}) == (key, ())
            others = {k for h, (k, _) in searched if h.n == g.n and k != key}
            assert _canonical_search(g, known=others) == (key, autos)

    def test_edgeless_and_complete_need_no_recursion(self):
        # all 200 vertices are twins, so the search branches once per level
        # and goes 200 levels deep, with the recursion limit 50 frames away
        g = Graph(200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            forms = canonical_form(g), canonical_form(complement(g))
        finally:
            sys.setrecursionlimit(limit)
        assert forms == ((200, 0), (200, (1 << 200 * 199 // 2) - 1))

    def test_regular_non_isomorphic_pair(self):
        # both 4-regular on 8 vertices; refinement alone cannot split them
        k44 = Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
        circulant = cycle_power(8, 2)
        assert not is_isomorphic(k44, circulant)
        assert is_isomorphic(k44, relabel(k44, [7, 0, 6, 1, 5, 2, 4, 3]))


class TestHomscores:
    def test_blow_up_keeps_induced_copy(self):
        f = families.c7bar()
        g = blow_up(f, [1, 2, 1, 1, 1, 1, 1])
        report = verify_hom_forces_induced(f, g)
        assert report.hypotheses_hold and report.conclusion_holds

    def test_hom_hypothesis_fails(self):
        report = verify_hom_forces_induced(families.c7bar(), families.h2plus())
        assert not report.hypotheses_hold
        assert report.failed_hypotheses() == ["hom"]
        assert report.conclusion_holds is None

    def test_edge_maximality_hypothesis_fails(self):
        report = verify_hom_forces_induced(families.h0(), families.c7bar())
        assert "edge-maximal" in report.failed_hypotheses()

    def test_class_collapse_certificates(self):
        f = families.h2plus()
        sizes = [2, 1, 1, 1, 1, 2, 1, 1]
        g = blow_up(f, sizes)
        report = verify_hom_forces_induced(f, g)
        assert report.hypotheses_hold and report.conclusion_holds
        assert is_homomorphism(f, g, report.induced_embedding)


@pytest.mark.parametrize(
    "mapping", [(0, 1), (0, 1, 2, 0), (0, 1, 3), (0, 1, -1)], ids=["short", "long", "past-n", "negative"]
)
def test_is_homomorphism_refuses_a_map_that_is_not_into_the_target(mapping):
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert is_homomorphism(k3, k3, (0, 1, 2))
    assert is_homomorphism(k3, k3, mapping) is False
