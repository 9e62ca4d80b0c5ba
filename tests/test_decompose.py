"""Decomposition certificates and the end-to-end theorem pipeline."""

import dataclasses
import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from localchrom import families
from localchrom.colouring import chromatic_number, k_colourable, validate_colouring
from localchrom.decompose import (
    decompose_auto,
    decompose_c7bar,
    decompose_h2plus,
    verify_profile,
)
from localchrom.graphs import CertificateError, Graph, bits, blow_up, blow_up_classes, mask_of, relabel
from localchrom.homomorphism import _backtrack, _first_map, _pattern_order, find_subgraph, is_homomorphism
from localchrom.report import h2plus_decomposition_instance
from localchrom.structure import is_locally_bipartite

F = Fraction


class TestDecomposeC7bar:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_balanced_blow_ups(self, m):
        g = blow_up(families.c7bar(), [m] * 7)
        cert = decompose_c7bar(g)
        assert cert.outcome == "HOM_C7BAR"
        assert cert.s_value == 0
        assert is_homomorphism(g, families.c7bar(), cert.hom)
        assert validate_colouring(g, cert.colouring, 4)
        classes = {frozenset(r) for r in blow_up_classes([m] * 7)}
        parts = {frozenset(cert.parts[f"D{i}"] + cert.parts[f"R{i}"]) for i in range(7)}
        assert parts == classes

    def test_extra_vertex_lands_in_t0(self):
        # enlarge one class of a balanced blow-up and dent one adjacency:
        # the extra vertex has only three anchor neighbours, so it must be
        # assigned to R_0; degree arithmetic checked exactly.
        m = 9
        base = blow_up(families.c7bar(), [m] * 7)
        classes = blow_up_classes([m] * 7)
        nbr_mask = mask_of(list(classes[5]) + list(classes[6]) + list(classes[1]) + list(classes[2])[1:])
        g = base.with_vertex(nbr_mask)
        assert F(g.min_degree()) > F(6, 11) * g.n
        cert = decompose_c7bar(g)
        assert cert.outcome == "HOM_C7BAR"
        extra = g.n - 1
        assert extra in cert.parts["R0"] or extra in cert.parts["D0"]
        assert extra in cert.parts["R0"]  # three anchor neighbours puts it in R
        assert is_homomorphism(g, families.c7bar(), cert.hom)

    def test_no_copy(self):
        cert = decompose_c7bar(families.h2plus())
        assert cert.outcome == "FAILED" and cert.reason == "no C7BAR copy"

    def test_degree_too_low(self):
        cert = decompose_c7bar(families.c7bar().with_vertex(0b11))
        assert cert.outcome == "FAILED" and cert.reason == "degree too low"

    def test_not_locally_bipartite(self):
        cert = decompose_c7bar(families.wheel(7))
        assert cert.outcome == "FAILED" and cert.reason == "not locally bipartite"

    def test_size_audit_recorded(self):
        g = blow_up(families.c7bar(), [2] * 7)
        cert = decompose_c7bar(g)
        assert "R-size" in cert.audit


class TestDecomposeH2plus:
    def test_scaled_figure_instance(self):
        g, sizes = h2plus_decomposition_instance()
        assert F(g.min_degree()) > F(6, 11) * g.n
        cert = decompose_h2plus(g)
        assert cert.outcome == "HOM_H2PLUS"
        assert is_homomorphism(g, families.h2plus(), cert.hom)
        assert validate_colouring(g, cert.colouring, 4)
        centre = frozenset(blow_up_classes(sizes)[7])
        assert frozenset(cert.parts["R502"]) == centre
        for i in range(7):
            t_i = frozenset(cert.parts[f"D{i}"] + cert.parts[f"R{i}"])
            assert t_i == frozenset(blow_up_classes(sizes)[i])

    def test_degree_too_low(self):
        cert = decompose_h2plus(families.h2plus())
        assert cert.outcome == "FAILED" and cert.reason == "degree too low"

    def test_routing_contract(self):
        g = blow_up(families.c7bar(), [2] * 7)
        cert = decompose_h2plus(g)
        assert cert.outcome == "FAILED"
        assert "contains C7BAR" in cert.reason

    def test_not_locally_bipartite(self):
        cert = decompose_h2plus(families.wheel(9))
        assert cert.outcome == "FAILED" and cert.reason == "not locally bipartite"

    def test_no_copy(self):
        # dense enough and locally bipartite, but 3-chromatic: no H2+ inside
        g = blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [4, 4, 4])
        assert F(g.min_degree()) > F(6, 11) * g.n
        cert = decompose_h2plus(g)
        assert cert.outcome == "FAILED" and cert.reason == "no H2PLUS copy"


def _augmented_certificate():
    # Under the full degree hypothesis every reachable instance collapses
    # straight onto H2PLUS, so the tolerated-pair branch is exercised by
    # driving the builder directly on a thinner instance: a [2]*8 blow-up
    # plus a forced R1 vertex and a forced R5 vertex joined by an edge.
    from localchrom.decompose import _H2PLUS_CASE, _build

    base = blow_up(families.h2plus(), [2] * 8)
    classes = blow_up_classes([2] * 8)
    x_nbrs = mask_of(list(classes[0]) + list(classes[2]))
    g = base.with_vertex(x_nbrs)  # x: D-neighbours in D0, D2 -> R1 forced
    x = g.n - 1
    y_nbrs = mask_of(list(classes[0]) + list(classes[4]) + list(classes[6]) + [x])
    g = g.with_vertex(y_nbrs)  # y: D-neighbours in D0, D4, D6 -> R5 forced
    y = g.n - 1
    anchor7 = tuple(c[0] for c in classes[:7])
    return g, x, y, _build(g, anchor7, _H2PLUS_CASE)


class TestAugmentedBranch:
    def test_tolerated_pair_upgrades_to_augmented_target(self):
        g, x, y, cert = _augmented_certificate()
        assert is_locally_bipartite(g)
        assert cert.outcome == "HOM_AUGMENTED"
        assert cert.failed_upgrades == ("e(R1,R5)=0",)
        assert cert.s_value == 1  # exactly the tolerated x-y edge
        assert x in cert.parts["R1"] and y in cert.parts["R5"]
        assert is_homomorphism(g, families.h2plus_augmented(), cert.hom)
        assert not is_homomorphism(g, families.h2plus(), cert.hom)
        assert validate_colouring(g, cert.colouring, 4)

    def test_printed_certificate_names_the_failed_upgrade(self, capsys):
        from localchrom.cli import _print_certificate

        cert = _augmented_certificate()[3]
        _print_certificate(cert)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "outcome HOM_AUGMENTED"
        assert "s 1" in lines and "target H2PLUS_AUG" in lines
        assert lines[-1] == "failed-upgrades e(R1,R5)=0"


class TestTargetColourings:
    def test_are_proper_4_colourings(self):
        from localchrom.decompose import _C7BAR_CASE, _H2PLUS_CASE

        targets = _C7BAR_CASE.targets + _H2PLUS_CASE.targets
        assert [name for _, name, _, _ in targets] == ["C7BAR", "H2PLUS", "H2PLUS_AUG"]
        for _, name, target, colouring in targets:
            assert target == families.generate(name)
            assert validate_colouring(target, colouring, 4)

    @pytest.mark.parametrize("name", ["C7BAR", "H2PLUS", "H2PLUS_AUG"])
    def test_an_improper_target_colouring_is_refused(self, name):
        # vertex 1 takes vertex 0's colour, across the edge 01 of every target:
        # the re-check of the certificate's colouring on g refuses it
        from localchrom.decompose import _C7BAR_CASE, _H2PLUS_CASE, _build

        if name == "C7BAR":
            case, g = _C7BAR_CASE, blow_up(families.c7bar(), [2] * 7)
            anchor = find_subgraph(families.c7bar(), g)
        elif name == "H2PLUS":
            case, g = _H2PLUS_CASE, h2plus_decomposition_instance()[0]
            anchor = find_subgraph(families.h2plus(), g)[:7]
        else:
            case, g = _H2PLUS_CASE, _augmented_certificate()[0]
            anchor = tuple(c[0] for c in blow_up_classes([2] * 8)[:7])
        assert _build(g, anchor, case).target == name
        targets = []
        for outcome, target_name, target, colouring in case.targets:
            if target_name == name:
                colouring = (colouring[0], colouring[0]) + colouring[2:]
            targets.append((outcome, target_name, target, colouring))
        broken = dataclasses.replace(case, targets=tuple(targets))
        with pytest.raises(CertificateError, match=f"^the {name} colouring is not a proper 4-colouring$"):
            _build(g, anchor, broken)


class TestBuildRejects:
    # C7BAR on 0..6 (non-edges i, i + 3), anchored at the identity, plus
    # crafted extra vertices: each reject reason ends the certificate early,
    # with the anchor and whatever the audit had recorded by then
    @pytest.mark.parametrize(
        "extra_edges, reason, audit",
        [
            ([(v, 7) for v in (0, 1, 2, 3, 4)], "a vertex has five neighbours in the anchor copy", {}),
            # {0, 1, 2, 3} is no anchor neighbourhood {i - 2, i - 1, i + 1, i + 2}
            ([(v, 7) for v in (0, 1, 2, 3)], "four-neighbour vertices do not match the D_i pattern", {}),
            # three consecutive anchor vertices lie in no anchor neighbourhood
            ([(v, 7) for v in (0, 1, 2)], "vertex 7 has no admissible class", {"R-size": "|R|=1 <= 4|G|-7delta=11"}),
            # a K4 off the anchor: C7BAR has clique number 3
            (
                list(combinations(range(7, 11), 2)),
                "no list homomorphism of G[R] onto C7BAR",
                {"R-size": "|R|=4 <= 4|G|-7delta=23"},
            ),
            # a vertex of D_0 and D_3 is adjacent to {1, 2, 5, 6} u {1, 2, 4, 5}
            ([(v, 7) for v in (1, 2, 4, 5, 6)], "a vertex has five neighbours in the anchor copy", {}),
        ],
    )
    def test_reason_anchor_and_audit(self, extra_edges, reason, audit):
        from localchrom.decompose import _C7BAR_CASE, _build

        g = Graph(1 + max(map(max, extra_edges)), list(families.c7bar().edges()) + extra_edges)
        anchor = tuple(range(7))
        cert = _build(g, anchor, _C7BAR_CASE)
        assert (cert.outcome, cert.reason) == ("FAILED", reason)
        assert cert.anchor == anchor and cert.audit == audit

    def test_vertex_of_d1_with_a_fourth_anchor_neighbour(self):
        # H2 on 0..6 anchored at the identity: vertex 7 lies in D_1 (it is
        # adjacent to N(1) = {0, 2, 3}), and its fourth anchor neighbour 4
        # makes it a four-neighbour vertex outside every degree-4 D_i
        from localchrom.decompose import _H2PLUS_CASE, _build

        g = Graph(8, list(families.h2().edges()) + [(v, 7) for v in (0, 2, 3, 4)])
        cert = _build(g, tuple(range(7)), _H2PLUS_CASE)
        reason = "four-neighbour vertices do not match the D* pattern"
        assert (cert.outcome, cert.reason) == ("FAILED", reason)
        assert cert.audit == {}

    def test_edge_inside_an_opposite_pair_of_classes(self):
        # a balanced C7BAR blow-up anchored at the first vertex of each class,
        # plus an edge between the two class-0 vertices off the anchor
        from localchrom.decompose import _C7BAR_CASE, _build

        classes = blow_up_classes([3] * 7)
        g = blow_up(families.c7bar(), [3] * 7).with_edge(classes[0][1], classes[0][2])
        anchor = tuple(c[0] for c in classes)
        cert = _build(g, anchor, _C7BAR_CASE)
        assert (cert.outcome, cert.reason) == ("FAILED", "edge (1, 2) inside D_0 u D_3")
        assert cert.anchor == anchor and cert.audit == {"R-size": "|R|=0 <= 4|G|-7delta=0"}

    def test_edge_between_d1_and_d6(self):
        # the scaled figure instance, whose classes 1 and 6 are single anchor
        # vertices, with a second vertex in each, joined by an edge: 1-6 is a
        # non-edge of H2 that is not an opposite pair
        from localchrom.decompose import _H2PLUS_CASE, _build

        sizes = h2plus_decomposition_instance()[1]
        sizes[1] = sizes[6] = 2
        classes = blow_up_classes(sizes)
        g = blow_up(families.h2plus(), sizes).with_edge(classes[1][1], classes[6][1])
        anchor = tuple(c[0] for c in classes[:7])
        cert = _build(g, anchor, _H2PLUS_CASE)
        assert (cert.outcome, cert.reason) == ("FAILED", "edge (27, 107) between D_1 and D_6")
        assert cert.anchor == anchor
        assert cert.audit == {"R-size": "|R u D1 u D6|=17 <= 4|G|-7delta=29"}

    def test_centre_vertex_with_a_fourth_class(self):
        # the scaled figure instance with a vertex of the centre class, which
        # meets D_5, D_0 and D_2, joined to a class-3 vertex off the anchor
        from localchrom.decompose import _H2PLUS_CASE, _build

        g, sizes = h2plus_decomposition_instance()
        classes = blow_up_classes(sizes)
        g = g.with_edge(classes[7][0], classes[3][1])
        anchor = tuple(c[0] for c in classes[:7])
        cert = _build(g, anchor, _H2PLUS_CASE)
        reason = f"vertex {classes[7][0]} meets D_5, D_0, D_2 and more"
        assert (cert.outcome, cert.reason) == ("FAILED", reason)
        assert cert.anchor == anchor
        assert cert.audit == {"R-size": "|R u D1 u D6|=15 <= 4|G|-7delta=21"}

    @pytest.mark.parametrize("pattern", [families.c7bar(), families.h2()], ids=["C7BAR", "H2"])
    def test_two_pattern_neighbourhoods_cover_five_vertices(self, pattern):
        # why _classes needs no disjointness check and no check of the
        # anchor degree of H2's D_1 and D_6
        for i, j in combinations(range(7), 2):
            assert (pattern.adj[i] | pattern.adj[j]).bit_count() >= 5

    def test_size_audit_holds_whenever_it_is_recorded(self):
        # why _classes needs no size check: once the anchor counts pass, the
        # recorded |R| <= 4|G| - 7 delta is a double count of the anchor degrees
        from localchrom.decompose import _C7BAR_CASE, _H2PLUS_CASE, _build

        rng = random.Random(20260810)
        recorded = 0
        for _ in range(2000):
            case = rng.choice([_C7BAR_CASE, _H2PLUS_CASE])
            n, p = rng.randint(8, 15), rng.uniform(0.2, 0.9)
            extra = [(u, v) for v in range(7, n) for u in range(v) if rng.random() < p]
            g = Graph(n, list(case.pattern.edges()) + extra)
            audit = _build(g, tuple(range(7)), case).audit
            if audit:
                size, bound = (int(part.split("=")[-1]) for part in audit["R-size"].split(" <= "))
                assert size <= bound
                recorded += 1
        assert recorded > 300

    def test_edge_off_the_anchor_maps_onto_an_edge(self):
        # two adjacent vertices off the anchor may go to any class: the first
        # list homomorphism sends them to the edge 0-1 of C7BAR
        from localchrom.decompose import _C7BAR_CASE, _build

        g = Graph(9, list(families.c7bar().edges()) + [(7, 8)])
        cert = _build(g, tuple(range(7)), _C7BAR_CASE)
        assert cert.outcome == "HOM_C7BAR" and cert.s_value == 0
        assert cert.hom == (0, 1, 2, 3, 4, 5, 6, 0, 1)
        assert (cert.parts["R0"], cert.parts["R1"], cert.parts["R"]) == ((7,), (8,), (7, 8))
        assert is_homomorphism(g, families.c7bar(), cert.hom)


class TestListHomomorphism:
    def test_vs_brute_force(self):
        # every list homomorphism onto the three decomposition targets, in the
        # backtracker's order, against a filter over all maps that keep the
        # lists; many lists hold just one of H2PLUS_AUG's twins 2 and 5
        rng = random.Random(4000)
        targets = [families.c7bar(), families.h2plus(), families.h2plus_augmented()]
        found = set()
        split_twins = 0
        for case in range(360):
            target = targets[case % 3]
            n = rng.randint(1, 6)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            lists = []
            for _ in range(n):
                members = rng.sample(range(target.n), rng.randint(1, 4))
                if target is targets[2] and rng.random() < 0.5:
                    members = [x for x in members if x not in (2, 5)] + [rng.choice((2, 5))]
                lists.append(mask_of(members))
            maps = [
                m
                for m in product(*(list(bits(options)) for options in lists))
                if all(target.has_edge(m[u], m[v]) for u, v in g.edges())
            ]
            order = _pattern_order(g)
            maps.sort(key=lambda m: [m[v] for v in order])
            assert list(_backtrack(g, target, False, False, lists)) == maps
            # one component at a time, the first map is that of one search
            first = _first_map(g, target, (1 << n) - 1, dict(enumerate(lists)))
            assert first == (maps[0] if maps else None)
            found.add(bool(maps))
            split_twins += any((options >> 2 ^ options >> 5) & 1 for options in lists)
        assert found == {True, False}
        assert split_twins > 50


    def test_components_are_searched_apart(self, monkeypatch):
        # three K_{3,3} off the C7BAR anchor come first in the search order and
        # have many maps each; the K4 after them has none.  One search of G[R]
        # would retry the K4 under every map of the K_{3,3}s (over two minutes
        # with two of them); one search per component stops at the K4.  Each
        # K_{3,3}'s sides are open twins with equal lists: 2 vertices searched.
        from localchrom import homomorphism
        from localchrom.decompose import _C7BAR_CASE, _build

        sizes = []

        def counted(pattern, host, injective, induced, lists, order):
            sizes.append(len(order))
            return _backtrack(pattern, host, injective, induced, lists, order)

        monkeypatch.setattr(homomorphism, "_backtrack", counted)
        edges = list(families.c7bar().edges())
        for v in (7, 13, 19):
            edges += [(x, y) for x in range(v, v + 3) for y in range(v + 3, v + 6)]
        edges += list(combinations(range(25, 29), 2))
        cert = _build(Graph(29, edges), tuple(range(7)), _C7BAR_CASE)
        assert cert.reason == "no list homomorphism of G[R] onto C7BAR"
        assert sizes == [2, 2, 2, 4]


class TestBrokenEdge:
    def test_vs_edge_scan(self):
        # oracle: the first edge of g.edges() whose image is not an edge
        from localchrom.decompose import _broken_edge

        rng = random.Random(4100)
        targets = [families.c7bar(), families.h2plus(), families.h2plus_augmented()]
        found = 0
        for _ in range(300):
            target = rng.choice(targets)
            n = rng.randint(0, 12)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.3])
            hom = tuple(rng.randrange(target.n) for _ in range(n))
            if rng.random() < 0.5:
                # keep only the edges hom maps onto edges, then add at most one back
                kept = [(u, v) for u, v in g.edges() if target.has_edge(hom[u], hom[v])]
                extra = [e for e in g.edges() if e not in kept][:1]
                g = Graph(n, kept + extra)
            expected = next(
                ((u, v) for u, v in g.edges() if not target.has_edge(hom[u], hom[v])), None
            )
            assert _broken_edge(g, target, hom) == expected
            found += expected is not None
        assert 50 < found < 250


class TestDecomposeAuto:
    def test_routes_by_anchor(self):
        from localchrom.decompose import decompose_auto

        assert decompose_auto(blow_up(families.c7bar(), [2] * 7)).outcome == "HOM_C7BAR"
        g, _ = h2plus_decomposition_instance()
        assert decompose_auto(g).outcome == "HOM_H2PLUS"

    @pytest.mark.parametrize(
        "g, kind, reason",
        [
            (families.wheel(5), "H2PLUS", "not locally bipartite"),
            # C7BAR plus an isolated vertex, and H2, whose minimum degree is 3 of 7
            (Graph(8, list(families.c7bar().edges())), "C7BAR", "degree too low"),
            (families.h2(), "H2PLUS", "degree too low"),
        ],
        ids=["W5", "C7BAR-plus-a-vertex", "H2"],
    )
    def test_input_rejects(self, g, kind, reason):
        from localchrom.decompose import decompose_auto

        cert = decompose_auto(g)
        assert (cert.kind, cert.outcome, cert.reason, cert.anchor) == (kind, "FAILED", reason, None)


class TestInHypothesisFuzz:
    def test_theorem_promises_on_perturbed_instances(self):
        # blow-ups of C7BAR with random matchings deleted between adjacent
        # classes, subject to the strict degree gate: every instance must
        # satisfy the pipeline's promises (no hard failures, ever)
        rng = random.Random(20260810)
        checked = 0
        while checked < 10:
            m = rng.randint(5, 6)
            g = blow_up(families.c7bar(), [m] * 7)
            classes = blow_up_classes([m] * 7)
            edges = set(g.edges())
            i = rng.randrange(7)
            j = (i + rng.choice((1, 2))) % 7
            pairs = list(zip(classes[i], classes[j]))
            rng.shuffle(pairs)
            for x, y in pairs[: rng.randint(1, m - 1)]:
                edges.discard(tuple(sorted((x, y))))
            g2 = Graph(g.n, sorted(edges))
            if not F(g2.min_degree()) > F(6, 11) * g2.n:
                continue
            report = verify_profile(g2)
            assert not report.hard_failure, report.detail
            assert report.outcome in ("3-colouring", "HOM_C7BAR")
            checked += 1

    def test_near_complete_class_join_lands_in_r_classes(self):
        # a 1-6 class join minus a perfect matching sits exactly one above
        # the strict bound; the matched-out partners of the anchor slots are
        # forced into R_1 and R_6
        m = 11
        base = blow_up(families.h2(), [m] * 7)
        classes = blow_up_classes([m] * 7)
        edges = set(base.edges())
        for i, x in enumerate(classes[1]):
            for j, y in enumerate(classes[6]):
                if i != j:
                    edges.add(tuple(sorted((x, y))))
        g = Graph(base.n, sorted(edges))
        assert F(g.min_degree()) > F(6, 11) * g.n
        cert = decompose_c7bar(g)
        assert cert.outcome == "HOM_C7BAR"
        assert len(cert.parts["R1"]) == 1 and len(cert.parts["R6"]) == 1
        assert is_homomorphism(g, families.c7bar(), cert.hom)


class TestOneAnchorSearch:
    @pytest.mark.parametrize("entry", ["verify_profile", "decompose_auto", "decompose_c7bar"])
    def test_c7bar_search_runs_once(self, monkeypatch, entry):
        # the embedding that decides whether a C7BAR copy exists is also the
        # first anchor: each entry point runs the injective C7BAR search once
        from localchrom import decompose, homomorphism

        searches = []
        backtrack = homomorphism._backtrack

        def counted(pattern, host, injective, induced, lists=None):
            if injective and pattern == families.c7bar():
                searches.append(host.n)
            return backtrack(pattern, host, injective, induced, lists)

        monkeypatch.setattr(homomorphism, "_backtrack", counted)
        g = blow_up(families.c7bar(), [3] * 7)
        result = getattr(decompose, entry)(g)
        assert result.outcome == "HOM_C7BAR"
        assert searches == [g.n]


class TestFirstAnchorDecides:
    def test_a_rejected_anchor_is_not_retried(self, monkeypatch):
        # an edge inside a class of a C7BAR blow-up: every C7BAR embedding
        # fails, and the certificate names the one anchor that was built
        from localchrom import decompose

        builds = []
        build = decompose._build

        def counted(g, anchor, case):
            builds.append(anchor)
            return build(g, anchor, case)

        monkeypatch.setattr(decompose, "_build", counted)
        c = blow_up(families.c7bar(), [3] * 7)
        g = Graph(c.n, list(c.edges()) + [(0, 1)])
        copy = find_subgraph(families.c7bar(), g)
        cert = decompose._decompose(g, copy)
        assert builds == [copy]
        assert (cert.outcome, cert.anchor) == ("FAILED", copy)

    def test_every_anchor_contains_h0(self):
        # why the sparse-spoke audit, vacuous on graphs with H0, runs only
        # when there is no anchor
        h0, h2, c7bar = (set(f().edges()) for f in (families.h0, families.h2, families.c7bar))
        assert h0 <= h2 <= c7bar
        assert Graph(7, [(u, v) for u, v in families.h2plus().edges() if v < 7]) == families.h2()

    def test_audit_runs_only_without_an_anchor(self, monkeypatch):
        from localchrom import decompose

        audits = []
        audit = decompose._spot_check_sparse_spokes

        def counted(g):
            audits.append(g.n)
            return audit(g)

        monkeypatch.setattr(decompose, "_spot_check_sparse_spokes", counted)
        assert decompose_c7bar(blow_up(families.c7bar(), [2] * 7)).ok
        assert decompose_h2plus(h2plus_decomposition_instance()[0]).ok
        assert audits == []
        k3_blow_up = blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [4] * 3)
        assert decompose_h2plus(k3_blow_up).reason == "no H2PLUS copy"
        assert audits == [12]

    def test_audit_is_vacuous_on_a_host_with_h0(self, monkeypatch):
        # H0 has seven vertices, so it holds no H2PLUS copy: there is no
        # anchor, and the H0 copy alone settles the audit
        from localchrom import decompose

        def unexpected(g):
            raise AssertionError("the missing-spoke search ran on a host with H0")

        monkeypatch.setattr(decompose, "sparse_missing_spoke", unexpected)
        cert = decompose._decompose(families.h0(), None)
        assert (cert.kind, cert.outcome, cert.reason) == ("H2PLUS", "FAILED", "no H2PLUS copy")

    def test_missing_spoke_of_an_odd_wheel(self):
        from localchrom.decompose import _decompose

        w5 = families.wheel(5)
        cert = _decompose(Graph(w5.n, [e for e in w5.edges() if e != (0, 5)]), None)
        reason = "forbidden configuration: sparse pair (5, 0) is the missing spoke of an odd wheel"
        assert (cert.kind, cert.outcome, cert.reason) == ("H2PLUS", "FAILED", reason)


class TestVerifyProfile:
    def test_k3_blow_up_above_4_7(self):
        g = blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [4, 4, 4])
        report = verify_profile(g)
        assert report.regime == "above-4/7"
        assert report.outcome == "3-colouring"
        assert validate_colouring(g, report.colouring, 3)

    def test_balanced_c7bar_blow_up_at_4_7(self):
        g = blow_up(families.c7bar(), [3] * 7)
        report = verify_profile(g)
        assert report.ratio == F(4, 7)  # not strictly above
        assert report.regime == "above-6/11"
        assert report.outcome == "HOM_C7BAR"
        assert not report.hard_failure
        assert chromatic_number(g)[0] == 4  # 4/7 is tight

    def test_h2_figure_blow_up_boundary(self):
        g = blow_up(families.h2(), [3, 1, 2, 1, 1, 2, 1])
        report = verify_profile(g)
        assert report.ratio == F(6, 11)
        assert report.regime == "outside"
        assert report.outcome == "chi<=4-opportunistic"
        assert chromatic_number(g)[0] == 4  # 6/11 is tight

    def test_h2plus_instance_above_6_11(self):
        g, _ = h2plus_decomposition_instance()
        report = verify_profile(g)
        assert report.regime == "above-6/11"
        assert report.outcome == "HOM_H2PLUS"
        assert validate_colouring(g, report.colouring, 4)

    def test_rejects_non_locally_bipartite(self):
        with pytest.raises(ValueError):
            verify_profile(families.wheel(7))

    def test_five_chromatic_graph_outside_the_range(self):
        # the Mycielskian of the Groetzsch graph: triangle-free, so locally
        # bipartite, on 23 vertices with chi = 5
        g = mycielskian(mycielskian(Graph(5, [(i, (i + 1) % 5) for i in range(5)])))
        assert g.n == 23 and is_locally_bipartite(g)
        report = verify_profile(g)
        assert (report.regime, report.outcome) == ("outside", "outside-range")
        assert report.detail == "outside theorem range; not 4-colourable"
        assert report.colouring is None and not report.hard_failure
        assert validate_colouring(g, k_colourable(g, 5), 5)


def mycielskian(g: Graph) -> Graph:
    """Vertices 0..n-1 are g, n + i is the shadow of i (joined to the
    neighbours of i) and 2n is joined to every shadow."""
    n = g.n
    edges = list(g.edges())
    edges += [(u, n + v) for u, v in g.edges()] + [(v, n + u) for u, v in g.edges()]
    edges += [(n + i, 2 * n) for i in range(n)]
    return Graph(2 * n + 1, edges)


@pytest.mark.parametrize(
    "build, patched, detail",
    [
        pytest.param(
            lambda: blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [4] * 3),
            "k_colourable",
            "delta > 4/7 |G| but no 3-colouring exists",
            id="k3-m4",
        ),
        pytest.param(
            lambda: blow_up(families.c7bar(), [3] * 7),
            "_decompose",
            "contains C7BAR but decomposition failed: planted",
            id="c7bar-m3",
        ),
        pytest.param(
            lambda: h2plus_decomposition_instance()[0],
            "_decompose",
            "not 3-colourable, no C7BAR, and H2+ decomposition failed: planted",
            id="h2plus-figure",
        ),
    ],
)
def test_broken_promise_is_a_hard_failure(monkeypatch, capsys, tmp_path, build, patched, detail):
    # only a counterexample to the theorem reaches these branches, so a
    # planted solver failure stands in for one
    from localchrom import decompose
    from localchrom.cli import main
    from localchrom.graphio import emit_graph

    g = build()
    if patched == "k_colourable":
        monkeypatch.setattr(decompose, "k_colourable", lambda g, k, deadline=None: None)
    else:
        monkeypatch.setattr(decompose, "_decompose", lambda g, copy: decompose._failed("C7BAR", "planted"))
    report = verify_profile(g)
    assert (report.outcome, report.detail, report.hard_failure) == ("PROMISE-VIOLATED", detail, True)
    assert report.colouring is None and report.hom is None
    path = tmp_path / "host.txt"
    path.write_text(emit_graph(g))
    assert main(["verify-profile", str(path)]) == 1
    captured = capsys.readouterr()
    assert "outcome PROMISE-VIOLATED" in captured.out.splitlines()
    assert captured.err == detail + "\n"


@pytest.mark.parametrize(
    "g, message",
    [
        (Graph(0), "empty graph"),
        (families.wheel(5), "verify_profile requires a locally bipartite graph"),
    ],
    ids=["empty", "W5"],
)
def test_verify_profile_diagnostics(g, message):
    with pytest.raises(ValueError) as info:
        verify_profile(g)
    assert str(info.value) == message


def test_certificates_are_frozen():
    # SHA-256 over every field of decompose_auto's and verify_profile's
    # certificates on C7BAR blow-ups, shuffled and not, the H2+ instances and
    # the augmented certificate, frozen before the targets' 4-colourings
    # became fixed data
    c7bar, a = families.c7bar(), 26
    hosts = [blow_up(c7bar, [m] * 7) for m in (1, 2, 3, 4, 20, 40)]
    for seed in range(1, 9):
        perm = list(range(7 * 20))
        random.Random(seed).shuffle(perm)
        hosts.append(relabel(hosts[4], perm))
    hosts.append(h2plus_decomposition_instance()[0])
    hosts.append(blow_up(families.h2plus(), [2 * a, 1, 2 * a, a, a, 2 * a, 1, a]))
    certs = [decompose_auto(g) for g in hosts] + [_augmented_certificate()[3]]
    digest = hashlib.sha256()
    for c in certs:
        fields = (c.kind, c.outcome, c.hom, c.colouring, c.parts, c.s_value, c.failed_upgrades, c.audit)
        digest.update(f"{fields}\n".encode())
    for g in hosts:
        report = verify_profile(g)
        digest.update(f"{(report.outcome, report.colouring, report.hom)}\n".encode())
    assert [c.outcome for c in certs] == ["HOM_C7BAR"] * 14 + ["HOM_H2PLUS"] * 2 + ["HOM_AUGMENTED"]
    assert digest.hexdigest() == "be6060b608ec60820e768e3ce4ad771581718b716bf34d543c99e54eda269d9b"
