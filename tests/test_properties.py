"""The property suites over larger families than verify-paper runs, the
families against their own hypotheses, and each lemma's suite on the smallest
graph just outside its hypothesis, where it must report a violation."""

from functools import cache
from itertools import combinations

import pytest

from localchrom import families, properties
from localchrom import report as rp
from localchrom.colouring import k_colourable
from localchrom.graphs import cycle_power
from localchrom.homomorphism import find_homomorphism, find_subgraph
from localchrom.properties import (
    PROPERTY_SUITES,
    anchor_hosts,
    dense_graphs,
    h0_free_locally_bipartite_graphs,
    suite_aes_r2,
    suite_c4_diagonal_dense,
    suite_dense_sets_independent,
    suite_hom_forces_induced,
    suite_independent_set_pairs_dense,
    triangle_free_graphs,
)
from localchrom.structure import is_locally_bipartite

# the family size of each suite here; verify-paper's is the last field of its entry
TIER1_SIZES = {
    "independent-set-pairs-dense": 9,
    "c4-diagonal-dense": 9,
    "dense-sets-independent": 8,
    "hom-forces-induced": 8,
    "blowup-invariance": 5,
    "merge-twins": 5,
    "hom-composition": 5,
    "degree-identity": 7,
}
FAMILIES = {name: (family, size) for name, _, family, size in PROPERTY_SUITES}
K3, C4, C5 = cycle_power(3, 1), cycle_power(4, 1), cycle_power(5, 1)

_family = cache(lambda family, size: list(family(size)))  # the two delta > n/2 suites share one


@pytest.mark.parametrize("name,suite", [(name, suite) for name, suite, _, _ in PROPERTY_SUITES])
def test_suite_clean(name, suite):
    family, size = FAMILIES[name]
    assert TIER1_SIZES[name] > size
    assert suite(_family(family, TIER1_SIZES[name])) == []


def test_high_degree_generator():
    graphs = _family(dense_graphs, 9)
    assert len(graphs) == 1249
    assert all(2 * g.min_degree() > g.n for g in graphs)
    assert sum(g.n <= 8 for g in graphs) == len(list(dense_graphs(8))) == 84


def test_h0_free_generator():
    h0 = families.h0()
    graphs = _family(h0_free_locally_bipartite_graphs, 8)
    assert len(graphs) == 6880
    assert all(is_locally_bipartite(g) and find_subgraph(h0, g) is None for g in graphs)


def test_anchor_hosts_reach_the_four_chromatic_anchors():
    # C7BAR and H2PLUS are 4-chromatic, so they map only into 4-chromatic hosts
    pairs = _family(anchor_hosts, 8)
    hosts = [g for f, g in pairs if f == K3]
    assert len(pairs) == 3 * len(hosts) and len(hosts) == 7034
    assert all(is_locally_bipartite(g) for g in hosts)
    four_chromatic = [g for g in hosts if k_colourable(g, 3) is None]
    assert len(four_chromatic) == 178
    anchors = (families.c7bar(), families.h2plus())
    assert [sum(find_homomorphism(f, g) is not None for g in four_chromatic) for f in anchors] == [9, 1]


def test_anchor_hypotheses_are_checked_once_per_claim(monkeypatch):
    calls = []
    checked = properties.is_edge_maximal_locally_bipartite
    monkeypatch.setattr(properties, "is_edge_maximal_locally_bipartite", lambda g: calls.append(g) or checked(g))
    [entry] = rp.verify_paper(only="prop-hom-forces-induced").entries
    assert entry.status == "PASS" and len(calls) == 3


def test_an_anchor_outside_the_hypothesis_fails_the_claim(monkeypatch):
    monkeypatch.setattr(families, "c7bar", lambda: C5)  # twin-free, but a chord keeps it locally bipartite
    [entry] = rp.verify_paper(only="prop-hom-forces-induced").entries
    assert entry.status == "FAIL" and "anchor C7BAR is not twin-free edge-maximal locally bipartite" in entry.detail


def test_aes_instances_satisfy_hypotheses():
    graphs = _family(triangle_free_graphs, 9)
    assert len(graphs) == 2479
    assert not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for g in graphs
        for a, b, c in combinations(range(g.n), 3)
    )


def test_aes_suite_clean():
    graphs = _family(triangle_free_graphs, 9)
    above = [g for g in graphs if 5 * g.min_degree() > 2 * g.n]
    assert [g.n for g in above] == [2, 4, 6, 7, 8, 9]  # K2, C4 and K(3,3) .. K(4,5)
    assert suite_aes_r2(above) == []


@pytest.mark.parametrize(
    "suite,outside,violation",
    [
        (suite_independent_set_pairs_dense, C5, "case 0: pair (0,2) in max independent set not dense"),
        (suite_c4_diagonal_dense, C4, "case 0: induced C4 (0, 1, 2, 3) has no dense diagonal"),
        (suite_dense_sets_independent, families.h0(), "case 0: D_0 contains edge (3,4)"),
        (suite_aes_r2, C5, "case 0: n=5 not 2-colourable"),
        (suite_hom_forces_induced, (C5, K3), "case 0: no induced copy found"),  # C5 -> K3 by (0, 1, 0, 1, 2)
    ],
    ids=["C5-has-delta-n/2", "C4-has-delta-n/2", "H0", "C5-has-delta-2n/5", "C5-is-not-edge-maximal"],
)
def test_suite_fails_just_outside_its_hypothesis(suite, outside, violation):
    assert violation in suite([outside])
