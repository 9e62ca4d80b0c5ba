"""Pinned labellings and structural facts of the named families."""

import pytest

from localchrom import families
from localchrom.graphs import Graph, mask_of
from localchrom.homomorphism import is_isomorphic
from localchrom.structure import is_locally_bipartite


def test_h0_degree_sequence():
    assert sorted(families.h0().degrees(), reverse=True) == [4, 3, 3, 3, 3, 3, 3]


def test_c7bar_four_regular():
    assert families.c7bar().degrees() == (4,) * 7


def test_h2_plus_missing_chord_is_c7bar():
    assert families.h2().with_edge(1, 6) == families.c7bar()


def test_h2plus_centre():
    g = families.h2plus()
    assert g.degree(7) == 3
    assert g.neighbours(7) == mask_of({0, 2, 5})
    # among the centre's neighbours only a0a2 and a0a5 are edges
    nbrs = [0, 2, 5]
    edges = [(u, v) for u in nbrs for v in nbrs if u < v and g.has_edge(u, v)]
    assert edges == [(0, 2), (0, 5)]


def test_delta2_isomorphic_c7bar():
    assert is_isomorphic(families.delta(2), families.c7bar())


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_delta_regularity(ell):
    g = families.delta(ell)
    assert g.n == 4 * ell - 1
    assert all(g.degree(v) == 2 * ell for v in range(g.n))


def test_andrasfai_small():
    assert families.andrasfai(1) == Graph(2, [(0, 1)])
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_isomorphic(families.andrasfai(2), c5)


def test_wheel_odd_not_locally_bipartite():
    for k in (3, 5, 7, 9):
        assert not is_locally_bipartite(families.wheel(k))
    assert is_locally_bipartite(families.wheel(6))


def test_locally_bipartite_families():
    for fid in ("H0", "H1", "H2", "H2PLUS", "C7BAR", "DELTA(2)", "DELTA(3)", "DELTA(4)",
                "COUNTEREXAMPLE8"):
        assert is_locally_bipartite(families.generate(fid)), fid
    # the augmented homomorphism target is 4-colourable but not locally
    # bipartite: its centre's neighbourhood contains the triangle a3 a4 a5
    assert not is_locally_bipartite(families.h2plus_augmented())


def test_augmented_edge_set():
    g = families.h2plus_augmented()
    base = families.h2plus()
    extra = [(u, v) for u, v in g.edges() if not base.has_edge(u, v)]
    assert sorted(extra) == [(1, 5), (2, 6), (3, 7), (4, 7)]


def test_counterexample8_apex():
    g = families.counterexample8()
    assert g.neighbours(7) == mask_of({6, 0, 1, 3})


def test_generate_parses_parametrised_ids():
    assert families.generate("WHEEL(7)").n == 8
    assert families.generate("delta(3)").n == 11


GENERATE_ERRORS = {
    "H3": "unknown family: H3",
    "WHEEL": "WHEEL requires a parameter, e.g. WHEEL(3)",
    "WHEEL(2)": "wheel requires k >= 3",
    "DELTA(1)": "delta requires ell >= 2",
    "ANDRASFAI(0)": "andrasfai requires i >= 1",
    "H2 PLUS": "malformed family id: 'H2 PLUS'",
    "H0(3)": "H0 takes no parameter",
}


@pytest.mark.parametrize("bad", list(GENERATE_ERRORS))
def test_generate_rejects(bad):
    with pytest.raises(ValueError) as info:
        families.generate(bad)
    assert str(info.value) == GENERATE_ERRORS[bad]


def test_list_families_mentions_everything():
    listing = " ".join(families.list_families())
    for tag in ("H0", "H1", "H2", "H2PLUS", "C7BAR", "H2PLUS_AUG", "COUNTEREXAMPLE8",
                "WHEEL", "ANDRASFAI", "DELTA"):
        assert tag in listing
