"""Extremal enumeration: membership filters, determinism, checkpoints."""

import hashlib
import json
from fractions import Fraction

import pytest

from localchrom import families, search
from localchrom.graphs import Graph
from localchrom.homomorphism import canonical_form, is_isomorphic
from localchrom.search import check_membership, compact_line, enumerate_extremal

F = Fraction
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_bounds_rejected():
    with pytest.raises(ValueError):
        enumerate_extremal(0, F(1, 2))
    with pytest.raises(ValueError):
        enumerate_extremal(11, F(1, 2))


def test_small_threshold_strictness():
    # K3 has t* = 2/3 exactly, so it must not beat 2/3
    result = enumerate_extremal(3, F(2, 3))
    assert result.found == []
    result = enumerate_extremal(3, F(1, 2))
    assert len(result.found) == 1 and is_isomorphic(result.found[0].graph, K3)


def test_n7_contains_k3_and_c7bar():
    result = enumerate_extremal(7, F(1, 2))
    assert result.exhausted
    assert len(result.found) == 2
    assert is_isomorphic(result.found[0].graph, K3)
    assert is_isomorphic(result.found[1].graph, families.c7bar())
    assert result.found[0].t_star == F(2, 3)
    assert result.found[1].t_star == F(4, 7)
    for f in result.found:
        assert check_membership(f.graph, F(1, 2)).all_pass


def test_no_isomorphic_duplicates_and_prefix_consistency():
    small = enumerate_extremal(5, F(1, 2))
    large = enumerate_extremal(7, F(1, 2))
    small_lines = [compact_line(f) for f in small.found]
    large_lines = [compact_line(f) for f in large.found]
    assert large_lines[: len(small_lines)] == small_lines
    for i, f in enumerate(large.found):
        for g in large.found[i + 1 :]:
            assert not is_isomorphic(f.graph, g.graph)


def test_checkpoint_resume(tmp_path):
    ckpt = tmp_path / "search.ckpt"
    direct = enumerate_extremal(6, F(1, 2), checkpoint_path=str(ckpt))
    resumed = enumerate_extremal(7, F(1, 2), resume_path=str(ckpt))
    fresh = enumerate_extremal(7, F(1, 2))
    assert [compact_line(f) for f in resumed.found] == [compact_line(f) for f in fresh.found]
    assert [compact_line(f) for f in direct.found] == [
        compact_line(f) for f in fresh.found if f.graph.n <= 6
    ]


def test_interrupted_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    ckpt = tmp_path / "search.ckpt"
    enumerate_extremal(5, F(1, 2), checkpoint_path=str(ckpt))

    def dump_then_crash(state, fh):
        fh.write(json.dumps(state)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(search.json, "dump", dump_then_crash)
    with pytest.raises(OSError, match="disk full"):
        enumerate_extremal(6, F(1, 2), checkpoint_path=str(ckpt), resume_path=str(ckpt))
    monkeypatch.undo()
    resumed = enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))
    fresh = enumerate_extremal(6, F(1, 2))
    assert [compact_line(f) for f in resumed.found] == [compact_line(f) for f in fresh.found]


def test_checkpoint_threshold_mismatch(tmp_path):
    ckpt = tmp_path / "search.ckpt"
    enumerate_extremal(4, F(1, 2), checkpoint_path=str(ckpt))
    with pytest.raises(ValueError):
        enumerate_extremal(6, F(2, 3), resume_path=str(ckpt))
    with pytest.raises(ValueError):
        enumerate_extremal(3, F(1, 2), resume_path=str(ckpt))  # already past n_max


def test_membership_reports():
    assert check_membership(families.counterexample8(), F(1, 2)).all_pass
    h0 = check_membership(families.h0(), F(1, 2))
    assert not h0.edge_maximal and h0.locally_bipartite and h0.twin_free
    k2 = check_membership(Graph(2, [(0, 1)]), 0)
    assert k2.all_pass and k2.t_star == F(1, 2)


def test_n8_at_just_below_5_9(tmp_path):
    # H2+ (t* = 5/9) enters; COUNTEREXAMPLE8 (t* = 6/11 < 5/9 - 1/100) stays out
    c = F(5, 9) - F(1, 100)
    ckpt = tmp_path / "search.ckpt"
    result = enumerate_extremal(8, c, checkpoint_path=str(ckpt))
    state = json.loads(ckpt.read_text())
    assert state["level"] == 8 and len(state["graphs"]) == 6195
    # SHA-256 over repr of the level-8 rows: the representatives and their
    # order, frozen at commit 292de34, before the per-child search work was
    # cut down by fresh-cell refinement and the parent-side child test
    digest = hashlib.sha256(repr(state["graphs"]).encode()).hexdigest()
    assert digest == "a8f6fc7df945653685c226d1dc5cacfe3f7d4e74cfd875d0b8d1b41cf6fa7ed3"
    assert all(f.t_star > c for f in result.found)
    assert any(is_isomorphic(f.graph, families.h2plus()) for f in result.found)
    assert not any(is_isomorphic(f.graph, families.counterexample8()) for f in result.found)
    names = sorted(f.graph.n for f in result.found)
    assert names == [3, 7, 8]  # K3, C7BAR, H2PLUS


def test_checkpoint_refuses_tampered_or_old_files(tmp_path):
    ckpt = tmp_path / "search.ckpt"
    enumerate_extremal(5, F(1, 2), checkpoint_path=str(ckpt))
    good = json.loads(ckpt.read_text())
    assert good["version"] == 2 and good["level"] == 5 and len(good["graphs"]) == 29

    flipped = dict(good, graphs=[list(rows) for rows in good["graphs"]])
    flipped["graphs"][7][0] ^= 0b10
    ckpt.write_text(json.dumps(flipped))
    with pytest.raises(ValueError, match="digest"):
        enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))

    old = {key: value for key, value in good.items() if key != "digest"}
    ckpt.write_text(json.dumps(dict(old, version=1)))
    with pytest.raises(ValueError, match="version"):
        enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))


def _level5() -> search.Level:
    level = search._searched_level([Graph(1)])
    for _ in range(4):
        level = search._next_level(level)
    return level


K5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


@pytest.mark.parametrize(
    "edit",
    [
        lambda level: level + [(K5, ())],  # K5 is not locally bipartite
        lambda level: level[:4] + level[3:],  # a duplicate
        lambda level: [level[1], level[0]] + level[2:],  # a misordering
    ],
    ids=["k5-added", "duplicate", "misordered"],
)
def test_resume_rechecks_the_level(tmp_path, edit):
    # each file has a valid digest; at level 6 the first would give 120
    # classes and the second 30 parents and 498 masks if it were accepted
    ckpt = tmp_path / "search.ckpt"
    search._write_checkpoint(str(ckpt), F(1, 2), 5, edit(_level5()), [])
    with pytest.raises(ValueError, match="^checkpoint level is out of canonical order or not"):
        enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))


def test_resume_rechecks_found_graphs(tmp_path):
    # a checkpoint with a valid digest whose found list holds K2: t* = 1/2
    # does not beat c = 1/2
    ckpt = tmp_path / "search.ckpt"
    k2 = Graph(2, [(0, 1)])
    level = _level5()
    planted = search.FoundGraph(k2, F(1, 2), 2, (2, 1))
    search._write_checkpoint(str(ckpt), F(1, 2), 5, level, [planted])
    with pytest.raises(ValueError, match="membership"):
        enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))


def test_resume_rederives_the_stored_chi(tmp_path):
    # K3 beats 1/2 with its true t* = 2/3, but its chromatic number is 3, not 7
    ckpt = tmp_path / "search.ckpt"
    level = _level5()
    planted = search.FoundGraph(K3, F(2, 3), 7, (3, 7))
    search._write_checkpoint(str(ckpt), F(1, 2), 5, level, [planted])
    with pytest.raises(ValueError, match="membership"):
        enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))
    # with the true chi the same file is accepted, and the derived entry is kept
    honest = search.FoundGraph(K3, F(2, 3), 3, (3, 7))
    search._write_checkpoint(str(ckpt), F(1, 2), 5, level, [honest])
    (found,) = enumerate_extremal(5, F(1, 2), resume_path=str(ckpt)).found
    assert compact_line(found) == "n=3 m=3 edges=0-1,0-2,1-2 t*=2/3 chi=3"
    assert found.canon == canonical_form(K3)


def test_search_result_records_generated_levels(tmp_path):
    ckpt = tmp_path / "search.ckpt"
    first = enumerate_extremal(4, F(1, 2), checkpoint_path=str(ckpt))
    assert [(s.n, s.parents, s.classes) for s in first.levels] == [(2, 1, 2), (3, 2, 4), (4, 4, 10)]
    resumed = enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))
    assert [(s.n, s.classes) for s in resumed.levels] == [(5, 29), (6, 119)]


K3_FOUND = search.FoundGraph(K3, F(2, 3), 3, (3, 0))  # the canon is not written
C7BAR_FOUND = search.FoundGraph(families.c7bar(), F(4, 7), 4, (7, 0))


@pytest.mark.parametrize(
    "found, message",
    [
        # a fresh search emits K3 once
        ([K3_FOUND, K3_FOUND], "^checkpoint found graphs are out of canonical order$"),
        # and no 7-vertex graph by level 5; refused as it is read
        ([K3_FOUND, C7BAR_FOUND], r"^checkpoint found entries need 1\.\.5 int rows"),
    ],
    ids=["duplicate", "past-its-level"],
)
def test_resume_refuses_found_graphs_a_search_would_not_emit(tmp_path, capsys, found, message):
    # every entry passes the membership check and the digest is valid, but a
    # search to n = 5 emits K3 once and no 7-vertex graph
    from localchrom.cli import main

    ckpt = tmp_path / "search.ckpt"
    search._write_checkpoint(str(ckpt), F(1, 2), 5, _level5(), found)
    with pytest.raises(ValueError, match=message):
        enumerate_extremal(6, F(1, 2), resume_path=str(ckpt))
    assert main(["search", "--n", "6", "--beats", "1/2", "--resume", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: checkpoint") and err.count("\n") == 1


def test_resume_refuses_a_past_level_found_graph_before_solving_it(tmp_path, monkeypatch):
    # a level-3 checkpoint with a valid digest lists C7BAR as found: it is
    # refused as the file is read, before any LP or colouring runs on it
    level = search._searched_level([Graph(1)])
    for _ in range(2):
        level = search._next_level(level)
    ckpt = tmp_path / "search.ckpt"
    search._write_checkpoint(str(ckpt), F(1, 2), 3, level, [C7BAR_FOUND])

    def unexpected(g):
        pytest.fail(f"optimal_weighting ran on a {g.n}-vertex found graph")

    monkeypatch.setattr(search, "optimal_weighting", unexpected)
    with pytest.raises(ValueError, match=r"^checkpoint found entries need 1\.\.3 int rows"):
        enumerate_extremal(4, F(1, 2), resume_path=str(ckpt))
