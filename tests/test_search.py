"""Extremal enumeration: membership filters, determinism, checkpoints."""

import errno
import hashlib
import itertools
import json
import os
import time
from fractions import Fraction

import pytest

from localchrom import families, homomorphism, search, structure
from localchrom.colouring import SolverTimeout
from localchrom.graphs import CertificateError, Graph, blow_up
from localchrom.homomorphism import canonical_form, is_isomorphic
from localchrom.properties import ANY_GRAPH, TRIANGLE_FREE
from localchrom.search import check_membership, compact_line, enumerate_extremal, hereditary_graphs
from localchrom.structure import is_edge_maximal_locally_bipartite, is_twin_free
from localchrom.weighting import optimal_weighting

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

    json_text = search._json_text

    def text_then_crash(obj):
        if isinstance(obj, list):  # the digest's body: whole
            yield from json_text(obj)
            return
        yield from itertools.islice(json_text(obj), 9)  # the file, into the level rows
        raise OSError("disk full")

    monkeypatch.setattr(search, "_json_text", text_then_crash)
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


@pytest.mark.parametrize("c", [F(1, 2), F(6, 11)], ids=["1/2", "6/11"])
def test_membership_and_the_search_filter_agree(c):
    # the public predicate and the search's own filter, which also re-derives a
    # resumed checkpoint's found graphs, on every locally bipartite graph to n = 7
    graphs = list(hereditary_graphs(7))
    assert len(graphs) == 839
    kept = 0
    for g in graphs:
        report, found = check_membership(g, c), search._filter_level([g], c)
        assert report.all_pass == bool(found)
        assert [f.t_star for f in found] == [report.t_star] * len(found)
        kept += len(found)
    assert kept == 2  # K3 (2/3) and C7BAR (4/7)


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


def test_checkpoint_bytes_are_frozen(tmp_path):
    # the whole level-7 file, frozen when the rows were still written as list copies
    ckpt = tmp_path / "search.ckpt"
    enumerate_extremal(7, F(1, 2), checkpoint_path=str(ckpt))
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert digest == "89a08c6d2dd8c211b1a8c7412ee214798a6631d684bde1abc76f375b6d5cdde0"


def test_hereditary_graphs_start_at_one_vertex():
    assert list(hereditary_graphs(0)) == [] == list(hereditary_graphs(-3, ANY_GRAPH))
    assert list(hereditary_graphs(1)) == [Graph(1)]


def _counts(stats: list[search.LevelStats]) -> list[tuple]:
    return [(s.n, s.parents, s.masks_tried, s.children, s.canonical_forms, s.classes) for s in stats]


def _pairs(level: search.Level) -> list[tuple]:
    return [(g.adj, autos) for g, autos in level]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_levels(monkeypatch, test, top: int) -> tuple[list[search.Level], list[search.LevelStats]]:
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    stats: list[search.LevelStats] = []
    levels = [search._searched_level([Graph(1)])]
    for _ in range(top - 1):
        levels.append(search._next_level(levels[-1], stats, test))
    return levels, stats


def _no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize(
    "test", [search.LOCALLY_BIPARTITE, TRIANGLE_FREE, ANY_GRAPH], ids=["lb", "triangle-free", "any"]
)
def test_edge_count_shares_make_up_the_serial_level(monkeypatch, test):
    # no fork can start, so the real _shares computes every share here and
    # merges them: against the level of one share, at every level up to 7
    levels, serial_stats = _serial_levels(monkeypatch, test, 7)
    monkeypatch.setattr(search, "SPLIT_MIN_PARENTS", 1)
    monkeypatch.setattr(search.os, "fork", _no_fork)
    share, computed = search._share, []
    monkeypatch.setattr(search, "_share", lambda *args: computed.append(args[-1]) or share(*args))
    for k in (2, 3):
        monkeypatch.setattr(search, "_usable_cpus", lambda k=k: k)
        stats: list[search.LevelStats] = []
        computed.clear()
        for parents, children in zip(levels, levels[1:]):
            assert _pairs(search._next_level(parents, stats, test)) == _pairs(children)
        assert computed == list(range(k)) * 6
        assert _counts(stats) == _counts(serial_stats)
        assert [s.processes for s in stats] == [1] * 6
        # every share holds classes of its own at level 7
        assert all(share(levels[-2], test, k, r)[0] for r in range(k))
    assert [s.processes for s in serial_stats] == [1] * 6


@pytest.fixture(scope="module")
def serial_levels_7_and_8() -> tuple[search.Level, search.Level, list[search.LevelStats]]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        levels, stats = _serial_levels(monkeypatch, search.LOCALLY_BIPARTITE, 8)
    return levels[-2], levels[-1], stats[-1:]


@pytest.mark.parametrize("k", [2, 3])
def test_forked_level_8_is_the_serial_level(monkeypatch, serial_levels_7_and_8, k):
    level7, serial, serial_stats = serial_levels_7_and_8
    monkeypatch.setattr(search, "_usable_cpus", lambda: k)
    stats: list[search.LevelStats] = []
    assert _pairs(search._next_level(level7, stats)) == _pairs(serial)
    assert _counts(stats) == _counts(serial_stats) == [(8, 674, 52970, 40134, 40134, 6195)]
    assert (serial_stats[0].processes, stats[0].processes) == (1, k)
    _no_child_left()


@pytest.mark.parametrize("k, forks", [(2, 0), (3, 0), (3, 1)], ids=["2-none", "3-none", "3-second-fails"])
def test_forks_that_cannot_start_give_the_serial_level_8(monkeypatch, serial_levels_7_and_8, k, forks):
    # os.fork starts ``forks`` workers and then fails, as on a host with no
    # process to spare: every share left unforked is computed here
    level7, serial, serial_stats = serial_levels_7_and_8
    fork, started = os.fork, []

    def fork_until_none_is_left():
        if len(started) == forks:
            _no_fork()
        started.append(fork())
        return started[-1]

    monkeypatch.setattr(search.os, "fork", fork_until_none_is_left)
    monkeypatch.setattr(search, "_usable_cpus", lambda: k)
    stats: list[search.LevelStats] = []
    assert _pairs(search._next_level(level7, stats)) == _pairs(serial)
    assert _counts(stats) == _counts(serial_stats)
    assert stats[0].processes == 1 + forks
    _no_child_left()


@pytest.mark.parametrize("k, pipes", [(2, 0), (3, 1)], ids=["2-first-fails", "3-second-fails"])
def test_pipes_that_cannot_be_opened_give_the_serial_level_8(monkeypatch, serial_levels_7_and_8, k, pipes):
    # os.pipe opens ``pipes`` pipes and then fails, as on a host with no file
    # descriptor to spare: like a fork that cannot start, every share left
    # without a worker is computed here
    level7, serial, serial_stats = serial_levels_7_and_8
    pipe, opened = os.pipe, []

    def pipe_until_none_is_left():
        if len(opened) == pipes:
            raise OSError(errno.EMFILE, "Too many open files")
        opened.append(pipe())
        return opened[-1]

    monkeypatch.setattr(search.os, "pipe", pipe_until_none_is_left)
    monkeypatch.setattr(search, "_usable_cpus", lambda: k)
    stats: list[search.LevelStats] = []
    assert _pairs(search._next_level(level7, stats)) == _pairs(serial)
    assert _counts(stats) == _counts(serial_stats)
    assert stats[0].processes == 1 + pipes
    _no_child_left()


def test_levels_below_the_split_size_never_fork(monkeypatch):
    def no_fork():
        pytest.fail("a level below SPLIT_MIN_PARENTS forked")

    monkeypatch.setattr(search.os, "fork", no_fork)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 4)
    result = enumerate_extremal(7, F(1, 2))
    assert max(s.parents for s in result.levels) < search.SPLIT_MIN_PARENTS
    assert {s.processes for s in result.levels} == {1}


def test_usable_cpus_without_affinity_or_fork(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert search._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert search._usable_cpus() == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork", raising=False)
    assert search._usable_cpus() == 1


def _split_with(monkeypatch, share) -> None:
    """Split every level in two, with ``share`` in place of ``search._share``."""
    monkeypatch.setattr(search, "SPLIT_MIN_PARENTS", 1)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(search, "_share", share)


def test_a_failed_worker_share_is_computed_again_here(monkeypatch):
    parents = _level5()
    expected = search._next_level(parents)
    share, caller = search._share, os.getpid()

    def fails_in_a_worker(level, test, k, r):
        if os.getpid() != caller:
            raise CertificateError("worker failed")
        return share(level, test, k, r)

    _split_with(monkeypatch, fails_in_a_worker)
    stats: list[search.LevelStats] = []
    assert _pairs(search._next_level(parents, stats)) == _pairs(expected)
    assert stats[0].processes == 2
    _no_child_left()


def test_a_worker_exception_surfaces_in_the_caller(monkeypatch):
    share = search._share

    def share_1_fails(level, test, k, r):
        if r == 1:
            raise CertificateError("share 1 failed")
        return share(level, test, k, r)

    _split_with(monkeypatch, share_1_fails)
    with pytest.raises(CertificateError, match="^share 1 failed$"):
        search._next_level(_level5())
    _no_child_left()


@pytest.mark.parametrize("error", [KeyboardInterrupt, SolverTimeout, ValueError])
def test_an_exception_in_this_process_share_leaves_no_worker(monkeypatch, error):
    share = search._share

    def share_0_fails(level, test, k, r):
        if r == 0:
            raise error("share 0 failed")
        time.sleep(60)  # the worker is still running when share 0 fails
        return share(level, test, k, r)

    _split_with(monkeypatch, share_0_fails)
    start = time.perf_counter()
    with pytest.raises(error, match="^share 0 failed$"):
        search._next_level(_level5())
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_shares_that_meet_the_same_class_are_refused(monkeypatch):
    # the merge check of _next_level, which python -O keeps
    share = search._share
    _split_with(monkeypatch, lambda level, test, k, r: share(level, test, 1, 0))
    with pytest.raises(CertificateError, match="same class"):
        search._next_level(_level5())
    _no_child_left()


def _counting(calls: list, f):
    """``f``, appending its first argument to ``calls`` on each call."""
    return lambda first, *rest: calls.append(first) or f(first, *rest)


@pytest.mark.parametrize("test", [search.LOCALLY_BIPARTITE, TRIANGLE_FREE], ids=["lb", "triangle-free"])
def test_a_duplicate_child_search_stops_at_a_known_class(monkeypatch, test):
    # levels 2..7 as _share makes them, against the same share with every child
    # searched in full (known forced to ()): the same keys in the same order,
    # rows, automorphisms and counts, with fewer leaves encoded
    parents = [search._searched_level([Graph(1)])]
    for _ in range(5):
        parents.append(search._next_level(parents[-1], None, test))
    encoded: list[Graph] = []
    monkeypatch.setattr(homomorphism, "_encode", _counting(encoded, homomorphism._encode))

    def shares():
        encoded.clear()
        made = [search._share(level, test, 1, 0) for level in parents]
        return [(list(seen.items()), tried, children) for seen, tried, children in made], len(encoded)

    stopped, stopped_leaves = shares()
    search_in_full = search._canonical_search
    monkeypatch.setattr(search, "_canonical_search", lambda g, root, twins, known: search_in_full(g, root, twins))
    full, full_leaves = shares()
    assert stopped == full
    assert stopped_leaves < full_leaves


@pytest.mark.parametrize("c", [F(-1), 0, F(1, 3), F(1, 2), F(5, 9) - F(1, 100), F(4, 7), F(2, 3)])
def test_the_degree_bound_drops_no_found_graph(monkeypatch, c):
    # _filter_level on every locally bipartite graph to n = 7, against the
    # same filter with no bound: t* of every twin-free edge-maximal graph
    graphs = list(hereditary_graphs(7))
    candidates = [g for g in graphs if is_twin_free(g) and is_edge_maximal_locally_bipartite(g)]
    expected = [(g.adj, t) for g in candidates for t in [optimal_weighting(g).optimum] if t > c]
    tested: list[Graph] = []
    edge_maximal = _counting(tested, search.is_edge_maximal_locally_bipartite)
    monkeypatch.setattr(search, "is_edge_maximal_locally_bipartite", edge_maximal)
    found = search._filter_level(graphs, F(c))
    assert [(f.graph.adj, f.t_star) for f in found] == expected
    twin_free = sum(map(is_twin_free, graphs))
    assert len(tested) == twin_free if c < 0 else len(tested) < twin_free


def test_checkpoint_text_is_json_dumps(tmp_path):
    # levels 1..7; level 7 (674 graphs) passes the C encoder in three slices
    ckpt = tmp_path / "search.ckpt"
    for n in range(1, 8):
        enumerate_extremal(n, F(1, 2), checkpoint_path=str(ckpt))
        text = ckpt.read_text()
        state = json.loads(text)
        assert text == json.dumps(state)
        body = [state[key] for key in ("c", "level", "graphs", "found")]
        assert state["digest"] == hashlib.sha256(json.dumps(body).encode()).hexdigest()
    assert len(state["graphs"]) == 674 and len(state["found"]) == 2


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[]],
        {"graphs": [], "found": [[]]},
        # the malformed states of tests/test_cli.py
        {"version": 2, "c": "1/2", "graphs": [[0]], "found": []},
        {"version": 2, "c": "1/2", "level": 1, "graphs": [["0"]], "found": []},
        {"version": 2, "c": "1/2", "level": 1, "graphs": [[0]], "found": [{"rows": [0]}]},
        {"version": 2, "c": "1/0", "level": 1, "graphs": [[0]], "found": []},
        {
            "version": 2,
            "c": "1/2",
            "level": 1,
            "graphs": [[0]],
            "found": [{"rows": [0], "t_star": "1/0", "chi": 1}],
        },
        {"é": "é\n", "n": None, "t": True, "x": 1.5, "d": {"a": [1, [2, [3]]]}},
        [list(range(k)) for k in range(300)],
        {"graphs": [(k, k + 1) for k in range(256)], "found": [{"rows": (k,)} for k in range(257)]},
        [None, "c", [[k] for k in range(512)], [[k] for k in range(513)]],
    ],
)
def test_json_text_is_json_dumps(obj):
    assert "".join(search._json_text(obj)) == json.dumps(obj)
    if isinstance(obj, dict):
        body = [obj.get(key) for key in ("c", "level", "graphs", "found")]
        assert search._digest(obj) == hashlib.sha256(json.dumps(body).encode()).hexdigest()


def test_membership_colours_each_distinct_row_once(monkeypatch):
    # one NeighbourhoodSides table serves local bipartiteness and edge-maximality
    coloured: list = []
    monkeypatch.setattr(structure, "_two_colouring", _counting(coloured, structure._two_colouring))
    report = check_membership(blow_up(families.c7bar(), [40] * 7), 0)
    assert report.locally_bipartite and report.edge_maximal and not report.twin_free
    assert len(coloured) == 7
