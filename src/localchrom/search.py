"""Exhaustive desk-scale enumeration of twin-free, edge-maximal locally
bipartite graphs beating a threshold c.

Augment-by-vertex generation with canonical-form isomorph rejection.  Local
bipartiteness is induced-hereditary, so every target graph is reachable
through locally bipartite intermediates and non-locally-bipartite branches
can be pruned during generation; edge-maximality and twin-freeness are not
monotone under vertex addition, so they are leaf filters only.

Each parent tries only the neighbour masks that are smallest in their orbit
under Aut(parent) (B. D. McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998)).  An automorphism sigma maps parent + m onto
parent + sigma(m), so the two children are isomorphic and either both or
neither locally bipartite.  Masks are tried in ascending order, so a skipped
mask comes after the orbit minimum of the same parent and its child could
never have been the first of its class to reach ``seen``: the classes, their
representatives and the level order are the same as when every mask is tried.
The orbit of a mask is its closure under generators of Aut(parent): the maps
between leaves of minimal encoding that the one canonical-form search of the
parent recorded when it was admitted as a child, and the twin transpositions
(the argument is in ``canonical_form``).  A level keeps each graph's maps; a
resumed level is searched once per graph, and refused unless its graphs are
locally bipartite and in strictly ascending canonical form, and its found
graphs in strictly ascending (n, canonical form) with n at most the level.

A mask is tested on the parent before its child is built
(``structure.locally_bipartite_with_vertex``), against the parent's one table
of neighbourhood sides (``structure.NeighbourhoodSides``), which 2-colours each
distinct row of the parent on its first read.  A child's canonical search
starts from its degree partition and, once it branches, reads its twin masks;
both come from the parent's degree and twin classes by a few bit operations on
the mask (``_ChildSetUp``).  The search refines against the cells that the
last round split; a cell's vertices agree on every older cell, so the cells
and their order are those of refining against every cell (``_refine``).

A large level is split over the CPUs this process may use, k of them, by the
edge count of the child: share r builds, searches and dedupes only the children
``parent + mask`` with ``(|E(parent)| + |mask|) % k == r`` (``_share``).  The
shares are the k tasks of one ``workers.run_tasks`` call (``_shares``): share 0
here, each other share in a forked worker, or here if none hands it back whole.
Isomorphic children have the same edge count, so each class lies inside one
share, and a share meets its children in the serial (parent, mask) order, so
each class keeps the first child, and that child's recorded automorphisms, of
the serial loop.  The union of the shares, sorted by canonical form, is the
serial level; a class found by two shares would break this argument and is
refused.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from time import perf_counter
from typing import Iterator

try:  # hashlib would also load OpenSSL, about 4 MB of resident memory
    from _sha256 import sha256
except ImportError:
    try:  # CPython 3.12 merged _sha256 into _sha2
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .colouring import chromatic_number
from .graphs import CertificateError, Graph, _classes_by_row, _twin_masks, bits
from .homomorphism import _automorphism_generators, _canonical_search
from .structure import (
    NeighbourhoodSides,
    is_edge_maximal_locally_bipartite,
    is_locally_bipartite,
    is_twin_free,
    locally_bipartite_with_vertex,
)
from .weighting import optimal_weighting
from .workers import run_tasks, usable_cpus as _usable_cpus

MAX_N = 10  # documented desk-scale bound
LOCALLY_BIPARTITE = (NeighbourhoodSides, locally_bipartite_with_vertex)  # the search's child test
Level = list[tuple[Graph, tuple[tuple[int, ...], ...]]]  # (graph, its search's autos), in order
# A level is split over processes from this many parents on.  On a shared
# 2-core x86-64 host with Python 3.11, a fork, its pipe and the merge cost about
# 2 ms, so two shares already beat one from about 30 parents (29 parents of
# the locally bipartite search: 11.2 -> 9.9 ms; 119 parents: 97 -> 69 ms;
# 674 parents: 1.12 -> 0.64 s).  Below 128 parents a split saves at most about
# 30 ms.  The value stays where the split was first measured: it keeps level 7
# of the search to n = 8 (119 parents) in one process, and lowering it waits
# for a re-measure of that search.
SPLIT_MIN_PARENTS = 128


@dataclass(frozen=True)
class FoundGraph:
    graph: Graph
    t_star: Fraction
    chi: int
    canon: tuple[int, int]


@dataclass(frozen=True)
class MembershipReport:
    locally_bipartite: bool
    edge_maximal: bool
    twin_free: bool
    t_star: Fraction | None
    beats: bool

    @property
    def all_pass(self) -> bool:
        return self.locally_bipartite and self.edge_maximal and self.twin_free and self.beats


@dataclass(frozen=True)
class LevelStats:
    """The work of generating one level of graphs on ``n`` vertices from its
    parents on n - 1; ``seconds`` is the generation time, without the filter."""

    n: int
    parents: int
    masks_tried: int  # orbit-minimal masks, each tested from the parent's neighbourhoods
    children: int  # locally bipartite children
    canonical_forms: int  # one per locally bipartite child
    classes: int
    seconds: float
    processes: int  # the processes that shared the level (see ``_shares``)


@dataclass
class SearchResult:
    n_max: int
    c: Fraction
    found: list[FoundGraph]
    exhausted: bool
    levels: list[LevelStats] = field(default_factory=list)  # levels generated by this run


def check_membership(g: Graph, c: Fraction | int) -> MembershipReport:
    """The four filter predicates on a single graph."""
    lb = is_locally_bipartite(g)
    edge_max = is_edge_maximal_locally_bipartite(g) if lb else False
    twin_free = is_twin_free(g)
    t_star = optimal_weighting(g).optimum if g.n else None
    beats = t_star is not None and t_star > Fraction(c)
    return MembershipReport(lb, edge_max, twin_free, t_star, beats)


def _filter_level(graphs: list[Graph], c: Fraction) -> list[FoundGraph]:
    out = []
    for g in graphs:
        if not is_twin_free(g):
            continue
        if not is_edge_maximal_locally_bipartite(g):
            continue
        result = optimal_weighting(g)
        if result.optimum > c:
            chi = chromatic_number(g)[0]
            out.append(FoundGraph(g, result.optimum, chi, (g.n, _canonical_search(g)[0])))
    return out


def _orbit_minimal_masks(parent: Graph, autos: tuple[tuple[int, ...], ...]) -> list[int]:
    """The masks over V(parent) that are smallest in their Aut(parent) orbit, ascending."""
    tables = []  # one per generator p: table[m] is the image of the mask m under p
    for p in _automorphism_generators(parent, autos):
        table = [0]
        for v in range(parent.n):
            table += [image | 1 << p[v] for image in table]
        tables.append(table)
    covered = bytearray(1 << parent.n)
    minimal = []
    for mask in range(1 << parent.n):
        if not covered[mask]:
            minimal.append(mask)
            covered[mask] = 1
            orbit = [mask]
            for m in orbit:  # the orbit grows while it is walked
                for table in tables:
                    if not covered[table[m]]:
                        covered[table[m]] = 1
                        orbit.append(table[m])
    return minimal


class _ChildSetUp:
    """The root cells and twin masks of ``parent.with_vertex(mask)``, derived from
    the parent's degree classes and open and closed twin classes.

    The new vertex x raises the degree of exactly the vertices of ``mask``, so
    the child's vertices of degree e are the parent's of degree e outside the
    mask and of degree e - 1 inside it, and x has degree |mask|.  Two parent
    vertices are twins in the child iff they are twins in the parent on the
    same side of the mask; x is an open twin of the vertices whose row is
    ``mask`` and a closed twin of those whose row plus themselves is ``mask``.
    """

    __slots__ = ("n", "by_degree", "open_classes", "closed_classes", "twins")

    def __init__(self, parent: Graph):
        self.n = parent.n
        self.by_degree = [0] * (parent.n + 1)  # parent vertices of degree 0..n
        for v, row in enumerate(parent.adj):
            self.by_degree[row.bit_count()] |= 1 << v
        self.open_classes = _classes_by_row(parent.adj)
        self.closed_classes = _classes_by_row(row | 1 << v for v, row in enumerate(parent.adj))
        self.twins = _twin_masks(parent.adj)

    def root(self, mask: int) -> list[int]:
        """The child's degree partition, in ascending degree."""
        x, d = 1 << self.n, mask.bit_count()
        cells = []
        below = 0  # the parent's vertices of degree e - 1
        for e, here in enumerate(self.by_degree):
            cell = here & ~mask | below & mask
            if e == d:
                cell |= x
            if cell:
                cells.append(cell)
            below = here
        return cells

    def twin_masks(self, mask: int) -> list[int]:
        """``_twin_masks`` of the child."""
        twins = [t & (mask if mask >> v & 1 else ~mask) for v, t in enumerate(self.twins)]
        x = 1 << self.n
        x_class = self.open_classes.get(mask, 0) | self.closed_classes.get(mask, 0) | x
        for v in bits(x_class ^ x):
            twins[v] |= x
        twins.append(x_class)
        return twins


def _share(level: Level, test, k: int, r: int) -> tuple[dict, int, int]:
    """Share r of k of the next level: the children ``parent + mask`` with
    ``(|E(parent)| + |mask|) % k == r``, met in the serial order.  Returns each
    class's first child as ``encoding -> (rows, autos)``, the masks tried (every
    share tries all of them) and the children built."""
    table, admits = test
    seen: dict[int, tuple[tuple[int, ...], tuple]] = {}
    tried = children = 0
    for parent, autos in level:
        masks = _orbit_minimal_masks(parent, autos)
        tried += len(masks)
        sides = table(parent)
        set_up = _ChildSetUp(parent)
        offset = parent.edge_count() - r
        for mask in masks:
            if (offset + mask.bit_count()) % k or not admits(sides, mask):
                continue
            children += 1
            child = parent.with_vertex(mask)
            key, child_autos = _canonical_search(
                child, set_up.root(mask), partial(set_up.twin_masks, mask)
            )
            if key not in seen:
                seen[key] = (child.adj, child_autos)
    return seen, tried, children


def _shares(level: Level, test, k: int) -> tuple[dict, int, int, int]:
    """``_share`` r of k for r = 0..k-1, run by ``workers.run_tasks``, merged in
    that order, and the number of processes that computed them."""
    shares, processes = run_tasks([partial(_share, level, test, k, r) for r in range(k)], k)
    seen, tried, children = shares[0]
    for classes, _, more in shares[1:]:
        if not seen.keys().isdisjoint(classes):
            raise CertificateError("two edge-count shares of a level hold the same class")
        seen.update(classes)
        children += more
    return seen, tried, children, processes


def _next_level(level: Level, stats: list[LevelStats] | None = None, test=LOCALLY_BIPARTITE) -> Level:
    """The next level, one representative per class, ordered by canonical form.

    ``test`` names the class: a child ``parent + mask`` is built iff
    ``admits(table(parent), mask)`` for ``table, admits = test``.  A level of
    at least ``SPLIT_MIN_PARENTS`` parents is split over the usable CPUs.
    Appends a ``LevelStats`` record to ``stats`` when one is given.
    """
    start = perf_counter()
    k = _usable_cpus() if len(level) >= SPLIT_MIN_PARENTS else 1
    seen, tried, children, processes = _shares(level, test, k)
    if stats is not None:
        seconds = perf_counter() - start
        stats.append(
            LevelStats(level[0][0].n + 1, len(level), tried, children, children, len(seen), seconds, processes)
        )
    # popped, so that each (rows, autos) pair is freed as its (Graph, autos) is made
    return [(Graph._of_valid_rows(rows), autos) for rows, autos in map(seen.pop, sorted(seen))]


def _searched_level(graphs: list[Graph]) -> Level:
    """Each graph with the automorphisms its canonical-form search records; ValueError
    unless the graphs are locally bipartite and in strictly ascending canonical form."""
    searched = [(g, *_canonical_search(g)) for g in graphs]
    keys = [key for _, key, _ in searched]
    if keys != sorted(set(keys)) or not all(is_locally_bipartite(g) for g in graphs):
        raise ValueError("checkpoint level is out of canonical order or not locally bipartite")
    return [(g, autos) for g, _, autos in searched]


def hereditary_graphs(n_max: int, test=LOCALLY_BIPARTITE) -> Iterator[Graph]:
    """Every graph on 1..n_max vertices of the class that ``test`` names (see
    ``_next_level``), one per isomorphism class, holding one level at a time."""
    if n_max < 1:
        return
    level = _searched_level([Graph(1)])
    yield Graph(1)
    for _ in range(n_max - 1):
        level = _next_level(level, None, test)
        yield from (g for g, _ in level)


def enumerate_extremal(
    n_max: int,
    c: Fraction | int,
    checkpoint_path: str | None = None,
    resume_path: str | None = None,
) -> SearchResult:
    """All twin-free edge-maximal locally bipartite graphs on <= n_max vertices
    with t* > c, one per isomorphism class, ordered by (n, canonical form)."""
    if not 1 <= n_max <= MAX_N:
        raise ValueError(f"n_max must be between 1 and {MAX_N}")
    c = Fraction(c)

    levels: list[LevelStats] = []
    if resume_path is None:
        n, level = 1, _searched_level([Graph(1)])
        found = _filter_level([Graph(1)], c)
        _write_checkpoint(checkpoint_path, c, n, level, found)
    else:
        state = _load_checkpoint(resume_path)
        if state["c"] != c:
            raise ValueError("checkpoint was produced for a different threshold c")
        if state["level"] > n_max:
            raise ValueError("checkpoint is already past n_max")
        n = state["level"]
        level = _searched_level([Graph.from_rows(rows) for rows in state["graphs"]])
        found = []
        for item in state["found"]:
            # re-derived by the search's own filter, never trusted
            derived = _filter_level([Graph.from_rows(item["rows"])], c)
            if [(f.t_star, f.chi) for f in derived] != [(item["t_star"], item["chi"])]:
                raise ValueError("checkpoint lists a found graph that fails the membership check")
            found.extend(derived)
        keys = [f.canon for f in found]  # a fresh run emits them ascending
        if keys != sorted(set(keys)):
            raise ValueError("checkpoint found graphs are out of canonical order")
    while n < n_max:
        level = _next_level(level, levels)
        n += 1
        found.extend(_filter_level([g for g, _ in level], c))
        _write_checkpoint(checkpoint_path, c, n, level, found)
    return SearchResult(n_max, c, found, exhausted=True, levels=levels)


def _digest(state: dict) -> str:
    """SHA-256 over the threshold, the level number, the level rows and the found entries."""
    body = [state.get(key) for key in ("c", "level", "graphs", "found")]
    digest = sha256()
    # chunk by chunk: ``json.dumps`` would hold every chunk of a large level at once
    for chunk in json.JSONEncoder().iterencode(body):
        digest.update(chunk.encode())
    return digest.hexdigest()


def _write_checkpoint(path, c, level_n, level, found) -> None:
    if path is None:
        return
    state = {
        "version": 2,
        "c": str(c),
        "level": level_n,
        # JSON writes the row tuples as arrays: no copies, and the same bytes
        "graphs": [g.adj for g, _ in level],
        "found": [{"rows": f.graph.adj, "t_star": str(f.t_star), "chi": f.chi} for f in found],
    }
    state["digest"] = _digest(state)
    # Write a sibling file and rename it over the checkpoint, so that a crash
    # mid-write leaves the previous checkpoint whole.
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        # chunk by chunk, like ``_digest``: the one-shot C encoder of ``json.dumps``
        # would first build a list of every chunk of the level
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _int_list(xs, n=None) -> bool:
    return isinstance(xs, list) and all(type(x) is int for x in xs) and n in (None, len(xs))


def _load_checkpoint(path) -> dict:
    """The state saved at ``path``, with c and each t_star read as Fractions;
    ValueError unless it is a whole version-2 checkpoint."""
    with open(path) as fh:
        try:
            state = json.load(fh)
        except RecursionError:
            raise ValueError("checkpoint is nested too deeply to read") from None
    if not isinstance(state, dict):
        raise ValueError("checkpoint is not a JSON object")
    if state.get("version") != 2:
        raise ValueError("unrecognised checkpoint version")
    if state.get("digest") != _digest(state):
        raise ValueError("checkpoint digest does not match its contents")
    level, graphs, found = state.get("level"), state.get("graphs"), state.get("found")
    if type(level) is not int or not 1 <= level <= MAX_N or not isinstance(state.get("c"), str):
        raise ValueError(f"checkpoint needs a str threshold c and an int level in 1..{MAX_N}")
    if not (isinstance(graphs, list) and graphs and all(_int_list(g, level) for g in graphs)):
        raise ValueError(f"checkpoint graphs are not a non-empty list of {level} int rows each")
    if not isinstance(found, list) or not all(
        isinstance(f, dict) and _int_list(f.get("rows")) and 1 <= len(f["rows"]) <= level
        and isinstance(f.get("t_star"), str) and type(f.get("chi")) is int for f in found
    ):
        raise ValueError(f"checkpoint found entries need 1..{level} int rows, str t_star, int chi")
    try:
        state["c"] = Fraction(state["c"])
        for f in found:
            f["t_star"] = Fraction(f["t_star"])
    except ZeroDivisionError:
        raise ValueError("checkpoint holds a fraction with a zero denominator") from None
    return state


def compact_line(f: FoundGraph) -> str:
    """One graph per line: adjacency-list compact form plus its scores."""
    g = f.graph
    edges = ",".join(f"{u}-{v}" for u, v in g.edges())
    return f"n={g.n} m={g.edge_count()} edges={edges} t*={f.t_star} chi={f.chi}"
