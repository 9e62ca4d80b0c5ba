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

A mask is tested on the parent, against the sides of its neighbourhoods,
before its child is built (``structure.locally_bipartite_with_vertex``).  A
child's canonical search refines against the cells that the last round split;
a cell's vertices agree on every older cell, so the cells and their order are
those of refining against every cell (``_refine``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

try:  # hashlib would also load OpenSSL, about 4 MB of resident memory
    from _sha256 import sha256
except ImportError:
    try:  # CPython 3.12 merged _sha256 into _sha2
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .colouring import chromatic_number
from .graphs import Graph
from .homomorphism import _automorphism_generators, _canonical_search
from .structure import (
    is_edge_maximal_locally_bipartite,
    is_locally_bipartite,
    is_twin_free,
    locally_bipartite_with_vertex,
    neighbourhood_sides,
)
from .weighting import optimal_weighting

MAX_N = 10  # documented desk-scale bound
Level = list[tuple[Graph, tuple[tuple[int, ...], ...]]]  # (graph, its search's autos), in order


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


def _next_level(level: Level, stats: list[LevelStats] | None = None) -> Level:
    """The next level, one representative per class, ordered by canonical form.

    Appends a ``LevelStats`` record to ``stats`` when one is given.
    """
    start = perf_counter()
    seen: dict[int, tuple[Graph, tuple]] = {}  # encoding -> the first child of its class
    tried = children = 0
    for parent, autos in level:
        masks = _orbit_minimal_masks(parent, autos)
        tried += len(masks)
        sides = neighbourhood_sides(parent)
        for mask in masks:
            if not locally_bipartite_with_vertex(parent, sides, mask):
                continue
            children += 1
            child = parent.with_vertex(mask)
            key, child_autos = _canonical_search(child)
            if key not in seen:
                seen[key] = (child, child_autos)
    if stats is not None:
        seconds = perf_counter() - start
        stats.append(
            LevelStats(level[0][0].n + 1, len(level), tried, children, children, len(seen), seconds)
        )
    return [seen[k] for k in sorted(seen)]


def _searched_level(graphs: list[Graph]) -> Level:
    """Each graph with the automorphisms its canonical-form search records; ValueError
    unless the graphs are locally bipartite and in strictly ascending canonical form."""
    searched = [(g, *_canonical_search(g)) for g in graphs]
    keys = [key for _, key, _ in searched]
    if keys != sorted(set(keys)) or not all(is_locally_bipartite(g) for g in graphs):
        raise ValueError("checkpoint level is out of canonical order or not locally bipartite")
    return [(g, autos) for g, _, autos in searched]


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
        "graphs": [list(g.adj) for g, _ in level],
        "found": [
            {"rows": list(f.graph.adj), "t_star": str(f.t_star), "chi": f.chi} for f in found
        ],
    }
    state["digest"] = _digest(state)
    # Write a sibling file and rename it over the checkpoint, so that a crash
    # mid-write leaves the previous checkpoint whole.
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
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
