"""Exhaustive desk-scale enumeration of twin-free, edge-maximal locally
bipartite graphs beating a threshold c.

Augment-by-vertex generation with canonical-form isomorph rejection.  Local
bipartiteness is induced-hereditary, so every target graph is reachable
through locally bipartite intermediates and non-locally-bipartite branches
can be pruned during generation; edge-maximality and twin-freeness are not
monotone under vertex addition, so they are leaf filters only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .colouring import chromatic_number
from .graphs import Graph, bits
from .homomorphism import canonical_form
from .structure import (
    neighbourhood_is_bipartite,
    is_edge_maximal_locally_bipartite,
    is_locally_bipartite,
    is_twin_free,
)
from .weighting import optimal_weighting

MAX_N = 10  # documented desk-scale bound


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


@dataclass
class SearchResult:
    n_max: int
    c: Fraction
    found: list[FoundGraph]
    exhausted: bool


def check_membership(g: Graph, c: Fraction | int) -> MembershipReport:
    """The four filter predicates on a single graph."""
    lb = is_locally_bipartite(g)
    edge_max = is_edge_maximal_locally_bipartite(g) if lb else False
    twin_free = is_twin_free(g)
    t_star = optimal_weighting(g).optimum if g.n else None
    beats = t_star is not None and t_star > Fraction(c)
    return MembershipReport(lb, edge_max, twin_free, t_star, beats)


def _locally_bipartite_child(parent: Graph, mask: int) -> Graph | None:
    """parent + (vertex adjacent to mask) if it stays locally bipartite, else None.

    Only the new vertex's neighbourhood and those of its neighbours change.
    """
    child = parent.with_vertex(mask)
    if neighbourhood_is_bipartite(child, child.n - 1) and all(
        neighbourhood_is_bipartite(child, w) for w in bits(mask)
    ):
        return child
    return None


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
            out.append(FoundGraph(g, result.optimum, chi, canonical_form(g)))
    return out


def _next_level(level: list[Graph]) -> list[Graph]:
    seen: dict[tuple[int, int], Graph] = {}
    for parent in level:
        for mask in range(1 << parent.n):
            child = _locally_bipartite_child(parent, mask)
            if child is None:
                continue
            key = canonical_form(child)
            if key not in seen:
                seen[key] = child
    return [seen[k] for k in sorted(seen)]


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

    start_n = 1
    level = [Graph(1)]
    found: list[FoundGraph] = []
    if resume_path is not None:
        state = _load_checkpoint(resume_path)
        if Fraction(state["c"]) != c:
            raise ValueError("checkpoint was produced for a different threshold c")
        if state["level"] > n_max:
            raise ValueError("checkpoint is already past n_max")
        start_n = state["level"]
        level = [Graph.from_rows(rows) for rows in state["graphs"]]
        found = [
            FoundGraph(
                Graph.from_rows(item["rows"]),
                Fraction(item["t_star"]),
                item["chi"],
                canonical_form(Graph.from_rows(item["rows"])),
            )
            for item in state["found"]
        ]

    n = start_n
    if n == 1 and not resume_path:
        found.extend(_filter_level(level, c))
        _write_checkpoint(checkpoint_path, c, n, level, found)
    while n < n_max:
        level = _next_level(level)
        n += 1
        found.extend(_filter_level(level, c))
        _write_checkpoint(checkpoint_path, c, n, level, found)
    found.sort(key=lambda f: (f.graph.n, f.canon))
    return SearchResult(n_max, c, found, exhausted=True)


def _write_checkpoint(path, c, level_n, level, found) -> None:
    if path is None:
        return
    state = {
        "version": 1,
        "c": str(c),
        "level": level_n,
        "graphs": [list(g.adj) for g in level],
        "found": [
            {"rows": list(f.graph.adj), "t_star": str(f.t_star), "chi": f.chi} for f in found
        ],
    }
    # Write a sibling file and rename it over the checkpoint, so that a crash
    # mid-write leaves the previous checkpoint whole.
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_checkpoint(path) -> dict:
    with open(path) as fh:
        state = json.load(fh)
    if state.get("version") != 1:
        raise ValueError("unrecognised checkpoint version")
    return state


def compact_line(f: FoundGraph) -> str:
    """One graph per line: adjacency-list compact form plus its scores."""
    g = f.graph
    edges = ",".join(f"{u}-{v}" for u, v in g.edges())
    return f"n={g.n} m={g.edge_count()} edges={edges} t*={f.t_star} chi={f.chi}"
