"""Neighbourhood structure: odd wheels, dense/sparse pairs, saturation.

A graph is locally bipartite exactly when every vertex neighbourhood induces a
bipartite graph, equivalently when it contains no odd wheel (an odd rim cycle
plus a centre adjacent to the whole rim; W3 = K4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .graphs import CertificateError, Graph, _twin_masks, bits


class PairClass(Enum):
    ADJACENT = "adjacent"
    DENSE = "dense"
    SPARSE = "sparse"


@dataclass(frozen=True)
class OddWheelWitness:
    """An odd wheel found in the graph: rim is an odd cycle inside the centre's neighbourhood."""

    centre: int
    rim: tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        k = len(self.rim)
        if k < 3 or k % 2 == 0 or len(set(self.rim)) != k:
            return False
        if any(not g.has_edge(self.centre, v) for v in self.rim):
            return False
        return all(g.has_edge(self.rim[i], self.rim[(i + 1) % k]) for i in range(k))

    def __str__(self) -> str:
        return f"centre: {self.centre} rim: {','.join(map(str, self.rim))}"


def _shortest_odd_cycle(adj, region: int) -> tuple[int, ...] | None:
    """Shortest odd cycle of the subgraph of ``adj`` induced by the bitset
    ``region`` (None if bipartite), by BFS from every root.

    For a root r, the depths of adjacent vertices in r's BFS tree differ by
    at most one, so an edge xy closes an odd cycle exactly when depth(x) =
    depth(y): the tree paths x->z and y->z to their lowest common ancestor
    then close an odd simple cycle of length 2 (depth(x) - depth(z)) + 1.
    """
    best: tuple[int, ...] | None = None
    for root in bits(region):
        depth = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in bits(adj[v] & region):
                if u not in depth:
                    depth[u] = depth[v] + 1
                    parent[u] = v
                    queue.append(u)
        for v in order:
            for u in bits(adj[v] & region):
                if u > v and depth[u] == depth[v]:
                    px, py = [v], [u]
                    x, y = v, u
                    while x != y:
                        x, y = parent[x], parent[y]
                        px.append(x)
                        py.append(y)
                    cycle = tuple(px + py[-2::-1])
                    if best is None or len(cycle) < len(best):
                        best = cycle
    return best


def odd_wheel(g: Graph) -> OddWheelWitness | None:
    """First odd wheel by centre index, with the shortest rim in that neighbourhood."""
    for centre in range(g.n):
        # one 2-colouring settles a bipartite neighbourhood; only an odd one
        # needs the BFS from every root
        if not _two_colourable(g.adj, g.adj[centre]):
            witness = OddWheelWitness(centre, _shortest_odd_cycle(g.adj, g.adj[centre]))
            if not witness.validate(g):
                raise CertificateError(f"odd wheel witness {witness} does not validate")
            return witness
    return None


def is_locally_bipartite(g: Graph) -> bool:
    """Cheap decision (one BFS 2-colouring per distinct neighbourhood, no witness).

    The verdict depends on the neighbourhood row alone, so twins share one.
    """
    return all(_two_colourable(g.adj, row) for row in set(g.adj))


def neighbourhood_is_bipartite(g: Graph, centre: int) -> bool:
    """2-colour G[adj(centre)] by BFS."""
    return _two_colourable(g.adj, g.adj[centre])


def _two_colouring(adj, region: int) -> list[tuple[int, int]] | None:
    """The two sides of each component of the subgraph of ``adj`` induced by
    the bitset ``region``, or None if it is not bipartite: a BFS by layers,
    each layer coloured opposite to the last.

    An edge inside a colour class joins two vertices of one layer (BFS layers
    two apart are never adjacent), so checking each layer against its own
    colour class finds every conflict.
    """
    components = []
    unseen = region
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        side = [layer, 0]
        parity = 0
        while layer:
            reached = 0
            for v in bits(layer):
                row = adj[v] & region
                if row & side[parity]:
                    return None
                reached |= row
            layer = reached & unseen
            unseen ^= layer
            parity ^= 1
            side[parity] |= layer
        components.append((side[0], side[1]))
    return components


def _two_colourable(adj, region: int) -> bool:
    """Whether the subgraph of ``adj`` induced by the bitset ``region`` is bipartite."""
    return _two_colouring(adj, region) is not None


def neighbourhood_sides(g: Graph) -> list[list[tuple[int, int]]]:
    """For each vertex w of a locally bipartite g, the two sides of each
    component of G[N(w)] that has an edge; ValueError otherwise."""
    sides = []
    for row in g.adj:
        components = _two_colouring(g.adj, row)
        if components is None:
            raise ValueError("neighbourhood_sides requires a locally bipartite input")
        sides.append([(a, b) for a, b in components if b])
    return sides


def locally_bipartite_with_vertex(g: Graph, sides: list[list[tuple[int, int]]], mask: int) -> bool:
    """Whether ``g.with_vertex(mask)`` is locally bipartite, for locally
    bipartite g and ``sides = neighbourhood_sides(g)``, without building it.

    Only the new vertex x and its neighbours w get a new neighbourhood.  That
    of x is g[mask].  That of w is N(w) + x, where G[N(w)] is bipartite, so
    every odd cycle of it passes through x: N(w) + x is 2-colourable unless x
    has neighbours on both sides of one component of G[N(w)].  Neighbours on
    opposite sides of two components are no conflict, as a component's sides
    can be swapped on their own.
    """
    for w in bits(mask):
        for a, b in sides[w]:
            if mask & a and mask & b:
                return False
    return _two_colourable(g.adj, mask)


def locally_bipartite_after_adding(g: Graph, u: int, v: int) -> bool:
    """Whether g + uv is still locally bipartite, for locally bipartite g.

    Only the neighbourhoods of u, v and their common neighbours change.
    """
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    affected = (1 << u) | (1 << v) | (g.adj[u] & g.adj[v])
    return all(_two_colourable(rows, rows[w]) for w in bits(affected))


def classify_pair(g: Graph, u: int, v: int) -> PairClass:
    """Adjacent, dense (non-adjacent, common neighbourhood has an edge) or sparse."""
    if u == v:
        raise ValueError("classify_pair needs two distinct vertices")
    if g.has_edge(u, v):
        return PairClass.ADJACENT
    common = g.adj[u] & g.adj[v]
    for x in bits(common):
        if g.adj[x] & common:
            return PairClass.DENSE
    return PairClass.SPARSE


def dense_set(g: Graph, v: int) -> int:
    """Bitset of the vertices forming a dense pair with v."""
    out = 0
    for u in range(g.n):
        if u != v and classify_pair(g, u, v) is PairClass.DENSE:
            out |= 1 << u
    return out


def saturate(g: Graph) -> Graph:
    """Edge-maximal locally bipartite supergraph of g, on the same vertices.

    Non-edges are tried in lexicographic (u, v) order and kept whenever the
    graph stays locally bipartite.  Different orders may give different
    maximal supergraphs; this order is the documented one.
    """
    if not is_locally_bipartite(g):
        raise ValueError("saturate requires a locally bipartite input")
    current = g
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not current.has_edge(u, v) and locally_bipartite_after_adding(current, u, v):
                current = current.with_edge(u, v)
    return current


def is_edge_maximal_locally_bipartite(g: Graph) -> bool:
    """Whether g is locally bipartite and adding any non-edge breaks that.

    One non-edge is tried per unordered pair of twin classes
    (``graphs._twin_masks``).  Any permutation inside a twin class is an
    automorphism, so for two non-edges uv and u'v' with u, u' in one class
    and v, v' in the other (or all four in one class), some automorphism
    carries uv to u'v' and g + uv to g + u'v': every non-edge of one class
    pair gives the same verdict.
    """
    if not is_locally_bipartite(g):
        return False
    twins = _twin_masks(g.adj)
    representative = {frozenset((twins[u], twins[v])): (u, v) for u, v in g.non_edges()}
    return not any(locally_bipartite_after_adding(g, u, v) for u, v in representative.values())


def is_twin_free(g: Graph) -> bool:
    return len(set(g.adj)) == g.n


def sparse_missing_spoke(g: Graph) -> tuple[int, int] | None:
    """A sparse pair (u, v) such that uv is the missing spoke of an odd wheel,
    for locally bipartite g; ValueError otherwise.

    The configuration is an odd cycle through v whose other vertices all lie
    in the neighbourhood of u.  G[N(u)] is bipartite and v is not in N(u),
    since a sparse pair is non-adjacent, so every odd cycle of G[N(u) + v]
    passes through v: the pair is a missing spoke exactly when N(u) + v is
    not 2-colourable.  Returns None when no such configuration exists.
    """
    if not is_locally_bipartite(g):
        raise ValueError("sparse_missing_spoke requires a locally bipartite input")
    for u in range(g.n):
        for v in range(g.n):
            if u == v or classify_pair(g, min(u, v), max(u, v)) is not PairClass.SPARSE:
                continue
            if not _two_colourable(g.adj, g.adj[u] | 1 << v):
                return (u, v)
    return None
