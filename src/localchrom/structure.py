"""Neighbourhood structure: odd wheels, dense/sparse pairs, saturation.

A graph is locally bipartite exactly when every vertex neighbourhood induces a
bipartite graph, equivalently when it contains no odd wheel (an odd rim cycle
plus a centre adjacent to the whole rim; W3 = K4).  One new vertex or edge is
checked against the sides of the neighbourhoods (``neighbourhood_sides``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .graphs import CertificateError, Graph, _twin_masks, bits

Sides = list[list[tuple[int, int]]]  # per vertex w: (side, side) per component of G[N(w)]


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
        # one 2-colouring settles a bipartite neighbourhood; an odd one gets a BFS per root
        if not _two_colourable(g.adj, g.adj[centre]):
            witness = OddWheelWitness(centre, _shortest_odd_cycle(g.adj, g.adj[centre]))
            if not witness.validate(g):
                raise CertificateError(f"odd wheel witness {witness} does not validate")
            return witness
    return None


def is_locally_bipartite(g: Graph) -> bool:
    """Cheap decision (one BFS 2-colouring per distinct neighbourhood, no
    witness): the verdict depends on the neighbourhood row alone."""
    return all(_two_colourable(g.adj, row) for row in set(g.adj))


def neighbourhood_is_bipartite(g: Graph, centre: int) -> bool:
    """2-colour G[adj(centre)] by BFS.  Nothing in the package calls it: it is
    kept for ``perfbench/tracing.py``, which times this layer by its name."""
    return _two_colourable(g.adj, g.adj[centre])


def _two_colouring(adj, region: int) -> list[tuple[int, int]] | None:
    """The two sides of each component with an edge of the subgraph of ``adj``
    induced by the bitset ``region``, or None if it is not bipartite: a BFS by
    layers, each layer coloured opposite to the last.

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
        if side[1]:
            components.append((side[0], side[1]))
    return components


def _two_colourable(adj, region: int) -> bool:
    """Whether the subgraph of ``adj`` induced by the bitset ``region`` is bipartite."""
    return _two_colouring(adj, region) is not None


def neighbourhood_sides(g: Graph) -> Sides | None:
    """For each vertex w, the two sides of each component of G[N(w)] that has
    an edge; None unless g is locally bipartite.  Twins share one list."""
    by_row = {row: _two_colouring(g.adj, row) for row in set(g.adj)}
    return None if None in by_row.values() else [by_row[row] for row in g.adj]


def _closes_odd_cycle(components: list[tuple[int, int]], mask: int) -> bool:
    """Whether a new neighbour x of w, adjacent to ``mask``, makes G[N(w) + x]
    not bipartite, for ``components = neighbourhood_sides(g)[w]``.

    G[N(w)] is bipartite, so every odd cycle of G[N(w) + x] passes through x.
    If x has neighbours y and z on the two sides of one component, a y-z path
    in it is odd and closes an odd cycle with x.  Otherwise each component's
    sides can be swapped until x's neighbours share a colour; x takes the other."""
    for a, b in components:
        if mask & a and mask & b:
            return True
    return False


def locally_bipartite_with_vertex(g: Graph, sides: Sides, mask: int) -> bool:
    """Whether ``g.with_vertex(mask)``, whose new vertex x has neighbourhood g[mask] and
    joins each N(w) for w in mask, is locally bipartite; ``sides = neighbourhood_sides(g)``."""
    for w in bits(mask):
        if _closes_odd_cycle(sides[w], mask):
            return False
    return _two_colourable(g.adj, mask)


def locally_bipartite_after_adding(g: Graph, sides: Sides, u: int, v: int) -> bool:
    """Whether g + uv is still locally bipartite, for a non-edge uv of a
    locally bipartite g and ``sides = neighbourhood_sides(g)``.

    N(u) gains v, whose neighbours in it are the common neighbourhood C, and
    N(v) gains u likewise.  Each w in C gains the edge uv, which closes an odd
    cycle of G[N(w)] iff u and v lie on one side of one component.
    """
    common = g.adj[u] & g.adj[v]
    if _closes_odd_cycle(sides[u], common) or _closes_odd_cycle(sides[v], common):
        return False
    pair = 1 << u | 1 << v
    return not any(a & pair == pair or b & pair == pair for w in bits(common) for a, b in sides[w])


def classify_pair(g: Graph, u: int, v: int) -> PairClass:
    """Adjacent, dense (non-adjacent, common neighbourhood has an edge) or sparse."""
    if u == v:
        raise ValueError("classify_pair needs two distinct vertices")
    if g.has_edge(u, v):
        return PairClass.ADJACENT
    common = g.adj[u] & g.adj[v]
    if any(g.adj[x] & common for x in bits(common)):
        return PairClass.DENSE
    return PairClass.SPARSE


def dense_set(g: Graph, v: int) -> int:
    """Bitset of the vertices forming a dense pair with v."""
    return sum(1 << u for u in range(g.n) if u != v and classify_pair(g, u, v) is PairClass.DENSE)


def saturate(g: Graph) -> Graph:
    """Edge-maximal locally bipartite supergraph of g, on the same vertices.

    Non-edges are tried in lexicographic (u, v) order, the documented one, and
    kept whenever the graph stays locally bipartite; other orders may give
    other maximal supergraphs.
    """
    sides = neighbourhood_sides(g)
    if sides is None:
        raise ValueError("saturate requires a locally bipartite input")
    current = g
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not current.has_edge(u, v) and locally_bipartite_after_adding(current, sides, u, v):
                current = current.with_edge(u, v)
                sides = neighbourhood_sides(current)
    return current


def is_edge_maximal_locally_bipartite(g: Graph) -> bool:
    """Whether g is locally bipartite and adding any non-edge breaks that.

    One non-edge is tried per unordered pair of twin classes
    (``graphs._twin_masks``): any permutation inside a twin class is an
    automorphism, and some such automorphism carries one non-edge of a class
    pair to any other, so they all give the same verdict.
    """
    sides = neighbourhood_sides(g)
    if sides is None:
        return False
    twins = _twin_masks(g.adj)
    pairs = {frozenset((twins[u], twins[v])): (u, v) for u, v in g.non_edges()}
    return not any(locally_bipartite_after_adding(g, sides, u, v) for u, v in pairs.values())


def is_twin_free(g: Graph) -> bool:
    return len(set(g.adj)) == g.n


def sparse_missing_spoke(g: Graph) -> tuple[int, int] | None:
    """A sparse pair (u, v) such that uv is the missing spoke of an odd wheel,
    or None, for locally bipartite g; ValueError otherwise.

    The configuration is an odd cycle through v whose other vertices all lie
    in N(u).  A sparse pair is non-adjacent, so it is an odd cycle of
    G[N(u) + v] through v, whose neighbours there are N(u) & N(v).
    """
    sides = neighbourhood_sides(g)
    if sides is None:
        raise ValueError("sparse_missing_spoke requires a locally bipartite input")
    for u in range(g.n):
        for v in range(g.n):
            if u != v and classify_pair(g, u, v) is PairClass.SPARSE:
                if _closes_odd_cycle(sides[u], g.adj[u] & g.adj[v]):
                    return (u, v)
    return None
