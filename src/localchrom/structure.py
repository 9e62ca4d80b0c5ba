"""Neighbourhood structure: odd wheels, dense/sparse pairs, saturation.

A graph is locally bipartite exactly when every vertex neighbourhood induces a
bipartite graph, equivalently when it contains no odd wheel (an odd rim cycle
plus a centre adjacent to the whole rim; W3 = K4).  Local bipartiteness, odd
wheels, edge-maximality, saturation, the missing-spoke audit and the test of
one new vertex or edge all read one table of the sides of the neighbourhoods
(``NeighbourhoodSides``), which 2-colours each distinct row once, on its first
read.  The table owns the rows it describes, which ``saturate`` edits before it
builds one ``Graph``.  Edge-maximality and the missing-spoke audit try one
vertex pair per pair of twin classes: their cost goes with the class count.
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
    return _odd_wheel(g, NeighbourhoodSides(g))


def _odd_wheel(g: Graph, sides: NeighbourhoodSides) -> OddWheelWitness | None:
    """``odd_wheel(g)``, read from g's table ``sides``."""
    centre = sides.odd_neighbourhood()
    if centre is None:
        return None
    witness = OddWheelWitness(centre, _shortest_odd_cycle(g.adj, g.adj[centre]))
    if not witness.validate(g):
        raise CertificateError(f"odd wheel witness {witness} does not validate")
    return witness


def is_locally_bipartite(g: Graph) -> bool:
    """Cheap decision (one BFS 2-colouring per distinct neighbourhood, no
    witness): the verdict depends on the neighbourhood row alone."""
    return NeighbourhoodSides(g).odd_neighbourhood() is None


def neighbourhood_is_bipartite(g: Graph, centre: int) -> bool:
    """2-colour G[adj(centre)] by BFS.  Nothing in the package calls it: it is
    kept for ``perfbench/tracing.py``, which times this layer by its name."""
    return _two_colouring(g.adj, g.adj[centre]) is not None


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


class NeighbourhoodSides(dict):
    """The sides of the neighbourhoods of a graph G, keyed by row: ``adj`` is the
    table's own list of G's rows, and ``sides[adj[w]]`` lists the two sides of
    each component of G[N(w)] with an edge, or is None if G[N(w)] is not
    bipartite.  A row is 2-coloured on its first read; twins share one entry."""

    __slots__ = ("adj",)

    def __init__(self, g: Graph):
        self.adj = list(g.adj)

    def __missing__(self, row: int) -> list[tuple[int, int]] | None:
        self[row] = sides = _two_colouring(self.adj, row)
        return sides

    def odd_neighbourhood(self) -> int | None:
        """The first vertex w of G with G[N(w)] not bipartite, or None."""
        for row in dict.fromkeys(self.adj):  # the distinct rows, by their first vertex
            if self[row] is None:
                return self.adj.index(row)
        return None

    def add_edge(self, u: int, v: int) -> None:
        """Add the non-edge uv to G.  An entry is the 2-colouring of G[R] for
        its row R, which uv changes only if R holds both u and v: those entries
        are dropped, and u's and v's new rows fill on their first read."""
        for row in [row for row in self if row >> u & row >> v & 1]:
            del self[row]
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u


def _closes_odd_cycle(components: list[tuple[int, int]], mask: int) -> bool:
    """Whether a new neighbour x of w, adjacent to ``mask``, makes G[N(w) + x]
    not bipartite, for ``components = sides[sides.adj[w]]``.

    G[N(w)] is bipartite, so every odd cycle of G[N(w) + x] passes through x.
    If x has neighbours y and z on the two sides of one component, a y-z path
    in it is odd and closes an odd cycle with x.  Otherwise each component's
    sides can be swapped until x's neighbours share a colour; x takes the other."""
    for a, b in components:
        if mask & a and mask & b:
            return True
    return False


def locally_bipartite_with_vertex(sides: NeighbourhoodSides, mask: int) -> bool:
    """Whether the table's locally bipartite graph G plus a new vertex x with
    neighbourhood G[mask], joining each N(w) for w in mask, is locally bipartite."""
    adj = sides.adj
    for w in bits(mask):
        if _closes_odd_cycle(sides[adj[w]], mask):
            return False
    return _two_colouring(adj, mask) is not None


def locally_bipartite_after_adding(sides: NeighbourhoodSides, u: int, v: int) -> bool:
    """Whether G + uv is still locally bipartite, for a non-edge uv of the
    table's graph G, which is locally bipartite.

    N(u) gains v, whose neighbours in it are the common neighbourhood C, and
    N(v) gains u likewise.  Each w in C gains the edge uv, which closes an odd
    cycle of G[N(w)] iff u and v lie on one side of one component.
    """
    adj = sides.adj
    common = adj[u] & adj[v]
    if _closes_odd_cycle(sides[adj[u]], common) or _closes_odd_cycle(sides[adj[v]], common):
        return False
    pair = 1 << u | 1 << v
    return all(pair not in (a & pair, b & pair) for w in bits(common) for a, b in sides[adj[w]])


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
    other maximal supergraphs.  The edges go into one sides table's own rows
    (``NeighbourhoodSides.add_edge``), which become the one graph built.
    """
    sides = NeighbourhoodSides(g)
    adj = sides.adj
    if sides.odd_neighbourhood() is not None:
        raise ValueError("saturate requires a locally bipartite input")
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not adj[u] >> v & 1 and locally_bipartite_after_adding(sides, u, v):
                sides.add_edge(u, v)
    return Graph._of_valid_rows(tuple(adj))


def is_edge_maximal_locally_bipartite(g: Graph) -> bool:
    """Whether g is locally bipartite and adding any non-edge breaks that.

    One non-edge is tried per unordered pair of twin classes
    (``graphs._twin_masks``), from the least member of one class: any
    permutation inside a twin class is an automorphism, and some such
    automorphism carries one non-edge of a class pair to any other, so they
    all give the same verdict.  The cost goes with the number of classes.

    The answer is False at the first tried non-edge uv that
    ``locally_bipartite_after_adding`` accepts with every neighbourhood it
    reads bipartite: if g is locally bipartite, so is g + uv; if not, the
    answer is False anyway.  So a non-edge with no common neighbour answers
    False with nothing read (u and v join each other's neighbourhood
    isolated), and so does an odd neighbourhood read on the way.  Only a graph
    with no addable non-edge is 2-coloured in full.
    """
    return _edge_maximal(NeighbourhoodSides(g))


def _edge_maximal(sides: NeighbourhoodSides) -> bool:
    """``is_edge_maximal_locally_bipartite`` of the table's graph, read from ``sides``."""
    adj = sides.adj
    classes = list(dict.fromkeys(_twin_masks(adj)))  # in order of least member
    for i, a in enumerate(classes):
        u = (a & -a).bit_length() - 1
        others = ~(adj[u] | 1 << u)  # u's non-neighbours
        for b in classes[i:]:
            missing = b & others
            if not missing:
                continue
            v = (missing & -missing).bit_length() - 1
            common = adj[u] & adj[v]
            if not common or any(sides[adj[w]] is None for w in (u, v, *bits(common))):
                return False
            if locally_bipartite_after_adding(sides, u, v):
                return False
    return sides.odd_neighbourhood() is None


def is_twin_free(g: Graph) -> bool:
    return len(set(g.adj)) == g.n


def sparse_missing_spoke(g: Graph) -> tuple[int, int] | None:
    """A sparse pair (u, v) such that uv is the missing spoke of an odd wheel,
    or None, for locally bipartite g; ValueError otherwise.

    The configuration is an odd cycle through v whose other vertices all lie
    in N(u).  A sparse pair is non-adjacent, so it is an odd cycle of
    G[N(u) + v] through v, whose neighbours there are N(u) & N(v).

    u and v run over the least member of each twin class, by least member, and
    the first pair found is the first over all vertices: swapping two twins is
    an automorphism, so the answering u's, and the answering v's of the first
    of them, are unions of twin classes.  Two twins never answer: closed twins
    are adjacent, and open twins share a row, so if sparse, their common
    neighbourhood N(u) is independent and closes no odd cycle.
    """
    sides = NeighbourhoodSides(g)
    if sides.odd_neighbourhood() is not None:
        raise ValueError("sparse_missing_spoke requires a locally bipartite input")
    firsts = [(a & -a).bit_length() - 1 for a in dict.fromkeys(_twin_masks(g.adj))]
    for u in firsts:
        for v in firsts:
            if u != v and classify_pair(g, u, v) is PairClass.SPARSE:
                if _closes_odd_cycle(sides[g.adj[u]], g.adj[u] & g.adj[v]):
                    return (u, v)
    return None
