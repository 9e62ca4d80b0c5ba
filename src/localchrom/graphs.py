"""Core graph types: bitset-adjacency simple graphs and exact-rational weightings.

Vertices are dense 0-indexed integers.  A vertex set is a plain int used as a
bitset (bit v set <=> vertex v in the set).  All rationals are
``fractions.Fraction``; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Collection, Iterable, Iterator, Sequence


class CertificateError(Exception):
    """A certificate or an internal invariant failed its re-check: a bug, never a verdict."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable finite simple undirected graph.

    ``adj[v]`` is the neighbour bitset of ``v``.  Invariants: adjacency is
    symmetric, irreflexive, and no bits at positions >= n are set.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def _of_valid_rows(cls, rows: tuple[int, ...]) -> "Graph":
        """The graph on adjacency rows that already meet the invariants: no checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "adj", rows)
        return g

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        """Validating constructor from adjacency rows: range, self-loops, symmetry.

        Symmetry is checked once per open-twin class C with row R: every u in
        R must see all of C, and u's own twins share u's row, so one u per
        class met by R settles them all.  The cost is O(k^2) row operations
        for k distinct rows (a blow-up pays for its classes, not its edges),
        and O(edges) at most.
        """
        rows = tuple(rows)
        n = len(rows)
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits beyond n-1")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        classes = _classes_by_row(rows)
        for row, members in classes.items():
            rest = row
            while rest:
                u = (rest & -rest).bit_length() - 1
                unseen = members & ~rows[u]
                if unseen:
                    v = (unseen & -unseen).bit_length() - 1
                    raise ValueError(f"asymmetric adjacency at ({v}, {u})")
                rest &= ~classes[rows[u]]
        return cls._of_valid_rows(rows)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbours(self, v: int) -> int:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        # from a list: tuple() of a generator builds by resizing, and the freed
        # results then pile up in CPython's per-size tuple free lists
        return tuple([row.bit_count() for row in self.adj])

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adj[u] >> v & 1:
                    yield (u, v)

    def with_edge(self, u: int, v: int) -> "Graph":
        """New graph with the edge uv added; only u and v are checked, as in ``with_vertex``."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._of_valid_rows(tuple(rows))

    def with_vertex(self, neighbour_mask: int = 0) -> "Graph":
        """New graph with vertex n appended, adjacent to ``neighbour_mask``.

        The parent's rows meet the invariants, and a mask inside 0..n-1 keeps
        them, so only the mask is checked.
        """
        if neighbour_mask >> self.n:
            raise ValueError("neighbour mask out of range")
        rows = [*self.adj, neighbour_mask]
        for v in bits(neighbour_mask):
            rows[v] |= 1 << self.n
        return Graph._of_valid_rows(tuple(rows))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Isomorphic copy with vertex v renamed perm[v]; each distinct row is mapped once."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    image = {row: mask_of(perm[u] for u in bits(row)) for row in set(g.adj)}
    rows = [0] * g.n
    for v, row in enumerate(g.adj):
        rows[perm[v]] = image[row]
    return Graph.from_rows(rows)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph.from_rows((full & ~row & ~(1 << v)) for v, row in enumerate(g.adj))


def cycle_power(k: int, j: int) -> Graph:
    """Graph on 0..k-1 with u ~ v iff circular distance(u, v) in {1..j}.

    j = 0 gives the empty graph; the result is 2j-regular.
    """
    if k < 3:
        raise ValueError("cycle_power requires k >= 3")
    if not 0 <= j or 2 * j >= k:
        raise ValueError("cycle_power requires 0 <= j < k/2")
    edges = []
    for d in range(1, j + 1):
        for v in range(k):
            edges.append((v, (v + d) % k))
    return Graph(k, edges)


def blow_up_classes(sizes: Iterable[int]) -> list[range]:
    """Vertex ranges of the blow-up classes: consecutive, in input vertex order."""
    out, offset = [], 0
    for s in sizes:
        if s < 1:
            raise ValueError("blow-up classes must be non-empty")
        out.append(range(offset, offset + s))
        offset += s
    return out


def blow_up(g: Graph, sizes: Iterable[int]) -> Graph:
    """Replace vertex v by an independent class of ``sizes[v]`` vertices.

    Classes occupy consecutive ranges (see :func:`blow_up_classes`); edges
    become complete bipartite graphs between classes.
    """
    sizes = list(sizes)
    if len(sizes) != g.n:
        raise ValueError("need one class size per vertex")
    classes = blow_up_classes(sizes)
    class_mask = [mask_of(c) for c in classes]
    rows = []
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= class_mask[u]
        rows.extend([row] * sizes[v])
    return Graph.from_rows(rows)


def _classes_by_row(rows: Iterable[int]) -> dict[int, int]:
    """Vertex bitset of each distinct row, keyed by the row, in order of first vertex.

    Grouping adjacency rows gives the open-twin classes (equal neighbourhoods);
    grouping ``adj[v] | 1 << v`` gives the closed-twin classes.  Any integer
    key per vertex works: ``colouring`` groups colours and degrees with it.
    """
    classes: dict[int, int] = {}
    for v, row in enumerate(rows):
        classes[row] = classes.get(row, 0) | 1 << v
    return classes


def _twin_masks(adj: tuple[int, ...]) -> list[int]:
    """Each vertex's twin class: the vertices with its open or its closed neighbourhood.

    A vertex has at most one non-trivial class of the two kinds, so the masks
    partition the vertices; swapping two members of a class is an automorphism.
    """
    open_classes = _classes_by_row(adj)
    closed_classes = _classes_by_row(row | 1 << v for v, row in enumerate(adj))
    return [open_classes[row] | closed_classes[row | 1 << v] for v, row in enumerate(adj)]


def find_twins(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs u < v with identical neighbourhoods.

    Twins are never adjacent: v in adj[u] = adj[v] would be a self-loop.
    """
    pairs = []
    for members in _classes_by_row(g.adj).values():
        pairs.extend(combinations(bits(members), 2))
    pairs.sort()
    return pairs


class WeightedGraph:
    """A graph with a nonnegative exact-rational weight per vertex (a compressed blow-up)."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph: Graph, weights: Iterable[Fraction | int]):
        weights = tuple([Fraction(w) for w in weights])
        if len(weights) != graph.n:
            raise ValueError("need one weight per vertex")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.graph == other.graph
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.graph.n}, total={self.total_weight()})"

    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def _weights_of(masks: Collection[int], weights: Sequence[Fraction | int]) -> list[Fraction]:
    """The exact total weight of each vertex bitset in ``masks``, summed as
    integers over the weights' least common denominator, once per distinct
    bitset (a blow-up's rows are as many as its classes): one Fraction per mask."""
    d = lcm(*{w.denominator for w in weights})
    scaled = [w.numerator * (d // w.denominator) for w in weights]
    total = {m: Fraction(sum(map(scaled.__getitem__, bits(m))), d) for m in set(masks)}
    return [total[m] for m in masks]


def weighted_degree(wg: WeightedGraph, v: int) -> Fraction:
    """Total weight of the neighbours of v."""
    return _weights_of([wg.graph.adj[v]], wg.weights)[0]


def min_weighted_degree(wg: WeightedGraph) -> Fraction:
    if wg.graph.n == 0:
        raise ValueError("empty graph has no minimum degree")
    return min(_weights_of(wg.graph.adj, wg.weights))


def common_neighbourhood(g: Graph, xs: int) -> int:
    """Intersection of the neighbour sets of the vertices in bitset ``xs``."""
    if xs == 0:
        raise ValueError("common neighbourhood of the empty set is undefined")
    if xs >> g.n:
        raise ValueError("vertex set has bits beyond n-1")
    result = (1 << g.n) - 1
    for v in bits(xs):
        result &= g.adj[v]
    return result


def merge_twins(wg: WeightedGraph) -> WeightedGraph:
    """Merge every twin class into a single vertex carrying the summed weight.

    One pass suffices: vertices with equal neighbourhoods keep equal
    neighbourhoods in the quotient, so no new twins can appear.  Keeps the
    smallest index of each class; surviving vertices keep their relative order.
    Total weight and every surviving weighted degree are preserved.
    """
    g = wg.graph
    classes = _classes_by_row(g.adj)
    if len(classes) == g.n:
        return wg
    index = {row: i for i, row in enumerate(classes)}
    rows = [mask_of(index[g.adj[u]] for u in bits(row)) for row in classes]
    return WeightedGraph(Graph.from_rows(rows), _weights_of(classes.values(), wg.weights))
