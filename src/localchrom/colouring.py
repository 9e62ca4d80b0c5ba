"""Exact chromatic number, k-colourability certificates, independence number."""

from __future__ import annotations

import time

from .graphs import CertificateError, Graph, bits, complement


class SolverTimeout(Exception):
    """Raised when a cooperative deadline expires; never a wrong verdict."""


def greedy_clique(g: Graph) -> int:
    """A (not necessarily maximum) clique bitset, grown greedily by degree."""
    best = 0
    grown = set()  # a twin of a grown start grows a clique of the same size
    for start in sorted(range(g.n), key=lambda v: -g.degree(v)):
        if g.adj[start] in grown:
            continue
        grown.add(g.adj[start])
        clique = 1 << start
        candidates = g.adj[start]
        while candidates:
            v = max(bits(candidates), key=lambda u: (g.adj[u] & candidates).bit_count())
            clique |= 1 << v
            candidates &= g.adj[v]
        if clique.bit_count() > best.bit_count():
            best = clique
    return best


def normalise_colouring(colours: list[int]) -> tuple[int, ...]:
    """Renumber colours by first occurrence so certificates are canonical."""
    seen: dict[int, int] = {}
    out = []
    for c in colours:
        if c not in seen:
            seen[c] = len(seen) + 1
        out.append(seen[c])
    return tuple(out)


def validate_colouring(g: Graph, colours: tuple[int, ...], k: int | None = None) -> bool:
    if len(colours) != g.n:
        return False
    if k is not None and any(not 1 <= c <= k for c in colours):
        return False
    return all(colours[u] != colours[v] for u, v in g.edges())


def k_colourable(g: Graph, k: int, deadline: float | None = None) -> tuple[int, ...] | None:
    """A proper k-colouring (colours 1..k, first-occurrence normalised) or None.

    DSATUR-ordered backtracking.  A greedy clique is pre-coloured 1..q (any
    proper colouring can be renamed to agree, so this only breaks symmetry),
    and a branch offers at most one unused colour.  The search keeps its
    branches on an explicit stack, so its depth is not bounded by the
    recursion limit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    if n == 0:
        return ()
    clique = greedy_clique(g)
    if clique.bit_count() > k:
        return None
    colour = [0] * n
    forbidden = [0] * n  # bitmask of colours 1..k seen in the neighbourhood
    used = 0

    def assign(v: int, c: int) -> list[int]:
        colour[v] = c
        touched = []
        for u in bits(g.adj[v]):
            if not colour[u] and not forbidden[u] >> c & 1:
                forbidden[u] |= 1 << c
                touched.append(u)
        return touched

    def undo(v: int, c: int, touched: list[int]) -> None:
        colour[v] = 0
        for u in touched:
            forbidden[u] &= ~(1 << c)

    for i, v in enumerate(bits(clique)):
        assign(v, i + 1)
        used = max(used, i + 1)
    remaining = n - clique.bit_count()
    degree = g.degrees()

    # One frame per search vertex: [vertex, colour tried, top colour, used
    # colours before it, neighbours whose forbidden set the colour touched].
    stack: list[list] = []
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout("k_colourable deadline expired")
        if remaining == 0:
            return normalise_colouring(colour)
        v = max(
            (u for u in range(n) if not colour[u]),
            key=lambda u: (forbidden[u].bit_count(), degree[u], -u),
        )
        stack.append([v, 0, min(k, used + 1), used, None])
        # Give the top frame its next colour, popping the frames that have none.
        while stack:
            frame = stack[-1]
            v, c, top, used, touched = frame
            if c:
                undo(v, c, touched)
                remaining += 1
            c += 1
            while c <= top and forbidden[v] >> c & 1:
                c += 1
            if c <= top:
                frame[1], frame[4] = c, assign(v, c)
                used = max(used, c)
                remaining -= 1
                break
            stack.pop()
        else:
            return None


def chromatic_number(g: Graph, deadline: float | None = None) -> tuple[int, tuple[int, ...]]:
    """Least k admitting a proper colouring, with a witness."""
    if g.n == 0:
        return 0, ()
    lower = greedy_clique(g).bit_count()
    for k in range(max(lower, 1), g.n + 1):
        witness = k_colourable(g, k, deadline)
        if witness is not None:
            return k, witness
    raise CertificateError("n colours always suffice")


def independence_number(g: Graph) -> tuple[int, int]:
    """(alpha, witness bitset): maximum independent set via cliques of the complement."""
    if g.n == 0:
        return 0, 0
    comp = complement(g)
    order = sorted(range(g.n), key=lambda v: -comp.degree(v))
    best, witness = 0, 0

    def bound(candidates: int) -> int:
        # class count of a first-fit colouring of the candidates in ascending
        # order, built one class at a time; it bounds the clique
        classes = 0
        while candidates:
            classes += 1
            free = candidates
            while free:
                low = free & -free
                candidates ^= low
                free &= ~(comp.adj[low.bit_length() - 1] | low)
        return classes

    # Branch and bound on an explicit stack, one frame per open node:
    # [clique, size, candidates, next position in order].
    stack = [[0, 0, (1 << g.n) - 1, 0]]
    while stack:
        frame = stack[-1]
        current, size, candidates, i = frame
        if i and size + candidates.bit_count() <= best:
            stack.pop()
            continue
        # candidates is not empty here and lies at positions >= i of order
        while not candidates >> order[i] & 1:
            i += 1
        v = order[i]
        candidates &= ~(1 << v)
        frame[2:] = candidates, i + 1
        current, size, candidates = current | (1 << v), size + 1, candidates & comp.adj[v]
        if size > best:
            best, witness = size, current
        if candidates and size + bound(candidates) > best:
            stack.append([current, size, candidates, 0])
    return best, witness


def clique_number(g: Graph) -> int:
    return independence_number(complement(g))[0]
