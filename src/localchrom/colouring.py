"""Exact chromatic number, k-colourability certificates, independence number."""

from __future__ import annotations

import time

from .graphs import CertificateError, Graph, _classes_by_row, bits, complement


class SolverTimeout(Exception):
    """Raised when a cooperative deadline expires; never a wrong verdict."""


def greedy_clique(g: Graph) -> int:
    """A (not necessarily maximum) clique bitset, grown greedily by degree.

    Each step adds the candidate with the most candidate neighbours, the
    lowest index on ties.  Open twins have equal counts, so one candidate per
    open-twin class is scored, its lowest.
    """
    adj = g.adj
    best = 0
    grown = set()  # a twin of a grown start grows a clique of the same size
    classes = _classes_by_row(adj)
    twins = [classes[row] for row in adj]
    for start in sorted(range(g.n), key=lambda v: -g.degree(v)):
        if adj[start] in grown:
            continue
        grown.add(adj[start])
        clique = 1 << start
        candidates = adj[start]
        while candidates:
            top = -1
            rest = candidates
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= ~twins[u]
                score = (adj[u] & candidates).bit_count()
                if score > top:
                    top, v = score, u
            clique |= 1 << v
            candidates &= adj[v]
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
    classes = _classes_by_row(colours)
    return not any(row & classes[c] for row, c in zip(g.adj, colours))


def k_colourable(g: Graph, k: int, deadline: float | None = None) -> tuple[int, ...] | None:
    """A proper k-colouring (colours 1..k, first-occurrence normalised) or None.

    DSATUR-ordered backtracking on bitsets (Brélaz 1979; San Segundo 2012).
    A greedy clique is pre-coloured 1..q (any proper colouring can be renamed
    to agree, so this only breaks symmetry), and a branch offers at most one
    unused colour.  ``seen[c]`` holds the vertices with a neighbour coloured
    c; a vertex's saturation, the number of c with it in ``seen[c]``, is kept
    bit-sliced (its bit j is the vertex's bit in ``level[j]``), so colouring
    a vertex adds one to a whole set of counters by a ripple carry, and
    backtracking restores the ``seen[c]`` and ``level`` it overwrote.  The
    search keeps its branches on an explicit stack, so its depth is not
    bounded by the recursion limit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    if n == 0:
        return ()
    k = min(k, n)  # a branch offers at most colour used + 1 <= n
    clique = greedy_clique(g)
    if clique.bit_count() > k:
        return None
    colour = [0] * n
    seen = [0] * (k + 1)
    level = [0] * k.bit_length()  # a saturation is at most k
    uncoloured = (1 << n) - 1
    used = 0

    def assign(v: int, c: int) -> tuple[int, list[int]]:
        """Colour v with c; returns what it overwrites, ``(seen[c], level[:])``."""
        nonlocal uncoloured
        saved = seen[c], level[:]
        colour[v] = c
        uncoloured ^= 1 << v
        carry = g.adj[v] & ~seen[c]
        seen[c] |= carry
        j = 0
        while carry:
            old = level[j]
            level[j] = old ^ carry
            carry &= old
            j += 1
        return saved

    for i, v in enumerate(bits(clique)):
        assign(v, i + 1)
        used = max(used, i + 1)
    by_degree = _classes_by_row(g.degrees())
    degree_classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]

    # One frame per search vertex: [vertex, colour tried, top colour, used
    # colours before it, what assigning that colour overwrote].
    stack: list[list] = []
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout("k_colourable deadline expired")
        if not uncoloured:
            return normalise_colouring(colour)
        # the uncoloured vertex of largest (saturation, degree, -index)
        best = uncoloured
        for sliced in reversed(level):
            if best & sliced:
                best &= sliced
        for members in degree_classes:
            if best & members:
                best &= members
                break
        v = (best & -best).bit_length() - 1
        stack.append([v, 0, min(k, used + 1), used, None])
        # Give the top frame its next colour, popping the frames that have none.
        while stack:
            frame = stack[-1]
            v, c, top, used, saved = frame
            if c:
                colour[v] = 0
                uncoloured |= 1 << v
                seen[c], level[:] = saved
            c += 1
            while c <= top and seen[c] >> v & 1:
                c += 1
            if c <= top:
                frame[1], frame[4] = c, assign(v, c)
                used = max(used, c)
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


def _max_clique(g: Graph) -> tuple[int, int]:
    """(omega, witness bitset): a maximum clique, by branch and bound."""
    if g.n == 0:
        return 0, 0
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
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
                free &= ~(g.adj[low.bit_length() - 1] | low)
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
        current, size, candidates = current | (1 << v), size + 1, candidates & g.adj[v]
        if size > best:
            best, witness = size, current
        if candidates and size + bound(candidates) > best:
            stack.append([current, size, candidates, 0])
    return best, witness


def independence_number(g: Graph) -> tuple[int, int]:
    """(alpha, witness bitset): maximum independent set via cliques of the complement."""
    return _max_clique(complement(g))


def clique_number(g: Graph) -> int:
    return _max_clique(g)[0]
