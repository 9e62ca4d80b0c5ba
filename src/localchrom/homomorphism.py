"""Exact decision procedures: homomorphism, (induced) subgraph, isomorphism.

One backtracker, ``_backtrack``, serves ``subgraph_embeddings`` and
``_first_map``, the first-map search of ``find_homomorphism`` and
``decompose``, one component at a time and in place: it walks the pattern
vertices it is given, in the order given.  Its flag ``injective`` keeps used
host vertices out and drops host vertices of too small a degree; its flag
``induced`` also keeps placed non-neighbours' images non-adjacent; its
``lists`` keep each pattern vertex's images inside its own list.  Pattern
vertices are processed in descending degree order (ties by index) and candidate
images in ascending index order, so failures and certificates are reproducible.
A first map searches one vertex per class of open twins with equal lists.
Host twins (equal open or equal closed neighbourhoods, as in a blow-up) are
interchangeable outside the partial image, so a dead end is explored once per
twin class rather than once per twin (the twin pruning of Ren & Wang, PVLDB
8(5), 2015); only empty subtrees are skipped, so every map and its position in
the order are unchanged.  ``brute_force_homomorphism`` is a separate oracle.
"""

from __future__ import annotations

from typing import Callable, Container, Iterator, Mapping, Sequence

from .graphs import CertificateError, Graph, _classes_by_row, _twin_masks, bits, mask_of


def is_homomorphism(g: Graph, h: Graph, mapping: tuple[int, ...]) -> bool:
    """Every edge of g must map to an edge of h (one scan, ``_broken_edge``)."""
    if len(mapping) != g.n or any(not 0 <= x < h.n for x in mapping):
        return False
    return _broken_edge(g, h, mapping) is None


def _broken_edge(g: Graph, target: Graph, hom: tuple[int, ...]) -> tuple[int, int] | None:
    """The first edge of g, in the order of ``g.edges()``, that ``hom`` does
    not map onto an edge of target: uv is kept iff v lies in the preimage
    ``allowed[hom[u]]`` of hom[u]'s neighbourhood (the preimages of distinct
    vertices are disjoint, so their sum is their union)."""
    preimage = [0] * target.n
    for v, t in enumerate(hom):
        preimage[t] |= 1 << v
    allowed = [sum(preimage[t] for t in bits(row)) for row in target.adj]
    for u in range(g.n):
        bad = g.adj[u] >> (u + 1) << (u + 1) & ~allowed[hom[u]]
        if bad:
            return (u, (bad & -bad).bit_length() - 1)
    return None


def compose(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[int, ...]:
    """Composite certificate: G -> H -> K from G -> H and H -> K."""
    return tuple([second[x] for x in first])


def _pattern_order(g: Graph, region: int | None = None) -> list[int]:
    """The vertices of g[region] (all of g by default) by descending degree
    inside the region, ties by index."""
    region = (1 << g.n) - 1 if region is None else region
    return sorted(bits(region), key=lambda v: (-(g.adj[v] & region).bit_count(), v))


def _backtrack(
    pattern: Graph,
    host: Graph,
    injective: bool,
    induced: bool,
    lists: Mapping[int, int] | Sequence[int] | None = None,
    order: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every map of pattern[order] into host preserving edges, in a fixed
    order, each as a tuple over V(pattern) with -1 off ``order``: the first
    one for ``_first_map``, all injective ones for ``subgraph_embeddings``.

    The vertices of ``order`` (``_pattern_order(pattern)`` by default) are
    placed in that order and each one's images are tried in ascending index,
    so the maps come out in lexicographic order of their images along it.
    The candidate bitset of a pattern vertex is the intersection of its base
    mask and its placed neighbours' host neighbourhoods; ``induced`` also
    removes the neighbourhoods of placed non-neighbours, and ``injective``
    also removes used host vertices.  The base mask is the whole host, cut
    down to the host vertices of at least the pattern vertex's degree in
    pattern[order] when ``injective``, and to ``lists[v]`` (one host bitset
    per pattern vertex v: a list homomorphism) when given.  The search keeps
    one untried-candidate bitset per depth on an explicit stack, so its depth
    is not bounded by the recursion limit.

    Twin pruning.  Host vertices x and y are twins when they have the same
    open or the same closed neighbourhood (a vertex has at most one
    non-trivial class of the two kinds) and lie in the same base masks, so
    the transposition (x y) is a host automorphism that fixes every base
    mask; with the whole host or degree masks, twins always lie in the same
    ones.  When x's subtree at depth i is exhausted without yielding a map,
    and x lies outside the partial image of depths < i, the twins of x
    outside that image are dropped from the untried candidates of depth i:
    (x y) fixes the partial map and carries every map below y (edges,
    non-edges, injectivity and base masks alike) to one below x, so y's
    subtree is empty too.  Only empty subtrees are skipped, so the maps and
    their order are those of the unpruned search.  The twin masks are built
    at the first such subtree, so a search that never backtracks, such as
    one of a lone vertex, does without them.
    """
    if order is None:
        order = _pattern_order(pattern)
    n = len(order)
    image = [-1] * pattern.n
    if n == 0:
        yield tuple(image)
        return
    adj = host.adj
    earlier_nbr: list[list[int]] = []
    earlier_non: list[list[int]] = []
    placed = 0
    for v in order:
        earlier_nbr.append(list(bits(pattern.adj[v] & placed)))
        earlier_non.append(list(bits(placed & ~pattern.adj[v])) if induced else [])
        placed |= 1 << v
    base = [(1 << host.n) - 1] * n
    if injective:
        host_deg = host.degrees()
        degree = [(pattern.adj[v] & placed).bit_count() for v in order]
        at_least = {d: mask_of(x for x in range(host.n) if host_deg[x] >= d) for d in set(degree)}
        base = [at_least[d] for d in degree]
    if lists is not None:
        base = [b & lists[v] for b, v in zip(base, order)]
    twins: list[int] | None = None
    used = [0] * n  # used[i]: the partial image, host vertices taken by depths < i
    untried = [0] * n
    mark = [0] * n  # mark[i]: maps yielded before depth i's current image was placed
    yielded = 0
    last = n - 1
    i = 0
    untried[0] = base[0]
    while i >= 0:
        candidates = untried[i]
        if not candidates:
            i -= 1
            if i >= 0 and yielded == mark[i]:
                x = image[order[i]]
                if not used[i] >> x & 1:
                    if twins is None:
                        twins = _twin_masks(adj)
                        for m in set(base):
                            twins = [t & (m if m >> y & 1 else ~m) for y, t in enumerate(twins)]
                    untried[i] &= ~twins[x] | used[i]
            continue
        low = candidates & -candidates
        untried[i] = candidates ^ low
        image[order[i]] = low.bit_length() - 1
        if i == last:
            yielded += 1
            yield tuple(image)
            continue
        mark[i] = yielded
        i += 1
        used[i] = used[i - 1] | low
        candidates = base[i]
        if injective:
            candidates &= ~used[i]
        for u in earlier_nbr[i]:
            candidates &= adj[image[u]]
        for u in earlier_non[i]:
            candidates &= ~adj[image[u]]
        untried[i] = candidates


def _components(g: Graph, region: int) -> Iterator[int]:
    """The components of g[region] as vertex bitsets, by least vertex."""
    while region:
        component = frontier = region & -region
        while frontier and component != region:  # stop once no vertex is left out
            v = frontier.bit_length() - 1
            new = g.adj[v] & region & ~component
            component, frontier = component | new, frontier ^ 1 << v | new
        region ^= component
        yield component


def _first_map(
    g: Graph, host: Graph, region: int, lists: Mapping[int, int] | None = None
) -> tuple[int, ...] | None:
    """The first map of g[region] into host in ``_backtrack``'s order along
    ``_pattern_order(g, region)`` (-1 off region), or None; v's images lie in
    ``lists[v]``.  That order restricted to a component C is
    ``_pattern_order(g, C)``, and a product's first map is that of its
    factors, so each C is searched alone, not under others' maps.

    Only the first member of each class of open twins with equal lists is
    searched, and the others take its image.  In the first map two such
    twins have equal images: moving either image onto the other keeps a
    homomorphism and the lists, so by minimality each is at most the other.
    As a class's first member precedes the others, a smaller map of the
    quotient would lift to a smaller map of C.  This holds for first maps only.
    """
    image = [-1] * g.n
    for part in _components(g, region):
        classes: dict[tuple[int, int | None], list[int]] = {}
        for v in _pattern_order(g, part):
            classes.setdefault((g.adj[v] & part, None if lists is None else lists[v]), []).append(v)
        found = next(_backtrack(g, host, False, False, lists, [c[0] for c in classes.values()]), None)
        if found is None:
            return None
        for members in classes.values():
            for v in members:
                image[v] = found[members[0]]
    return tuple(image)


def find_homomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """The first map V(g) -> V(h) preserving edges, or None (see ``_first_map``)."""
    return _first_map(g, h, (1 << g.n) - 1)


def brute_force_homomorphism(g: Graph, h: Graph) -> bool:
    """Exhaustive decision over all |h|^|g| maps in index order.

    Organised as a prefix walk: a partial assignment is abandoned exactly when
    it already violates an edge, which discards precisely the total maps
    extending it.  No ordering heuristics, no degree reasoning: this is the
    independent cross-check for the backtracking solver.  The walk keeps each
    vertex's current candidate in a list rather than on the call stack, so its
    depth is not bounded by the recursion limit.
    """
    if g.n == 0:
        return True
    earlier = [list(bits(g.adj[v] & ((1 << v) - 1))) for v in range(g.n)]
    image = [-1] * g.n  # image[v]: the candidate v is at; v's prefix is image[:v]
    v = 0
    while v >= 0:
        image[v] += 1
        x = image[v]
        if x == h.n:
            image[v] = -1
            v -= 1
        elif all(h.has_edge(x, image[u]) for u in earlier[v]):
            if v == g.n - 1:
                return True
            v += 1
    return False


def subgraph_embeddings(pattern: Graph, host: Graph, induced: bool) -> Iterator[tuple[int, ...]]:
    """All injective maps preserving edges (and non-edges when induced).  Two or
    more components with an edge must each embed on their own first: a map's
    restriction to one is its embedding, so no map is lost, and a component
    that embeds nowhere is not retried under every placement of the others."""
    if pattern.n > host.n:
        return
    orders = [_pattern_order(pattern, p) for p in _components(pattern, (1 << pattern.n) - 1) if p & (p - 1)]
    if len(orders) < 2 or all(next(_backtrack(pattern, host, True, induced, None, o), None) for o in orders):
        yield from _backtrack(pattern, host, injective=True, induced=induced)


def find_subgraph(pattern: Graph, host: Graph, induced: bool = False) -> tuple[int, ...] | None:
    return next(subgraph_embeddings(pattern, host, induced), None)


# ---------------------------------------------------------------------------
# Canonical labelling by iterated refinement plus individualization.


def _refine(g: Graph, cells: list[int], fresh: list[int] | None = None) -> list[int]:
    """1-dimensional colour refinement of an ordered partition to a fixpoint.

    A partition is a list of cells (vertex bitsets); positions are colours.
    Each round splits every non-singleton cell by its vertices' count vectors
    ``(row & other).bit_count()`` over the previous partition's cells, in
    order, into groups of descending count vector, until a round splits no
    cell.  With one degree per cell (as in any partition as fine as the
    degree partition) this ranks (colour, sorted neighbour-colour multiset):
    of two sorted multisets of one length whose count vectors first differ at
    colour c, the one with more copies of c has a c where the other has a
    larger colour, so descending count vectors are ascending multisets.

    Only the counts against ``fresh`` cells are taken: in the first round
    those given (every input cell by default), then every piece but the last
    of each cell that the previous round split, in partition order (B. D.
    McKay and A. Piperno, "Practical graph isomorphism, II", J. Symbolic
    Comput. 60, 2014).  The vertices of a cell X have equal counts against
    every cell C of the previous partition, since that is how X was split from
    it, so their count against C's last piece is that against C less those
    against its other pieces: the count vectors over every cell and over the
    fresh cells rank X's vertices alike, and the cells and their order are
    those of the full count.  After individualising v in an equitable
    partition, ``fresh = [1 << v]`` suffices: a vertex's count against its old
    cell C minus v is its count against C, less its adjacency to v.

    The counts are bit-sliced: bit j of the counts against a fresh cell F is
    one vertex bitset, F's slice j, built by adding each member's row of F to
    every counter at once with a ripple carry (bits 0 and 1 unrolled), exact
    for any size of F.  A cell is then split by the slices in the order of
    the count vector, each fresh cell's most significant slice first, every
    piece into its members in the slice before the others.  Two vertices go
    apart at the first slice where their bits differ, and the one with that
    bit set, whose count vector is the larger, goes first: the pieces come
    out in descending count vector, as sorting them would give.
    """
    adj = g.adj
    if fresh is None:
        fresh = cells
    while fresh:
        slices: list[int] = []  # the count bits of every fresh cell, in splitting order
        for other in fresh:
            if not other & (other - 1):
                slices.append(adj[other.bit_length() - 1])
                continue
            low = mid = 0  # count bits 0 and 1
            high: list[int] = []  # count bits 2, 3, ...
            while other:
                bit = other & -other
                other ^= bit
                row = adj[bit.bit_length() - 1]
                carry = low & row
                low ^= row
                if carry:
                    carry, mid = mid & carry, mid ^ carry
                    j = 0
                    while carry:
                        if j == len(high):
                            high.append(carry)
                            break
                        carry, high[j] = high[j] & carry, high[j] ^ carry
                        j += 1
            slices += reversed(high)
            slices += mid, low
        new: list[int] = []
        created: list[int] = []
        for cell in cells:
            if cell & (cell - 1):
                pieces = None
                for s in slices:
                    inside = cell & s
                    if not inside or inside == cell:
                        continue  # s splits no piece of the cell
                    if pieces is None:
                        pieces = [inside, cell ^ inside]
                        continue
                    split = []
                    for piece in pieces:
                        inside = piece & s
                        if inside and inside != piece:
                            split += inside, piece ^ inside
                        else:
                            split.append(piece)
                    pieces = split
                if pieces:
                    new += pieces
                    created += pieces[:-1]
                    continue
            new.append(cell)
        cells, fresh = new, created
    return cells


def _encode(g: Graph, order: list[int]) -> int:
    """Adjacency bits of g relabelled by ``order``, column-major, MSB first.

    Bit (i, j) with i < j records order[i] ~ order[j]; columns are emitted in
    increasing j, so the first C(k, 2) bits depend only on order[:k] and
    integer comparison is lexicographic on orderings.
    """
    code = 0
    placed: list[int] = []
    for v in order:
        row = g.adj[v]
        for u in placed:
            code = code << 1 | (row >> u & 1)
        placed.append(v)
    return code


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, minimal adjacency encoding) over the refinement search tree.

    Individualization-refinement: branch on the first non-singleton colour
    class, prune a branch when the encoding of its forced prefix already
    exceeds the best complete encoding.  Refinement keys and the cell choice
    are isomorphism-invariant, so the set of leaf encodings (hence its
    minimum) is a complete invariant: equal forms iff isomorphic graphs.

    Twins share a cell until one of them is individualised, and swapping two
    is an automorphism fixing the node, so their subtrees have the same leaf
    encodings: a node individualises one vertex per twin class of its target
    cell.  The search runs on an explicit stack, not bounded by recursion.

    The cells are those of ranking (colour, sorted neighbour-colour multiset)
    from the unit colouring (see ``_refine``): the root's degree partition is
    its first round, as the multisets (0,) * degree sort by length, and
    individualising v puts {v} in front of its cellmates, as colouring v 2c
    and the others of each colour c 2c + 1 does.

    Two leaves of minimal encoding differ by an automorphism (B. D. McKay,
    "Practical graph isomorphism", 1981).  Those found and the twin
    transpositions generate Aut(g): Aut(g) acts regularly on the minimal
    leaves of the unpruned tree, the strict prefix prune cuts none of them,
    and a leaf the twin rule skips is a twin-swapped image of a visited one.
    """
    return (g.n, _canonical_search(g)[0])


def _canonical_search(
    g: Graph,
    root: list[int] | None = None,
    twin_masks: Callable[[], list[int]] | None = None,
    known: Container[int] = (),
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``canonical_form``'s encoding, and the map first[i] -> order[i] from the
    first leaf ``first`` of minimal encoding to each later one ``order``.

    ``root`` is g's degree partition in ascending degree and ``twin_masks()``
    is ``_twin_masks(g.adj)``; both are computed from g unless given, and the
    twin masks only at the first node that branches.  The root is refined
    against every cell but its last, as a split cell is (see ``_refine``): a
    vertex's count against V(g), its degree, is equal across its cell.

    ``known`` holds canonical encodings of graphs on n vertices; the search
    returns at the first leaf whose encoding is in it, with no maps.  A leaf's
    encoding is g relabelled, so it is the canonical encoding of H only for H
    isomorphic to g, and then it is g's own; a g isomorphic to none of them
    meets no such leaf and is searched in full.

    A node whose target cell lies inside one twin class individualises one
    vertex v of it and skips refining the child: the child is equitable.
    Every vertex w outside the cell sees v as it sees every other member (they
    share v's open or closed neighbourhood), so w is adjacent to v iff its
    count against the cell is the cell's size, equal across w's own cell; the
    members other than v are all adjacent to v (closed twins) or none is (open
    twins); and each count against the cell minus v is the count against the
    cell, less an adjacency to v that the cell's vertices share.
    """
    n = g.n
    total_bits = n * (n - 1) // 2
    twins: list[int] | None = None
    best: int | None = None
    first: list[int] = []
    autos: list[tuple[int, ...]] = []
    if root is None:
        by_degree = _classes_by_row(g.degrees())
        root = [by_degree[d] for d in sorted(by_degree)]
    stack = [(root, root[:-1])]  # (cells, fresh)
    while stack:
        cells = _refine(g, *stack.pop())
        # order: the singleton cells in front of the first larger cell, cells[k],
        # built only where it is read: at a leaf, and by the prefix prune
        k = n if len(cells) == n else next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        if k == n or best is not None and k > 1:
            order = [cell.bit_length() - 1 for cell in cells[:k]]
            code = _encode(g, order)
            if k == n:
                if code in known:
                    return code, ()
                if best is None or code < best:
                    best, first, autos = code, order, []
                elif code == best:
                    autos.append(tuple([v for _, v in sorted(zip(first, order))]))
                continue
            if code > best >> (total_bits - k * (k - 1) // 2):
                continue
        if twins is None:
            twins = _twin_masks(g.adj) if twin_masks is None else twin_masks()
        rest = cells[k]
        while rest:  # individualise one vertex per twin class, in descending index
            v = rest.bit_length() - 1
            fresh = [1 << v] if cells[k] & ~twins[v] else []  # one twin class: already equitable
            rest &= ~twins[v]
            stack.append((cells[:k] + [1 << v, cells[k] ^ 1 << v] + cells[k + 1 :], fresh))
    if best is None:
        raise CertificateError("canonical_form reached no leaf")
    return best, tuple(autos)  # a search level keeps one per graph; () is shared


def _automorphism_generators(g: Graph, autos: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Permutations v -> p[v] that generate Aut(g) (see ``canonical_form``): ``autos``,
    as ``_canonical_search(g)`` recorded them, and each twin class's least member's swaps."""
    gens = list(autos)
    for cls in dict.fromkeys(_twin_masks(g.adj)):
        low, *rest = bits(cls)
        for v in rest:
            p = list(range(g.n))
            p[low], p[v] = v, low
            gens.append(tuple(p))
    return gens


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g) == canonical_form(h)
