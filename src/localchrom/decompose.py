"""Constructive decomposition around an embedded C7-complement or H2+ copy.

Given a locally bipartite graph with min degree above 6/11 of its order, the
vertices with four neighbours in the anchor copy split into common
neighbourhoods D_i, and D_i collapses onto anchor vertex i.  Every other
vertex (the set R) gets a list: the classes i whose D-neighbourhood allows it,
or the special class R502 alone in the H2+ case.  A collapse of each
T_i = D_i u R_i onto i is then exactly a list homomorphism of G onto the
target (Hell & Nesetril, *Graphs and Homomorphisms*, 2004; Feder, Hell &
Huang, *Combinatorica* 19, 1999).  The edges inside D are checked before the
lists are drawn up and the edges between D and R are kept by the lists, so
a search of G[R] onto the target decides: ``homomorphism._first_map``, the
first-map search behind ``find_homomorphism``, run with the lists, searches
each component of G[R] on its own and finds the first list homomorphism or
shows that there is none.  The targets are C7BAR, or H2PLUS and then its
augmentation H2PLUS_AUG, whose four extra edges are the tolerated class
pairs; S counts the edges on tolerated pairs.  The hypotheses guarantee a
list homomorphism with S = 0.  Each target carries a fixed 4-colouring.

Both cases run one class builder, driven by the seven-vertex anchor pattern
(C7BAR, or the H2 part of H2+): D_i is the common neighbourhood of the anchor
images of the pattern neighbours of i, and T_i may meet only the D_j of those
neighbours.  The H2+ case adds R502 and the tolerated pairs on top.  The
first anchor found decides: one certificate is built around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import families
from .colouring import k_colourable, validate_colouring
from .graphs import CertificateError, Graph, bits, common_neighbourhood, mask_of
from .homomorphism import _broken_edge, _first_map, find_subgraph
from .structure import is_locally_bipartite, sparse_missing_spoke

DEGREE_THRESHOLD = Fraction(6, 11)

# Class labels: 0..6 for T_i, 7 for R502 (mirrors the centre's index in H2PLUS).
R502 = 7

_C7BAR = families.c7bar()
_H2PLUS = families.h2plus()
_H2PLUS_AUG = families.h2plus_augmented()

# The class pairs {i, i+3}: the non-edges of C7BAR, which H2 shares.
_OPPOSITE = tuple((i, (i + 3) % 7) for i in range(7))


@dataclass(frozen=True)
class DecompositionCertificate:
    kind: str  # "C7BAR" or "H2PLUS"
    outcome: str  # "HOM_C7BAR" | "HOM_H2PLUS" | "HOM_AUGMENTED" | "FAILED"
    reason: str | None = None
    anchor: tuple[int, ...] | None = None
    parts: dict[str, tuple[int, ...]] | None = None
    s_value: int | None = None
    target: str | None = None
    hom: tuple[int, ...] | None = None
    colouring: tuple[int, ...] | None = None
    failed_upgrades: tuple[str, ...] = ()
    audit: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome != "FAILED"


def _failed(kind: str, reason: str, **kw) -> DecompositionCertificate:
    return DecompositionCertificate(kind=kind, outcome="FAILED", reason=reason, **kw)


class _Reject(Exception):
    """A failed check of the class builder; its message is the certificate's reason."""


def _degree_ok(g: Graph) -> bool:
    return g.n > 0 and Fraction(g.min_degree()) > DEGREE_THRESHOLD * g.n


def _spot_check_sparse_spokes(g: Graph) -> str | None:
    """Forbidden-configuration audit on H0-free inputs (vacuous otherwise)."""
    if find_subgraph(families.h0(), g) is not None:
        return None
    bad = sparse_missing_spoke(g)
    if bad is not None:
        return f"sparse pair {bad} is the missing spoke of an odd wheel"
    return None


def _edge_between(g: Graph, a: int, b: int) -> tuple[int, int] | None:
    """The first edge from a to b, by its end in a; with a = b, an edge inside a."""
    for v in bits(a):
        row = g.adj[v] & b
        if row:
            return (v, (row & -row).bit_length() - 1)
    return None


def _union(masks: list[int], indices) -> int:
    out = 0
    for i in indices:
        out |= masks[i]
    return out


# ---------------------------------------------------------------------------
# The class builder, driven by the anchor pattern.


@dataclass(frozen=True)
class _Case:
    """The data that sets the C7BAR and H2+ cases apart.

    ``star_name`` and ``outside_name`` name, in reasons and in the size
    audit, the union of the D_i of the degree-4 pattern vertices and the
    vertices outside it.
    A vertex that meets every D_i with i in ``hub`` goes to the class R502.
    ``targets`` are (outcome, target name, target graph, its 4-colouring),
    tried in order: the first that G[R] has a list homomorphism onto decides.
    ``tolerated`` names the pairs of R-class unions that the last target
    joins and the first does not; S counts the edges between them.
    """

    kind: str
    pattern: Graph
    star_name: str
    outside_name: str
    hub: tuple[int, ...]
    targets: tuple[tuple[str, str, Graph, tuple[int, ...]], ...]
    tolerated: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]


def _classes(g: Graph, anchor: tuple[int, ...], case: _Case, audit: dict[str, str]):
    """The steps both cases share, from the D_i to the lists of the R-vertices.

    Returns the D_i bitsets and a dict from each vertex outside every D_i, in
    increasing order, to its list: the bitset of the labels i whose pattern
    neighbours' D_j hold all its D-neighbours, or of R502 alone.  Raises
    _Reject at the first check that fails.

    Two conditions need no check of their own: the D_i are disjoint, and a
    vertex of H2's D_1 or D_6 has exactly three anchor neighbours.  Any two
    pattern neighbourhoods of C7BAR or H2 cover five vertices, so a vertex
    in two D_i has five anchor neighbours, and a vertex of D_1 or D_6 with a
    fourth anchor neighbour has four that hold no other pattern
    neighbourhood, so it is a four-neighbour vertex outside the D_i of the
    degree-4 vertices: the first two checks reject both.
    """
    n = g.n
    pattern = case.pattern
    anchor_mask = mask_of(anchor)
    counts = [(g.adj[x] & anchor_mask).bit_count() for x in range(n)]
    if any(c >= 5 for c in counts):
        raise _Reject("a vertex has five neighbours in the anchor copy")

    d_sets = [
        common_neighbourhood(g, mask_of(anchor[j] for j in bits(pattern.adj[i])))
        for i in range(7)
    ]
    d_mask = _union(d_sets, range(7))
    star = _union(d_sets, (i for i in range(7) if pattern.degree(i) == 4))
    if mask_of(x for x in range(n) if counts[x] == 4) != star:
        raise _Reject(f"four-neighbour vertices do not match the {case.star_name} pattern")

    # No check needed: the anchor degrees sum to the counts (4 on the star, at
    # most 3 off it), so 7 delta <= 4|G| - |outside| always holds.
    outside = ((1 << n) - 1) & ~star
    bound = 4 * n - 7 * g.min_degree()
    audit["R-size"] = f"|{case.outside_name}|={outside.bit_count()} <= 4|G|-7delta={bound}"

    # G[D] must collapse onto the pattern: no edge inside any D_i or between
    # the D_i and D_j of a pattern non-edge ij (H2's D_1-D_6 edge is a C7BAR).
    for i, j in _OPPOSITE:
        bad = _edge_between(g, d_sets[i] | d_sets[j], d_sets[i] | d_sets[j])
        if bad is not None:
            raise _Reject(f"edge {bad} inside D_{i} u D_{j}")
    for i, j in pattern.non_edges():
        if (i, j) not in _OPPOSITE and (j, i) not in _OPPOSITE:
            bad = _edge_between(g, d_sets[i], d_sets[j])
            if bad is not None:
                raise _Reject(f"edge {bad} between D_{i} and D_{j}")

    allowed = [_union(d_sets, bits(pattern.adj[i])) for i in range(7)]
    hub = _union(d_sets, case.hub)
    lists: dict[int, int] = {}
    for r in bits(((1 << n) - 1) & ~d_mask):
        dn = g.adj[r] & d_mask
        if case.hub and all(dn & d_sets[i] for i in case.hub):
            if dn & ~hub:
                names = ", ".join(f"D_{i}" for i in case.hub)
                raise _Reject(f"vertex {r} meets {names} and more")
            lists[r] = 1 << R502
            continue
        lists[r] = mask_of(i for i in range(7) if dn & ~allowed[i] == 0)
        if not lists[r]:
            raise _Reject(f"vertex {r} has no admissible class")
    return d_sets, lists


def _build(g: Graph, anchor: tuple[int, ...], case: _Case) -> DecompositionCertificate:
    """One anchor's certificate: the lists, one list-homomorphism search of G[R]
    per target, then the map and its colouring, re-checked edge by edge on g."""
    audit: dict[str, str] = {}
    try:
        d_sets, lists = _classes(g, anchor, case, audit)
    except _Reject as exc:
        return _failed(case.kind, str(exc), anchor=anchor, audit=audit)
    for outcome, name, target, palette in case.targets:
        image = _first_map(g, target, mask_of(lists), lists)
        if image is not None:
            break
    else:
        reason = f"no list homomorphism of G[R] onto {name}"
        return _failed(case.kind, reason, anchor=anchor, audit=audit)

    label = [*image]
    for i in range(7):
        for x in bits(d_sets[i]):
            label[x] = i
    r_masks = [0] * target.n
    for r in lists:
        r_masks[image[r]] |= 1 << r
    hom = tuple(label)
    bad = _broken_edge(g, target, hom)
    if bad is not None:
        raise CertificateError(f"the {name} map breaks the edge {bad}")
    colouring = tuple([palette[c] for c in hom])
    if not validate_colouring(g, colouring, 4):
        raise CertificateError(f"the {name} colouring is not a proper 4-colouring")

    # tuples from lists, as in Graph.degrees
    parts = {f"D{i}": tuple([*bits(d_sets[i])]) for i in range(7)}
    for c in range(R502 + 1 if case.hub else 7):
        parts["R502" if c == R502 else f"R{c}"] = tuple([*bits(r_masks[c])])
    parts["D"] = tuple([*bits(_union(d_sets, range(7)))])
    parts["R"] = tuple(lists)
    tolerated = [
        (pair, sum((g.adj[u] & _union(r_masks, b)).bit_count() for u in bits(_union(r_masks, a))))
        for pair, a, b in case.tolerated
    ]
    return DecompositionCertificate(
        kind=case.kind,
        outcome=outcome,
        anchor=anchor,
        parts=parts,
        s_value=sum(count for _, count in tolerated),
        target=name,
        hom=hom,
        colouring=colouring,
        failed_upgrades=tuple([pair for pair, count in tolerated if count]),
        audit=audit,
    )


_C7BAR_CASE = _Case(
    kind="C7BAR",
    pattern=_C7BAR,
    star_name="D_i",
    outside_name="R",
    hub=(),
    targets=(("HOM_C7BAR", "C7BAR", _C7BAR, families.C7BAR_COLOURING),),
    tolerated=(),
)
_H2PLUS_CASE = _Case(
    kind="H2PLUS",
    pattern=families.h2(),
    star_name="D*",
    outside_name="R u D1 u D6",
    hub=(5, 0, 2),  # the H2+ centre's neighbours, in the order reasons name them
    targets=(
        ("HOM_H2PLUS", "H2PLUS", _H2PLUS, families.H2PLUS_COLOURING),
        ("HOM_AUGMENTED", "H2PLUS_AUG", _H2PLUS_AUG, families.AUGMENTED_FIGURE_COLOURING),
    ),
    # the edges of H2PLUS_AUG that H2PLUS lacks: 1-5, 2-6, and the centre to 3 and 4
    tolerated=(
        ("e(R1,R5)=0", (1,), (5,)),
        ("e(R2,R6)=0", (2,), (6,)),
        ("e(R3uR4,R502)=0", (3, 4), (R502,)),
    ),
)


# ---------------------------------------------------------------------------
# Public entry points: input checks, then one anchor.


def _decompose(g: Graph, c7bar_copy: tuple[int, ...] | None) -> DecompositionCertificate:
    """The certificate of a locally bipartite g of degree above 6/11.

    ``c7bar_copy`` is the first C7BAR embedding of g, from ``find_subgraph``;
    None means g has no C7BAR copy, and the anchor is the H2 part of the
    first H2+ embedding.  The first anchor decides: one certificate is built,
    and a rejection names that anchor.  Without an anchor, the audit of
    sparse missing spokes chooses the reason.  It is vacuous on a graph with
    an anchor: H0 is a subgraph of H2, H2 of C7BAR, and H2 is H2+ on 0..6.
    """
    if c7bar_copy is not None:
        return _build(g, c7bar_copy, _C7BAR_CASE)
    copy = find_subgraph(_H2PLUS, g)
    if copy is not None:
        return _build(g, copy[:7], _H2PLUS_CASE)
    spot = _spot_check_sparse_spokes(g)
    if spot is not None:
        return _failed("H2PLUS", f"forbidden configuration: {spot}")
    return _failed("H2PLUS", "no H2PLUS copy")


def decompose_c7bar(g: Graph) -> DecompositionCertificate:
    """Homomorphism to the C7 complement for locally bipartite g with
    delta(g) > 6/11 |g| containing a copy of it."""
    kind = "C7BAR"
    if not is_locally_bipartite(g):
        return _failed(kind, "not locally bipartite")
    copy = find_subgraph(_C7BAR, g)
    if copy is None:
        return _failed(kind, "no C7BAR copy")
    if not _degree_ok(g):
        return _failed(kind, "degree too low")
    return _decompose(g, copy)


def decompose_h2plus(g: Graph) -> DecompositionCertificate:
    """Homomorphism to H2+ (or its 4-colourable augmentation) for locally
    bipartite g with delta(g) > 6/11 |g| containing H2+ but no C7 complement."""
    kind = "H2PLUS"
    if not is_locally_bipartite(g):
        return _failed(kind, "not locally bipartite")
    if not _degree_ok(g):
        return _failed(kind, "degree too low")
    if find_subgraph(_C7BAR, g) is not None:
        return _failed(kind, "contains C7BAR copy; use decompose_c7bar")
    return _decompose(g, None)


def decompose_auto(g: Graph) -> DecompositionCertificate:
    """Route to the C7BAR case when a copy is present, else to the H2+ case."""
    if not is_locally_bipartite(g):
        return _failed("H2PLUS", "not locally bipartite")
    copy = find_subgraph(_C7BAR, g)
    if not _degree_ok(g):
        return _failed("H2PLUS" if copy is None else "C7BAR", "degree too low")
    return _decompose(g, copy)


# ---------------------------------------------------------------------------
# End-to-end theorem pipeline.


@dataclass(frozen=True)
class ProfileReport:
    n: int
    min_degree: int
    ratio: Fraction
    regime: str  # "above-4/7" | "above-6/11" | "outside"
    outcome: str
    colouring: tuple[int, ...] | None
    hom_target: str | None
    hom: tuple[int, ...] | None
    hard_failure: bool
    detail: str


def verify_profile(g: Graph) -> ProfileReport:
    """Drive the theorem's promises on one graph and demand the certificates.

    Above 4/7: a 3-colouring must exist.  Above 6/11: a 3-colouring, a
    C7BAR-homomorphism, or an H2+/augmented homomorphism (hence a
    4-colouring) must exist.  A promise that cannot be met is a hard failure
    (a bug or a counterexample).  At or below 6/11 the graph is outside the
    theorem range; a 4-colouring is still attempted opportunistically.
    """
    if not is_locally_bipartite(g):
        raise ValueError("verify_profile requires a locally bipartite graph")
    if g.n == 0:
        raise ValueError("empty graph")
    delta = g.min_degree()
    ratio = Fraction(delta, g.n)
    if ratio > Fraction(4, 7):
        regime = "above-4/7"
    elif ratio > DEGREE_THRESHOLD:
        regime = "above-6/11"
    else:
        regime = "outside"

    def report(outcome, detail, colouring=None, target=None, hom=None, hard=False):
        return ProfileReport(
            g.n, delta, ratio, regime, outcome, colouring, target, hom, hard, detail
        )

    if regime == "outside":
        colouring = k_colourable(g, 4)
        if colouring is None:
            return report("outside-range", "outside theorem range; not 4-colourable")
        detail = "outside theorem range; 4-colouring found opportunistically"
        return report("chi<=4-opportunistic", detail, colouring)
    colouring = k_colourable(g, 3)
    if colouring is not None:
        detail = "3-colouring found as promised" if regime == "above-4/7" else "3-colourable"
        return report("3-colouring", detail, colouring)
    if regime == "above-4/7":
        return report("PROMISE-VIOLATED", "delta > 4/7 |G| but no 3-colouring exists", hard=True)
    copy = find_subgraph(_C7BAR, g)
    cert = _decompose(g, copy)
    if cert.ok:
        detail = f"homomorphism to {cert.target}"
        return report(cert.outcome, detail, cert.colouring, cert.target, cert.hom)
    if copy is not None:
        detail = f"contains C7BAR but decomposition failed: {cert.reason}"
    else:
        detail = f"not 3-colourable, no C7BAR, and H2+ decomposition failed: {cert.reason}"
    return report("PROMISE-VIOLATED", detail, hard=True)
