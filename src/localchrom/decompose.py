"""Constructive decomposition around an embedded C7-complement or H2+ copy.

Given a locally bipartite graph with min degree above 6/11 of its order, the
vertices with four neighbours in the anchor copy split into common
neighbourhoods D_i; the rest are assigned to compatible classes R_i (plus the
special class R502 in the H2+ case) so that collapsing each T_i = D_i u R_i
onto anchor vertex i is a homomorphism.  The only freedom is in the R_i
assignment; a quadratic penalty S counts the edges that would break the
collapse, and the hypotheses guarantee an assignment with S = 0 (S minus the
four tolerated class pairs, in the H2+ case).

Both cases run one class builder, driven by the seven-vertex anchor pattern
(C7BAR, or the H2 part of H2+): D_i is the common neighbourhood of the anchor
images of the pattern neighbours of i, and T_i may meet only the D_j of those
neighbours.  The H2+ case adds R502 and the tolerated pairs on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import prod
from typing import Callable, Iterator

from . import families
from .colouring import chromatic_number, k_colourable, validate_colouring
from .graphs import CertificateError, Graph, bits, common_neighbourhood, mask_of
from .homomorphism import find_subgraph, subgraph_embeddings
from .structure import is_locally_bipartite, sparse_missing_spoke

DEGREE_THRESHOLD = Fraction(6, 11)

# Class labels: 0..6 for T_i, 7 for R502 (mirrors the centre's index in H2PLUS).
R502 = 7

_MAX_ANCHORS = 100
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
    """A failed check of the class builder; ``details`` go into the certificate."""

    def __init__(self, reason: str, **details):
        super().__init__(reason)
        self.reason = reason
        self.details = details


def _degree_ok(g: Graph) -> bool:
    return g.n > 0 and Fraction(g.min_degree()) > DEGREE_THRESHOLD * g.n


def _c7bar_copies(g: Graph) -> Iterator[tuple[int, ...]] | None:
    """The C7BAR embeddings of g, in search order, or None when there is none.

    The first embedding decides, and it stays the first anchor.
    """
    copies = subgraph_embeddings(_C7BAR, g, induced=False)
    first = next(copies, None)
    return None if first is None else chain((first,), copies)


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


def _broken_edge(g: Graph, target: Graph, hom: tuple[int, ...]) -> tuple[int, int] | None:
    """The first edge of g, in the order of ``g.edges()``, that ``hom`` does
    not map onto an edge of target: uv is kept iff v lies in the preimage
    ``allowed[hom[u]]`` of hom[u]'s neighbourhood."""
    preimage = [0] * target.n
    for v, t in enumerate(hom):
        preimage[t] |= 1 << v
    allowed = [_union(preimage, bits(row)) for row in target.adj]
    for u in range(g.n):
        bad = g.adj[u] >> (u + 1) << (u + 1) & ~allowed[hom[u]]
        if bad:
            return (u, (bad & -bad).bit_length() - 1)
    return None


def _union(masks: list[int], indices) -> int:
    out = 0
    for i in indices:
        out |= masks[i]
    return out


def _joins(bad: tuple[int, int], hom: tuple[int, ...]) -> str:
    """A reason naming an edge that the collapse breaks, and the classes it joins."""
    a, b = ("R502" if hom[x] == R502 else f"T_{hom[x]}" for x in bad)
    return f"edge {bad} joins {a} and {b}"


def _palette(target: Graph) -> tuple[int, ...]:
    """The solver's 4-colouring of a target, read by class label."""
    colouring = chromatic_number(target)[1]
    if len(set(colouring)) != 4:
        raise CertificateError("the decomposition target is not 4-chromatic")
    return colouring


# ---------------------------------------------------------------------------
# Penalised-assignment minimisation shared by both cases.


def _minimise_assignment(
    g: Graph,
    assignment: dict[int, int],
    admissible: dict[int, tuple[int, ...]],
    penalised: set[frozenset],
) -> tuple[dict[int, int], int]:
    """Minimise S = number of edges whose endpoint classes form a penalised pair.

    Greedy single-vertex improvement first, then exhaustive branch-and-bound
    over the flexible vertices when that space is small enough; the theorems
    guarantee S = 0 is reachable under their hypotheses.
    """
    nbrs = {r: [u for u in bits(g.adj[r]) if u in assignment] for r in assignment}

    def conflicts(r: int, label: int, labels: dict[int, int]) -> int:
        """The neighbours of r labelled in ``labels`` whose pair with ``label`` is penalised."""
        return sum(u in labels and frozenset((label, labels[u])) in penalised for u in nbrs[r])

    flexible = [r for r in sorted(assignment) if len(admissible[r]) > 1]
    improved = True
    while improved:
        improved = False
        for r in flexible:
            here = conflicts(r, assignment[r], assignment)
            for label in admissible[r]:
                if label != assignment[r] and conflicts(r, label, assignment) < here:
                    assignment[r] = label
                    improved = True
                    break

    # every penalised edge is counted from both ends
    best_s = sum(conflicts(r, c, assignment) for r, c in assignment.items()) // 2
    if best_s > 0 and len(flexible) <= 20 and prod(len(admissible[r]) for r in flexible) <= 1 << 20:
        known = {r: c for r, c in assignment.items() if r not in flexible}
        best_choice: dict[int, int] = {}  # empty while nothing beats the greedy labels

        def branch(i: int, cost: int) -> None:
            """Place flexible[i:] on top of ``known``, the fixed and placed labels."""
            nonlocal best_s, best_choice
            if cost >= best_s:
                return
            if i == len(flexible):
                best_s = cost
                best_choice = {r: known[r] for r in flexible}
                return
            r = flexible[i]
            for label in admissible[r]:
                known[r] = label
                branch(i + 1, cost + conflicts(r, label, known))
                if best_s == 0:
                    break
            del known[r]

        branch(0, sum(conflicts(r, c, known) for r, c in known.items()) // 2)
        assignment.update(best_choice)
    return assignment, best_s


# ---------------------------------------------------------------------------
# The class builder, driven by the anchor pattern.


@dataclass(frozen=True)
class _Case:
    """The data that sets the C7BAR and H2+ cases apart.

    ``star_name`` and ``outside_name`` name, in reasons and in the size
    audit, the union of the D_i of the degree-4 pattern vertices and the
    vertices outside it.
    A vertex that meets every D_i with i in ``hub`` goes to the class R502.
    ``finish`` is the case's own last step: it returns the outcome, the target
    name, the palette and the failed upgrades, or raises _Reject.
    """

    kind: str
    pattern: Graph
    star_name: str
    outside_name: str
    penalised: frozenset[frozenset[int]]
    hub: tuple[int, ...]
    finish: Callable


def _classes(g: Graph, anchor: tuple[int, ...], case: _Case, audit: dict[str, str]):
    """The steps both cases share, from the D_i to the minimised assignment.

    Returns the D_i bitsets, the class label of every vertex (D_i -> i, the
    other vertices by the assignment), the parts and S; raises _Reject at the
    first check that fails.
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
    for i in range(7):
        for j in range(i + 1, 7):
            if d_sets[i] & d_sets[j]:
                raise _Reject(f"D_{i} and D_{j} intersect")
    d_mask = _union(d_sets, range(7))
    star = _union(d_sets, (i for i in range(7) if pattern.degree(i) == 4))
    if mask_of(x for x in range(n) if counts[x] == 4) != star:
        raise _Reject(f"four-neighbour vertices do not match the {case.star_name} pattern")
    # A vertex of D_i has exactly deg(i) anchor neighbours (H2's D_1 and D_6).
    for i in range(7):
        if pattern.degree(i) != 4:
            for x in bits(d_sets[i]):
                if counts[x] != pattern.degree(i):
                    raise _Reject(f"vertex {x} in D_{i} has extra anchor neighbours")

    outside = ((1 << n) - 1) & ~star
    bound = 4 * n - 7 * g.min_degree()
    audit["R-size"] = f"|{case.outside_name}|={outside.bit_count()} <= 4|G|-7delta={bound}"
    if outside.bit_count() > bound:
        raise _Reject(f"size audit failed: |{case.outside_name}| > 4|G| - 7delta")

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
    assignment: dict[int, int] = {}
    admissible: dict[int, tuple[int, ...]] = {}
    for r in bits(((1 << n) - 1) & ~d_mask):
        dn = g.adj[r] & d_mask
        if case.hub and all(dn & d_sets[i] for i in case.hub):
            if dn & ~hub:
                names = ", ".join(f"D_{i}" for i in case.hub)
                raise _Reject(f"vertex {r} meets {names} and more")
            assignment[r] = R502
            admissible[r] = (R502,)
            continue
        options = tuple([i for i in range(7) if dn & ~allowed[i] == 0])
        if not options:
            raise _Reject(f"vertex {r} has no admissible class")
        admissible[r] = options
        assignment[r] = options[0]
    assignment, s_value = _minimise_assignment(g, assignment, admissible, case.penalised)

    label = [-1] * n
    for i in range(7):
        for x in bits(d_sets[i]):
            label[x] = i
    for r, c in assignment.items():
        label[r] = c
    members = sorted(assignment)
    # tuples from lists, as in Graph.degrees
    parts = {f"D{i}": tuple([*bits(d_sets[i])]) for i in range(7)}
    for c in range(R502 + 1 if case.hub else 7):
        parts["R502" if c == R502 else f"R{c}"] = tuple([r for r in members if assignment[r] == c])
    parts["D"] = tuple([*bits(d_mask)])
    parts["R"] = tuple(members)
    return d_sets, tuple(label), parts, s_value


def _build(g: Graph, anchor: tuple[int, ...], case: _Case) -> DecompositionCertificate:
    """One anchor's certificate: the shared steps, then the case's last step."""
    audit: dict[str, str] = {}
    try:
        d_sets, hom, parts, s_value = _classes(g, anchor, case, audit)
        outcome, target, palette, failed_upgrades = case.finish(g, d_sets, hom, parts, s_value)
    except _Reject as exc:
        return _failed(case.kind, exc.reason, anchor=anchor, audit=audit, **exc.details)
    colouring = tuple([palette[c] for c in hom])
    if not validate_colouring(g, colouring, 4):
        raise CertificateError(f"the {target} colouring is not a proper 4-colouring")
    return DecompositionCertificate(
        kind=case.kind,
        outcome=outcome,
        anchor=anchor,
        parts=parts,
        s_value=s_value,
        target=target,
        hom=hom,
        colouring=colouring,
        failed_upgrades=failed_upgrades,
        audit=audit,
    )


def _finish_c7bar(g, d_sets, hom, parts, s_value):
    if s_value > 0:
        raise _Reject(f"S-minimisation stuck at S={s_value}", parts=parts, s_value=s_value)
    bad = _broken_edge(g, _C7BAR, hom)
    if bad is not None:
        raise _Reject(_joins(bad, hom), parts=parts, s_value=s_value)
    return "HOM_C7BAR", "C7BAR", _palette(_C7BAR), ()


def _finish_h2plus(g, d_sets, hom, parts, s_value):
    # Claims that hold for every valid assignment under the hypotheses.
    r502_mask = mask_of(parts["R502"])
    bad = _edge_between(g, r502_mask, r502_mask)
    if bad is not None:
        raise _Reject(f"edge {bad} inside R502", parts=parts)
    for i in (1, 6):
        bad = _edge_between(g, r502_mask, d_sets[i] | mask_of(parts[f"R{i}"]))
        if bad is not None:
            raise _Reject(f"edge {bad} between R502 and T_{i}", parts=parts)

    # The tolerated pairs: each edge class that H2+ lacks but its augmentation has.
    r_masks = [mask_of(parts[f"R{c}"]) for c in range(7)]
    failed_upgrades = tuple(
        name
        for name, a, b in (
            ("e(R1,R5)=0", r_masks[1], r_masks[5]),
            ("e(R2,R6)=0", r_masks[2], r_masks[6]),
            ("e(R3uR4,R502)=0", r_masks[3] | r_masks[4], r502_mask),
        )
        if _edge_between(g, a, b)
    )
    if not failed_upgrades and _broken_edge(g, _H2PLUS, hom) is None:
        return "HOM_H2PLUS", "H2PLUS", _palette(_H2PLUS), ()
    bad = _broken_edge(g, _H2PLUS_AUG, hom)
    if bad is None:
        return "HOM_AUGMENTED", "H2PLUS_AUG", families.AUGMENTED_FIGURE_COLOURING, failed_upgrades
    raise _Reject(f"{_joins(bad, hom)} (S={s_value})", parts=parts, s_value=s_value)


_C7BAR_CASE = _Case(
    kind="C7BAR",
    pattern=_C7BAR,
    star_name="D_i",
    outside_name="R",
    penalised=frozenset(frozenset(pair) for pair in _OPPOSITE),
    hub=(),
    finish=_finish_c7bar,
)
_H2PLUS_CASE = _Case(
    kind="H2PLUS",
    pattern=families.h2(),
    star_name="D*",
    outside_name="R u D1 u D6",
    penalised=frozenset(frozenset(pair) for pair in _OPPOSITE + ((3, R502), (4, R502))),
    hub=(5, 0, 2),  # the H2+ centre's neighbours, in the order reasons name them
    finish=_finish_h2plus,
)


# ---------------------------------------------------------------------------
# Public entry points: input checks, then one anchor loop.


def _decompose(g: Graph, copies: Iterator[tuple[int, ...]] | None) -> DecompositionCertificate:
    """Spot check and anchor loop for a locally bipartite g of degree above 6/11.

    ``copies`` are the C7BAR embeddings from ``_c7bar_copies``; None means g
    has no C7BAR copy, and the H2+ case runs on the H2+ embeddings.
    """
    case = _H2PLUS_CASE if copies is None else _C7BAR_CASE
    spot = _spot_check_sparse_spokes(g)
    if spot is not None:
        return _failed(case.kind, f"forbidden configuration: {spot}")
    if copies is None:
        copies = subgraph_embeddings(_H2PLUS, g, induced=False)
    cert = None
    for tried, embedding in enumerate(copies, start=1):
        cert = _build(g, embedding[:7], case)
        if cert.ok or tried >= _MAX_ANCHORS:
            break
    if cert is None:
        return _failed(case.kind, "no H2PLUS copy")
    return cert


def decompose_c7bar(g: Graph) -> DecompositionCertificate:
    """Homomorphism to the C7 complement for locally bipartite g with
    delta(g) > 6/11 |g| containing a copy of it."""
    kind = "C7BAR"
    if not is_locally_bipartite(g):
        return _failed(kind, "not locally bipartite")
    copies = _c7bar_copies(g)
    if copies is None:
        return _failed(kind, "no C7BAR copy")
    if not _degree_ok(g):
        return _failed(kind, "degree too low")
    return _decompose(g, copies)


def decompose_h2plus(g: Graph) -> DecompositionCertificate:
    """Homomorphism to H2+ (or its 4-colourable augmentation) for locally
    bipartite g with delta(g) > 6/11 |g| containing H2+ but no C7 complement."""
    kind = "H2PLUS"
    if not is_locally_bipartite(g):
        return _failed(kind, "not locally bipartite")
    if not _degree_ok(g):
        return _failed(kind, "degree too low")
    if _c7bar_copies(g) is not None:
        return _failed(kind, "contains C7BAR copy; use decompose_c7bar")
    return _decompose(g, None)


def decompose_auto(g: Graph) -> DecompositionCertificate:
    """Route to the C7BAR case when a copy is present, else to the H2+ case."""
    if not is_locally_bipartite(g):
        return _failed("H2PLUS", "not locally bipartite")
    copies = _c7bar_copies(g)
    if not _degree_ok(g):
        return _failed("H2PLUS" if copies is None else "C7BAR", "degree too low")
    return _decompose(g, copies)


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
    copies = _c7bar_copies(g)
    cert = _decompose(g, copies)
    if cert.ok:
        detail = f"homomorphism to {cert.target}"
        return report(cert.outcome, detail, cert.colouring, cert.target, cert.hom)
    if copies is not None:
        detail = f"contains C7BAR but decomposition failed: {cert.reason}"
    else:
        detail = f"not 3-colourable, no C7BAR, and H2+ decomposition failed: {cert.reason}"
    return report("PROMISE-VIOLATED", detail, hard=True)
