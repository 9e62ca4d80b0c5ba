"""Constructive decomposition around an embedded C7-complement or H2+ copy.

Given a locally bipartite graph with min degree above 6/11 of its order, the
vertices with four neighbours in the anchor copy split into common
neighbourhoods D_i; the rest are assigned to compatible classes R_i (plus the
special class R502 in the H2+ case) so that collapsing each T_i = D_i u R_i
onto anchor vertex i is a homomorphism.  The only freedom is in the R_i
assignment; a quadratic penalty S counts the edges that would break the
collapse, and the hypotheses guarantee an assignment with S = 0 (S minus the
four tolerated class pairs, in the H2+ case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from . import families
from .colouring import chromatic_number, k_colourable, validate_colouring
from .graphs import Graph, WeightedGraph, bits, common_neighbourhood, mask_of, merge_twins
from .homomorphism import find_homomorphism, find_subgraph, is_homomorphism, subgraph_embeddings
from .structure import is_locally_bipartite, sparse_missing_spoke

DEGREE_THRESHOLD = Fraction(6, 11)

# Class labels: 0..6 for T_i, 7 for R502 (mirrors the centre's index in H2PLUS).
R502 = 7


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


def _degree_ok(g: Graph) -> bool:
    return g.n > 0 and Fraction(g.min_degree()) > DEGREE_THRESHOLD * g.n


def _contains_subgraph(g: Graph, pattern: Graph) -> bool:
    """Subgraph test with a twin-collapse shortcut.

    A copy in g yields a homomorphism pattern -> g, which composes with the
    twin-merge quotient map; so no hom to the merged graph means no copy.
    """
    merged = merge_twins(WeightedGraph(g, [1] * g.n)).graph
    if find_homomorphism(pattern, merged) is None:
        return False
    return find_subgraph(pattern, g) is not None


def _spot_check_sparse_spokes(g: Graph) -> str | None:
    """Forbidden-configuration audit on H0-free inputs (vacuous otherwise)."""
    if find_subgraph(families.h0(), g) is not None:
        return None
    bad = sparse_missing_spoke(g)
    if bad is not None:
        return f"sparse pair {bad} is the missing spoke of an odd wheel"
    return None


def _edge_inside(g: Graph, mask: int) -> tuple[int, int] | None:
    for v in bits(mask):
        row = g.adj[v] & mask
        row >>= v + 1
        if row:
            return (v, v + 1 + (row & -row).bit_length() - 1)
    return None


def _edge_between(g: Graph, a: int, b: int) -> tuple[int, int] | None:
    for v in bits(a):
        row = g.adj[v] & b
        if row:
            return (v, (row & -row).bit_length() - 1)
    return None


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
    members = sorted(assignment)
    nbrs = {r: [u for u in bits(g.adj[r]) if u in assignment] for r in members}

    def move_cost(r: int, label: int) -> int:
        return sum(1 for u in nbrs[r] if frozenset((label, assignment[u])) in penalised)

    def total() -> int:
        s = 0
        for r in members:
            for u in nbrs[r]:
                if u > r and frozenset((assignment[r], assignment[u])) in penalised:
                    s += 1
        return s

    flexible = [r for r in members if len(admissible[r]) > 1]
    improved = True
    while improved:
        improved = False
        for r in flexible:
            here = move_cost(r, assignment[r])
            for label in admissible[r]:
                if label != assignment[r] and move_cost(r, label) < here:
                    assignment[r] = label
                    improved = True
                    break

    best_s = total()
    if best_s > 0 and len(flexible) <= 20 and prod(len(admissible[r]) for r in flexible) <= 1 << 20:
        fixed_cost = 0
        flex_set = set(flexible)
        for r in members:
            if r in flex_set:
                continue
            for u in nbrs[r]:
                if u > r and u not in flex_set and frozenset(
                    (assignment[r], assignment[u])
                ) in penalised:
                    fixed_cost += 1
        best_choice = [assignment[r] for r in flexible]

        def branch(i: int, cost: int, choice: list[int]) -> None:
            nonlocal best_s, best_choice
            if cost >= best_s:
                return
            if i == len(flexible):
                best_s = cost
                best_choice = list(choice)
                return
            r = flexible[i]
            placed = {flexible[j]: choice[j] for j in range(i)}
            for label in admissible[r]:
                extra = 0
                for u in nbrs[r]:
                    if u in placed:
                        other = placed[u]
                    elif u not in flex_set:
                        other = assignment[u]
                    else:
                        continue
                    if frozenset((label, other)) in penalised:
                        extra += 1
                choice.append(label)
                branch(i + 1, cost + extra, choice)
                choice.pop()
                if best_s == 0:
                    return

        branch(0, fixed_cost, [])
        for r, label in zip(flexible, best_choice):
            assignment[r] = label
        best_s = total()
    return assignment, best_s


# ---------------------------------------------------------------------------
# C7-complement case.


def _build_c7(g: Graph, anchor: tuple[int, ...]) -> DecompositionCertificate:
    kind = "C7BAR"
    n = g.n
    anchor_mask = mask_of(anchor)
    audit: dict[str, str] = {}

    counts = [(g.adj[x] & anchor_mask).bit_count() for x in range(n)]
    if any(c >= 5 for c in counts):
        return _failed(kind, "a vertex has five neighbours in the anchor copy", anchor=anchor)

    d_sets = []
    for i in range(7):
        quad = mask_of(anchor[(i + k) % 7] for k in (-2, -1, 1, 2))
        d_sets.append(common_neighbourhood(g, quad))
    d_mask = 0
    for i in range(7):
        for j in range(i + 1, 7):
            if d_sets[i] & d_sets[j]:
                return _failed(kind, f"D_{i} and D_{j} intersect", anchor=anchor)
        d_mask |= d_sets[i]
    four_mask = mask_of(x for x in range(n) if counts[x] == 4)
    if four_mask != d_mask:
        return _failed(kind, "four-neighbour vertices do not match the D_i pattern", anchor=anchor)
    r_mask = ((1 << n) - 1) & ~d_mask

    bound = 4 * n - 7 * g.min_degree()
    audit["R-size"] = f"|R|={r_mask.bit_count()} <= 4|G|-7delta={bound}"
    if r_mask.bit_count() > bound:
        return _failed(kind, "size audit failed: |R| > 4|G| - 7delta", anchor=anchor, audit=audit)

    for i in range(7):
        bad = _edge_inside(g, d_sets[i] | d_sets[(i + 3) % 7])
        if bad is not None:
            return _failed(
                kind, f"edge {bad} inside D_{i} u D_{(i + 3) % 7}", anchor=anchor, audit=audit
            )

    allowed = [
        d_sets[(i - 2) % 7] | d_sets[(i - 1) % 7] | d_sets[(i + 1) % 7] | d_sets[(i + 2) % 7]
        for i in range(7)
    ]
    assignment: dict[int, int] = {}
    admissible: dict[int, tuple[int, ...]] = {}
    for r in bits(r_mask):
        dn = g.adj[r] & d_mask
        options = tuple(i for i in range(7) if dn & ~allowed[i] == 0)
        if not options:
            return _failed(
                kind, f"vertex {r} has no admissible class", anchor=anchor, audit=audit
            )
        admissible[r] = options
        assignment[r] = options[0]

    penalised = {frozenset((i, (i + 3) % 7)) for i in range(7)}
    assignment, s_value = _minimise_assignment(g, assignment, admissible, penalised)

    label = [-1] * n
    for i in range(7):
        for x in bits(d_sets[i]):
            label[x] = i
    for r, i in assignment.items():
        label[r] = i
    hom = tuple(label)
    target = families.c7bar()
    parts = _parts_from(d_sets, assignment, None, n)
    if s_value > 0:
        return _failed(
            kind,
            f"S-minimisation stuck at S={s_value}",
            anchor=anchor,
            parts=parts,
            s_value=s_value,
            audit=audit,
        )
    if not is_homomorphism(g, target, hom):
        bad = next((u, v) for u, v in g.edges() if not target.has_edge(hom[u], hom[v]))
        return _failed(
            kind,
            f"edge {bad} joins T_{hom[bad[0]]} and T_{hom[bad[1]]}",
            anchor=anchor,
            parts=parts,
            s_value=s_value,
            audit=audit,
        )
    palette = _c7_colouring()
    colouring = tuple(palette[label[x]] for x in range(n))
    assert validate_colouring(g, colouring, 4)
    return DecompositionCertificate(
        kind=kind,
        outcome="HOM_C7BAR",
        anchor=anchor,
        parts=parts,
        s_value=s_value,
        target="C7BAR",
        hom=hom,
        colouring=colouring,
        audit=audit,
    )


def _parts_from(d_sets, assignment, r502_mask, n) -> dict[str, tuple[int, ...]]:
    parts = {}
    d_all = 0
    for i, mask in enumerate(d_sets):
        parts[f"D{i}"] = tuple(bits(mask))
        d_all |= mask
    r_classes: dict[int, list[int]] = {i: [] for i in range(7)}
    for r in sorted(assignment):
        if assignment[r] != R502:
            r_classes[assignment[r]].append(r)
    for i in range(7):
        parts[f"R{i}"] = tuple(r_classes[i])
    if r502_mask is not None:
        parts["R502"] = tuple(bits(r502_mask))
    parts["D"] = tuple(bits(d_all))
    parts["R"] = tuple(sorted(assignment))
    return parts


def _c7_colouring() -> tuple[int, ...]:
    colouring = chromatic_number(families.c7bar())[1]
    assert len(set(colouring)) == 4
    return colouring


def decompose_c7bar(g: Graph, max_anchors: int = 100) -> DecompositionCertificate:
    """Homomorphism to the C7 complement for locally bipartite g with
    delta(g) > 6/11 |g| containing a copy of it."""
    kind = "C7BAR"
    if not is_locally_bipartite(g):
        return _failed(kind, "not locally bipartite")
    if not _contains_subgraph(g, families.c7bar()):
        return _failed(kind, "no C7BAR copy")
    if not _degree_ok(g):
        return _failed(kind, "degree too low")
    spot = _spot_check_sparse_spokes(g)
    if spot is not None:
        return _failed(kind, f"forbidden configuration: {spot}")
    last: DecompositionCertificate | None = None
    tried = 0
    for embedding in subgraph_embeddings(families.c7bar(), g, induced=False):
        tried += 1
        cert = _build_c7(g, embedding)
        if cert.ok:
            return cert
        last = cert
        if tried >= max_anchors:
            break
    assert last is not None
    return last


# ---------------------------------------------------------------------------
# H2+ case.

_H2 = families.h2()

# Anchor-index sets defining each D_i (i.e. the neighbours of v_i in the copy).
_H2_DEFINING = {i: tuple(bits(_H2.adj[i])) for i in range(7)}


def _build_h2plus(g: Graph, anchor7: tuple[int, ...]) -> DecompositionCertificate:
    """anchor7 = the H2 part (v_0..v_6) of an embedded H2+ copy."""
    kind = "H2PLUS"
    n = g.n
    anchor_mask = mask_of(anchor7)
    audit: dict[str, str] = {}

    counts = [(g.adj[x] & anchor_mask).bit_count() for x in range(n)]
    if any(c >= 5 for c in counts):
        return _failed(kind, "a vertex has five neighbours in the anchor copy", anchor=anchor7)

    d_sets = []
    for i in range(7):
        defining = mask_of(anchor7[j] for j in _H2_DEFINING[i])
        d_sets.append(common_neighbourhood(g, defining))
    d_mask = 0
    for i in range(7):
        for j in range(i + 1, 7):
            if d_sets[i] & d_sets[j]:
                return _failed(kind, f"D_{i} and D_{j} intersect", anchor=anchor7)
        d_mask |= d_sets[i]
    d_star = d_sets[0] | d_sets[2] | d_sets[3] | d_sets[4] | d_sets[5]
    four_mask = mask_of(x for x in range(n) if counts[x] == 4)
    if four_mask != d_star:
        return _failed(
            kind, "four-neighbour vertices do not match the D* pattern", anchor=anchor7
        )
    for i in (1, 6):
        for x in bits(d_sets[i]):
            if counts[x] != 3:
                return _failed(
                    kind, f"vertex {x} in D_{i} has extra anchor neighbours", anchor=anchor7
                )
    r_mask = ((1 << n) - 1) & ~d_mask

    outside = r_mask | d_sets[1] | d_sets[6]
    bound = 4 * n - 7 * g.min_degree()
    audit["R-size"] = f"|R u D1 u D6|={outside.bit_count()} <= 4|G|-7delta={bound}"
    if outside.bit_count() > bound:
        return _failed(
            kind, "size audit failed: |R u D1 u D6| > 4|G| - 7delta", anchor=anchor7, audit=audit
        )

    # G[D] must collapse onto the H2 pattern: no edge inside any D_i, between
    # any D_i and D_{i+3}, or between D_1 and D_6 (that last one is a C7BAR).
    for i in range(7):
        bad = _edge_inside(g, d_sets[i] | d_sets[(i + 3) % 7])
        if bad is not None:
            return _failed(
                kind, f"edge {bad} inside D_{i} u D_{(i + 3) % 7}", anchor=anchor7, audit=audit
            )
    bad = _edge_between(g, d_sets[1], d_sets[6])
    if bad is not None:
        return _failed(kind, f"edge {bad} between D_1 and D_6", anchor=anchor7, audit=audit)

    allowed = [0] * 7
    for i in range(7):
        for j in _H2_DEFINING[i]:
            allowed[i] |= d_sets[j]
    assignment: dict[int, int] = {}
    admissible: dict[int, tuple[int, ...]] = {}
    r502_mask = 0
    for r in bits(r_mask):
        dn = g.adj[r] & d_mask
        if dn & d_sets[5] and dn & d_sets[0] and dn & d_sets[2]:
            if dn & ~(d_sets[5] | d_sets[0] | d_sets[2]):
                return _failed(
                    kind,
                    f"vertex {r} meets D_5, D_0, D_2 and more",
                    anchor=anchor7,
                    audit=audit,
                )
            r502_mask |= 1 << r
            assignment[r] = R502
            admissible[r] = (R502,)
            continue
        options = tuple(i for i in range(7) if dn & ~allowed[i] == 0)
        if not options:
            return _failed(
                kind, f"vertex {r} has no admissible class", anchor=anchor7, audit=audit
            )
        admissible[r] = options
        assignment[r] = options[0]

    penalised = {frozenset((i, (i + 3) % 7)) for i in range(7)}
    penalised.add(frozenset((3, R502)))
    penalised.add(frozenset((4, R502)))
    assignment, s_value = _minimise_assignment(g, assignment, admissible, penalised)
    parts = _parts_from(d_sets, {r: c for r, c in assignment.items() if c != R502}, r502_mask, n)
    parts["R"] = tuple(sorted(assignment))

    label = [-1] * n
    for i in range(7):
        for x in bits(d_sets[i]):
            label[x] = i
    for r, c in assignment.items():
        label[r] = c
    hom = tuple(label)

    # Claims that hold for every valid assignment under the hypotheses.
    bad = _edge_inside(g, r502_mask)
    if bad is not None:
        return _failed(kind, f"edge {bad} inside R502", anchor=anchor7, parts=parts, audit=audit)
    for i in (1, 6):
        t_i = d_sets[i] | mask_of(r for r, c in assignment.items() if c == i)
        bad = _edge_between(g, r502_mask, t_i)
        if bad is not None:
            return _failed(
                kind, f"edge {bad} between R502 and T_{i}", anchor=anchor7, parts=parts, audit=audit
            )

    class_mask = {c: mask_of(r for r, cc in assignment.items() if cc == c) for c in range(7)}
    failed_upgrades = []
    if _edge_between(g, class_mask[1], class_mask[5]):
        failed_upgrades.append("e(R1,R5)=0")
    if _edge_between(g, class_mask[2], class_mask[6]):
        failed_upgrades.append("e(R2,R6)=0")
    if _edge_between(g, class_mask[3] | class_mask[4], r502_mask):
        failed_upgrades.append("e(R3uR4,R502)=0")

    if not failed_upgrades:
        target = families.h2plus()
        if is_homomorphism(g, target, hom):
            palette = _h2plus_colouring()
            colouring = tuple(palette[label[x]] for x in range(n))
            assert validate_colouring(g, colouring, 4)
            return DecompositionCertificate(
                kind=kind,
                outcome="HOM_H2PLUS",
                anchor=anchor7,
                parts=parts,
                s_value=s_value,
                target="H2PLUS",
                hom=hom,
                colouring=colouring,
                audit=audit,
            )
    target = families.h2plus_augmented()
    if is_homomorphism(g, target, hom):
        colouring = tuple(families.AUGMENTED_FIGURE_COLOURING[label[x]] for x in range(n))
        assert validate_colouring(g, colouring, 4)
        return DecompositionCertificate(
            kind=kind,
            outcome="HOM_AUGMENTED",
            anchor=anchor7,
            parts=parts,
            s_value=s_value,
            target="H2PLUS_AUG",
            hom=hom,
            colouring=colouring,
            failed_upgrades=tuple(failed_upgrades),
            audit=audit,
        )
    bad = next((u, v) for u, v in g.edges() if not target.has_edge(hom[u], hom[v]))

    def cls_name(c: int) -> str:
        return "R502" if c == R502 else f"T_{c}"

    return _failed(
        kind,
        f"edge {bad} joins {cls_name(hom[bad[0]])} and {cls_name(hom[bad[1]])} (S={s_value})",
        anchor=anchor7,
        parts=parts,
        s_value=s_value,
        audit=audit,
    )


def _h2plus_colouring() -> tuple[int, ...]:
    colouring = chromatic_number(families.h2plus())[1]
    assert len(set(colouring)) == 4
    return colouring


def decompose_h2plus(g: Graph, max_anchors: int = 100) -> DecompositionCertificate:
    """Homomorphism to H2+ (or its 4-colourable augmentation) for locally
    bipartite g with delta(g) > 6/11 |g| containing H2+ but no C7 complement."""
    kind = "H2PLUS"
    if not is_locally_bipartite(g):
        return _failed(kind, "not locally bipartite")
    if not _degree_ok(g):
        return _failed(kind, "degree too low")
    if _contains_subgraph(g, families.c7bar()):
        return _failed(kind, "contains C7BAR copy; use decompose_c7bar")
    spot = _spot_check_sparse_spokes(g)
    if spot is not None:
        return _failed(kind, f"forbidden configuration: {spot}")
    last: DecompositionCertificate | None = None
    tried = 0
    for embedding in subgraph_embeddings(families.h2plus(), g, induced=False):
        tried += 1
        cert = _build_h2plus(g, embedding[:7])
        if cert.ok:
            return cert
        last = cert
        if tried >= max_anchors:
            break
    if tried == 0:
        return _failed(kind, "no H2PLUS copy")
    return last


def decompose_auto(g: Graph, max_anchors: int = 100) -> DecompositionCertificate:
    """Route to the C7BAR case when a copy is present, else to the H2+ case."""
    if is_locally_bipartite(g) and _contains_subgraph(g, families.c7bar()):
        return decompose_c7bar(g, max_anchors)
    return decompose_h2plus(g, max_anchors)


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
        colouring = k_colourable(g, 3)
        if colouring is None:
            return ProfileReport(
                g.n, delta, ratio, regime, "PROMISE-VIOLATED", None, None, None, True,
                "delta > 4/7 |G| but no 3-colouring exists",
            )
        return ProfileReport(
            g.n, delta, ratio, regime, "3-colouring", colouring, None, None, False,
            "3-colouring found as promised",
        )
    if ratio > DEGREE_THRESHOLD:
        regime = "above-6/11"
        colouring = k_colourable(g, 3)
        if colouring is not None:
            return ProfileReport(
                g.n, delta, ratio, regime, "3-colouring", colouring, None, None, False,
                "3-colourable",
            )
        if _contains_subgraph(g, families.c7bar()):
            cert = decompose_c7bar(g)
            if cert.ok:
                return ProfileReport(
                    g.n, delta, ratio, regime, cert.outcome, cert.colouring,
                    cert.target, cert.hom, False, "homomorphism to C7BAR",
                )
            return ProfileReport(
                g.n, delta, ratio, regime, "PROMISE-VIOLATED", None, None, None, True,
                f"contains C7BAR but decomposition failed: {cert.reason}",
            )
        cert = decompose_h2plus(g)
        if cert.ok:
            return ProfileReport(
                g.n, delta, ratio, regime, cert.outcome, cert.colouring,
                cert.target, cert.hom, False, f"homomorphism to {cert.target}",
            )
        return ProfileReport(
            g.n, delta, ratio, regime, "PROMISE-VIOLATED", None, None, None, True,
            f"not 3-colourable, no C7BAR, and H2+ decomposition failed: {cert.reason}",
        )
    regime = "outside"
    colouring = k_colourable(g, 4)
    if colouring is not None:
        return ProfileReport(
            g.n, delta, ratio, regime, "chi<=4-opportunistic", colouring, None, None, False,
            "outside theorem range; 4-colouring found opportunistically",
        )
    return ProfileReport(
        g.n, delta, ratio, regime, "outside-range", None, None, None, False,
        "outside theorem range; not 4-colourable",
    )
