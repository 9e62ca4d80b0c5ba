"""The verify-paper runner: every acceptance claim, exact arithmetic, one
stable id per claim.  A FAIL never aborts the remaining checks."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import families, properties
from .colouring import chromatic_number, independence_number, k_colourable, validate_colouring
from .decompose import decompose_c7bar, decompose_h2plus
from .graphs import (
    CertificateError,
    Graph,
    WeightedGraph,
    blow_up,
    blow_up_classes,
    cycle_power,
    mask_of,
    weighted_degree,
)
from .homomorphism import (
    brute_force_homomorphism,
    find_homomorphism,
    find_subgraph,
    is_homomorphism,
    is_isomorphic,
)
from .search import check_membership, compact_line, enumerate_extremal
from .structure import (
    _two_colouring,
    is_edge_maximal_locally_bipartite,
    is_locally_bipartite,
    is_twin_free,
    saturate,
)
from .weighting import WeightingResult, optimal_weighting, verify_weighting
from .workers import run_tasks, usable_cpus

# Frozen after the first verified enumerate_extremal(7, 1/2) run (the run is
# the oracle): exactly K3 and a canonically labelled C7BAR, each re-verified
# against check_membership before freezing.
EXTREMAL_N7_GOLDEN: list[str] = [
    "n=3 m=3 edges=0-1,0-2,1-2 t*=2/3 chi=3",
    "n=7 m=14 edges=0-2,0-3,0-4,0-5,1-3,1-4,1-5,1-6,2-3,2-5,2-6,3-4,4-6,5-6 t*=4/7 chi=4",
]

# Exact LP value frozen after the first verified run; the figure weighting
# attains it, so t* >= 6/11 was forced and the LP shows equality.
COUNTEREXAMPLE8_T_STAR = Fraction(6, 11)


class ClaimFailure(Exception):
    pass


@dataclass
class ClaimResult:
    claim_id: str
    status: str  # PASS | FAIL | SKIP
    detail: str
    seconds: float


@dataclass
class Report:
    entries: list[ClaimResult]

    @property
    def failed(self) -> list[ClaimResult]:
        return [e for e in self.entries if e.status == "FAIL"]

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def render_text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"{e.status:4s} {e.claim_id}  ({e.seconds:.2f}s)  {e.detail}")
        lines.append(
            f"# {sum(e.status == 'PASS' for e in self.entries)} passed, "
            f"{len(self.failed)} failed, "
            f"{sum(e.status == 'SKIP' for e in self.entries)} skipped"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            [
                {
                    "claim": e.claim_id,
                    "status": e.status,
                    "detail": e.detail,
                    "seconds": round(e.seconds, 3),
                }
                for e in self.entries
            ],
            indent=2,
        )


# ---------------------------------------------------------------------------
# Claims.  Each returns a detail string or raises ClaimFailure.


def claim_families_four_chromatic() -> str:
    for fid in ("H0", "H1", "H2", "H2PLUS", "C7BAR", "WHEEL(7)"):
        k, _ = chromatic_number(families.generate(fid))
        if k != 4:
            raise ClaimFailure(f"chi({fid}) = {k}, expected 4")
    return "chi = 4 for H0, H1, H2, H2PLUS, C7BAR, WHEEL(7)"


def claim_families_locally_bipartite() -> str:
    for fid in ("H0", "H1", "H2", "H2PLUS", "C7BAR"):
        if not is_locally_bipartite(families.generate(fid)):
            raise ClaimFailure(f"{fid} should be locally bipartite")
    if is_locally_bipartite(families.generate("WHEEL(7)")):
        raise ClaimFailure("WHEEL(7) should not be locally bipartite")
    return "all named seven/eight-vertex graphs locally bipartite except WHEEL(7)"


def claim_h0_five_vertex() -> str:
    g = families.h0()
    subsets = list(combinations(range(7), 5))
    for subset in subsets:
        # on five vertices every odd cycle is a triangle or a 5-cycle
        if _two_colouring(g.adj, mask_of(subset)) is not None:
            raise ClaimFailure(f"five-vertex subset {subset} has no triangle or 5-cycle")
    return f"all {len(subsets)} five-vertex subsets of H0 contain a triangle or a 5-cycle"


def claim_saturation_chain() -> str:
    if saturate(families.h2()) != families.c7bar():
        raise ClaimFailure("saturate(H2) != C7BAR")
    for fid in ("H2PLUS", "C7BAR"):
        if not is_edge_maximal_locally_bipartite(families.generate(fid)):
            raise ClaimFailure(f"{fid} should be edge-maximal")
    if is_edge_maximal_locally_bipartite(families.h0()):
        raise ClaimFailure("H0 should not be edge-maximal")
    return "saturate(H2) = C7BAR; H2PLUS and C7BAR edge-maximal; H0 not"


def claim_non_homomorphisms() -> str:
    pairs = [
        ("H2PLUS", "C7BAR"),
        ("C7BAR", "H2PLUS"),
        ("H2PLUS", "H2"),
        ("C7BAR", "H2"),
    ]
    for src, dst in pairs:
        g, h = families.generate(src), families.generate(dst)
        if find_homomorphism(g, h) is not None:
            raise ClaimFailure(f"solver found a map {src} -> {dst}")
        if brute_force_homomorphism(g, h):
            raise ClaimFailure(f"brute force found a map {src} -> {dst}")
    return "no homomorphism in any of the four directions (solver and brute force agree)"


def _check_weighting_claim(
    fid: str,
    expected_t: Fraction,
    figure_weights: tuple[Fraction, ...],
    expected_degrees: dict[int, Fraction] | None = None,
) -> tuple[str, WeightingResult]:
    g = families.generate(fid)
    wg = WeightedGraph(g, figure_weights)
    total = wg.total_weight()
    for v in range(g.n):
        expected = (expected_degrees or {}).get(v, expected_t)
        actual = weighted_degree(wg, v) / total
        if actual != expected:
            raise ClaimFailure(f"{fid}: vertex {v} has weighted degree {actual}, expected {expected}")
    result = optimal_weighting(g)
    if result.optimum != expected_t:
        raise ClaimFailure(f"t*({fid}) = {result.optimum}, expected {expected_t}")
    return f"t*({fid}) = {expected_t}, dual certificate verified", result


def claim_weighting_h2() -> str:
    return _check_weighting_claim("H2", Fraction(6, 11), families.H2_FIGURE_WEIGHTS)[0]


def claim_weighting_h2plus() -> str:
    detail, result = _check_weighting_claim(
        "H2PLUS",
        Fraction(5, 9),
        families.H2PLUS_FIGURE_WEIGHTS,
        expected_degrees={7: Fraction(2, 3)},
    )
    zeros = {v for v, w in enumerate(result.weights) if w == 0}
    if zeros != {1, 6}:
        raise ClaimFailure(f"optimal weighting zeros at {sorted(zeros)}, expected {{1, 6}}")
    if result.support_full:
        raise ClaimFailure("H2PLUS optimum should not be attainable with full support")
    return detail + "; zeros exactly at {a1, a6}; centre degree 2/3"


def claim_weighting_c7bar() -> str:
    detail = _check_weighting_claim(
        "C7BAR", Fraction(4, 7), tuple(Fraction(1, 7) for _ in range(7))
    )[0]
    return detail + " (uniform)"


def claim_weighting_delta3() -> str:
    uniform = tuple(Fraction(1, 11) for _ in range(11))
    _check_weighting_claim("DELTA(3)", Fraction(6, 11), uniform)
    return "t*(DELTA(3)) = 6/11 at the uniform weighting"


def claim_delta_family() -> str:
    h2 = families.h2()
    for ell in (2, 3, 4):
        g = families.delta(ell)
        if g.n != 4 * ell - 1:
            raise ClaimFailure(f"DELTA({ell}) has {g.n} vertices")
        if any(g.degree(v) != 2 * ell for v in range(g.n)):
            raise ClaimFailure(f"DELTA({ell}) is not {2 * ell}-regular")
        alpha = independence_number(g)[0]
        if alpha != ell:
            raise ClaimFailure(f"alpha(DELTA({ell})) = {alpha}, expected {ell}")
        chi = chromatic_number(g)[0]
        if chi != 4:
            raise ClaimFailure(f"chi(DELTA({ell})) = {chi}, expected 4")
        if not is_edge_maximal_locally_bipartite(g):
            raise ClaimFailure(f"DELTA({ell}) should be edge-maximal locally bipartite")
        if find_subgraph(h2, g, induced=True) is not None:
            raise ClaimFailure(f"DELTA({ell}) contains an induced H2")
    if not is_isomorphic(families.delta(2), families.c7bar()):
        raise ClaimFailure("DELTA(2) should be isomorphic to C7BAR")
    return "DELTA(2..4): regular, alpha = ell, chi = 4, edge-maximal, no induced H2; DELTA(2) ~ C7BAR"


def claim_augmented_colouring() -> str:
    g = families.h2plus_augmented()
    if not validate_colouring(g, families.AUGMENTED_FIGURE_COLOURING, 4):
        raise ClaimFailure("figure colouring of the augmented graph is not proper")
    chi = chromatic_number(g)[0]
    if chi != 4:
        raise ClaimFailure(f"chi(H2PLUS_AUG) = {chi}, expected 4")
    return "figure 4-colouring validates; chi(H2PLUS_AUG) = 4"


def claim_counterexample8() -> str:
    t_star = _check_weighting_claim(
        "COUNTEREXAMPLE8", COUNTEREXAMPLE8_T_STAR, families.COUNTEREXAMPLE8_FIGURE_WEIGHTS
    )[1].optimum
    g = families.counterexample8()
    if not verify_weighting(g, families.COUNTEREXAMPLE8_FIGURE_WEIGHTS, Fraction(1, 2)):
        raise ClaimFailure("figure weighting does not beat 1/2")
    if not is_twin_free(g):
        raise ClaimFailure("COUNTEREXAMPLE8 should be twin-free")
    if not is_edge_maximal_locally_bipartite(g):
        raise ClaimFailure("COUNTEREXAMPLE8 should be edge-maximal locally bipartite")
    chi = chromatic_number(g)[0]
    if chi != 4:
        raise ClaimFailure(f"chi = {chi}, expected 4")
    for fid in ("C7BAR", "DELTA(2)", "DELTA(3)", "DELTA(4)"):
        if find_homomorphism(g, families.generate(fid)) is not None:
            raise ClaimFailure(f"unexpected homomorphism to {fid}")
    return (
        "all weighted degrees 6/11 > 1/2; twin-free edge-maximal locally bipartite; "
        f"chi = 4; no hom to C7BAR or DELTA(2..4); t* = {t_star}"
    )


def claim_decomposition_c7bar() -> str:
    for m in (2, 3, 4):
        g = blow_up(families.c7bar(), [m] * 7)
        cert = decompose_c7bar(g)
        if cert.outcome != "HOM_C7BAR":
            raise ClaimFailure(f"balanced blow-up m={m}: outcome {cert.outcome} ({cert.reason})")
        if not is_homomorphism(g, families.c7bar(), cert.hom):
            raise ClaimFailure(f"m={m}: certificate does not re-validate")
        classes = {frozenset(r) for r in blow_up_classes([m] * 7)}
        parts = {frozenset(cert.parts[f"D{i}"] + cert.parts[f"R{i}"]) for i in range(7)}
        if parts != classes:
            raise ClaimFailure(f"m={m}: T_i are not the blow-up classes")
    return "balanced C7BAR blow-ups (m = 2, 3, 4) decompose to HOM_C7BAR with T_i = classes"


def h2plus_decomposition_instance() -> tuple[Graph, list[int]]:
    """Integer scaling of the figure H2+ optimum with 0+ -> 1, delta > 6/11 n.

    Sizes (2a, 1, 2a, a, a, 2a, 1, a) give minimum weighted degree 5a (at the
    0+ classes) and order 9a + 2, so the strict bound needs 55a > 54a + 12.
    """
    a = 13
    sizes = [2 * a, 1, 2 * a, a, a, 2 * a, 1, a]
    g = blow_up(families.h2plus(), sizes)
    if not Fraction(g.min_degree()) > Fraction(6, 11) * g.n:
        raise CertificateError("the scaled H2+ instance is not above 6/11")
    return g, sizes


def claim_decomposition_h2plus() -> str:
    g, sizes = h2plus_decomposition_instance()
    cert = decompose_h2plus(g)
    if cert.outcome != "HOM_H2PLUS":
        raise ClaimFailure(f"outcome {cert.outcome} ({cert.reason})")
    if not is_homomorphism(g, families.h2plus(), cert.hom):
        raise ClaimFailure("certificate does not re-validate")
    centre_class = frozenset(blow_up_classes(sizes)[7])
    if frozenset(cert.parts["R502"]) != centre_class:
        raise ClaimFailure("R502 is not the centre blow-up class")
    return f"scaled figure blow-up (n={g.n}, delta={g.min_degree()}) decomposes to HOM_H2PLUS"


def _property_claim(suite, family: properties.Family) -> str:
    violations = suite(family)
    if violations:
        raise ClaimFailure(f"{len(violations)} violations; first: {violations[0]}")
    return f"all {family.size} {family.description}, zero violations"


def claim_extremal_search_n7() -> str:
    result = enumerate_extremal(7, Fraction(1, 2))
    if not result.exhausted:
        raise ClaimFailure("search did not exhaust the range")
    lines = [compact_line(f) for f in result.found]
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    if not any(is_isomorphic(f.graph, k3) for f in result.found):
        raise ClaimFailure("K3 missing from the output")
    if not any(is_isomorphic(f.graph, families.c7bar()) for f in result.found):
        raise ClaimFailure("C7BAR missing from the output")
    for i, f in enumerate(result.found):
        for other in result.found[i + 1 :]:
            if is_isomorphic(f.graph, other.graph):
                raise ClaimFailure("two isomorphic graphs in the output")
        membership = check_membership(f.graph, Fraction(1, 2))
        if not membership.all_pass:
            raise ClaimFailure(f"output graph fails check_membership: {compact_line(f)}")
    if lines != EXTREMAL_N7_GOLDEN:
        raise ClaimFailure(f"output differs from frozen golden: {lines}")
    return f"exhaustive to n=7: {len(lines)} graphs, matches frozen golden"


def claim_aes_r2() -> str:
    """Andrasfai-Erdos-Sos, r = 2: triangle-free with delta > 2n/5 is bipartite,
    and C5 (delta = 2n/5) shows that the bound is sharp."""
    family = properties.triangle_free_graphs(8)
    near = [g for g in family if 5 * g.min_degree() >= 2 * g.n]
    above = [g for g in near if 5 * g.min_degree() > 2 * g.n]
    violations = properties.suite_aes_r2(above)
    if violations:
        raise ClaimFailure(violations[0])
    sharp = [g for g in near if 5 * g.min_degree() == 2 * g.n and k_colourable(g, 2) is None]
    if not any(is_isomorphic(g, cycle_power(5, 1)) for g in sharp):
        raise ClaimFailure("C5 should be in the family, with delta = 2n/5 and not 2-colourable")
    return (
        f"{len(above)} of the {family.size} {family.description} have delta > 2n/5, "
        "all 2-colourable; C5, with delta = 2n/5, is not: the bound is sharp"
    )


def build_claims() -> list[tuple[str, object]]:
    claims: list[tuple[str, object]] = [
        ("chi-families-4", claim_families_four_chromatic),
        ("families-locally-bipartite", claim_families_locally_bipartite),
        ("H0-five-vertex", claim_h0_five_vertex),
        ("saturation-chain", claim_saturation_chain),
        ("non-homomorphisms", claim_non_homomorphisms),
        ("H2-weighted-6/11", claim_weighting_h2),
        ("H2PLUS-weighted-5/9", claim_weighting_h2plus),
        ("C7BAR-weighted-4/7", claim_weighting_c7bar),
        ("DELTA3-weighted-6/11", claim_weighting_delta3),
        ("delta-family", claim_delta_family),
        ("chi-augmented-H2PLUS", claim_augmented_colouring),
        ("counterexample8", claim_counterexample8),
        ("decomposition-c7bar", claim_decomposition_c7bar),
        ("decomposition-h2plus", claim_decomposition_h2plus),
    ]
    for name, suite, family, size in properties.PROPERTY_SUITES:
        claims.append((f"prop-{name}", lambda s=suite, f=family, n=size: _property_claim(s, f(n))))
    claims.append(("extremal-search-n7", claim_extremal_search_n7))
    claims.append(("AES-r2", claim_aes_r2))
    return claims


def verify_paper(only: str | None = None, timeout: float | None = None) -> Report:
    """Run the acceptance claims over the usable CPUs (``workers.run_tasks``) and
    report them in declared order; exit code 0 iff no FAIL.

    ``only`` filters claim ids by substring; ``timeout`` is a global budget in
    seconds: claims that have not started when it expires are SKIPped.  A
    claim's ``seconds`` is its wall time in the process that ran it.
    """
    claims = build_claims()
    if only:
        claims = [(cid, fn) for cid, fn in claims if only in cid]
    deadline = None if timeout is None else time.monotonic() + timeout

    def run_one(cid: str, fn) -> tuple[str, str, str, float]:
        start = time.monotonic()
        if deadline is not None and start > deadline:
            return cid, "SKIP", "global timeout reached before start", 0.0
        try:
            detail = fn()
            return cid, "PASS", detail, time.monotonic() - start
        except ClaimFailure as exc:
            return cid, "FAIL", str(exc), time.monotonic() - start
        except Exception as exc:  # a crash is a failure, never an abort
            return cid, "FAIL", f"unexpected error: {exc!r}", time.monotonic() - start

    tasks = [lambda cid=cid, fn=fn: run_one(cid, fn) for cid, fn in claims]
    return Report([ClaimResult(*entry) for entry in run_tasks(tasks, usable_cpus())[0]])
