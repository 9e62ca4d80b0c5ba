"""The four workloads: inputs built in ``setup``, one pass in ``run``.

A pass calls the public API of ``localchrom`` as one caller in a closed loop
and checks every answer inside the pass.  Calls go through the package or
module attribute at call time, so a traced pass reaches the wrappers.
The reasons for each workload are in README.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

from checks import CheckFailure, check_colouring, check_hom, check_lines, check_tstar, isomorphic


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (lc, seed, golden, out_dir) -> ctx
    run: Callable  # (ctx, ops, tracer) -> per-layer values observed in the pass
    counts: Callable | None = None  # (ctx, ops, values) -> more values, traced runs only


def _k3(lc):
    return lc.Graph(3, [(0, 1), (0, 2), (1, 2)])


def _read_checkpoint(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


# ---------------------------------------------------------------------------
# search-n8: enumerate to n = 7 with a checkpoint, then resume to n = 8.


def setup_search(lc, seed, golden, out_dir):
    g = golden["search-n8"]
    named = {"K3": _k3(lc), "C7BAR": lc.families.c7bar(), "H2PLUS": lc.families.h2plus()}
    return {
        "lc": lc,
        "c": Fraction(g["c"]),
        "found": [(named[f["name"]], Fraction(f["t_star"]), f["line"]) for f in g["found"]],
        "levels": {int(n): count for n, count in g["level_classes"].items()},
        "ckpt": os.path.join(out_dir, "search-n8.ckpt"),
    }


def _check_search(ctx, result, n_max: int) -> int:
    expected = [entry for entry in ctx["found"] if entry[0].n <= n_max]
    compact_line = ctx["lc"].search.compact_line
    check_lines([compact_line(f) for f in result.found], [line for _, _, line in expected])
    for f, (graph, t_star, _) in zip(result.found, expected):
        if f.t_star != t_star or not isomorphic(f.graph, graph):
            raise CheckFailure(f"found graph on {f.graph.n} vertices is not the named one")
    state = _read_checkpoint(ctx["ckpt"])
    classes = len(state["graphs"])
    if state["level"] != n_max or classes != ctx["levels"][n_max]:
        raise CheckFailure(f"checkpoint holds {classes} classes at level {state['level']}")
    return classes


def run_search(ctx, ops, tracer=None):
    lc, c, ckpt = ctx["lc"], ctx["c"], ctx["ckpt"]
    info = {}
    _remove(ckpt)

    def to7():
        start = perf_counter()
        result = lc.enumerate_extremal(7, c, checkpoint_path=ckpt)
        info["search.phase_to7_s"] = perf_counter() - start
        info["search.level7_classes"] = _check_search(ctx, result, 7)

    def resume8():
        canon = tracer.names.index("homomorphism.canonical_form") if tracer else None
        before = tracer.calls[canon] if tracer else 0
        start = perf_counter()
        result = lc.enumerate_extremal(8, c, checkpoint_path=ckpt, resume_path=ckpt)
        info["search.phase_resume8_s"] = perf_counter() - start
        info["search.checkpoint_bytes"] = os.path.getsize(ckpt)
        kept = info["search.level8_classes"] = _check_search(ctx, result, 8)
        if tracer:  # canonical forms computed from 7 to 8, per class kept
            info["search.canon_calls_per_class"] = (tracer.calls[canon] - before) / kept

    ops.run("search-to-7", to7)
    ops.run("resume-to-8", resume8)
    _remove(ckpt)
    return info


def count_levels(ctx, ops, observed):
    """Class counts of levels 1..6, each read from a checkpoint, and the masks
    tried: the sum of |level n| * 2^n over the parent levels 1..7."""
    lc, c = ctx["lc"], ctx["c"]
    path = ctx["ckpt"] + ".levels"
    info = {}

    def chain():
        _remove(path)
        for n in range(1, 7):
            resume = path if n > 1 else None
            lc.enumerate_extremal(n, c, checkpoint_path=path, resume_path=resume)
            classes = len(_read_checkpoint(path)["graphs"])
            if classes != ctx["levels"][n]:
                raise CheckFailure(f"level {n} has {classes} classes")
            info[f"search.level{n}_classes"] = classes
        _remove(path)

    ops.run("level-counts", chain)
    levels = [info.get(f"search.level{n}_classes", 0) for n in range(1, 7)]
    levels.append(observed.get("search.level7_classes", 0))
    info["search.masks_tried"] = sum(size << n for n, size in enumerate(levels, start=1))
    return info


# ---------------------------------------------------------------------------
# profile-large: verify_profile on large blow-ups, and one deep k_colourable.

# The shuffled item runs under a fixed panel of relabellings (random.Random(i)
# for i = 1..8), not under --seed: its cost depends on the labelling and is
# bimodal (0.24 s to 4.3 s per relabelling over seeds 1..15), which would make
# the pass time depend on the seed instead of on the program.
SHUFFLE_PANEL = range(1, 9)


def setup_profile(lc, seed, golden, out_dir):
    fam = lc.families
    a = 26
    c7bar_m20 = lc.blow_up(fam.c7bar(), [20] * 7)
    panel = []
    for i in SHUFFLE_PANEL:
        perm = list(range(c7bar_m20.n))
        random.Random(i).shuffle(perm)
        panel.append(lc.relabel(c7bar_m20, perm))
    items = [
        ("c7bar-m40", [lc.blow_up(fam.c7bar(), [40] * 7)]),
        ("h2plus-a26", [lc.blow_up(fam.h2plus(), [2 * a, 1, 2 * a, a, a, 2 * a, 1, a])]),
        ("k3-m100", [lc.blow_up(_k3(lc), [100] * 3)]),
        ("delta3-m20", [lc.blow_up(fam.delta(3), [20] * 11)]),
        ("c7bar-m20-shuffled", panel),
    ]
    return {
        "lc": lc,
        "items": [(name, graphs, golden["profile-large"][name]) for name, graphs in items],
        "deep": lc.blow_up(fam.c7bar(), [200] * 7),
    }


def _check_profile(lc, g, report, outcome: str) -> None:
    if report.hard_failure or report.outcome != outcome:
        raise CheckFailure(f"outcome {report.outcome}, expected {outcome}: {report.detail}")
    check_colouring(g, report.colouring, 3 if outcome == "3-colouring" else 4)
    if outcome.startswith("HOM_"):
        check_hom(g, lc.families.generate(report.hom_target), report.hom)


def run_profile(ctx, ops, tracer=None):
    lc = ctx["lc"]
    info = {}
    for name, graphs, outcome in ctx["items"]:

        def item():
            start = perf_counter()
            try:
                for g in graphs:
                    _check_profile(lc, g, lc.verify_profile(g), outcome)
            finally:
                info[f"decompose.verify_profile.{name}.busy_s"] = perf_counter() - start

        ops.run(name, item)

    def deep():
        start = perf_counter()
        try:
            if lc.k_colourable(ctx["deep"], 3) is not None:
                raise CheckFailure("a 3-colouring of a 4-chromatic blow-up")
        finally:
            info["colouring.k_colourable.c7bar-m200.busy_s"] = perf_counter() - start

    ops.run("c7bar-m200-k3", deep)
    return info


# ---------------------------------------------------------------------------
# tstar-catalogue: optimal_weighting on seeded relabellings of 21 graphs.

CATALOGUE = (
    ["H2", "H2PLUS", "C7BAR", "COUNTEREXAMPLE8", "H2PLUS_AUG", "WHEEL(5)", "WHEEL(7)"]
    + [f"DELTA({ell})" for ell in range(3, 8)]
    + [f"ANDRASFAI({i})" for i in range(3, 9)]
)
BLOW_UPS = {"H2PLUS*2": ("H2PLUS", 2), "H2PLUS*3": ("H2PLUS", 3), "C7BAR*3": ("C7BAR", 3)}


def closed_form(family_id: str) -> Fraction | None:
    """t*(DELTA(l)) = 2l/(4l-1) and t*(ANDRASFAI(i)) = i/(3i-1)."""
    tag, _, param = family_id.partition("(")
    if tag == "DELTA":
        ell = int(param.rstrip(")"))
        return Fraction(2 * ell, 4 * ell - 1)
    if tag == "ANDRASFAI":
        i = int(param.rstrip(")"))
        return Fraction(i, 3 * i - 1)
    return None


def setup_tstar(lc, seed, golden, out_dir):
    frozen = golden["tstar-catalogue"]
    graphs = {fid: lc.families.generate(fid) for fid in CATALOGUE}
    for name, (base, m) in BLOW_UPS.items():
        graphs[name] = lc.blow_up(lc.families.generate(base), [m] * graphs[base].n)
    rng = random.Random(seed)
    items = []
    for name, g in graphs.items():
        expected = Fraction(frozen[name])
        if closed_form(name) not in (None, expected):
            raise ValueError(f"golden t*({name}) disagrees with its closed form")
        perm = list(range(g.n))
        rng.shuffle(perm)
        items.append((name, lc.relabel(g, perm), expected))
    return {"lc": lc, "items": items}


def run_tstar(ctx, ops, tracer=None):
    lc = ctx["lc"]
    for name, g, expected in ctx["items"]:
        ops.run(name, lambda g=g, expected=expected: check_tstar(g, lc.optimal_weighting(g), expected))
    return {}


# ---------------------------------------------------------------------------
# verify-paper: the user command, every claim must PASS.


def setup_verify(lc, seed, golden, out_dir):
    os.environ.pop("LOCALCHROM_THREADS", None)
    return {"lc": lc, "claims": golden["verify-paper"]}


def run_verify(ctx, ops, tracer=None):
    try:
        entries = {e.claim_id: e for e in ctx["lc"].report.verify_paper().entries}
        crash = None
    except Exception as exc:  # the runner itself raised: every claim fails with it
        entries, crash = {}, exc
    for cid in ctx["claims"]:

        def claim(cid=cid):
            if crash is not None:
                raise crash
            entry = entries.get(cid)
            if entry is None:
                raise CheckFailure("claim missing from the report")
            if entry.status != "PASS":
                raise CheckFailure(f"{entry.status}: {entry.detail}")

        ops.run(cid, claim)
    return {
        f"report.claim_s.{cid.replace('/', '_')}": entries[cid].seconds
        for cid in ctx["claims"]
        if cid in entries
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-paper", setup_verify, run_verify),
        Workload("tstar-catalogue", setup_tstar, run_tstar),
        Workload("profile-large", setup_profile, run_profile),
        Workload("search-n8", setup_search, run_search, count_levels),
    )
}
