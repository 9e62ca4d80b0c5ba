"""Named graph families with pinned vertex labellings.

The seven-vertex graphs live on a 7-cycle a0..a6 (a0 at the top, clockwise);
extra chord sets are pinned so that vertex-level claims are assertable by
index.  Added apex/centre vertices always get the next index.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .graphs import Graph, complement, cycle_power

_C7_EDGES = [(i, (i + 1) % 7) for i in range(7)]

# Chords of the named seven-vertex graphs, in the labelling of the figures.
_H0_CHORDS = [(5, 0), (0, 2), (1, 3), (4, 6)]
_H1_CHORDS = [(3, 5), (5, 0), (0, 2), (2, 4), (6, 1)]
_H2_CHORDS = [(1, 3), (3, 5), (5, 0), (0, 2), (2, 4), (4, 6)]

H2PLUS_CENTRE_NEIGHBOURS = (0, 2, 5)
COUNTEREXAMPLE8_APEX_NEIGHBOURS = (6, 0, 1, 3)
AUGMENTED_EXTRA_EDGES = ((7, 3), (7, 4), (2, 6), (1, 5))

# Figure weightings, indexed by the pinned labels (added vertex last).
H2_FIGURE_WEIGHTS = tuple(Fraction(w, 11) for w in (3, 1, 2, 1, 1, 2, 1))
H2PLUS_FIGURE_WEIGHTS = tuple(Fraction(w, 9) for w in (2, 0, 2, 1, 1, 2, 0, 1))
COUNTEREXAMPLE8_FIGURE_WEIGHTS = tuple(Fraction(w, 11) for w in (2, 1, 1, 2, 1, 2, 1, 1))

# 4-colourings of the decomposition targets, by vertex; the augmented graph's is its figure's.
C7BAR_COLOURING = (1, 2, 3, 1, 2, 3, 4)
H2PLUS_COLOURING = (1, 2, 3, 1, 2, 3, 4, 2)
AUGMENTED_FIGURE_COLOURING = (2, 1, 3, 2, 4, 3, 1, 1)


def h0() -> Graph:
    return Graph(7, _C7_EDGES + _H0_CHORDS)


def h1() -> Graph:
    return Graph(7, _C7_EDGES + _H1_CHORDS)


def h2() -> Graph:
    return Graph(7, _C7_EDGES + _H2_CHORDS)


def h2plus() -> Graph:
    """h2 plus a degree-3 centre (vertex 7) adjacent to a0, a2, a5."""
    return h2().with_vertex(sum(1 << v for v in H2PLUS_CENTRE_NEIGHBOURS))


def c7bar() -> Graph:
    return cycle_power(7, 2)


def wheel(k: int) -> Graph:
    """k-cycle 0..k-1 plus an apex (vertex k) joined to every cycle vertex."""
    if k < 3:
        raise ValueError("wheel requires k >= 3")
    g = Graph(k, [(i, (i + 1) % k) for i in range(k)])
    return g.with_vertex((1 << k) - 1)


def andrasfai(i: int) -> Graph:
    if i < 1:
        raise ValueError("andrasfai requires i >= 1")
    if i == 1:
        # 3i - 1 = 2 is below cycle_power's range; Gamma_1 is just K2.
        return Graph(2, [(0, 1)])
    return complement(cycle_power(3 * i - 1, i - 1))


def delta(ell: int) -> Graph:
    if ell < 2:
        raise ValueError("delta requires ell >= 2")
    return complement(cycle_power(4 * ell - 1, ell - 1))


def h2plus_augmented() -> Graph:
    """h2plus with four extra edges: centre-a3, centre-a4, a2-a6, a1-a5."""
    g = h2plus()
    for u, v in AUGMENTED_EXTRA_EDGES:
        g = g.with_edge(u, v)
    return g


def counterexample8() -> Graph:
    """h2 plus an apex (vertex 7) adjacent to a6, a0, a1, a3."""
    return h2().with_vertex(sum(1 << v for v in COUNTEREXAMPLE8_APEX_NEIGHBOURS))


_NAMED = {
    "H0": h0,
    "H1": h1,
    "H2": h2,
    "H2PLUS": h2plus,
    "C7BAR": c7bar,
    "H2PLUS_AUG": h2plus_augmented,
    "COUNTEREXAMPLE8": counterexample8,
}

_PARAMETRIC = {
    "WHEEL": (wheel, "k >= 3"),
    "ANDRASFAI": (andrasfai, "i >= 1"),
    "DELTA": (delta, "ell >= 2"),
}

_ID_RE = re.compile(r"^([A-Z0-9_]+)(?:\((\d+)\))?$")


def parse_family_id(text: str) -> tuple[str, int | None]:
    m = _ID_RE.match(text.strip().upper())
    if not m:
        raise ValueError(f"malformed family id: {text!r}")
    tag, param = m.group(1), m.group(2)
    if tag in _NAMED:
        if param is not None:
            raise ValueError(f"{tag} takes no parameter")
        return tag, None
    if tag in _PARAMETRIC:
        if param is None:
            raise ValueError(f"{tag} requires a parameter, e.g. {tag}(3)")
        return tag, int(param)
    raise ValueError(f"unknown family: {tag}")


def generate(family_id: str) -> Graph:
    """Build the named graph, e.g. generate("H2PLUS") or generate("DELTA(3)")."""
    tag, param = parse_family_id(family_id)
    if tag in _NAMED:
        return _NAMED[tag]()
    return _PARAMETRIC[tag][0](param)


def list_families() -> list[str]:
    fixed = sorted(_NAMED)
    parametric = [f"{tag}(k), {hint}" for tag, (_, hint) in sorted(_PARAMETRIC.items())]
    return fixed + parametric
