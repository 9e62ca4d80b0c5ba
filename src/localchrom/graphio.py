"""Strict adjacency-list text format plus DOT export (write-only).

Format: first line ``n m``, then m lines ``u v`` with 0 <= u < v < n.  The
weighted variant appends n lines ``v p/q`` in vertex order.  The parsers never
guess and their errors are loud, so test fixtures stay bit-exact; only
``localchrom weight`` accepts either format, falling back to the plain one.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, WeightedGraph


class GraphFormatError(ValueError):
    pass


def _tokenise(text: str) -> list[list[str]]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line.split())
    return lines


def _parse_edges(lines: list[list[str]]) -> tuple[int, list[tuple[int, int]], int]:
    if not lines:
        raise GraphFormatError("empty input")
    header = lines[0]
    if len(header) != 2:
        raise GraphFormatError(f"malformed header {' '.join(header)!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"malformed header {' '.join(header)!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header")
    if len(lines) - 1 < m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    seen = set()
    for tokens in lines[1 : m + 1]:
        if len(tokens) != 2:
            raise GraphFormatError(f"malformed edge line {' '.join(tokens)!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"malformed edge line {' '.join(tokens)!r}") from None
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if not u < v:
            raise GraphFormatError(f"edge ({u}, {v}) violates u < v")
        if u < 0 or v >= n:
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return n, edges, m


def parse_graph(text: str) -> Graph:
    lines = _tokenise(text)
    n, edges, m = _parse_edges(lines)
    if len(lines) != m + 1:
        raise GraphFormatError(f"{len(lines) - m - 1} unexpected trailing lines")
    return Graph(n, edges)


def parse_weighted_graph(text: str) -> WeightedGraph:
    lines = _tokenise(text)
    n, edges, m = _parse_edges(lines)
    weight_lines = lines[m + 1 :]
    if len(weight_lines) != n:
        raise GraphFormatError(f"expected {n} weight lines, found {len(weight_lines)}")
    weights = []
    for i, tokens in enumerate(weight_lines):
        if len(tokens) != 2:
            raise GraphFormatError(f"malformed weight line {' '.join(tokens)!r}")
        try:
            v, w = int(tokens[0]), Fraction(tokens[1])
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError(f"malformed weight line {' '.join(tokens)!r}") from None
        if v != i:
            raise GraphFormatError(f"weight lines must list vertices in order; got {v}, expected {i}")
        if w < 0:
            raise GraphFormatError(f"negative weight at vertex {v}")
        weights.append(w)
    return WeightedGraph(Graph(n, edges), weights)


def emit_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def emit_weighted_graph(wg: WeightedGraph) -> str:
    lines = [emit_graph(wg.graph).rstrip("\n")]
    lines.extend(f"{v} {w}" for v, w in enumerate(wg.weights))
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT text for visual inspection; never parsed back."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
