"""Strict adjacency-list text format plus DOT export (write-only).

Format: first line ``n m``, then m lines ``u v`` with 0 <= u < v < n.  The
weighted variant, which is only read, appends n lines ``v p/q`` in vertex order.
One strict reader per format: ``parse_graph`` reads the plain one, and
``parse_any_graph`` (for ``localchrom weight``) either: a file is weighted iff
lines follow its edges.  Each edge line is checked once, as it goes into the
rows of the one ``Graph`` built; the errors are loud and never guess."""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, WeightedGraph


class GraphFormatError(ValueError):
    pass


def _parse_rows(text: str) -> tuple[Graph, list[str]]:
    """The graph of the header and edge lines, and the lines after them; blank
    lines and ``#`` comments are skipped.  A line is split only when it is read,
    so a large file leaves no list per line for the garbage collector to walk."""
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not lines:
        raise GraphFormatError("empty input")
    header = lines[0].split()
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
    rows = [0] * n
    for line in lines[1 : m + 1]:
        tokens = line.split()
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
        if rows[u] >> v & 1:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._of_valid_rows(tuple(rows)), lines[m + 1 :]


def parse_graph(text: str) -> Graph:
    g, rest = _parse_rows(text)
    if rest:
        raise GraphFormatError(f"{len(rest)} unexpected trailing lines")
    return g


def parse_any_graph(text: str) -> tuple[Graph, WeightedGraph | None]:
    """The graph, and its weighting if lines follow the edges, from one pass."""
    g, rest = _parse_rows(text)
    return g, _weighted(g, rest) if rest else None


def _weighted(g: Graph, weight_lines: list[str]) -> WeightedGraph:
    if len(weight_lines) != g.n:
        raise GraphFormatError(f"expected {g.n} weight lines, found {len(weight_lines)}")
    weights = []
    for i, line in enumerate(weight_lines):
        tokens = line.split()
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
    return WeightedGraph(g, weights)


def emit_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
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
