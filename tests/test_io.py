"""Adjacency-list format round trips and strict validation."""

from fractions import Fraction

import pytest

from localchrom import families
from localchrom.graphio import (
    GraphFormatError,
    emit_graph,
    parse_any_graph,
    parse_graph,
    to_dot,
)
from localchrom.graphs import Graph, WeightedGraph


def test_k3_round_trip():
    text = "3 3\n0 1\n0 2\n1 2"
    g = parse_graph(text)
    assert g == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert emit_graph(g) == "3 3\n0 1\n0 2\n1 2\n"


def test_families_round_trip():
    for fid in ("H0", "C7BAR", "H2PLUS", "COUNTEREXAMPLE8", "DELTA(3)"):
        g = families.generate(fid)
        assert parse_graph(emit_graph(g)) == g


# each text with the message of parse_graph and of parse_any_graph
PARSE_ERRORS = {
    "": ("empty input",) * 2,
    "3": ("malformed header '3', expected 'n m'",) * 2,
    "3 1": ("expected 1 edge lines, found 0",) * 2,  # missing edge line
    "2 1\n1 1": ("self-loop at vertex 1",) * 2,
    "3 1\n2 1": ("edge (2, 1) violates u < v",) * 2,
    "3 1\n0 3": ("edge (0, 3) out of range for n=3",) * 2,
    "3 1\n-1 2": ("edge (-1, 2) out of range for n=3",) * 2,  # negative index
    "3 2\n0 1\n0 1": ("duplicate edge (0, 1)",) * 2,
    "3 1\n0 1\nleftover tokens here": (
        "1 unexpected trailing lines",
        "expected 3 weight lines, found 1",
    ),
    "a b\n0 1": ("malformed header 'a b'",) * 2,
    "3 1\n0 x": ("malformed edge line '0 x'",) * 2,
    "-1 0": ("negative counts in header",) * 2,
    "2 1\n0 1 1": ("malformed edge line '0 1 1'",) * 2,
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    for parse, message in zip((parse_graph, parse_any_graph), PARSE_ERRORS[text]):
        with pytest.raises(GraphFormatError) as info:
            parse(text)
        assert str(info.value) == message


def test_weighted_round_trip(emit_weighted_graph):
    wg = WeightedGraph(families.h2(), families.H2_FIGURE_WEIGHTS)
    text = emit_weighted_graph(wg)
    _, back = parse_any_graph(text)
    assert back.graph == wg.graph and back.weights == wg.weights


def test_weighted_integer_weights_accepted():
    text = "2 1\n0 1\n0 2\n1 3/2"
    _, wg = parse_any_graph(text)
    assert wg.weights == (Fraction(2), Fraction(3, 2))


WEIGHTED_PARSE_ERRORS = {
    "2 1\n0 1\n0 1": "expected 2 weight lines, found 1",
    "2 1\n0 1\n1 1\n0 1": "weight lines must list vertices in order; got 1, expected 0",
    "2 1\n0 1\n0 -1\n1 1": "negative weight at vertex 0",
    "2 1\n0 1\n0 1/0\n1 1": "malformed weight line '0 1/0'",  # zero denominator
    "1 0\n0": "malformed weight line '0'",
}


@pytest.mark.parametrize("text", list(WEIGHTED_PARSE_ERRORS))
def test_weighted_parse_errors(text):
    with pytest.raises(GraphFormatError) as info:
        parse_any_graph(text)
    assert str(info.value) == WEIGHTED_PARSE_ERRORS[text]


def test_comments_and_blank_lines_ignored():
    text = "# a triangle\n\n3 3\n0 1\n# chord list\n0 2\n1 2\n"
    assert parse_graph(text).edge_count() == 3


def test_dot_export():
    dot = to_dot(Graph(3, [(0, 1)]), name="T")
    assert dot.startswith("graph T {")
    assert "0 -- 1;" in dot and "2;" in dot
