"""Fixtures shared by the test modules."""

import pytest

from localchrom.graphio import emit_graph


@pytest.fixture
def emit_weighted_graph():
    """The writer of the weighted text format, which the package only reads:
    the graph in the plain format, then one line ``v p/q`` per vertex."""

    def emit(wg):
        lines = [emit_graph(wg.graph).rstrip("\n")]
        lines.extend(f"{v} {w}" for v, w in enumerate(wg.weights))
        return "\n".join(lines) + "\n"

    return emit
