"""The module layers: the lower modules import no sibling above them."""

import ast
from pathlib import Path

import pytest

import localchrom

SRC = Path(localchrom.__file__).parent

# each module and the siblings it may import
LAYERS = {
    **{name: {"graphs"} for name in ("families", "graphio", "structure", "homomorphism", "colouring")},
    "graphs": set(),
    "simplex": set(),
    "weighting": {"graphs", "simplex"},
}


def _siblings(name: str) -> set[str]:
    """The package modules that ``name`` imports, by relative imports."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_only_lower_layers(name):
    assert _siblings(name) <= LAYERS[name]


def test_every_sibling_import_is_relative():
    # an absolute import of the package would slip past the check above
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level or not (node.module or "").startswith("localchrom"), path.name
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("localchrom") for a in node.names), path.name
