"""Rules on how the package's modules use each other, read from their source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "beamctl"


def _private_imports(path: Path) -> list[str]:
    """`module.name` for each private name the file imports from another package module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("beamctl"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                found.append(f"{node.module}.{name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    assert _private_imports(path) == []


def test_the_scan_sees_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .synthesis import _window_steps, approx_experiment\n"
        "from beamctl.dynamics import _grid_nodes\n"
        "from . import __version__\n"
        "from numpy import _private\n"
    )
    assert _private_imports(path) == ["synthesis._window_steps", "beamctl.dynamics._grid_nodes"]
