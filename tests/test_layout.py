"""Rules on how the package's modules use each other, read from their source."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "beamctl"


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


def _read_names(nodes) -> set[str]:
    """Identifiers the nodes read, as plain names or as attributes."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _exports(tree: ast.Module) -> list[str]:
    """The names a module's `__all__` lists."""
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def _unread_exports() -> list[str]:
    """`module.name` for each `__all__` name that neither the package nor the benchmark reads.

    A name counts as read when another package module reads it, when its
    own module reads it outside its own definition, or when a non-test
    file of `perfbench/` names it (the tracer looks names up as strings).
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    named_by_bench = set(re.findall(r"\w+", "\n".join(p.read_text() for p in bench)))
    unread = []
    for module, tree in trees.items():
        elsewhere = _read_names(other for name, other in trees.items() if name != module)
        for name in _exports(tree):
            own = _read_names(node for node in tree.body if getattr(node, "name", None) != name)
            if name not in elsewhere | own | named_by_bench:
                unread.append(f"{module}.{name}")
    return unread


def test_every_exported_name_is_read_outside_the_tests():
    # A public name that only tests read belongs in `tests/oracles.py`.
    assert _unread_exports() == []


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import beamctl; "
        "print(beamctl.__file__); "
        "print(sorted(m for m in sys.modules if m.startswith('beamctl.')))"
    )
    args = [sys.executable, "-c", code, str(PACKAGE.parent)]
    out = subprocess.run(args, capture_output=True, text=True, check=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == PACKAGE.resolve()
    assert out[1] == "[]"
