"""Layout rule of the package: no private cross-module imports.

A `lifelike` module or a script uses only the public names of another
`lifelike` module: `from .<module> import _name`, `from lifelike.<module>
import _name` and `<module>._name` fail here.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lifelike"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def private_uses(source: str, name: str) -> list[str]:
    """Private names that the file takes from a lifelike module."""
    tree = ast.parse(source, name)
    # Local names that denote a lifelike module.
    modules = {f"lifelike.{module}" for module in MODULES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules and alias.asname:
                    modules.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            in_package = node.level > 0 or (node.module or "").split(".")[0] == "lifelike"
            from_package = (node.level, node.module) in ((1, None), (0, "lifelike"))
            for alias in node.names if in_package else ():
                if from_package and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{name}:{node.lineno} imports {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and _dotted(node.value) in modules:
            found.append(f"{name}:{node.lineno} reads {_dotted(node)}")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_private_cross_module_imports(path):
    assert private_uses(path.read_text(), path.name) == []


def test_checker_flags_each_form():
    source = (
        "import lifelike.rules as r\n"
        "from . import boolmin\n"
        "from .heval import _fold_terms, eval_g_all\n"
        "from lifelike.simulator import _mcode_lut\n"
        "boolmin._term_key(t, 3)\n"
        "r._table(0)\n"
        "boolmin.__name__, boolmin.minimal_form\n"
    )
    assert private_uses(source, "m.py") == [
        "m.py:3 imports _fold_terms",
        "m.py:4 imports _mcode_lut",
        "m.py:5 reads boolmin._term_key",
        "m.py:6 reads r._table",
    ]
