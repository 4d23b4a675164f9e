"""Layout rules of the package.

No private cross-module imports: a `lifelike` module or a script uses only
the public names of another `lifelike` module, so `from .<module> import
_name`, `from lifelike.<module> import _name` and `<module>._name` fail
here. One process pool: no module or script imports `multiprocessing` or
`concurrent`, and no module but `cli.py` reads `os.fork`, so every worker
is forked in `cli._cpu_map`. One way to a catalog record: no module or
script but `catalog.py` calls `CatalogRecord(...)`; the others build
records through its classmethods.
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


POOL_PACKAGES = ("multiprocessing", "concurrent")


def pool_imports(source: str, name: str) -> list[str]:
    """Imports of a process-pool package anywhere in the file."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{name}:{node.lineno} imports {module}"
            for module in modules
            if module.split(".")[0] in POOL_PACKAGES
        ]
    return found


def fork_uses(source: str, name: str) -> list[str]:
    """Reads and imports of `os.fork` anywhere in the file."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Attribute) and _dotted(node) == "os.fork":
            found.append(f"{name}:{node.lineno} reads os.fork")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"{name}:{node.lineno} imports os.fork"
                for alias in node.names
                if alias.name == "fork"
            ]
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_only_cli_imports_a_process_pool(path):
    assert pool_imports(path.read_text(), path.name) == []
    if path != PACKAGE / "cli.py":
        assert fork_uses(path.read_text(), path.name) == []


def test_pool_checker_flags_each_form():
    source = (
        "import multiprocessing\n"
        "def f():\n"
        "    from concurrent import futures\n"
        "    import concurrent.futures.process as p, os\n"
        "from multiprocessing.pool import Pool\n"
        "import multiprocessing_x\n"
        "from . import concurrent\n"
    )
    assert sorted(pool_imports(source, "m.py")) == [
        "m.py:1 imports multiprocessing",
        "m.py:3 imports concurrent",
        "m.py:4 imports concurrent.futures.process",
        "m.py:5 imports multiprocessing.pool",
    ]
    source = (
        "import os\n"
        "pid = os.fork()\n"
        "from os import fork, getpid\n"
        "spawn = os.forkpty\n"
    )
    assert sorted(fork_uses(source, "m.py")) == ["m.py:2 reads os.fork", "m.py:3 imports os.fork"]
    assert fork_uses((PACKAGE / "cli.py").read_text(), "cli.py") != []


def record_constructions(source: str, name: str) -> list[str]:
    """Calls of `CatalogRecord`, under its own name, an alias or as a
    module attribute; calls of its classmethods are not flagged."""
    tree = ast.parse(source, name)
    names = {"CatalogRecord"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name == "CatalogRecord" and a.asname)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in names:
                lines.append(node.lineno)
    return [f"{name}:{line} constructs CatalogRecord" for line in sorted(lines)]


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_only_catalog_constructs_a_record(path):
    if path != PACKAGE / "catalog.py":
        assert record_constructions(path.read_text(), path.name) == []


def test_record_checker_flags_each_form():
    source = (
        "from .catalog import CatalogRecord\n"
        "from lifelike.catalog import CatalogRecord as Record\n"
        "from lifelike import catalog\n"
        "CatalogRecord(rule='1', arity=0, me=[])\n"
        "def f(fields):\n"
        "    return Record(**fields)\n"
        "catalog.CatalogRecord('1', 0, [])\n"
        "CatalogRecord.from_measures(1, 0, me, None, {})\n"
        "catalog.CatalogRecord.from_json(line)\n"
        "Recorder()\n"
    )
    assert record_constructions(source, "m.py") == [
        "m.py:4 constructs CatalogRecord",
        "m.py:6 constructs CatalogRecord",
        "m.py:7 constructs CatalogRecord",
    ]
