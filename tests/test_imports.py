"""No dead imports or private helpers in the engine.

The repository runs no linter, so this parses each ``src/focalvox/*.py``
and checks that every name it imports is used in the module, listed in its
``__all__``, or patched through that module by the traced benchmark (the
module-owned sites of ``perfbench/tracing.py``'s ``_SITES``), and that
every module-level private name it defines is read by some module."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "focalvox").glob("*.py"))


def dead_imports(source: str, kept: set[str]) -> list[tuple[str, int]]:
    """(name, line) of each imported name that no expression of ``source``
    reads and that ``kept`` does not list; ``__future__`` imports excluded."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        dead += [(n, node.lineno) for n in names if n not in used and n not in kept]
    return dead


def private_definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class or assigned
    constant whose name starts with one underscore."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(n, line) for n, line in defined if n.startswith("_") and not n.startswith("__")]


def reads(source: str) -> set[str]:
    """Every name an expression of ``source`` reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def exported(source: str) -> set[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.fixture
def traced(monkeypatch) -> dict[str, set[str]]:
    """Module name -> the attributes the tracer patches on that module."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    sites = importlib.import_module("tracing")._SITES
    out: dict[str, set[str]] = {}
    for _, owner, attr, _ in sites:
        if inspect.ismodule(owner):
            out.setdefault(owner.__name__, set()).add(attr)
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path, traced):
    source = path.read_text(encoding="utf-8")
    module = "focalvox" if path.stem == "__init__" else f"focalvox.{path.stem}"
    assert dead_imports(source, exported(source) | traced.get(module, set())) == []


def test_dead_import_is_found():
    source = "import os\nimport numpy as np\nfrom .x import a, b\n\nprint(np.pi, a)\n"
    assert dead_imports(source, set()) == [("os", 1), ("b", 3)]
    assert dead_imports(source, {"os", "b"}) == []


def test_every_private_helper_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    read = set().union(*map(reads, sources.values()))
    dead = [(name, *d) for name, source in sources.items()
            for d in private_definitions(source) if d[0] not in read]
    assert dead == []


def test_dead_private_helper_is_found():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\n\n\ndef _f():\n    return _A\n\n\n"
              "class _C:\n    pass\n\n\ndef g():\n    return m._C\n")
    assert [n for n, _ in private_definitions(source)] == ["_A", "_B", "_f", "_C"]
    assert [n for n, _ in private_definitions(source) if n not in reads(source)] == ["_B", "_f"]
