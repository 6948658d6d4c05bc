"""No dead imports or private helpers in the engine.

The repository runs no linter, so this parses each ``src/focalvox/*.py``
and checks that every name it imports is used in the module, listed in its
``__all__``, or patched through that module by the traced benchmark (the
module-owned sites of ``perfbench/tracing.py``'s ``_SITES``), that
every module-level private name it defines is read by some module, and
that every public function and class it defines is read by some module,
exported, patched by the traced benchmark or a listed library entry
point: no public name has only the tests as callers."""

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


def public_definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each module-level function or class whose name does
    not start with an underscore."""
    return [(node.name, node.lineno) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


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


# public names that no src/ module reads and the package does not export,
# kept as library entry points
ENTRY_POINTS = {
    "save_config": "the writer paired with config.load_config",
    "save_weights": "the writer paired with weights.load_weights",
    "write_bin": "the writer paired with points.load_points(fmt='bin')",
    "erf_radius": "the receptive-field formula of one mixer, in voxels",
    "composed_support_radius": "the receptive-field formula across downsamples",
}


def uncalled_public(sources: dict[str, str],
                    kept: dict[str, set[str]]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each public function or class of ``sources``
    (module name -> source) that no source reads, ``__init__``'s
    ``__all__`` does not export, ``kept[module]`` does not list and
    :data:`ENTRY_POINTS` does not name."""
    read = set().union(*map(reads, sources.values()))
    allowed = read | exported(sources.get("focalvox", "")) | set(ENTRY_POINTS)
    return [(module, name, line) for module, source in sources.items()
            for name, line in public_definitions(source)
            if name not in allowed and name not in kept.get(module, set())]


def test_every_public_name_has_a_caller_outside_the_tests(traced):
    sources = {"focalvox" if p.stem == "__init__" else f"focalvox.{p.stem}":
               p.read_text(encoding="utf-8") for p in MODULES}
    assert uncalled_public(sources, traced) == []


def test_public_name_called_only_by_tests_is_found():
    sources = {
        "focalvox": "from .m import exported\n__all__ = ['exported']\n",
        "focalvox.m": ("def exported():\n    pass\n\n\ndef used():\n    pass\n\n\n"
                       "def traced():\n    pass\n\n\ndef save_config():\n    pass\n\n\n"
                       "def _private():\n    return used\n\n\ndef unused():\n    pass\n\n\n"
                       "class Unused:\n    pass\n"),
    }
    assert uncalled_public(sources, {"focalvox.m": {"traced"}}) == [
        ("focalvox.m", "unused", 21), ("focalvox.m", "Unused", 25)]
    assert uncalled_public(sources, {}) == [
        ("focalvox.m", "traced", 9), ("focalvox.m", "unused", 21), ("focalvox.m", "Unused", 25)]
