"""The package's public surface resolves: no stale or doubled export.

Every ``__all__`` under ``src/repro`` must name each attribute once, and
each name must exist on the module.  Every ``repro`` import of the
scripts outside the package (``examples/``, ``benchmarks/``,
``e2ebench/``) must resolve too.  Those scripts are read with ``ast``,
never run, so a name they import that a change deletes fails here in
milliseconds rather than in a long benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCRIPT_DIRS = ("examples", "benchmarks", "e2ebench")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _declared_all(path: Path):
    """The literal ``__all__`` list of a module file, or ``None``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return ast.literal_eval(node.value)
    return None


EXPORTING = sorted(
    _module_name(path)
    for path in (SRC / "repro").rglob("*.py")
    if path.name != "__main__.py" and _declared_all(path) is not None
)


def _script_imports():
    """``{script: [(module, name), ...]}`` of every ``repro`` import of the
    scripts; ``name`` is ``None`` for ``import repro.x``."""
    found = {}
    for top in SCRIPT_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            imports = []
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    module = node.module or ""
                    if module == "repro" or module.startswith("repro."):
                        imports.extend((module, a.name) for a in node.names)
                elif isinstance(node, ast.Import):
                    imports.extend(
                        (a.name, None)
                        for a in node.names
                        if a.name == "repro" or a.name.startswith("repro.")
                    )
            if imports:
                found[str(path.relative_to(ROOT))] = imports
    return found


SCRIPT_IMPORTS = _script_imports()


def test_the_surface_is_found():
    assert {"repro", "repro.geometry", "repro.voronoi", "repro.metrics"} <= set(
        EXPORTING
    )
    assert {"examples/quickstart.py", "e2ebench/workloads.py"} <= set(SCRIPT_IMPORTS)


@pytest.mark.parametrize("module_name", EXPORTING)
def test_every_export_resolves_once(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    doubled = sorted({name for name in exported if exported.count(name) > 1})
    assert not doubled, f"{module_name}.__all__ lists {doubled} more than once"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def _resolves(module_name, name):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or hasattr(module, name):
        return True
    # ``from repro.obs import report`` may name a submodule not yet loaded.
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("script", sorted(SCRIPT_IMPORTS))
def test_script_imports_resolve(script):
    unresolved = [
        f"{module_name}.{name}" if name else module_name
        for module_name, name in SCRIPT_IMPORTS[script]
        if not _resolves(module_name, name)
    ]
    assert not unresolved, f"{script} imports missing names {unresolved}"
