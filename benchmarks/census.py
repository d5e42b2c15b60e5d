#!/usr/bin/env python
"""Dead-code census: ``src/`` definitions that only the tests reach.

Usage (from the repo root)::

    python benchmarks/census.py           # list the findings
    python benchmarks/census.py --check   # exit 1 on any finding

Reads every module under ``src/repro`` with :mod:`ast` (nothing is
imported or executed) and lists the functions, methods and classes that
no code outside ``tests/`` refers to.  The referencing code is
``src/``, ``examples/``, ``benchmarks/`` and ``e2ebench/``.  A
reference is a bare name or an attribute of the same spelling anywhere
in that code, or a string constant that is a name or a dotted/colon path
of names (``getattr`` targets, ``e2ebench/tracer.py``'s
``"module:Class.attr"``).  References are resolved where the code says
what they reach: a bare name reaches the module-level definitions (and,
inside a class body, that class's methods); ``self.name`` and
``cls.name`` reach only the enclosing class, its bases and its
subclasses (an override is called through the base's ``self``); and
``Class.name`` only ``Class`` and its bases, the hierarchy read from the
class statements of that same code.  Any other ``obj.name``, and every
string, matches by name alone, so such a method counts as used when any
object's attribute of that name is read.

These do not count as a reference: a name in ``__all__``, an import
line, a docstring, and a reference from inside the definition itself or
from inside another finding (the census repeats until nothing new is
found, so a helper only a dead function calls is dead too).  A decorator
registration (``@register_layout("maze")``) counts as a use; plain
decorators such as ``@property`` do not.  Dunder methods are skipped:
Python calls them.

:data:`ALLOWLIST` names the test-only state readers that are kept on
purpose.  ``--check`` exits 1 on any other finding, and on an allowlist
entry that names no definition.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

THIS_FILE = pathlib.Path(__file__).resolve()
REPO_ROOT = THIS_FILE.parents[1]
REFERENCING = ("src", "examples", "benchmarks", "e2ebench")

#: Definitions with no caller outside ``tests/`` that stay on purpose:
#: state readers and checks that many tests use to inspect a world.
#: Rewriting those call sites would remove no concept.  An unresolved
#: ``obj.name`` of the same spelling may count some of them as used; they
#: are listed all the same, so that the choice is written down either way.
ALLOWLIST = frozenset(
    {
        # Parent of a sensor in the routing tree (about 25 test call sites).
        "ConnectivityTree.parent_of",
        # Ids currently in the tree.
        "ConnectivityTree.members",
        # The tree's consistency check, run after each mutation in the
        # tree, lifecycle and CPVF tests.
        "ConnectivityTree.validate",
        # One named counter of a telemetry recorder.
        "Telemetry.counter",
        # The sample coordinates of a coverage grid.
        "CoverageGrid.axes",
        # Vector helpers the geometry tests and oracles build points with.
        "Vec2.from_polar",
        "Vec2.rotated",
        "Vec2.perpendicular",
        "Vec2.angle",
    }
)

#: The decorators ``src/`` uses that do not register their target; any
#: other decorator counts as a registration, so its target is a use.
PLAIN_DECORATORS = frozenset(
    {"property", "setter", "staticmethod", "classmethod", "abstractmethod", "dataclass"}
)

_PATH_RE = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")


@dataclass(frozen=True)
class Definition:
    """One function, method or class defined under ``src/repro``."""

    path: pathlib.Path
    qualname: str
    name: str
    start: int
    end: int
    registered: bool

    def encloses(self, path: pathlib.Path, line: int) -> bool:
        return path == self.path and self.start <= line <= self.end

    @property
    def owner(self) -> Optional[str]:
        """The class of a method, ``None`` for a module-level definition."""
        return self.qualname.split(".")[0] if "." in self.qualname else None


#: The classes a resolved reference can reach (``None`` in the set is
#: module level); a reach of ``None`` is by name alone.
Reach = Optional[FrozenSet[Optional[str]]]


class Hierarchy:
    """Base-class links between the classes of the referencing code, by
    name (a base written ``module.Class`` is ``Class``)."""

    def __init__(self) -> None:
        self.bases: Dict[str, Set[str]] = {}

    def add(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self.bases.setdefault(node.name, set()).update(
                    _decorator_name(base) for base in node.bases
                )

    def _closure(self, name: str, step) -> Set[str]:
        seen = {name}
        todo = [name]
        while todo:
            for other in step(todo.pop()):
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        return seen

    def up(self, name: str) -> FrozenSet[str]:
        """``name`` and its bases."""
        return frozenset(self._closure(name, lambda c: self.bases.get(c, ())))

    def lineage(self, name: str) -> FrozenSet[str]:
        """``name``, its bases and its subclasses."""
        down = self._closure(
            name, lambda c: [sub for sub, bases in self.bases.items() if c in bases]
        )
        return self.up(name) | down


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _registered(node: ast.AST) -> bool:
    return any(
        _decorator_name(d) not in PLAIN_DECORATORS
        for d in getattr(node, "decorator_list", ())
    )


def definitions(path: pathlib.Path, tree: ast.Module) -> Iterable[Definition]:
    """Module-level functions and classes, and the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def make(node, qualname: str) -> Definition:
        return Definition(
            path, qualname, node.name, node.lineno, node.end_lineno, _registered(node)
        )

    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield make(node, node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield make(item, f"{node.name}.{item.name}")


def _docstring_nodes(tree: ast.Module) -> Set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                ids.add(id(body[0].value))
    return ids


def _all_nodes(tree: ast.Module) -> Set[int]:
    """Ids of the string constants inside ``__all__ = [...]``."""
    ids = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            ids.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return ids


def _enclosing_class(spans: List[Tuple[int, int, str]], line: int) -> Optional[str]:
    inside = [(start, name) for start, end, name in spans if start <= line <= end]
    return max(inside)[1] if inside else None


def _reach(node: ast.Attribute, spans, hierarchy: Hierarchy) -> Reach:
    receiver = node.value
    if not isinstance(receiver, ast.Name):
        return None
    if receiver.id in ("self", "cls"):
        owner = _enclosing_class(spans, node.lineno)
        return hierarchy.lineage(owner) if owner is not None else None
    if receiver.id in hierarchy.bases:
        return hierarchy.up(receiver.id)
    return None


def references(
    tree: ast.Module, hierarchy: Hierarchy
) -> Iterable[Tuple[str, int, Reach]]:
    """``(name, line, reach)`` of every name, attribute and name-like
    string; ``reach`` is ``None`` unless the receiver resolves."""
    skip = _docstring_nodes(tree) | _all_nodes(tree)
    spans = [
        (node.lineno, node.end_lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            # A bare name reaches the module-level definitions, and the
            # methods of a class from inside its body.
            owner = _enclosing_class(spans, node.lineno)
            yield node.id, node.lineno, frozenset({None, owner})
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, _reach(node, spans, hierarchy)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
            and _PATH_RE.fullmatch(node.value)
        ):
            for part in re.split(r"[.:]", node.value):
                yield part, node.lineno, None


def census(
    root: pathlib.Path = REPO_ROOT,
) -> Tuple[List[Definition], List[Definition]]:
    """``(definitions, findings)``: every ``root/src/repro`` definition,
    and those with no reference outside ``tests/`` (repeated to a
    fixpoint)."""
    src = root / "src" / "repro"
    trees: Dict[pathlib.Path, ast.Module] = {}
    hierarchy = Hierarchy()
    for top in REFERENCING:
        for path in sorted((root / top).rglob("*.py")):
            if path == THIS_FILE:
                continue  # the allowlist's strings are not uses
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            trees[path] = tree
            hierarchy.add(tree)
    defs: List[Definition] = []
    refs: Dict[str, List[Tuple[pathlib.Path, int, Reach]]] = {}
    for path, tree in trees.items():
        if src in path.parents:
            defs.extend(definitions(path, tree))
        for name, line, reach in references(tree, hierarchy):
            refs.setdefault(name, []).append((path, line, reach))

    dead: List[Definition] = []
    while True:
        found = [
            d
            for d in defs
            if d not in dead
            and not d.registered
            and all(
                (reach is not None and d.owner not in reach)
                or any(owner.encloses(path, line) for owner in (d, *dead))
                for path, line, reach in refs.get(d.name, ())
            )
        ]
        if not found:
            return defs, sorted(dead, key=lambda d: (str(d.path), d.start))
        dead.extend(found)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="exit 1 on a finding not in ALLOWLIST"
    )
    args = parser.parse_args(argv)
    defs, findings = census()
    new = [d for d in findings if d.qualname not in ALLOWLIST]
    for d in findings:
        mark = "allowed" if d.qualname in ALLOWLIST else "dead"
        rel = d.path.relative_to(REPO_ROOT)
        print(f"{mark:7s} {rel}:{d.start} {d.qualname} ({d.end - d.start + 1} lines)")
    # An allowlist entry whose definition is gone would hide a new one.
    stale = sorted(ALLOWLIST - {d.qualname for d in defs})
    for name in stale:
        print(f"stale   ALLOWLIST entry {name}: no such definition in src/repro")
    print(f"{len(new)} finding(s), {len(findings) - len(new)} allowed, {len(stale)} stale")
    return 1 if args.check and (new or stale) else 0


if __name__ == "__main__":
    sys.exit(main())
