"""``MotionModel`` is the only code in the package that writes a position.

Moving distance is the paper's cost metric, so every displacement must
be charged to the odometer or counted in the uncharged ledger, and the
rule has one owner: ``repro/mobility/motion.py``.  This test reads the
package with ``ast`` (nothing is imported) and fails on an assignment,
augmented assignment or ``setattr`` to a sensor's position, odometer or
ledger anywhere else.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = PACKAGE / "mobility" / "motion.py"
GUARDED = frozenset({"position", "_position", "odometer", "uncharged"})


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _flatten(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for item in target.elts:
            yield from _flatten(item)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


def guarded_writes(tree):
    """Line numbers of the writes to a guarded attribute in ``tree``."""
    for node in ast.walk(tree):
        for target in _targets(node):
            for leaf in _flatten(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr in GUARDED:
                    yield leaf.lineno
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in GUARDED
        ):
            yield node.lineno


def test_guard_sees_each_form_of_write():
    source = (
        "s.position = p\n"
        "a = m.odometer = 1.0\n"
        "m.odometer += d\n"
        "m._position, n = p, 1\n"
        "m.uncharged: float = 0.0\n"
        "setattr(m, 'position', p)\n"
        "s.previous_position = p\n"
        "x = m.position\n"
    )
    assert list(guarded_writes(ast.parse(source))) == [1, 2, 3, 4, 5, 6]


def test_only_the_motion_model_writes_positions():
    writes = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == OWNER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(PACKAGE)
        writes.extend(f"{rel}:{line}" for line in guarded_writes(tree))
    assert writes == []
