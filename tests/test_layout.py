"""Code used only by tests lives in ``tests/``.

Every name the package exports must be used somewhere in the package
itself: a name that only the tests call belongs in ``tests/oracle.py``.
"""

import ast
from pathlib import Path

import qfb


def _used_names() -> set[str]:
    used = set()
    for path in Path(qfb.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_is_used_by_the_package():
    unused = sorted(set(qfb.__all__) - _used_names())
    assert not unused, f"exported but unused by src/qfb (move to tests/): {unused}"
