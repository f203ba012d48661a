"""Code used only by tests lives in ``tests/``, and the runners share one shape.

Every name the package exports must be used somewhere in the package
itself: a name that only the tests call belongs in ``tests/oracle.py``.
``run_ensemble`` and ``steady_state`` take the same leading arguments
and name their common keywords alike.  The CLI uses no private name of
another module: the engine's own checks are the only copy of its rules.
"""

import ast
import inspect
from pathlib import Path

import pytest

import qfb
from qfb import run_ensemble, steady_state


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


@pytest.mark.parametrize("runner", [run_ensemble, steady_state])
def test_runners_share_one_shape(runner):
    """Both runners take ``(laws, initials, params)`` positionally and every
    other argument by keyword, under the same names."""
    params = list(inspect.signature(runner).parameters.values())
    assert [p.name for p in params[:3]] == ["laws", "initials", "params"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:3])
    assert all(p.kind is p.KEYWORD_ONLY for p in params[3:])
    assert {"n_traj", "total_time", "seed", "steady", "workers"} <= {p.name for p in params[3:]}


def test_the_cli_imports_no_private_name():
    path = Path(qfb.__file__).parent / "cli.py"
    private = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qfb"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"qfb/cli.py imports private names: {private}"
