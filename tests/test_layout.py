"""Code used only by tests lives in ``tests/``, and the runners share one shape.

Every name the package exports must be used somewhere in the package
itself: a name that only the tests call belongs in ``tests/oracle.py``.
``run_ensemble`` and ``steady_state`` take the same leading arguments
and name their common keywords alike.  No module uses a private name of
another: the CLI's lack of one keeps the engine's own checks the only copy
of its rules.  Every ValueError the library raises opens with the
argument at fault, which is how the CLI names the config key behind it.
"""

import ast
import inspect
import re
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
    """Nor does any other module of the package."""
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted(Path(qfb.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qfb"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"src/qfb imports private names across modules: {private}"


#: ``name: `` or ``name/name: `` at the start of a message.
_PREFIX = re.compile(r"[A-Za-z_]\w*(/[A-Za-z_]\w*)*: ")


def _opens_with_a_name(message: ast.expr) -> bool:
    """A string literal opening with ``name: ``, or an f-string opening
    with that text or with ``{name}: ``."""
    if isinstance(message, ast.Constant):
        return isinstance(message.value, str) and bool(_PREFIX.match(message.value))
    if not isinstance(message, ast.JoinedStr) or not message.values:
        return False
    first, *rest = message.values
    if isinstance(first, ast.Constant):
        return bool(_PREFIX.match(first.value))
    return (
        isinstance(first, ast.FormattedValue) and isinstance(first.value, ast.Name)
        and bool(rest) and isinstance(rest[0], ast.Constant) and rest[0].value.startswith(": ")
    )


@pytest.mark.parametrize("module", ["model", "chain", "design", "engine", "stats"])
def test_every_value_error_opens_with_its_argument(module):
    path = Path(qfb.__file__).parent / f"{module}.py"
    offenders = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
        and not (node.exc.args and _opens_with_a_name(node.exc.args[0]))
    ]
    assert not offenders, f"ValueError messages not opening with 'name: ': {offenders}"
