"""Code used only by tests lives in ``tests/``, and the runners share one shape.

Every name the package exports must be used somewhere in the package
itself: a name that only the tests call belongs in ``tests/oracle.py``.
``run_ensemble`` and ``steady_state`` take the same leading arguments
and name their common keywords alike.  No module uses a private name of
another: the CLI's lack of one keeps the engine's own checks the only copy
of its rules.  Every ValueError the library raises opens with the
argument at fault, which is how the CLI names the config key behind it.
The engine's step calls each model kernel once through the engine
module's own name for it, the name the tracer of ``bench/run.py``
rebinds to time the kernels.
"""

import ast
import inspect
import math
import re
from collections import Counter
from pathlib import Path

import pytest

import qfb
import qfb.engine
from qfb import BlochState, FeedbackLaw, ModelParams, run_ensemble, steady_state


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


_KERNELS = ("backaction_update", "rotation_update", "dissipation_update")


@pytest.mark.parametrize("law", [{}, dict(Ts=0.004, Td=0.006)], ids=["markovian", "chain"])
def test_each_step_calls_each_kernel_once_through_the_engine_names(law, monkeypatch):
    """Counters bound to ``qfb.engine``'s kernel names see one call of each
    per step, at two points over two chunks: a step that inlined a kernel,
    or imported it under another name, would leave its timing span at 0."""
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in _KERNELS:
        monkeypatch.setattr(qfb.engine, name, counted(name, getattr(qfb.engine, name)))
    monkeypatch.setattr(qfb.engine.BayesStepper, "step",
                        counted("step", qfb.engine.BayesStepper.step))
    monkeypatch.setattr(qfb.engine, "CHUNK_SIZE", 8)
    laws = [FeedbackLaw(1.0, 2.0, **law), FeedbackLaw(-1.0, 3.0, **law)]
    run_ensemble(laws, [BlochState.from_polar(0.3 * math.pi)] * 2,
                 ModelParams(tau_m=0.2, dt=0.002), n_traj=12, total_time=0.02)
    # two chunks of 10 steps
    assert calls == {name: 20 for name in ("step", *_KERNELS)}


def test_no_noise_group_straddles_two_tasks():
    """Trajectories share a noise stream in groups of ``STREAM_GROUP``, and a
    task must hold whole groups: chunks start at multiples of ``CHUNK_SIZE``
    and tasks are cut at pairwise splits, so both must be multiples of it."""
    from qfb.engine import CHUNK_SIZE, PAIRWISE_BLOCK, STREAM_GROUP, _pairwise_split

    assert CHUNK_SIZE % STREAM_GROUP == 0
    assert all(
        _pairwise_split(n) % STREAM_GROUP == 0 for n in range(PAIRWISE_BLOCK + 1, CHUNK_SIZE + 1)
    )
