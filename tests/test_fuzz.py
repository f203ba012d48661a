"""Property test of the command line over drawn modes and overrides.

Each example draws a mode and up to four overrides on top of a tiny run.
Every override value comes from a per-key menu of small valid values
plus the invalid spellings ``nan``, ``inf``, ``-1``, ``0``, ``""``,
``abc`` and the finite extremes ``1e308``, ``-1e308`` and ``1e-308``
(some of which are valid for some keys).  No menu entry makes an
accepted run large: ``dt = 0.01``, at most 5 trajectories, at most 3 us.

The property: ``main`` either exits 0 and every number in every written
file is finite, or exits 1 with a single ``error: <key>: ...`` message,
where ``<key>`` is a config key or a ``/``-joined group of keys, and
leaves no output directory behind.  No traceback in either case.
"""

import contextlib
import io
import json
import math
import re
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfb.cli import MODES, RunConfig, main

KEYS = {f.name for f in fields(RunConfig)}

INVALID = ("nan", "inf", "-1", "0", "", "abc", "1e308", "-1e308", "1e-308")

#: Small valid values of every drawn key.
VALID = {
    "tau_m": ("0.2",),
    "dt": ("0.01",),
    "t1": ("60", "inf"),
    "t2": ("40", "inf"),
    "eta": ("0.41", "1"),
    "theta_target": ("0.3pi", "0.2pi", "none"),
    "delta0": ("1",),
    "delta1": ("2",),
    "ts": ("0.02",),
    "td": ("0.02",),
    "theta_init": ("0.2pi",),
    "r_init": ("0.9",),
    "total_time": ("2", "3"),
    "record_stride": ("20", "7"),
    "n_traj": ("1", "5"),
    "seed": ("2",),
    "burn_in": ("2", "none"),
    "sample_every": ("0.4", "none"),
    "n_bins": ("2", "20"),
    "sweep_values": ("0", "0,0.5"),
    "theta_list": ("0.3pi", "0.2pi,0.4pi", "0.1pi..0.3pi/3"),
    "threads": ("2",),
}

#: The tiny run every example starts from.
BASE = {
    "theta_target": "0.3pi",
    "dt": "0.01",
    "total_time": "3",
    "record_stride": "20",
    "n_traj": "5",
    "sweep_values": "0,0.5",
    "theta_list": "0.3pi",
}

ERROR = re.compile(r"error: ([a-z0-9_]+(?:/[a-z0-9_]+)*): [^\n]*\n")


@st.composite
def runs(draw):
    mode = draw(st.sampled_from(MODES))
    keys = draw(st.lists(st.sampled_from(sorted(VALID)), max_size=4, unique=True))
    values = {key: st.sampled_from(VALID[key]) | st.sampled_from(INVALID) for key in keys}
    return mode, {key: draw(value) for key, value in values.items()}


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _written_numbers(path):
    if path.suffix == ".csv":
        for line in path.read_text().splitlines()[1:]:
            yield from map(float, line.split(","))
        return
    payload = json.loads(path.read_text())
    if path.name == "run_meta.json":
        # the config echo keeps ``inf``, the documented ideal T1/T2
        payload["config"] = {
            k: v for k, v in payload["config"].items() if k not in ("t1", "t2")
        }
    yield from _numbers(payload)


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(run=runs())
# a delay longer than the 3 us run
@example(run=("ensemble", {"td": "5"}))
# a law that drives the state non-finite
@example(run=("ensemble", {"theta_target": "none", "delta0": "1", "delta1": "1e308"}))
# a start off the sphere (no key sets an x off the yz-plane)
@example(run=("histogram", {"r_init": "1e308"}))
def test_a_run_succeeds_with_finite_output_or_is_refused_by_key(run, tmp_path_factory):
    mode, overrides = run
    out = tmp_path_factory.mktemp("fuzz") / "out"
    argv = [f"--{k.replace('_', '-')}={v}" for k, v in {**BASE, **overrides}.items()]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main(["--mode", mode, *argv, "--out", str(out)])
    err = stderr.getvalue()
    assert "Traceback" not in err
    if rc == 0:
        for path in out.iterdir():
            assert all(map(math.isfinite, _written_numbers(path))), path.name
    else:
        assert rc == 1
        match = ERROR.fullmatch(err)
        assert match, err
        assert set(match.group(1).split("/")) <= KEYS, err
        assert not out.exists()
