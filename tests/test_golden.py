"""Golden digests: the shipped configs, shrunk to 32 trajectories, byte for byte.

Each of the 10 configs in ``configs/`` runs through ``execute`` with
``n_traj = 32`` and its output directory moved to ``tmp_path``; the sha256
of every result file (``mean.csv``, ``hist.csv``, ``peaks.json``,
``design.csv``) must equal the digest recorded below.  ``run_meta.json``
is left out: it carries the package version.

``TRAJECTORY_GOLDEN`` pins the one-trajectory ``mean.csv`` of the two
ensemble configs run with ``n_traj = 1``: trajectory 0 of the seed's
streams.  They were first recorded while a separate trajectory mode
still kept a per-trajectory record.

``TWO_CHUNK_GOLDEN`` runs 4100 trajectories, two chunks of the engine's
4096, so that the chunk-order sum of the mean curve and the pooling of
the steady samples across chunks are pinned too: fig4 shortened to
0.4 us (800 steps, two noise blocks) and fig6_top at full length (200
steps, one noise block).

``test_shipped_runs_keep_their_stream_path`` counts the Philox streams
the same 32-trajectory runs build: a 200-step histogram run draws its
noise in one block and re-keys one stream per chunk, and every longer run
keeps one stream per trajectory, so a noise block shorter than 200 steps
(or one as long as a whole ensemble run) fails it.

The digests pin refactors to byte-identical output.  A deliberate change
of output (new physics, a different float format) or a numpy upgrade that
moves the random streams or the last ulp re-records them; CHANGES.md then
says which change did so and why.

The last re-recording came from the step's float32 rotation angle
(``BayesStepper``): its cos and sin round at about 1e-8, which moves every
simulated state at that level.  Thirteen digests moved: the results of the
nine simulating configs (``mean.csv`` or ``peaks.json``; at 32
trajectories no histogram bin changed), both two-chunk runs and both
trajectory-mode curves, which follow one trajectory step by step.  fig1's
and fig5's ``design.csv`` run no trajectory and kept their bytes.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from qfb.cli import execute, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

RESULT_FILES = ("mean.csv", "hist.csv", "peaks.json", "design.csv")

GOLDEN = {
    "fig1": {
        "design.csv": "72a3b96c3319c37705177fba8abd8bcd733fb7d27bd2f8212ee571121a779897",
    },
    "fig2_delay": {
        "peaks.json": "4357893cfd1f751d0b25e3f74b022e9f5f802a61336d9b0e24a648b16528e213",
    },
    "fig2_filter": {
        "peaks.json": "8b1173b96ed3a02a68e9cd4c694cb8c3cc40916a0c72e625feb4309474049ce4",
    },
    "fig3": {
        "mean.csv": "66b581265a40201d57d162f319d5817f0f2a60701cb6b4b4206a31ce740915bb",
    },
    "fig4": {
        "mean.csv": "b167144edcfc7858e6a4e87d8dac2c7bc1d8766d6b73bd9db736d5a031c862a9",
    },
    "fig5": {
        "design.csv": "0b93f3d9b64ae9ea12087e710bcececb04babce140535206476841efecf44738",
        "peaks.json": "c167e3cee9ca9b444083b277eed26246b745b2ccdd868adb78d813241096fd48",
    },
    "fig6_bottom": {
        "hist.csv": "987b458a7faf018de4efd91bfb01abebe8d9f81045970b9ff46cfc6f5346f4bd",
        "peaks.json": "debbe7f898896d153b40349fba26b8c827ec41bfabdeb69bf9938bc188a7b676",
    },
    "fig6_top": {
        "hist.csv": "29fd286c2f156ff7832b535279785cf0c11965111334a2a37469429107d00b45",
        "peaks.json": "d3e4995b1286572ff57d154432c8bcac8c23845f25092a16492eb3ec8a650dee",
    },
    "fig7_delay": {
        "hist.csv": "ae0be292788ef7a52d717f2eb11c6af56400dceaa9602bd4310840768fe33175",
        "peaks.json": "49bdda2f8256b352c7230e74040d677635e1781b24d5259716e6869d9337de4b",
    },
    "fig7_filter": {
        "hist.csv": "aa5e501974e768184d7cd5472eede0c35040430d12ea03f6cf9f6620304c3861",
        "peaks.json": "79b30f0c0a3bbe3d07c412a3da2a242be1194cd64d694518801abeeda3236c3a",
    },
}

TWO_CHUNK_GOLDEN = {
    "fig4": (
        {"n_traj": 4100, "total_time": 0.4},
        {"mean.csv": "9b9a95dd5fcaeb33a6d49ec7a80e3acdfafb403d320f3f6e29623a14fe28c348"},
    ),
    "fig6_top": (
        {"n_traj": 4100},
        {
            "hist.csv": "9e654e2c979d5245de6b683d9d64b2559d261fb7b97d34c4a1e02343d203d269",
            "peaks.json": "de9467a48ba16d34a278b617a8915105cf41092127e6cbf26bc059c65dbdcdb3",
        },
    ),
}

TRAJECTORY_GOLDEN = {
    "fig3": "c9dc8cf4a4170df67b958e911f010902e7364ad700ec612c5c14a4e2e66dc235",
    "fig4": "88ecf49ed7486cf33768ba440702696296aa16054ec8cf3c3338e7128d29632c",
}


def _result_digests(name, overrides, out):
    execute(parse_config(CONFIGS / f"{name}.cfg", {**overrides, "out": str(out)}))
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name in RESULT_FILES
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_digests(name, tmp_path):
    assert _result_digests(name, {"n_traj": 32}, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TWO_CHUNK_GOLDEN))
def test_two_chunk_digests(name, tmp_path):
    overrides, golden = TWO_CHUNK_GOLDEN[name]
    assert _result_digests(name, overrides, tmp_path) == golden


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_runs_keep_their_stream_path(name, tmp_path, monkeypatch):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    cfg = parse_config(CONFIGS / f"{name}.cfg", {"n_traj": 32, "out": str(tmp_path)})
    execute(cfg)
    streams = {"design-table": 0, "histogram": 1}.get(cfg.mode, cfg.n_traj)
    assert len(built) == streams


def test_every_shipped_config_has_digests():
    assert sorted(p.stem for p in CONFIGS.glob("*.cfg")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_GOLDEN))
def test_trajectory_mode_digests(name, tmp_path):
    cfg = parse_config(CONFIGS / f"{name}.cfg", {"n_traj": 1, "out": str(tmp_path)})
    written = execute(cfg)
    assert sorted(p.name for p in written) == ["mean.csv", "run_meta.json"]
    digest = hashlib.sha256((tmp_path / "mean.csv").read_bytes()).hexdigest()
    assert digest == TRAJECTORY_GOLDEN[name]
