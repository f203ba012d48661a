"""Golden digests: the shipped configs, shrunk to 32 trajectories, byte for byte.

Each of the 10 configs in ``configs/`` runs through ``execute`` with
``n_traj = 32`` and its output directory moved to ``tmp_path``; the sha256
of every result file (``mean.csv``, ``hist.csv``, ``peaks.json``,
``design.csv``) must equal the digest recorded below.  ``run_meta.json``
is left out: it carries the package version.

``TRAJECTORY_GOLDEN`` pins the one-trajectory ``mean.csv`` of the two
ensemble configs run with ``n_traj = 1``: trajectory 0 of the seed's
streams.  The digests were recorded while a separate trajectory mode
still kept a per-trajectory record, and are not re-recorded.

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
        "peaks.json": "6a2738fd3fa52f25242b4cb6de86d1b8ce5ecf243f504c68723a35d68fe9e717",
    },
    "fig2_filter": {
        "peaks.json": "e66f097cbbdbc4719e60890cd8ca9ee4cbc24e118bde28aeb9aa157a2b5a6c4a",
    },
    "fig3": {
        "mean.csv": "b4e663c9c02726bc6e0f092f26a8f042d14db0a7512cb86ba250f96fb1a19e83",
    },
    "fig4": {
        "mean.csv": "0362f61161b4ca82443aacc28b19f24646e61447def364b58d33704095cc473e",
    },
    "fig5": {
        "design.csv": "0b93f3d9b64ae9ea12087e710bcececb04babce140535206476841efecf44738",
        "peaks.json": "1a42b652b2dc7783745638b5b3a82435aa8a6c8f3c9f2237a63baa388ec4a1d9",
    },
    "fig6_bottom": {
        "hist.csv": "987b458a7faf018de4efd91bfb01abebe8d9f81045970b9ff46cfc6f5346f4bd",
        "peaks.json": "71f43e77a85555bf8068a765f0af82fb89d86d7ba2bf8b579e878c0c130e553d",
    },
    "fig6_top": {
        "hist.csv": "29fd286c2f156ff7832b535279785cf0c11965111334a2a37469429107d00b45",
        "peaks.json": "697c78d9ab6b150e0424570ccf1acff20075cab8eeafeb094785f54321cebd99",
    },
    "fig7_delay": {
        "hist.csv": "ae0be292788ef7a52d717f2eb11c6af56400dceaa9602bd4310840768fe33175",
        "peaks.json": "433e9324c6cfee38edb27fa033a8c1eb119619b0eb8d9e747abb84e0499ee2fe",
    },
    "fig7_filter": {
        "hist.csv": "aa5e501974e768184d7cd5472eede0c35040430d12ea03f6cf9f6620304c3861",
        "peaks.json": "cf4ba9f14a93b3b54f5c22e9fb29f50774c0ee38536fc059fe9064c6add500e9",
    },
}

TWO_CHUNK_GOLDEN = {
    "fig4": (
        {"n_traj": 4100, "total_time": 0.4},
        {"mean.csv": "f2915d41f20b4ae5b1afd86306314249b951e0d04709165f560a2e94657671cc"},
    ),
    "fig6_top": (
        {"n_traj": 4100},
        {
            "hist.csv": "9e654e2c979d5245de6b683d9d64b2559d261fb7b97d34c4a1e02343d203d269",
            "peaks.json": "20a3056431853348f9fce3569126f6797b5d0228f41f680e6731b24b3e1b8b01",
        },
    ),
}

TRAJECTORY_GOLDEN = {
    "fig3": "6c54f7aae743ddd51898a55e32f221600a26674089a3254821e13e7237de6b91",
    "fig4": "95fb090a1e4772a37ae2800ec3782da2f2306c261dc12ddf53359fe26b024966",
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
