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
keeps one stream per group of 8 trajectories, so a noise block shorter
than 200 steps (or one as long as a whole ensemble run) fails it.

The digests pin refactors to byte-identical output.  A deliberate change
of output (new physics, a different float format) or a numpy upgrade that
moves the random streams or the last ulp re-records them; CHANGES.md then
says which change did so and why.

The last re-recording came from the noise itself: trajectories now share
a float32 Philox stream per group of 8, keyed (seed, i // 8), in place of
a float64 stream per trajectory, so every trajectory draws new numbers.
Thirteen tests moved: the results of the nine simulating configs (18
file digests with the histograms, every ``hist.csv`` among them), both
two-chunk runs and both trajectory-mode curves.  fig1's and fig5's
``design.csv`` run no trajectory and kept their bytes.
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
        "peaks.json": "0bbe579069d37461410e9e88bf4c273941b0f8e2ce98955c4aa823d0e519b396",
    },
    "fig2_filter": {
        "peaks.json": "5b116c10035f87b1a77007adb7dac301b6ef0d64c90d48d532c6ff205d4622de",
    },
    "fig3": {
        "mean.csv": "b5567c76af7978e989eb95a625ea2fa79e086711b197bf5edd527fa8ae0ac1ba",
    },
    "fig4": {
        "mean.csv": "efad302a285297408b6278b25d4cdf141ceca4ac948d355ec5c7af934b0589b9",
    },
    "fig5": {
        "design.csv": "0b93f3d9b64ae9ea12087e710bcececb04babce140535206476841efecf44738",
        "peaks.json": "7df02f3afab62c55057b85bb130f8b22e4fa52b7c11d2f350fd075dfe91ca245",
    },
    "fig6_bottom": {
        "hist.csv": "b9190177eb7891180ae95dc18bb29ab83a6a3118c0b066143c66dbd09d05df14",
        "peaks.json": "13215e45965d72c805d3873cb10f0632427a11debb0292255b99f580d7d6a579",
    },
    "fig6_top": {
        "hist.csv": "1a7cccdac21b2d62a206a8b93a2ea277b7cc981c9024bfe86449b160721efc12",
        "peaks.json": "47586814db36615d8d58fc574d653ff89c817f7b0841567641b50cf9008c688b",
    },
    "fig7_delay": {
        "hist.csv": "04df014bcafb813468e8a120a58beb4ebce78e43ed9b4e2412c2d408292d4bab",
        "peaks.json": "6c06ed9b85ff33b2f15c256b4785ac26754cd286df20fd85595aae8d5af310b0",
    },
    "fig7_filter": {
        "hist.csv": "6507fec33de3fa23d9360c3e9ed70838468ed7e10cefb33ab97916bd618d6e0d",
        "peaks.json": "e5495fed84af4ddb82d50b622881ec38b4a28d391a668ead90872c5ad55b7b10",
    },
}

TWO_CHUNK_GOLDEN = {
    "fig4": (
        {"n_traj": 4100, "total_time": 0.4},
        {"mean.csv": "8bfc3186a00e18f9a33d256bbd9fc907e802e8a9800cc428dd9ce506aff95ffd"},
    ),
    "fig6_top": (
        {"n_traj": 4100},
        {
            "hist.csv": "61ecd0a959d3376caee8ac0c028c233d08984ccb80e0a692d0989eb42d640c5e",
            "peaks.json": "e3ffd831cd08d79eddca33257ede43bc5f023af7ded3870e9f00bc3c5de23469",
        },
    ),
}

TRAJECTORY_GOLDEN = {
    "fig3": "88223b4bff0e5e7e9549e716c9ed8d98cd28058585caa7f5061d16dcdd2019fc",
    "fig4": "c4528d0b0b157a58eeb46f175fa2da5ce7b27f07daedcbeecaa3e9ee0e67a3dd",
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
    streams = {"design-table": 0, "histogram": 1}.get(cfg.mode, -(-cfg.n_traj // 8))
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
