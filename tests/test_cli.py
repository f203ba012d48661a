"""Config parsing, validation, output files, byte determinism, CLI entry."""

import errno
import json
import math
import os
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest

from qfb import BlochState, FeedbackLaw, design_ideal, steady_state
from qfb.cli import (
    MODES,
    ConfigError,
    RunConfig,
    _json_ready,
    execute,
    main,
    parse_angle,
    parse_config,
)

REPO = Path(__file__).resolve().parents[1]


def fill_disk_at(monkeypatch, name):
    """Make writing a file called ``name`` stop halfway with ENOSPC, as a
    full disk does: the first half of the text stays in the file."""
    write_text = Path.write_text

    def write(path, text, *args, **kwargs):
        if path.name != name:
            return write_text(path, text, *args, **kwargs)
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(Path, "write_text", write)


def small_overrides(out, **kw):
    """A config small enough for tests: few trajectories, short run."""
    base = dict(
        mode="ensemble",
        theta_target="0.3pi",
        dt=0.01,
        total_time=1.0,
        record_stride=20,
        n_traj=50,
        seed=12,
        out=str(out),
    )
    base.update(kw)
    return base


class TestParseAngle:
    def test_plain_radians(self):
        assert parse_angle("1.5") == 1.5

    def test_pi_suffix(self):
        assert parse_angle("0.3pi") == pytest.approx(0.3 * math.pi, rel=1e-15)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("-pi") == -math.pi
        assert parse_angle("+pi") == math.pi

    def test_bad(self):
        with pytest.raises(ValueError):
            parse_angle("0.3tau")


class TestParseConfig:
    def test_empty_file_with_mode_flag(self, tmp_path):
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("")
        cfg = parse_config(cfg_file, {"mode": "design-table"})
        assert cfg.mode == "design-table"
        # defaults are the lossy-qubit reference set
        assert cfg.tau_m == 0.2
        assert cfg.dt == 0.0005
        assert cfg.t1 == 60.0
        assert cfg.t2 == 40.0
        assert cfg.eta == 0.41

    def test_dt_above_half_tau_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        # the design table reads no dt, so a mode that runs trajectories
        f.write_text("mode=histogram\ntheta_target=0.3pi\ndt=0.5\ntau_m=0.2\n")
        with pytest.raises(ConfigError, match="dt = 0.5 exceeds tau_m/2"):
            execute(parse_config(f, {"out": str(tmp_path / "out")}))

    def test_unknown_key_named(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("mode=ensemble\nbogus_key=3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(f)

    def test_missing_target_named(self, tmp_path):
        with pytest.raises(ConfigError, match="theta_target"):
            execute(parse_config(None, {"mode": "ensemble", "out": str(tmp_path / "out")}))

    def test_explicit_law_and_target_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="theta_target"):
            execute(parse_config(
                None,
                {"mode": "ensemble", "theta_target": "0.3pi", "delta0": -1.0, "delta1": 4.0,
                 "out": str(tmp_path / "out")},
            ))

    def test_partial_explicit_law_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="delta0/delta1"):
            execute(parse_config(None, {"mode": "ensemble", "delta0": -1.0,
                                        "out": str(tmp_path / "out")}))

    def test_explicit_law_accepted(self):
        cfg = parse_config(None, {"mode": "ensemble", "delta0": -1.0, "delta1": 4.0})
        [(_, _, law, r_target)] = cfg.points()
        assert (law.delta0, law.delta1) == (-1.0, 4.0)
        assert r_target is None

    def test_inf_times(self, tmp_path):
        f = tmp_path / "ideal.cfg"
        f.write_text("mode=ensemble\ntheta_target=0.3pi\nt1=inf\nt2=inf\neta=1.0\n")
        cfg = parse_config(f)
        assert math.isinf(cfg.t1) and math.isinf(cfg.t2)
        [(_, _, law, r_target)] = cfg.points()
        assert r_target == 1.0
        assert law.delta1 == pytest.approx(4.0450849718747371, rel=1e-12)

    def test_comments_and_blank_lines(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# header\n\nmode=design-table  # trailing\n")
        assert parse_config(f).mode == "design-table"

    def test_fig6_bottom_config_round_trips(self):
        cfg = parse_config(REPO / "configs" / "fig6_bottom.cfg")
        assert cfg.mode == "histogram"
        assert cfg.theta_target == pytest.approx(0.1 * math.pi, rel=1e-15)
        assert cfg.n_traj == 100000
        assert cfg.dt == 0.01

    def test_all_shipped_configs_parse(self):
        for path in sorted((REPO / "configs").glob("*.cfg")):
            assert parse_config(path).mode in MODES


class TestPoints:
    def test_every_sweep_delay_law_carries_the_configured_ts(self):
        cfg = parse_config(None, small_overrides(
            "out", mode="sweep-delay", ts=0.02, sweep_values="0,0.5", total_time=3.0,
        ))
        points = cfg.points()
        assert [value for value, *_ in points] == [0.0, 0.1]  # in us
        assert [(law.Ts, law.Td) for _, _, law, _ in points] == [(0.02, 0.0), (0.02, 0.1)]

    def test_ideal_sweep_angle_laws_are_the_ideal_design(self):
        cfg = parse_config(None, small_overrides(
            "out", mode="sweep-angle", t1="inf", t2="inf", eta=1.0, total_time=3.0,
            theta_list="0.02pi..0.98pi/97",
        ))
        points = cfg.points()
        assert len(points) == 97
        for value, theta, law, r_target in points:
            assert value == theta
            assert (law, r_target) == (design_ideal(theta, cfg.tau_m), 1.0)

    @pytest.mark.parametrize("mode", ["ensemble", "histogram"])
    def test_a_one_law_mode_has_one_point(self, mode):
        cfg = parse_config(None, small_overrides("out", mode=mode, total_time=3.0))
        assert cfg.points() == [(None, cfg.theta_target, *cfg.design(cfg.theta_target))]
        explicit = parse_config(None, small_overrides(
            "out", mode=mode, theta_target="none", delta0=-1.0, delta1=4.0, ts=0.02,
            total_time=3.0,
        ))
        assert explicit.points() == [(None, None, FeedbackLaw(-1.0, 4.0, Ts=0.02), None)]

    def test_design_table_points_are_its_rows(self, tmp_path):
        cfg = parse_config(None, small_overrides(
            tmp_path, mode="design-table", theta_list="0.2pi,0.7pi",
        ))
        execute(cfg)
        rows = (tmp_path / "design.csv").read_text().splitlines()[1:]
        assert rows == [
            ",".join(f"{v:.9g}" for v in (theta, law.delta0, law.delta1, r_target))
            for _, theta, law, r_target in cfg.points()
        ]


class TestExecute:
    def test_design_table_ideal_equator_row(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "mode": "design-table",
                "t1": "inf",
                "t2": "inf",
                "eta": 1.0,
                "theta_list": "0.005pi..0.995pi/181",
                "out": str(tmp_path),
            },
        )
        written = execute(cfg)
        design = (tmp_path / "design.csv").read_text().splitlines()
        assert design[0] == "theta,delta0,delta1,r_max"
        assert len(design) == 182
        mid = design[91].split(",")  # theta = pi/2 (index 90 of 181)
        assert float(mid[0]) == pytest.approx(math.pi / 2, rel=1e-8)  # 9 sig digits
        assert float(mid[1]) == pytest.approx(0.0, abs=1e-9)
        assert float(mid[2]) == pytest.approx(5.0, rel=1e-6)
        assert float(mid[3]) == 1.0
        assert (tmp_path / "run_meta.json").exists()
        assert set(p.name for p in written) == {"design.csv", "run_meta.json"}

    def test_ensemble_outputs_and_meta(self, tmp_path):
        cfg = parse_config(None, small_overrides(tmp_path))
        execute(cfg)
        mean = (tmp_path / "mean.csv").read_text().splitlines()
        assert mean[0] == "t,x,y,z"
        assert len(mean) == 1 + (round(1.0 / 0.01) // 20) + 1
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["version"]
        assert meta["config"]["n_traj"] == 50
        assert "threads" not in meta["config"] and "out" not in meta["config"]
        assert meta["law"]["delta1"] > 0
        assert "renorm_count" in meta

    def test_run_meta_is_strict_json_with_infinite_times(self, tmp_path):
        cfg = parse_config(None, small_overrides(tmp_path, t1="inf", t2="inf", eta=1.0))
        execute(cfg)

        def no_constants(name):
            raise ValueError(f"bare {name} is not JSON")

        text = (tmp_path / "run_meta.json").read_text()
        meta = json.loads(text, parse_constant=no_constants)
        assert meta["config"]["t1"] == meta["config"]["t2"] == "inf"

    def test_a_nan_is_refused_instead_of_written(self):
        from qfb.cli import _json

        with pytest.raises(ValueError, match=r"^peaks\.json: r_e is NaN$"):
            _json("peaks.json", {"r_e": math.nan})
        with pytest.raises(ValueError, match=r"^peaks\.json: rows\[3\]\.r_e is NaN$"):
            _json("peaks.json", {"rows": [{"r_e": 0.5}] * 3 + [{"r_e": math.nan}]})
        assert _json("run_meta.json", {"v": -math.inf}) == '{\n  "v": "-inf"\n}\n'

    def test_histogram_outputs(self, tmp_path):
        cfg = parse_config(
            None,
            small_overrides(
                tmp_path,
                mode="histogram",
                total_time=3.0,
                burn_in=2.0,
                record_stride=50,
                n_traj=40,
            ),
        )
        execute(cfg)
        hist_lines = (tmp_path / "hist.csv").read_text().splitlines()
        assert hist_lines[0] == "y_bin,z_bin,count"
        counts = sum(int(l.split(",")[2]) for l in hist_lines[1:])
        peaks = json.loads((tmp_path / "peaks.json").read_text())
        assert counts == peaks["n_samples"] == 40 * 6  # 6 samples per trajectory
        assert {"theta_p", "r_p", "sigma", "sigma_rms", "r_e", "lobes"} <= set(peaks)

    def test_sweep_delay_outputs(self, tmp_path):
        cfg = parse_config(
            None,
            small_overrides(
                tmp_path,
                mode="sweep-delay",
                sweep_values="0,0.5",
                total_time=3.0,
                n_traj=60,
                record_stride=20,
            ),
        )
        execute(cfg)
        peaks = json.loads((tmp_path / "peaks.json").read_text())
        assert peaks["sweep"] == "Td"
        assert [r["value"] for r in peaks["rows"]] == [0.0, 0.1]  # in us
        assert peaks["rows"][1]["r_e"] < peaks["rows"][0]["r_e"]

    def test_sweep_filter_honours_td(self, tmp_path):
        def peaks(td):
            out = tmp_path / f"td{td}"
            execute(parse_config(None, small_overrides(
                out, mode="sweep-filter", sweep_values="0,0.5", total_time=3.0,
                n_traj=20, td=td,
            )))
            return (out / "peaks.json").read_bytes()

        assert peaks(0.04) != peaks(0.0)

    def test_sweep_records_the_renormalizations_of_its_points(self, tmp_path):
        ideal = dict(t1="inf", t2="inf", eta=1.0, total_time=3.0, n_traj=50)

        def renorm_count(out, **kw):
            execute(parse_config(None, small_overrides(tmp_path / out, **ideal, **kw)))
            return json.loads((tmp_path / out / "run_meta.json").read_text())["renorm_count"]

        # each sweep point runs the histogram's law from the histogram's start
        hist = renorm_count("hist", mode="histogram", theta_init="0.3pi")
        assert hist > 0
        assert renorm_count("sweep", mode="sweep-filter", sweep_values="0,0") == 2 * hist

    def test_a_sweep_holds_one_summary_at_a_time(self, tmp_path, monkeypatch):
        """Each summary holds a histogram: a sweep that kept one while the
        next is built would raise its peak memory."""
        import qfb.stats

        summarize, alive = qfb.stats.summarize, []

        def tracked(result):
            assert all(ref() is None for ref in alive), "an earlier summary is still held"
            summary = summarize(result)
            alive.append(weakref.ref(summary))
            return summary

        monkeypatch.setattr(qfb.stats, "summarize", tracked)
        execute(parse_config(None, small_overrides(
            tmp_path, mode="sweep-filter", sweep_values="0,0.5,1", total_time=3.0, n_traj=20,
        )))
        assert len(alive) == 3

    def test_sweep_row_is_the_steady_state_from_its_target(self, tmp_path):
        cfg = parse_config(None, small_overrides(
            tmp_path, mode="sweep-delay", sweep_values="0,0.2", total_time=3.0, n_traj=40,
        ))
        execute(cfg)
        rows = json.loads((tmp_path / "peaks.json").read_text())["rows"]
        assert len(rows) == 2
        for row, (value, theta_s, law, r_target) in zip(rows, cfg.points()):
            (s,) = steady_state(
                [law], [BlochState.from_polar(theta_s, r_target)], cfg.model_params(),
                n_traj=cfg.n_traj, total_time=cfg.total_time, steady=cfg.sampling(),
                seed=cfg.seed,
            )
            assert row == _json_ready({
                "value": value, "theta_s": theta_s, "r_target": r_target,
                "delta0": law.delta0, "delta1": law.delta1,
                "theta_p": s.peak.theta_p, "r_p": s.peak.r_p, "r_e": s.r_mean,
                "sigma": s.peak.sigma, "n_lobes": len(s.peak.lobes),
            }, "row")

    def test_sweeps_honour_burn_in_and_sample_every(self, tmp_path):
        def peaks(name, **kw):
            out = tmp_path / name
            execute(parse_config(None, small_overrides(
                out, mode="sweep-filter", sweep_values="0", total_time=4.0, **kw
            )))
            return (out / "peaks.json").read_bytes()

        base = peaks("base", burn_in=2.0, sample_every=0.6)
        assert peaks("later", burn_in=3.0, sample_every=0.6) != base
        assert peaks("denser", burn_in=2.0, sample_every=0.2) != base

    def test_byte_determinism(self, tmp_path):
        cfg = parse_config(
            None,
            small_overrides(
                tmp_path, mode="histogram", total_time=3.0, burn_in=2.0,
                record_stride=50, n_traj=30,
            ),
        )
        execute(cfg)
        first = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        execute(cfg)
        second = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        assert first == second

    def test_doubling_every_time_of_a_shipped_config_halves_only_the_law(self, tmp_path):
        """fig7_delay with every time doubled (tau_m, dt, T1, T2, the run's
        times and the delay; sample_every follows tau_m) takes the same steps:
        the same hist.csv bytes and peak, and the designed delta0 and delta1
        halve.  A run depends on its delay only through Td / tau_m."""
        from qfb.engine import CHUNK_SIZE

        original = REPO / "configs" / "fig7_delay.cfg"
        times = dict(tau_m=0.4, dt=0.02, t1=120, t2=80, total_time=4.0, burn_in=4.0, td=0.08)
        base = parse_config(original)
        assert {k: 2 * getattr(base, k) for k in times} == times
        assert base.sample_every is None
        doubled = tmp_path / "doubled.cfg"
        lines = [
            line for line in original.read_text().splitlines()
            if line.partition("=")[0] not in times
        ]
        doubled.write_text("\n".join(lines + [f"{k}={v}" for k, v in times.items()]) + "\n")
        runs = []
        for name, path in (("original", original), ("doubled", doubled)):
            out = tmp_path / name
            execute(parse_config(path, dict(n_traj=CHUNK_SIZE + 4, out=str(out))))  # two chunks
            runs.append(((out / "hist.csv").read_bytes(), json.loads((out / "peaks.json").read_text())))
        (hist, peaks), (hist2, peaks2) = runs
        assert hist2 == hist
        same = ("theta_p", "r_p", "sigma", "sigma_rms", "lobes", "tie_bins", "r_e", "n_samples")
        assert {k: peaks2[k] for k in same} == {k: peaks[k] for k in same}
        for k in ("delta0", "delta1"):  # printed to 9 digits
            assert peaks2["law"][k] == pytest.approx(peaks["law"][k] / 2, rel=1e-8, abs=0)

    @staticmethod
    def _outputs_across_threads_and_dirs(tmp_path, monkeypatch, chunk_size=16, **kw):
        """Every written file for threads 1 and 4, with the noise drawn in one
        block, in blocks of 16 steps and in windows of 5 steps for a whole
        chunk (longer for a smaller task), each run in its own directory."""
        import qfb.engine as eng

        monkeypatch.setattr(eng, "CHUNK_SIZE", chunk_size)  # by default several chunks per run
        outputs = []
        for block_steps, window in ((eng.BLOCK_STEPS, eng.WINDOW_BYTES),
                                    (16, eng.WINDOW_BYTES), (16, 5 * 4 * chunk_size)):
            monkeypatch.setattr(eng, "BLOCK_STEPS", block_steps)
            monkeypatch.setattr(eng, "WINDOW_BYTES", window)
            for threads in (1, 4):
                out = tmp_path / f"blocks{block_steps}-window{window}-threads{threads}"
                cfg = parse_config(None, small_overrides(out, threads=threads, **kw))
                written = execute(cfg)
                assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in written)
                outputs.append({p.name: p.read_bytes() for p in written})
        return outputs

    def test_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        first, *others = self._outputs_across_threads_and_dirs(tmp_path, monkeypatch)
        assert set(first) == {"mean.csv", "run_meta.json"}
        assert all(o == first for o in others)

    def test_sweep_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        first, *others = self._outputs_across_threads_and_dirs(
            tmp_path, monkeypatch,
            mode="sweep-filter", sweep_values="0,0.5", total_time=3.0, n_traj=40,
        )
        assert set(first) == {"peaks.json", "run_meta.json"}
        assert all(o == first for o in others)

    def test_sweep_points_split_across_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        # one chunk of 300 trajectories at three points: four workers run it
        # cut into 72 + 72 + 72 + 84 trajectories
        first, *others = self._outputs_across_threads_and_dirs(
            tmp_path, monkeypatch, chunk_size=512,
            mode="sweep-filter", sweep_values="0,0.5,1", total_time=3.0, n_traj=300,
        )
        assert set(first) == {"peaks.json", "run_meta.json"}
        assert all(o == first for o in others)

    def test_failure_removes_partial_files(self, tmp_path):
        cfg = parse_config(None, small_overrides(tmp_path, mode="sweep-delay", total_time=3.0))
        cfg.theta_target = None  # sabotage after validation
        with pytest.raises(ConfigError):
            execute(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_failure_after_a_write_removes_it(self, tmp_path, monkeypatch):
        fill_disk_at(monkeypatch, "peaks.json")
        cfg = parse_config(
            None,
            small_overrides(
                tmp_path, mode="histogram", total_time=3.0, burn_in=2.0,
                record_stride=50, n_traj=10,
            ),
        )
        with pytest.raises(OSError):
            execute(cfg)  # hist.csv is written before peaks.json fails
        assert list(tmp_path.iterdir()) == []

    def test_failure_removes_the_directories_it_created(self, tmp_path, monkeypatch):
        fill_disk_at(monkeypatch, "run_meta.json")
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "note.txt").write_text("x")
        for out in (tmp_path / "new" / "deeper", tmp_path / "kept" / "run"):
            cfg = parse_config(None, small_overrides(out, mode="design-table"))
            with pytest.raises(OSError):
                execute(cfg)  # design.csv is written before run_meta.json fails
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
        assert [p.name for p in (tmp_path / "kept").iterdir()] == ["note.txt"]

    def test_a_target_the_design_rejects_is_refused_by_execute(self, tmp_path):
        # parse_config designs nothing; execute names the key before any trajectory runs
        out = tmp_path / "out"
        cfg = parse_config(
            None, small_overrides(out, mode="histogram", theta_target="0.01pi", total_time=3.0)
        )
        with pytest.raises(ConfigError) as refused:
            execute(cfg)
        assert str(refused.value).startswith("theta_target: ")
        assert "theta_s" not in str(refused.value)
        assert not out.exists()


class TestMain:
    def test_cli_happy_path(self, tmp_path, capsys):
        rc = main(
            [
                "--mode", "design-table",
                "--t1", "inf", "--t2", "inf", "--eta", "1.0",
                "--theta-list", "0.25pi,0.5pi",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "design.csv" in out

    @pytest.mark.filterwarnings("always")
    def test_design_table_neither_rejects_nor_warns_on_dt(self, tmp_path, capsys):
        outputs = []
        for dt in ([], ["--dt", "1"], ["--dt", "0.05"],
                   ["--dt", "1", "--sample-every", "0.2"], ["--dt", "nan"], ["--dt", "inf"]):
            out = tmp_path / f"dt{len(outputs)}"
            rc = main(["--mode", "design-table", "--theta-list", "0.3pi", "--out", str(out)] + dt)
            assert rc == 0
            assert capsys.readouterr().err == ""
            outputs.append((out / "design.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3] == outputs[4] == outputs[5]

    def test_ensemble_neither_rejects_nor_reads_the_sampling_keys(self, tmp_path):
        argv = ["--mode", "ensemble", "--theta-target", "0.3pi", "--dt", "0.01",
                "--total-time", "1", "--record-stride", "10", "--n-traj", "3"]
        outputs = []
        for sampling in ([], ["--sample-every", "0.0001", "--burn-in", "nan"]):
            out = tmp_path / f"s{len(outputs)}"
            assert main(argv + sampling + ["--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_an_out_path_through_a_file_is_refused_by_key(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("keep\n")
        for out in (blocker, blocker / "sub"):
            rc = main(["--mode", "design-table", "--theta-list", "0.3pi", "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error: out: ") and err.count("\n") == 1, err
        assert blocker.read_text() == "keep\n"
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.filterwarnings("always")
    def test_each_warning_prints_once_without_its_source(self, tmp_path, capsys):
        argv = ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--dt", "0.01",
                "--total-time", "3", "--n-traj", "5", "--sweep-values", "0,0.5"]
        # both points carry the same oversized delta1, and each run validates it
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        out, err = capsys.readouterr()
        assert out == f"{tmp_path / 'a' / 'peaks.json'}\n{tmp_path / 'a' / 'run_meta.json'}\n"
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: delta1 = "), err
        assert "UserWarning" not in err and ".py" not in err
        # a second run in the same process warns again
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err == err

    @pytest.mark.filterwarnings("always")
    def test_a_run_time_refusal_prints_no_warning_first(self, tmp_path, capsys):
        # the law's delta1 at this dt draws a warning once the run is accepted
        argv = ["--mode", "histogram", "--theta-target", "0.3pi", "--dt", "0.01",
                "--total-time", "3", "--burn-in", "5", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: burn_in: ") and err.count("\n") == 1, err

    def test_a_refused_sweep_leaves_an_existing_design_table_alone(self, tmp_path, capsys):
        sentinel = tmp_path / "design.csv"
        sentinel.write_text("keep\n")
        argv = ["--mode", "sweep-angle", "--theta-list", "0.3pi", "--out", str(tmp_path)]
        assert main(argv + ["--burn-in", "5"]) == 1
        assert capsys.readouterr().err.startswith("error: burn_in: ")
        assert sentinel.read_text() == "keep\n"
        # an accepted sweep still lists design.csv first
        assert main(argv + ["--dt", "0.01", "--total-time", "3", "--n-traj", "5"]) == 0
        names = ["design.csv", "peaks.json", "run_meta.json"]
        assert capsys.readouterr().out == "".join(f"{tmp_path / n}\n" for n in names)

    def test_a_write_cut_short_by_a_full_disk_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        fill_disk_at(monkeypatch, "peaks.json")
        argv = ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--sweep-values", "0,0.5",
                "--dt", "0.01", "--total-time", "3", "--n-traj", "5"]
        assert main(argv + ["--out", str(tmp_path / "new" / "run")]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 28] ")
        assert list(tmp_path.iterdir()) == []

    def test_a_refused_nan_leaves_an_existing_file_of_its_name_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        import qfb.stats

        summarize = qfb.stats.summarize
        monkeypatch.setattr(
            qfb.stats, "summarize", lambda result: replace(summarize(result), r_mean=math.nan)
        )
        sentinel = tmp_path / "peaks.json"
        sentinel.write_text("keep\n")
        argv = ["--mode", "histogram", "--theta-target", "0.3pi", "--dt", "0.01",
                "--total-time", "3", "--n-traj", "5", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["peaks.json"]  # hist.csv went
        assert sentinel.read_text() == "keep\n"

    def test_a_nan_result_is_refused_by_file_and_field(self, tmp_path, monkeypatch, capsys):
        import qfb.stats

        summarize = qfb.stats.summarize
        monkeypatch.setattr(
            qfb.stats, "summarize", lambda result: replace(summarize(result), r_mean=math.nan)
        )
        argv = ["--mode", "histogram", "--theta-target", "0.3pi", "--dt", "0.01",
                "--total-time", "3", "--n-traj", "5", "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: peaks.json: r_e is NaN\n"
        assert list(tmp_path.iterdir()) == []

    def test_cli_error_exit(self, tmp_path, capsys):
        rc = main(["--mode", "ensemble", "--out", str(tmp_path)])
        assert rc == 1
        assert "theta_target" in capsys.readouterr().err

    def test_every_field_is_a_flag_parsed_like_a_file_key(self, tmp_path, monkeypatch):
        import qfb.cli

        values = {
            "mode": "histogram", "tau_m": "0.25", "dt": "0.001", "t1": "inf",
            "t2": "30", "eta": "0.5", "theta_target": "none", "delta0": "-1.5",
            "delta1": "4", "ts": "0.01", "td": "0.02", "theta_init": "0.2pi",
            "r_init": "0.9", "total_time": "3.0", "record_stride": "50",
            "n_traj": "7", "seed": "5", "burn_in": "2.5", "sample_every": "0.25",
            "n_bins": "40", "sweep_values": "0,0.5", "theta_list": "0.1pi..0.9pi/5",
            "threads": "3", "out": str(tmp_path / "o"),
        }
        assert set(values) == {f.name for f in fields(RunConfig)}
        seen = []
        monkeypatch.setattr(qfb.cli, "execute", lambda cfg: seen.append(cfg) or [])
        argv = [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), v)]
        assert main(argv) == 0
        cfg_file = tmp_path / "all.cfg"
        cfg_file.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        assert seen == [parse_config(cfg_file)]
        # every key took its given value, not its default
        default = RunConfig()
        changed = {k for k in values if getattr(seen[0], k) != getattr(default, k)}
        assert changed == set(values) - {"theta_target"}

    @staticmethod
    def _outputs_across(tmp_path, argv, flag, values):
        """Every written file, byte for byte, for each value of ``flag``."""
        outputs = []
        for value in values:
            out = tmp_path / f"{flag}{value}"
            assert main(argv + [flag, value, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        return outputs

    def test_modes_without_a_mean_curve_ignore_record_stride(self, tmp_path):
        # 300 and 301 steps: neither is divisible by the strides below
        hist = ["--mode", "histogram", "--theta-target", "0.3pi", "--total-time", "3",
                "--dt", "0.01", "--n-traj", "20"]
        first, second = self._outputs_across(tmp_path, hist, "--record-stride", ("7", "300"))
        assert set(first) == {"hist.csv", "peaks.json", "run_meta.json"}
        assert first == second
        sweep = ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--total-time", "3.01",
                 "--dt", "0.01", "--n-traj", "20", "--sweep-values", "0"]
        assert main(sweep + ["--out", str(tmp_path / "sweep")]) == 0


BASE = ["--mode", "ensemble", "--theta-target", "0.3pi"]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("delta0", ["--mode", "ensemble", "--delta0", "nan", "--delta1", "4"]),
        ("ts", BASE + ["--ts", "nan"]),
        ("td", BASE + ["--td", "inf"]),
        ("theta_target", ["--mode", "ensemble", "--theta-target", "nan"]),
        ("total_time", BASE + ["--total-time", "nan"]),
        ("burn_in", ["--mode", "histogram", "--theta-target", "0.3pi", "--burn-in", "nan"]),
        ("t1", BASE + ["--t1", "nan"]),
        ("sweep_values", ["--mode", "sweep-filter", "--theta-target", "0.3pi",
                          "--sweep-values", "0,nan"]),
        ("theta_list", ["--mode", "design-table", "--theta-list", "0.1pi,nan"]),
        ("threads", BASE + ["--threads", "0"]),
        ("r_init", BASE + ["--r-init", "abc"]),
        ("mode", ["--mode", "bogus", "--theta-target", "0.3pi"]),
        # range errors the engine and the design would meet only at run time
        ("theta_target", ["--mode", "ensemble", "--theta-target", "0.01pi"]),
        ("total_time", BASE + ["--total-time", "0.0013"]),
        ("burn_in", ["--mode", "histogram", "--theta-target", "0.3pi", "--burn-in", "5"]),
        ("burn_in", ["--mode", "histogram", "--theta-target", "0.3pi", "--burn-in", "-1"]),
        ("record_stride", BASE + ["--record-stride", "7"]),
        ("total_time", ["--mode", "sweep-filter", "--theta-target", "0.3pi",
                        "--total-time", "1"]),
        ("theta_target", ["--mode", "sweep-delay"]),
        ("theta_list", ["--mode", "sweep-angle", "--theta-list", "0.01pi,0.3pi"]),
        # modes that design their own constants refuse explicit ones
        ("delta0/delta1", ["--mode", "sweep-filter", "--delta0", "1", "--delta1", "2",
                           "--dt", "0.01", "--total-time", "3", "--n-traj", "5",
                           "--sweep-values", "0"]),
        ("delta0/delta1", ["--mode", "sweep-delay", "--theta-target", "0.3pi",
                           "--delta0", "1", "--delta1", "2"]),
        ("delta0/delta1", ["--mode", "sweep-angle", "--delta0", "1", "--delta1", "2"]),
        ("delta0/delta1", ["--mode", "design-table", "--delta0", "1", "--delta1", "2"]),
        ("sample_every", ["--mode", "histogram", "--theta-target", "0.3pi",
                          "--sample-every", "-1"]),
        # rounds to no whole step: it would sample every step instead
        ("sample_every", ["--mode", "histogram", "--theta-target", "0.3pi",
                          "--dt", "0.01", "--sample-every", "0.001"]),
        # an empty list would run nothing and still exit 0
        ("sweep_values", ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--dt", "0.01",
                          "--total-time", "3", "--n-traj", "5", "--sweep-values", ""]),
        ("theta_list", ["--mode", "design-table", "--theta-list", ""]),
        ("theta_list", ["--mode", "sweep-angle", "--theta-list", " , "]),
        # a delay beyond the run never feeds back, and its ring would not fit in memory
        ("td", ["--mode", "histogram", "--theta-target", "0.3pi", "--dt", "0.01",
                "--total-time", "3", "--n-traj", "5", "--td", "1e12"]),
        ("td", BASE + ["--total-time", "1", "--td", "1.01"]),
        ("td", ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--dt", "0.01",
                "--total-time", "3", "--n-traj", "5", "--sweep-values", "0", "--td", "4"]),
        ("sweep_values", ["--mode", "sweep-delay", "--theta-target", "0.3pi", "--dt", "0.01",
                          "--total-time", "3", "--n-traj", "5", "--sweep-values", "0,1e12"]),
        # the histogram's counters are sized by n_bins; refuse before running
        ("n_bins", ["--mode", "histogram", "--theta-target", "0.3pi", "--n-bins", "100000"]),
        ("n_bins", ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--n-bins", "1001"]),
        # each thread is a worker process
        ("threads", BASE + ["--threads", "65"]),
        # a negative filter time or delay is the sweep's fault, not the target's
        ("sweep_values", ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--dt", "0.01",
                          "--total-time", "3", "--n-traj", "5", "--sweep-values=-0.1"]),
        ("sweep_values", ["--mode", "sweep-delay", "--theta-target", "0.3pi", "--dt", "0.01",
                          "--total-time", "3", "--n-traj", "5", "--sweep-values=-0.1"]),
        # finite extremes whose step counts or design overflow
        ("total_time", BASE + ["--total-time", "1e308"]),
        ("burn_in", ["--mode", "histogram", "--theta-target", "0.3pi", "--burn-in", "1e308"]),
        ("sample_every", ["--mode", "histogram", "--theta-target", "0.3pi",
                          "--sample-every", "1e308"]),
        ("theta_target", BASE + ["--t1", "1e-300"]),
        # each of ts and td is named on its own
        ("ts", BASE + ["--ts", "-1"]),
        # more steps than a float counts
        ("total_time", ["--mode", "histogram", "--theta-target", "0.3pi", "--tau-m", "1e-290",
                        "--dt", "1e-300", "--total-time", "0.2"]),
    ],
)
def test_bad_value_rejected_naming_its_key(key, argv, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{key}:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, argv", [
    ("tau_m", BASE + ["--tau-m", "-1"]),
    ("dt", BASE + ["--dt", "0.2"]),
    ("t1", BASE + ["--t1", "-3"]),
    ("t2", BASE + ["--t2", "-3"]),
    ("eta", BASE + ["--eta", "1.5"]),
    ("ts", BASE + ["--ts", "-1"]),
    ("td", BASE + ["--td", "-1"]),
    ("total_time", BASE + ["--tau-m", "1e-290", "--dt", "1e-300", "--total-time", "0.2"]),
])
def test_a_refusal_names_one_key(key, argv, tmp_path, capsys):
    """The error line names the one key at fault, not a group of keys."""
    rc = main(argv + ["--out", str(tmp_path / "out")])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert rc == 1
    assert len(errors) == 1 and errors[0].startswith(f"error: {key}: "), errors


@pytest.mark.parametrize("designs, argv", [
    (1, ["--mode", "histogram", "--theta-target", "0.3pi"]),
    (1, ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--sweep-values", "0,0.5"]),
    (3, ["--mode", "design-table", "--theta-list", "0.2pi,0.3pi,0.4pi"]),
])
def test_a_run_designs_each_law_once(designs, argv, tmp_path, monkeypatch):
    import qfb.cli

    calls = []

    def counted(design):
        def wrapper(*args):
            calls.append(args)
            return design(*args)
        return wrapper

    for name in ("design_ideal", "design_nonideal"):
        monkeypatch.setattr(qfb.cli, name, counted(getattr(qfb.cli, name)))
    small = ["--dt", "0.01", "--total-time", "3", "--n-traj", "5", "--out", str(tmp_path)]
    assert main(argv + small) == 0
    assert len(calls) == designs


def test_out_of_memory_is_reported_without_a_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr("qfb.cli.steady_state", exhausted)
    out = tmp_path / "a" / "out"
    argv = ["--mode", "histogram", "--theta-target", "0.3pi", "--dt", "0.01",
            "--total-time", "3", "--n-traj", "5", "--out", str(out)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: Unable to allocate 74.5 GiB for an array\n"
    assert not (tmp_path / "a").exists()


def test_out_of_memory_without_a_message_is_named(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qfb.cli.steady_state", exhausted)
    out = tmp_path / "a" / "out"
    argv = ["--mode", "histogram", "--theta-target", "0.3pi", "--dt", "0.01",
            "--total-time", "3", "--n-traj", "5", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("argv", [
    ["--mode", "ensemble", "--delta1", "1e307", "--total-time", "0.1", "--dt", "0.0005",
     "--record-stride", "20"],
    ["--mode", "ensemble", "--delta1", "1e307", "--total-time", "0.1", "--dt", "0.0005",
     "--record-stride", "20", "--threads", "2"],
    ["--mode", "histogram", "--delta1", "1e308", "--total-time", "3", "--dt", "0.01"],
])
def test_a_state_gone_non_finite_fails_by_key(argv, tmp_path, capsys):
    out = tmp_path / "a" / "out"
    rc = main(argv + ["--delta0", "0", "--n-traj", "5", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    # the oversized delta1 also draws its warning line
    errors = [line for line in err.splitlines() if not line.startswith("warning: delta1 = ")]
    assert len(errors) == 1 and errors[0].startswith("error: delta0/delta1: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "a").exists()


#: A two-point sweep in one chunk of 200 trajectories, which two threads cut
#: into two tasks of 96 and 104: two worker processes.
TWO_WORKERS = ["--mode", "sweep-filter", "--theta-target", "0.3pi", "--dt", "0.01",
               "--total-time", "3", "--n-traj", "200", "--sweep-values", "0,0.5",
               "--threads", "2"]


def test_most_threads_are_accepted(tmp_path):
    # one law in one chunk is one task, so no process starts
    overrides = small_overrides(tmp_path, mode="histogram", total_time=3.0, n_traj=5, threads=64)
    written = execute(parse_config(None, overrides))
    assert [p.name for p in written] == ["hist.csv", "peaks.json", "run_meta.json"]


@pytest.mark.parametrize("key, overrides", [
    ("tau_m", dict(tau_m="inf")),
    ("r_init", dict(r_init="2")),
    ("theta_init", dict(theta_init="nan")),
    ("n_bins", dict(mode="histogram", total_time=3.0, n_bins="1")),
    ("threads", dict(threads="65")),
    ("theta_target", dict(theta_target="none")),
])
def test_parse_config_leaves_range_checks_to_execute(key, overrides, tmp_path, monkeypatch):
    """parse_config only parses; execute refuses the value by key before
    any task runs and leaves no directory behind."""
    def no_task(*task):
        raise AssertionError("a task ran")

    monkeypatch.setattr("qfb.engine._run_chunk", no_task)
    out = tmp_path / "a" / "out"
    cfg = parse_config(None, small_overrides(out, **overrides))
    with pytest.raises(ConfigError, match=f"^{key}: "):
        execute(cfg)
    assert not (tmp_path / "a").exists()


def test_threads_need_fork(tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")  # a platform that cannot fork, such as Windows
    assert parse_config(None, small_overrides(tmp_path, threads=1)).threads == 1
    out = tmp_path / "out"
    assert main(TWO_WORKERS + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: threads: more than 1 needs the fork start method\n"
    assert not out.exists()


def test_a_worker_error_reraises_in_the_caller(tmp_path, capsys, monkeypatch):
    caller = os.getpid()

    def exhausted(*task):
        assert os.getpid() != caller  # runs in a worker
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr("qfb.engine._run_chunk", exhausted)
    out = tmp_path / "a" / "out"
    rc = main(TWO_WORKERS + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB for an array\n"
    assert not (tmp_path / "a").exists()


def test_a_worker_that_dies_fails_the_run_by_key(tmp_path, capsys, monkeypatch):
    caller = os.getpid()

    def dies(*task):
        if os.getpid() != caller:  # never end the caller itself
            os._exit(1)
        raise AssertionError("a task ran in the caller")

    monkeypatch.setattr("qfb.engine._run_chunk", dies)
    out = tmp_path / "a" / "out"
    rc = main(TWO_WORKERS + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: threads: a worker process died") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "a").exists()


def test_a_worker_killed_by_a_signal_fails_the_run_naming_it(tmp_path, capsys, monkeypatch):
    import signal

    caller = os.getpid()

    def killed(*task):
        if os.getpid() != caller:  # never end the caller itself
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("a task ran in the caller")

    monkeypatch.setattr("qfb.engine._run_chunk", killed)
    out = tmp_path / "a" / "out"
    assert main(TWO_WORKERS + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: threads: a worker process died with signal SIGKILL\n"
    assert not (tmp_path / "a").exists()


#: A tiny run of each mode, on top of ``small_overrides``; a single trajectory
#: is an ensemble of one.
TINY = {
    "trajectory": dict(mode="ensemble", n_traj=1),
    "ensemble": dict(mode="ensemble", n_traj=5),
    "design-table": dict(mode="design-table", theta_list="0.2pi,0.3pi"),
    "histogram": dict(mode="histogram", total_time=3.0, n_traj=5),
    "sweep-angle": dict(mode="sweep-angle", theta_list="0.3pi", total_time=3.0, n_traj=5),
    "sweep-filter": dict(mode="sweep-filter", sweep_values="0,0.5", total_time=3.0, n_traj=5),
    "sweep-delay": dict(mode="sweep-delay", sweep_values="0,0.5", total_time=3.0, n_traj=5),
}

_ALWAYS_UNREAD = {"threads", "out"}
_FIELDS = {f.name for f in fields(RunConfig)}

#: The keys each run of ``TINY`` leaves out: they change none of its output bytes.
UNREAD = {
    "ensemble": _ALWAYS_UNREAD
    | {"burn_in", "sample_every", "n_bins", "sweep_values", "theta_list"},
    "design-table": _FIELDS - {"mode", "tau_m", "t1", "t2", "eta", "theta_list"},
    "histogram": _ALWAYS_UNREAD | {"sweep_values", "theta_list", "record_stride"},
    "sweep-angle": _ALWAYS_UNREAD
    | {"theta_target", "theta_init", "r_init", "sweep_values", "record_stride"},
    "sweep-filter": _ALWAYS_UNREAD
    | {"theta_list", "theta_init", "r_init", "record_stride", "ts"},
    "sweep-delay": _ALWAYS_UNREAD
    | {"theta_list", "theta_init", "r_init", "record_stride", "td"},
}
UNREAD["trajectory"] = UNREAD["ensemble"]

#: Two valid values of each key some mode leaves out (each names a directory).
VARIANTS = {
    "dt": ("0.01", "0.005"),
    "total_time": ("3", "4"),
    "record_stride": ("7", "300"),
    "n_traj": ("3", "5"),
    "seed": ("1", "2"),
    "burn_in": ("2", "2.5"),
    "sample_every": ("0.2", "0.4"),
    "n_bins": ("20", "40"),
    "sweep_values": ("0", "0,0.5"),
    "theta_list": ("0.2pi", "0.3pi,0.4pi"),
    "theta_target": ("0.3pi", "0.4pi"),
    "theta_init": ("0.1pi", "0.2pi"),
    "r_init": ("1", "0.9"),
    "ts": ("0", "0.02"),
    "td": ("0", "0.02"),
    "threads": ("1", "3"),
    "out": ("a", "b"),
}


def test_every_mode_has_a_tiny_run():
    assert {run["mode"] for run in TINY.values()} == set(MODES)


@pytest.mark.parametrize(
    "run, key",
    [
        (run, key)
        for run in TINY
        # the modes that design their own constants refuse delta0/delta1
        for key in sorted(UNREAD[run] - {"delta0", "delta1"})
    ],
)
def test_a_key_the_mode_leaves_out_changes_no_byte(run, key, tmp_path):
    outputs = []
    for value in VARIANTS[key]:
        out = tmp_path / value
        overrides = {**small_overrides(out, **TINY[run]), key: value, "out": str(out)}
        outputs.append({p.name: p.read_bytes() for p in execute(parse_config(None, overrides))})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("run, key, value", [
    ("design-table", "n_traj", "0"), ("design-table", "seed", "-1"),
    ("design-table", "n_bins", "1"), ("design-table", "r_init", "2"),
    ("design-table", "ts", "-1"), ("design-table", "td", "-1"),
    ("design-table", "sweep_values", "nan"), ("design-table", "threads", "0"),
    ("ensemble", "theta_list", "nan"), ("ensemble", "n_bins", "1"),
    ("ensemble", "sweep_values", "nan"), ("sweep-filter", "ts", "-1"),
    ("sweep-delay", "td", "-1"), ("sweep-angle", "r_init", "2"),
])
def test_an_invalid_key_the_mode_leaves_out_is_not_checked(run, key, value, tmp_path):
    outputs = []
    for extra in ({}, {key: value}):
        out = tmp_path / f"run{len(outputs)}"
        overrides = {**small_overrides(out, **TINY[run]), **extra}
        assert main([f"--{k.replace('_', '-')}={v}" for k, v in overrides.items()]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("run", TINY)
def test_run_meta_records_every_key_the_mode_reads(run, tmp_path):
    cfg = parse_config(None, small_overrides(tmp_path, **TINY[run]))
    execute(cfg)
    recorded = json.loads((tmp_path / "run_meta.json").read_text())["config"]
    assert set(recorded) == {
        key for key in _FIELDS - UNREAD[run] if getattr(cfg, key) is not None
    }


def test_largest_histogram_is_accepted(tmp_path):
    overrides = small_overrides(tmp_path, mode="histogram", total_time=3.0, n_bins=1000)
    assert parse_config(None, overrides).n_bins == 1000


def test_importing_the_cli_loads_no_scipy(tmp_path):
    """Neither the import, nor a one-worker run, nor a sweep that forks two
    workers loads scipy or any process machinery: the workers are plain
    forked children."""
    import subprocess
    import sys

    out, sweep = tmp_path / "out", tmp_path / "sweep"
    code = (
        "import sys, warnings, qfb.cli\n"
        "heavy = lambda: sorted({'scipy', 'multiprocessing', 'concurrent.futures'}"
        " & set(sys.modules))\n"
        "print(heavy())\n"
        "warnings.simplefilter('ignore')\n"
        "qfb.cli.execute(qfb.cli.parse_config(None, dict(mode='histogram', threads=1,"
        f" theta_target='0.3pi', dt=0.01, total_time=3.0, n_traj=5, out={str(out)!r})))\n"
        "print(heavy())\n"
        "qfb.cli.execute(qfb.cli.parse_config(None, dict(mode='sweep-filter', threads=2,"
        " theta_target='0.3pi', dt=0.01, total_time=3.0, n_traj=200, sweep_values='0,0.5',"
        f" out={str(sweep)!r})))\n"
        "print(heavy())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(REPO / "src")},
    )
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]
    assert (out / "hist.csv").is_file() and (sweep / "peaks.json").is_file()


def test_numpy_random_stays_out_of_the_parent(tmp_path):
    """Importing qfb or its CLI loads no ``numpy.random``, and neither does the
    parent of a two-worker sweep: its 300 trajectories form two tasks, and
    only the forked workers draw noise.  A module-level import would add
    about 2 MB to each run's peak memory."""
    import subprocess
    import sys

    out = tmp_path / "out"
    code = (
        "import sys, warnings\n"
        "loaded = lambda: print('numpy.random' in sys.modules)\n"
        "import qfb\n"
        "loaded()\n"
        "import qfb.cli\n"
        "loaded()\n"
        "warnings.simplefilter('ignore')\n"
        f"qfb.cli.execute(qfb.cli.parse_config({str(REPO / 'configs' / 'fig2_filter.cfg')!r},"
        f" dict(n_traj=300, threads=2, out={str(out)!r})))\n"
        "loaded()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(REPO / "src")},
    )
    assert proc.stdout.splitlines() == ["False"] * 3
    assert (out / "peaks.json").is_file()
