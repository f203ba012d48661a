"""Command-line front end: flat-file configs, simulation modes, CSV/JSON outputs.

Configs are flat ``key=value`` text files (``#`` starts a comment);
command-line flags override file keys.  Angles accept plain radians or a
``0.3pi`` suffix; times are in us, rates in rad/us; ``inf`` is a valid
T1/T2.  Outputs are deterministic byte-for-byte for a fixed config and
seed: floats are printed with 9 significant digits and JSON keys are
sorted.

Modes
-----
trajectory    one stochastic trajectory          -> mean.csv (an ensemble of one)
ensemble      ensemble mean curve                -> mean.csv
design-table  controller constants vs angle      -> design.csv
histogram     steady-state histogram + peaks     -> hist.csv, peaks.json
sweep-angle   peak/mean vs target angle          -> design.csv, peaks.json
sweep-filter  degradation vs filter constant     -> peaks.json
sweep-delay   degradation vs feedback delay      -> peaks.json

Every mode also writes run_meta.json with the fully resolved config,
package version, and renormalization count.  The config leaves out the
keys that change no result byte: ``threads`` and ``out`` always,
``record_stride`` in modes that write no mean curve, and ``n_traj`` in
trajectory mode.

Trajectory chunks run in index order on one thread; the ``threads`` key
still parses (it must be at least 1) but has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .chain import FeedbackLaw
from .design import design_ideal, design_nonideal
from .engine import SteadySampling, TrajectoryConfig, _steps_for, run_ensemble
from .model import BlochState, ModelParams
from .stats import DEFAULT_BINS, steady_state, sweep_chain, sweep_targets

__all__ = ["RunConfig", "parse_config", "serialize_config", "execute", "main"]

MODES = (
    "trajectory",
    "ensemble",
    "design-table",
    "histogram",
    "sweep-angle",
    "sweep-filter",
    "sweep-delay",
)


#: Modes that write mean.csv, the only output that reads ``record_stride``.
_MEAN_CURVE_MODES = ("trajectory", "ensemble")


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration key."""


def _key(default, help: str):
    """A config key whose command-line flag shows ``help``."""
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults: the lossy-qubit reference set).

    Every field is a config-file key and a command-line flag: ``--`` plus
    the name with ``_`` turned into ``-``.  The annotation fixes how a
    string value is parsed, and ``| None`` keys also accept ``none``.
    """

    mode: str = _key("ensemble", "one of " + ", ".join(MODES))
    tau_m: float = _key(0.2, "collapse time (us)")
    dt: float = _key(0.0005, "time step (us)")
    t1: float = _key(60.0, "relaxation time (us) or inf")
    t2: float = _key(40.0, "dephasing time (us) or inf")
    eta: float = _key(0.41, "quantum efficiency")
    theta_target: float | None = _key(None, "target polar angle, radians or e.g. 0.3pi")
    delta0: float | None = _key(None, "constant drive (rad/us)")
    delta1: float | None = _key(None, "feedback gain (rad/us)")
    ts: float = _key(0.0, "filter constant (us)")
    td: float = _key(0.0, "feedback delay (us)")
    theta_init: float = 0.1 * math.pi
    r_init: float = 1.0
    total_time: float = 2.0
    record_stride: int = _key(
        40, "steps between mean.csv rows; only trajectory and ensemble modes read it"
    )
    n_traj: int = 10000
    seed: int = 1
    burn_in: float | None = None
    sample_every: float | None = None
    n_bins: int = DEFAULT_BINS
    sweep_values: str = _key(
        "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        "comma list in units of tau_m (chain sweeps)",
    )
    theta_list: str = _key(
        "0.1pi,0.2pi,0.3pi,0.4pi,0.5pi,0.6pi,0.7pi,0.8pi,0.9pi",
        "comma list of angles (design table / angle sweep)",
    )
    threads: int = _key(1, "accepted but has no effect: chunks run in order on one thread")
    out: str = _key(".", "output directory")

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown mode {self.mode!r}; choose from {MODES}")
        for key, kind in _TYPES.items():
            value = getattr(self, key)
            inf_ok = key in ("t1", "t2")
            if kind is float and value is not None and not (
                math.isfinite(value) or (inf_ok and value == math.inf)
            ):
                allowed = "finite or inf" if inf_ok else "finite"
                raise ConfigError(f"{key}: must be {allowed}, got {value}")
        explicit = self.delta0 is not None or self.delta1 is not None
        if explicit and (self.mode == "design-table" or self.mode.startswith("sweep")):
            raise ConfigError(
                f"delta0/delta1: mode {self.mode} designs its own constants; "
                "explicit values would be ignored"
            )
        if explicit and (self.delta0 is None or self.delta1 is None):
            raise ConfigError("delta0/delta1: both must be given when either is")
        if explicit and self.theta_target is not None:
            raise ConfigError(
                "theta_target: give either explicit delta0/delta1 or a target "
                "angle with auto-design, not both"
            )
        if not explicit and self.theta_target is None and self.mode not in (
            "design-table", "sweep-angle",
        ):
            raise ConfigError(f"theta_target: required for mode {self.mode}")
        try:
            self.model_params()
        except ValueError as exc:
            raise ConfigError(f"tau_m/dt/t1/t2/eta: {exc}") from exc
        if self.n_traj < 1:
            raise ConfigError(f"n_traj: must be >= 1, got {self.n_traj}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed: must fit in an unsigned 64-bit integer")
        if self.n_bins < 2:
            raise ConfigError(f"n_bins: must be >= 2, got {self.n_bins}")
        if self.ts < 0 or self.td < 0:
            raise ConfigError("ts/td: must be non-negative")
        if self.r_init <= 0 or self.r_init > 1:
            raise ConfigError(f"r_init: must lie in (0, 1], got {self.r_init}")
        if self.threads < 1:
            raise ConfigError(f"threads: must be >= 1, got {self.threads}")
        if self.sample_every is not None and not round(self.sample_every / self.dt) >= 1:
            raise ConfigError(
                f"sample_every: must round to at least one step of dt, got {self.sample_every}"
            )
        _sweep_values_us(self)
        _theta_list(self)
        if self.mode != "design-table":
            self._check_time_grid()
        self._check_designs()
        return self

    def _check_time_grid(self) -> None:
        """The step, record and burn-in grids the engine would reject at run time."""
        try:
            n_steps = _steps_for(self.total_time, self.dt)
        except ValueError as exc:
            raise ConfigError(f"total_time: {exc}") from exc
        if self.mode in _MEAN_CURVE_MODES and (
            self.record_stride < 1 or n_steps % self.record_stride
        ):
            raise ConfigError(
                f"record_stride: must be >= 1 and divide the {n_steps} steps, "
                f"got {self.record_stride}"
            )
        if self.mode != "histogram" and not self.mode.startswith("sweep"):
            return
        try:
            self.sampling().step_indices(n_steps, self.dt)
        except ValueError as exc:
            key = "total_time" if self.burn_in is None else "burn_in"
            raise ConfigError(f"{key}: {exc}") from exc

    def _check_designs(self) -> None:
        """Run the closed-form designs the mode needs, so that a target the
        design rejects (such as one at a measurement pole) is named by key."""
        if self.mode in ("design-table", "sweep-angle"):
            key, thetas = "theta_list", _theta_list(self)
        elif self.theta_target is not None:
            key, thetas = "theta_target", [self.theta_target]
        else:
            return
        # sweeps design for the lossy model whatever the parameters
        sweep = self.mode.startswith("sweep")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for theta in thetas:
                try:
                    if sweep:
                        design_nonideal(theta, self.model_params())
                    else:
                        self.design(theta)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from exc

    def model_params(self) -> ModelParams:
        return ModelParams(
            tau_m=self.tau_m, dt=self.dt, T1=self.t1, T2=self.t2, eta=self.eta
        )

    def design(self, theta: float) -> tuple[FeedbackLaw, float]:
        """Designed law at ``theta`` plus its target radius (ideal qubit: 1)."""
        if math.isinf(self.t1) and math.isinf(self.t2) and self.eta == 1.0:
            return design_ideal(theta, self.tau_m, Ts=self.ts, Td=self.td), 1.0
        return design_nonideal(theta, self.model_params(), Ts=self.ts, Td=self.td)

    def feedback_law(self) -> tuple[FeedbackLaw, float | None]:
        """Resolved law plus the designed target radius (None when explicit)."""
        if self.delta0 is not None:
            return FeedbackLaw(self.delta0, self.delta1, Ts=self.ts, Td=self.td), None
        return self.design(self.theta_target)

    def sampling(self) -> SteadySampling:
        burn = 10.0 * self.tau_m if self.burn_in is None else self.burn_in
        stride = self.tau_m if self.sample_every is None else self.sample_every
        return SteadySampling(burn_in=burn, stride=stride)

    def initial_state(self) -> BlochState:
        return BlochState.from_polar(self.theta_init, self.r_init)


def _base_type(hint) -> type:
    """``float`` for ``float | None``; the annotation itself otherwise."""
    return next((a for a in get_args(hint) if a is not type(None)), hint)


_HINTS = get_type_hints(RunConfig)
_TYPES = {key: _base_type(hint) for key, hint in _HINTS.items()}
_NULLABLE = {key for key, hint in _HINTS.items() if type(None) in get_args(hint)}
_ANGLE_KEYS = {"theta_target", "theta_init"}


def _unrecorded(mode: str) -> set[str]:
    """Keys left out of run_meta.json: they change no result byte of ``mode``,
    so two runs that differ only in them write identical metadata."""
    keys = {"threads", "out"}
    if mode not in _MEAN_CURVE_MODES:
        keys.add("record_stride")
    if mode == "trajectory":
        keys.add("n_traj")  # a trajectory is an ensemble of one
    return keys


def parse_angle(text: str) -> float:
    """Radians, with an optional 'pi' suffix: '0.3pi' -> 0.3*pi."""
    text = text.strip().lower()
    if text.endswith("pi"):
        return float(text[:-2] or "1") * math.pi
    return float(text)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _ANGLE_KEYS:
        return parse_angle(raw)
    return _TYPES[key](raw)


def parse_config(
    path: str | Path | None = None, overrides: dict | None = None
) -> RunConfig:
    """Build a validated RunConfig from a key=value file plus overrides.

    Unknown keys, malformed values, and range violations raise
    ConfigError naming the offending key.
    """
    cfg = RunConfig()
    merged: dict = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            merged[key.strip()] = raw.strip()
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, raw in merged.items():
        if key not in _TYPES:
            raise ConfigError(f"{key}: unknown configuration key")
        if isinstance(raw, str) and raw.lower() in ("none", "") and key in _NULLABLE:
            setattr(cfg, key, None)
            continue
        try:
            value = _parse_value(key, raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse value {raw!r}: {exc}") from exc
        setattr(cfg, key, value)
    return cfg.validate()


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Flat key=value text that parses back to an identical config.

    Floats are written with repr (exact round-trip); the 9-significant-
    digit convention applies to result files, not to configs.
    """
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name}={value!r}" if isinstance(value, float) else f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def _json_ready(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n"
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _finite(values: list[float]) -> list[float]:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"must be finite, got {values}")
    return values


def _sweep_values_us(cfg: RunConfig) -> list[float]:
    try:
        return _finite([float(v) * cfg.tau_m for v in cfg.sweep_values.split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"sweep_values: {exc}") from exc


def _theta_list(cfg: RunConfig) -> list[float]:
    """Comma list of angles, or a range 'A..B/N' (N evenly spaced, inclusive)."""
    text = cfg.theta_list
    try:
        if ".." in text:
            span, _, count = text.partition("/")
            lo, _, hi = span.partition("..")
            n = int(count)
            if n < 2:
                raise ValueError("range needs at least 2 points")
            a, b = parse_angle(lo), parse_angle(hi)
            thetas = [a + (b - a) * k / (n - 1) for k in range(n)]
        else:
            thetas = [parse_angle(v) for v in text.split(",") if v.strip()]
        return _finite(thetas)
    except ValueError as exc:
        raise ConfigError(f"theta_list: {exc}") from exc


def execute(cfg: RunConfig) -> list[Path]:
    """Run one mode and write its outputs; returns the written paths.

    Raises on any failure after removing partially written files.
    """
    cfg.validate()
    out_dir = Path(cfg.out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        _execute_inner(cfg, out_dir, written)
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        for d in created:  # deepest first; only directories left empty
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    return written


def _execute_inner(cfg: RunConfig, out_dir: Path, written: list[Path]) -> None:
    """Write the outputs of ``cfg.mode``, appending each path as it is written."""
    params = cfg.model_params()
    unrecorded = _unrecorded(cfg.mode)
    meta: dict = {
        "config": {
            f.name: getattr(cfg, f.name)
            for f in fields(RunConfig)
            if getattr(cfg, f.name) is not None and f.name not in unrecorded
        },
        "version": __version__,
        "renorm_count": 0,
    }

    if cfg.mode == "design-table":
        rows = []
        for theta in _theta_list(cfg):
            law, r_s = cfg.design(theta)
            rows.append((theta, law.delta0, law.delta1, r_s))
        path = out_dir / "design.csv"
        _write_csv(path, ["theta", "delta0", "delta1", "r_max"], rows)
        written.append(path)

    elif cfg.mode in _MEAN_CURVE_MODES:
        law, r_target = cfg.feedback_law()
        # a trajectory is an ensemble of one: its mean is the trajectory
        n_traj = 1 if cfg.mode == "trajectory" else cfg.n_traj
        traj = TrajectoryConfig(cfg.initial_state(), cfg.total_time, cfg.record_stride, cfg.seed)
        result = run_ensemble(n_traj, traj, params, law)
        path = out_dir / "mean.csv"
        _write_csv(
            path, ["t", "x", "y", "z"],
            ((t, *row) for t, row in zip(result.times, result.mean_xyz)),
        )
        written.append(path)
        meta["renorm_count"] = result.renorm_count
        meta["law"] = {**asdict(law), "r_target": r_target}

    elif cfg.mode == "histogram":
        law, r_target = cfg.feedback_law()
        summary = steady_state(
            law, cfg.initial_state(), params,
            n_traj=cfg.n_traj, total_time=cfg.total_time, sampling=cfg.sampling(),
            seed=cfg.seed, n_bins=cfg.n_bins,
        )
        grid = summary.histogram
        centers = grid.centers
        path = out_dir / "hist.csv"
        iy, iz = np.nonzero(grid.counts)
        rows = ((centers[i], centers[j], int(grid.counts[i, j])) for i, j in zip(iy, iz))
        _write_csv(path, ["y_bin", "z_bin", "count"], rows)
        written.append(path)
        payload = {
            **asdict(summary.peak),
            "r_e": summary.r_mean,
            "n_samples": grid.n_samples,
            "law": {**asdict(law), "r_target": r_target},
        }
        path = out_dir / "peaks.json"
        _write_json(path, payload)
        written.append(path)
        meta["renorm_count"] = summary.renorm_count

    elif cfg.mode == "sweep-angle":
        thetas = _theta_list(cfg)
        rows = sweep_targets(
            thetas, params,
            n_traj=cfg.n_traj, total_time=cfg.total_time, sampling=cfg.sampling(),
            seed=cfg.seed, n_bins=cfg.n_bins,
        )
        path = out_dir / "design.csv"
        _write_csv(
            path,
            ["theta", "delta0", "delta1", "r_max"],
            ((r.theta_s, r.delta0, r.delta1, r.r_target) for r in rows),
        )
        written.append(path)
        path = out_dir / "peaks.json"
        _write_json(path, {"sweep": "theta_s", "rows": [asdict(r) for r in rows]})
        written.append(path)

    elif cfg.mode in ("sweep-filter", "sweep-delay"):
        which = "Ts" if cfg.mode == "sweep-filter" else "Td"
        rows = sweep_chain(
            cfg.theta_target, _sweep_values_us(cfg), which, params,
            n_traj=cfg.n_traj, total_time=cfg.total_time, sampling=cfg.sampling(),
            seed=cfg.seed, n_bins=cfg.n_bins,
        )
        path = out_dir / "peaks.json"
        _write_json(path, {"sweep": which, "rows": [asdict(r) for r in rows]})
        written.append(path)

    meta_path = out_dir / "run_meta.json"
    _write_json(meta_path, meta)
    written.append(meta_path)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qfb",
        description=(
            "Simulate and design linear measurement feedback for a "
            "dispersively monitored qubit (times in us, rates in rad/us)."
        ),
    )
    p.add_argument("--config", default=None, help="key=value config file")
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata.get("help"))
    return p


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    config = args.pop("config")
    try:
        cfg = parse_config(config, args)
        written = execute(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
