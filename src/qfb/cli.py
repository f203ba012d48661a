"""Command-line front end: flat-file configs, simulation modes, CSV/JSON outputs.

Configs are flat ``key=value`` text files (``#`` starts a comment);
command-line flags override file keys.  :func:`parse_config` only parses
them: each value is checked by the code that reads it once :func:`execute`
starts, so a key the mode does not read is never checked.  Angles accept
plain radians or a ``0.3pi`` suffix; times are in us, rates in rad/us;
``inf`` is a valid T1/T2.  Outputs are deterministic byte-for-byte for a
fixed config and seed: floats are printed with 9 significant digits and
JSON keys are sorted.

Modes
-----
ensemble      ensemble mean curve                -> mean.csv
              (n_traj = 1: trajectory 0 of the seed's streams)
design-table  controller constants vs angle      -> design.csv
histogram     steady-state histogram + peaks     -> hist.csv, peaks.json
sweep-angle   peak/mean vs target angle          -> design.csv, peaks.json
sweep-filter  degradation vs filter constant     -> peaks.json
sweep-delay   degradation vs feedback delay      -> peaks.json

Every mode designs through :meth:`RunConfig.design`: ideal parameters use
the ideal design, anything else the lossy design at maximum radius.
:meth:`RunConfig.points` builds every mode's laws as one list of operating
points (ensemble and histogram mode have one); a chain sweep keeps the
configured ``ts``/``td`` it does not sweep.  :func:`execute` calls it once:
each law is designed and checked once, before any trajectory runs.  Histogram
mode and the sweeps run :func:`qfb.stats.steady_state` on those laws; the
design table runs nothing and reads no ``dt``.

Every mode also writes run_meta.json: the package version, the summed
renormalization count and the config keys the mode reads (``_READS``).
JSON files write an infinite value (``t1 = inf``) as the string ``"inf"``
and refuse to write a NaN.

``threads`` is the ``workers`` of :func:`qfb.engine.run_ensemble`: no
output byte depends on it, and the default 1 starts no process.  A worker
that dies fails the run with an ``error: threads: ...`` message.
:func:`main` prints each distinct warning once, as ``warning: ...``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .chain import FeedbackLaw
from .design import design_ideal, design_nonideal
from .engine import (
    DEFAULT_BINS, MAX_WORKERS, SteadySampling, WorkerError, bin_centers, run_ensemble,
)
from .model import BlochState, ModelParams
from .stats import steady_state

__all__ = ["RunConfig", "parse_config", "execute", "main"]

MODES = (
    "ensemble",
    "design-table",
    "histogram",
    "sweep-angle",
    "sweep-filter",
    "sweep-delay",
)


#: Modes with one operating point per ``theta_list`` angle.
_ANGLE_MODES = ("design-table", "sweep-angle")

#: The sweep modes and the row value each one sweeps.
_SWEEP_AXIS = {"sweep-angle": "theta_s", "sweep-filter": "Ts", "sweep-delay": "Td"}


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
    record_stride: int = _key(40, "steps between mean.csv rows; only ensemble mode reads it")
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
    threads: int = _key(
        1, f"worker processes (1 to {MAX_WORKERS}; 1 starts none); outputs do not depend on it"
    )
    out: str = _key(".", "output directory")

    def model_params(self) -> ModelParams:
        # the design table reads no dt: it takes the largest step that draws no warning
        dt = self.tau_m / 10.0 if self.mode == "design-table" else self.dt
        return ModelParams(tau_m=self.tau_m, dt=dt, T1=self.t1, T2=self.t2, eta=self.eta)

    def design(self, theta: float) -> tuple[FeedbackLaw, float]:
        """Designed law at ``theta`` plus its target radius (ideal qubit: 1); its
        chain takes ``ts``/``td`` only where the mode reads them."""
        if math.isinf(self.t1) and math.isinf(self.t2) and self.eta == 1.0:
            law, r_target = design_ideal(theta, self.tau_m), 1.0
        else:
            law, r_target = design_nonideal(theta, self.model_params())
        chain = {k.capitalize(): getattr(self, k) for k in ("ts", "td") if k in _READS[self.mode]}
        return replace(law, **chain), r_target

    def points(self) -> list[tuple[float | None, float | None, FeedbackLaw, float | None]]:
        """The mode's ``(value, theta_s, law, r_target)`` operating points: one
        per ``theta_list`` angle (value = theta_s) for the design table and
        the angle sweep; for the chain sweeps, the law designed at
        ``theta_target`` with its swept ``Ts``/``Td`` set to each
        ``sweep_values`` entry (value, in us).  Ensemble and histogram mode
        have the one point ``(None, theta_target, law, r_target)``, or
        ``(None, None, law, None)`` for explicit ``delta0``/``delta1``."""
        if self.delta0 is not None or self.delta1 is not None:
            if "delta0" not in _READS[self.mode]:
                raise ConfigError(
                    f"delta0/delta1: mode {self.mode} designs its own constants; "
                    "explicit values would be ignored"
                )
            if self.delta0 is None or self.delta1 is None:
                raise ConfigError("delta0/delta1: both must be given when either is")
            if self.theta_target is not None:
                raise ConfigError(
                    "theta_target: give either explicit delta0/delta1 or a target "
                    "angle with auto-design, not both"
                )
            return [(None, None, FeedbackLaw(self.delta0, self.delta1, self.ts, self.td), None)]
        if self.mode in _ANGLE_MODES:
            return [(theta, theta, *self.design(theta)) for theta in _theta_list(self)]
        if self.theta_target is None:
            raise ConfigError(f"theta_target: required for mode {self.mode}")
        if self.mode not in _SWEEP_AXIS:
            return [(None, self.theta_target, *self.design(self.theta_target))]
        axis = _SWEEP_AXIS[self.mode]
        base, r_target = self.design(self.theta_target)
        return [
            (value, self.theta_target, replace(base, **{axis: value}), r_target)
            for value in _sweep_values_us(self)
        ]

    def sampling(self) -> SteadySampling:
        burn = 10.0 * self.tau_m if self.burn_in is None else self.burn_in
        stride = self.tau_m if self.sample_every is None else self.sample_every
        return SteadySampling(burn_in=burn, stride=stride, n_bins=self.n_bins)

    def initial_state(self) -> BlochState:
        if not math.isfinite(self.theta_init):
            raise ConfigError(f"theta_init: must be finite, got {self.theta_init}")
        if not 0 < self.r_init <= 1:
            raise ConfigError(f"r_init: must lie in (0, 1], got {self.r_init}")
        return BlochState.from_polar(self.theta_init, self.r_init)


def _base_type(hint) -> type:
    """``float`` for ``float | None``; the annotation itself otherwise."""
    return next((a for a in get_args(hint) if a is not type(None)), hint)


_HINTS = get_type_hints(RunConfig)
_TYPES = {key: _base_type(hint) for key, hint in _HINTS.items()}
_NULLABLE = {key for key, hint in _HINTS.items() if type(None) in get_args(hint)}
_ANGLE_KEYS = {"theta_target", "theta_init"}


_MODEL_KEYS = {"mode", "tau_m", "t1", "t2", "eta"}
_RUN_KEYS = _MODEL_KEYS | {"dt", "total_time", "n_traj", "seed"}
_STEADY_KEYS = {"burn_in", "sample_every", "n_bins"}
_INIT_KEYS = _RUN_KEYS | {"theta_target", "delta0", "delta1", "ts", "td", "theta_init", "r_init"}
# sweeps start every point at its target, so they read no theta_init/r_init
_CHAIN_SWEEP_KEYS = _RUN_KEYS | _STEADY_KEYS | {"theta_target", "sweep_values", "ts", "td"}

#: The keys each mode reads.  run_meta.json records only these: two runs
#: that differ only in another key write identical files.
_READS = {
    "ensemble": _INIT_KEYS | {"record_stride"},
    "histogram": _INIT_KEYS | _STEADY_KEYS,
    "design-table": _MODEL_KEYS | {"theta_list"},
    "sweep-angle": _RUN_KEYS | _STEADY_KEYS | {"theta_list", "ts", "td"},
    "sweep-filter": _CHAIN_SWEEP_KEYS - {"ts"},
    "sweep-delay": _CHAIN_SWEEP_KEYS - {"td"},
}


def parse_angle(text: str) -> float:
    """Radians, with an optional 'pi' suffix: '0.3pi' -> 0.3*pi; a bare sign
    before it counts as one: '-pi' -> -pi."""
    text = text.strip().lower()
    if text.endswith("pi"):
        coef = text[:-2]
        return float(coef + "1" if coef in ("", "+", "-") else coef) * math.pi
    return float(text)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _ANGLE_KEYS:
        return parse_angle(raw)
    return _TYPES[key](raw)


def parse_config(
    path: str | Path | None = None, overrides: dict | None = None
) -> RunConfig:
    """Build a RunConfig from a key=value file plus overrides.

    Only unknown keys and values that do not parse as the key's type raise
    ConfigError here, naming the key; a value out of range is refused by
    :func:`execute`.
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
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _json_ready(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"  # JSON has no infinity
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    """Sorted, indented JSON; infinities as "inf"/"-inf", and a NaN raises."""
    path.write_text(
        json.dumps(_json_ready(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _finite(values: list[float]) -> list[float]:
    if not values:
        raise ValueError("must list at least one value")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"must be finite, got {values}")
    return values


def _sweep_values_us(cfg: RunConfig) -> list[float]:
    try:
        values = _finite([float(v) * cfg.tau_m for v in cfg.sweep_values.split(",") if v.strip()])
        if min(values) < 0.0:
            raise ValueError(f"must be non-negative, got {cfg.sweep_values}")
        return values
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

    Checks ``mode``; the code that reads each other value checks it, before
    any trajectory runs.  Raises on any failure after removing partially
    written files; a refusal is a ConfigError naming the config key
    (:func:`_config_key` renames the arguments the library names).
    """
    if cfg.mode not in MODES:
        raise ConfigError(f"mode: unknown mode {cfg.mode!r}; choose from {MODES}")
    out_dir = Path(cfg.out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    written: list[Path] = []
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # such as a file in the way
            raise ConfigError(f"out: {exc}") from exc
        _execute_inner(cfg, out_dir, written)
    except Exception as exc:
        for p in written:
            p.unlink(missing_ok=True)
        for d in filter(Path.exists, created):  # deepest first; only directories left empty
            if any(d.iterdir()):
                break
            d.rmdir()
        arg, sep, reason = str(exc).partition(": ")
        if isinstance(exc, ValueError) and sep:
            raise ConfigError(f"{_config_key(cfg, arg)}: {reason}") from exc
        raise
    return written


def _config_key(cfg: RunConfig, arg: str) -> str:
    """The config key behind the argument a model, design or engine refusal
    names; ``T1``, ``T2`` and ``Ts`` are the keys ``t1``, ``t2`` and ``ts``."""
    return {
        "stride": "tau_m" if cfg.sample_every is None else "sample_every",
        "burn_in": "total_time" if cfg.burn_in is None else "burn_in",
        "Td": "sweep_values" if cfg.mode == "sweep-delay" else "td",
        "theta_s": "theta_list" if cfg.mode in _ANGLE_MODES else "theta_target",
        "workers": "threads",
    }.get(arg, arg.lower())


def _execute_inner(cfg: RunConfig, out_dir: Path, written: list[Path]) -> None:
    """Write the outputs of ``cfg.mode``, appending each path as it is written."""
    params = cfg.model_params()
    points = cfg.points()
    laws = [law for _, _, law, _ in points]
    reads = _READS[cfg.mode]
    meta: dict = {
        "config": {
            f.name: getattr(cfg, f.name)
            for f in fields(RunConfig)
            if getattr(cfg, f.name) is not None and f.name in reads
        },
        "version": __version__,
        "renorm_count": 0,
    }
    run = dict(n_traj=cfg.n_traj, total_time=cfg.total_time, seed=cfg.seed, workers=cfg.threads)
    sampled = dict(run, steady=cfg.sampling())

    if cfg.mode == "ensemble":
        [(_, _, law, r_target)] = points
        (result,) = run_ensemble(
            laws, [cfg.initial_state()], params, record_stride=cfg.record_stride, **run
        )
        path = out_dir / "mean.csv"
        _write_csv(
            path, ["t", "x", "y", "z"],
            ((t, *row) for t, row in zip(result.times, result.mean_xyz)),
        )
        written.append(path)
        meta["renorm_count"] = result.renorm_count
        meta["law"] = {**asdict(law), "r_target": r_target}

    elif cfg.mode == "histogram":
        [(_, _, law, r_target)] = points
        (summary,) = steady_state(laws, [cfg.initial_state()], params, **sampled)
        counts = summary.histogram
        centers = bin_centers(len(counts))
        path = out_dir / "hist.csv"
        iy, iz = np.nonzero(counts)
        rows = ((centers[i], centers[j], int(counts[i, j])) for i, j in zip(iy, iz))
        _write_csv(path, ["y_bin", "z_bin", "count"], rows)
        written.append(path)
        payload = {
            **asdict(summary.peak),
            "r_e": summary.r_mean,
            "n_samples": int(counts.sum()),
            "law": {**asdict(law), "r_target": r_target},
        }
        path = out_dir / "peaks.json"
        _write_json(path, payload)
        written.append(path)
        meta["renorm_count"] = summary.renorm_count

    elif cfg.mode in _SWEEP_AXIS:
        # each point runs its law from its target state
        summaries = steady_state(
            laws, [BlochState.from_polar(theta_s, r_target) for _, theta_s, _, r_target in points],
            params, **sampled,
        )
        rows = []
        for value, theta_s, law, r_target in points:
            s = next(summaries)
            rows.append({
                "value": value, "theta_s": theta_s, "r_target": r_target,
                "delta0": law.delta0, "delta1": law.delta1,
                "theta_p": s.peak.theta_p, "r_p": s.peak.r_p, "r_e": s.r_mean,
                "sigma": s.peak.sigma, "n_lobes": len(s.peak.lobes),
            })
            meta["renorm_count"] += s.renorm_count
            # a summary still bound while the next one is built raises peak RSS
            del s

    # after the sweep: a run refused at run time leaves an existing design.csv alone
    if cfg.mode in _ANGLE_MODES:
        path = out_dir / "design.csv"
        _write_csv(
            path, ["theta", "delta0", "delta1", "r_max"],
            ((theta, law.delta0, law.delta1, r_target) for _, theta, law, r_target in points),
        )
        written.append(path)
    if cfg.mode in _SWEEP_AXIS:
        path = out_dir / "peaks.json"
        _write_json(path, {"sweep": _SWEEP_AXIS[cfg.mode], "rows": rows})
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
    shown: set[str] = set()

    def show(message, *_) -> None:
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show  # each distinct message once, without a source line
        try:
            cfg = parse_config(config, args)
            written = execute(cfg)
        except WorkerError as exc:
            print(f"error: threads: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:  # a failed allocation may carry no text
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
