#!/usr/bin/env python3
"""Record bench/baseline.json from seed-1 runs of every workload.

Run from the repository root:

    python3 bench/record.py

Runs each workload at seed 1 untraced and traced, each in its own process
through run.py, and writes the machine description, the end-to-end and
per-layer metrics, the traced layer split (self time as a share of the
traced run time), every histogram peak, and the sha256 of each
deterministic output file.  run.py counts later outputs that match these
digests as ``cli.digest_match``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

import run

SEED = 1

#: Self-time metrics; together they cover the whole traced ``cli.execute`` span.
SELF_TIMES = (
    "cli.self_s", "design.s", "engine.self_s", "engine.stream_setup_s",
    "engine.step_self_s", "chain.push_s", "model.backaction_s",
    "model.rotation_s", "model.dissipation_s", "stats.summarize_self_s",
    "stats.histogram_s", "stats.peak_s",
)


def machine() -> dict:
    cpu = platform.processor()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(name: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line.removeprefix("detail ")), json.loads(result_line)


def main() -> int:
    workloads = {}
    for name in run.WORKLOADS:
        detail, plain = run_once(name, 0)
        _, traced = run_once(name, 1)
        if not (plain["correct"] and traced["correct"]):
            sys.exit(f"record: {name} failed its checks: {detail['problems']}")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        workloads[name] = {
            "seed": SEED,
            "digests": detail["digests"],
            "histograms": detail["histograms"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": layers,
            "layer_split": {k: layers[k] / layers["trace.run_s"] for k in SELF_TIMES},
        }
        print(f"{name}: recorded", flush=True)
    run.BASELINE.write_text(
        json.dumps({"machine": machine(), "workloads": workloads}, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
