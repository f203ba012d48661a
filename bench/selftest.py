#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

Run from the repository root:

    python3 bench/selftest.py

Runs every workload once untraced and once traced, with ``n_traj`` cut to a
tenth, and checks that every metric named in BENCHMARK.json is emitted with
its unit, that the attempts pass their output checks, that the traced self
times add up to the traced run time, and that an attempt whose output file
is corrupted after execution is counted as failed.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import sys

import run

SMALL_N_TRAJ = {"hist-fig6": 10_000, "ensemble-fig4": 1_000, "sweep-filter": 125}


def corrupt(out_dir) -> None:
    """Write a NaN into the first result file present (run in the attempt process)."""
    for name in run.RESULT_FILES:
        path = out_dir / name
        if not path.exists():
            continue
        if name.endswith(".csv"):
            lines = path.read_text().splitlines()
            lines[-1] = ",".join("nan" for _ in lines[-1].split(","))
            path.write_text("\n".join(lines) + "\n")
        else:
            payload = json.loads(path.read_text())
            payload["corrupted"] = float("nan")
            path.write_text(json.dumps(payload))
        return


def main() -> int:
    run.check_checkout()
    spec = json.loads(run.SPEC.read_text())
    misses: list[str] = []
    for name, n_traj in SMALL_N_TRAJ.items():
        small = {"n_traj": n_traj}
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, detail = run.measure(name, 1, 0, trace, small)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != {m["name"]: m["unit"] for m in listed}:
                misses.append(f"{name} trace={int(trace)}: metrics/units differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                misses.append(f"{name} trace={int(trace)}: failed attempts {detail['problems']}")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if abs(m["trace.self_sum_s"] - m["trace.run_s"]) > 1e-3:
                    misses.append(f"{name}: self times sum to {m['trace.self_sum_s']}, "
                                  f"traced run_s is {m['trace.run_s']}")
        result, _ = run.measure(name, 1, 0, False, small, corrupt=True)
        if result["failed"] != result["attempted"] or result["metrics"]["ok_frac"]["value"] != 0:
            misses.append(f"{name}: corrupted output not counted as failed: {result}")
        print(f"{name}: checked", flush=True)
    for miss in misses:
        print(f"MISS {miss}", file=sys.stderr)
    print("selftest: " + ("FAIL" if misses else "PASS"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
