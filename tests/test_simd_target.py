"""The golden digests on numpy's baseline SIMD kernels.

numpy picks its float32 ``sin``/``cos`` kernels by CPU feature, and the
targets round differently, so today the bytes are fixed only per SIMD
target (ROADMAP item 17).  This gate reruns ``tests/test_golden.py`` in a
subprocess with the AVX2/AVX-512 targets disabled, which is what a CPU
without AVX2/FMA runs.  It is expected to fail until item 17 lands; the
fix turns it into a pass and drops the ``xfail``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: numpy's baseline kernels on x86-64: every target above X86_V2 disabled.
BASELINE = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 17: the float32 rotation's sin/cos bits depend on the SIMD target",
)
def test_golden_digests_hold_on_the_baseline_simd_target():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BASELINE}
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True
    )
    if probe.returncode != 0:
        pytest.skip(f"numpy does not import under NPY_DISABLE_CPU_FEATURES: {probe.stderr}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    summary = run.stdout[-2000:]
    if run.returncode not in (0, 1):  # 1: some tests failed; anything else is not a digest
        pytest.fail(f"the golden suite did not run (exit {run.returncode}):\n{summary}")
    assert run.returncode == 0, summary
