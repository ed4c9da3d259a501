"""The benchmark's own output checks, run as Tier-1 tests.

Each case runs ``perfbench/run.py`` from the repository root, as the
benchmark is run, and requires its last line (the JSON result) to
report ``correct: true`` with no failed operation.  A change that makes
the benchmark's outputs incorrect (a selection that no longer repeats,
a chosen fit that disagrees with its score or with IPF, an infinite
train KL) then fails here first.  The traced cases also show that the
tracer survives names the package no longer has: it lists them as
unpatched instead of failing.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "select_library", "--seed", "0", "--seconds", "3", "--trace", "0"],
        ["--workload", "sweep_dense", "--smoke"],
        ["--workload", "select_library", "--smoke", "--trace", "1"],
        ["--workload", "sweep_dense", "--smoke", "--trace", "1"],
    ],
    ids=["select_library", "sweep_dense", "select_library-traced", "sweep_dense-traced"],
)
def test_benchmark_outputs_are_correct(args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-4000:]
    assert result["failed"] == 0, proc.stdout[-4000:]
