"""The package's default of one OpenBLAS thread.

Each check starts a fresh interpreter with neither thread variable set,
unless the case presets one, because the default only takes effect before
numpy loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamtune

SRC = str(Path(beamtune.__file__).parents[1])
SHOW_THREAD_VARIABLES = (
    "import os, beamtune; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"
)


def _python(args: list[str], **preset: str) -> subprocess.CompletedProcess:
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC, **preset}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


@pytest.mark.parametrize("preset, expected", [
    ({}, "1 None"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2 None"),
    ({"OMP_NUM_THREADS": "2"}, "None 2"),
], ids=["unset", "openblas-preset", "omp-preset"])
def test_import_defaults_openblas_to_one_thread_unless_set(preset, expected):
    assert _python(["-c", SHOW_THREAD_VARIABLES], **preset).stdout.strip() == expected


def test_bo_summary_is_the_same_bytes_on_one_and_two_threads(tmp_path):
    summaries = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        _python([
            "-m", "beamtune.harness.cli", "run", "--optimizer", "bo",
            "--budget", "12", "--seeds", "1", "--out", str(out),
        ], OPENBLAS_NUM_THREADS=threads)
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
