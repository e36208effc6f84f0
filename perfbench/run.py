"""beamtune benchmark: one run of one workload.

    python3 perfbench/run.py --workload bo --seed 1 --seconds 30 --trace 0

Workloads (see README.md): bo, es, llm-scripted. Each run is a fresh
worker process that sets up as ``beamtune run`` does and repeats whole
rounds of the workload for about ``--seconds`` (at least two rounds and
200 steps). Set-up time is the median over the probe process and the
worker (their mean), each timed from its launch to its first ``TuningEnvironment.step``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Outputs and
spans go to ``.perfbench-out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bo", "es", "llm-scripted")
# One probe besides the worker: each launch adds about 2 s to a run.
SETUP_PROBES = 1
WORKER_TIMEOUT_S = 170


def run_worker(args, out: Path, env: dict, extra: list[str]) -> tuple[dict, float]:
    """(worker's JSON result, launch time on the shared perf_counter clock)."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out), *extra]
    launched = time.perf_counter()
    completed = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=WORKER_TIMEOUT_S)
    if completed.returncode != 0:
        raise SystemExit(f"worker exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1]), launched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="beamtune benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beamtune" / "__init__.py").is_file():
        print(f"no beamtune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, launched = run_worker(args, out, env, ["--probe"])
            setups.append(probe["first_step_at"] - launched)
    result, launched = run_worker(args, out, env, [])
    setups.append(result["first_step_at"] - launched)

    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = result["per_layer"]
        print(f"{args.workload}: rounds of " + ", ".join(f"{s:.3f}" for s in result["round_s"])
              + " s, every second round traced")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "steps_per_s": (result["steps_per_s"], "1/s"),
            "step_p50_ms": (result["step_p50_ms"], "ms"),
            "step_p95_ms": (result["step_p95_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
            "final_beam_difference_um": (result["final_beam_difference_um"], "um"),
            "integrated_mae_pct": (result["integrated_mae_pct"], "%"),
        }
        print(f"{args.workload}: rounds of " + ", ".join(f"{s:.3f}" for s in result["round_s"])
              + f" s; {result['steps']} steps for p50/p95; set-up samples "
              + ", ".join(f"{s:.3f}" for s in setups))
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
