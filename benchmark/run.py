"""Benchmark of `wobble`: one workload per call, each in fresh processes.

    python3 benchmark/run.py --workload march|campaign|scan --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout that holds `src/wobble`. With --trace 0 it
prints every end-to-end metric; with --trace 1 every per-layer metric and a
span file under benchmark/_out/. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUPS = 3                  # set-ups per run; setup_s is their median
BUDGET_S = 170.0            # the whole call, children included

# numpy's OpenBLAS and OpenMP pools stay at one thread in every process: the
# campaign already runs one process per core
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CAMPAIGN_WORKERS = "2"


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_PINS:
        env[name] = "1"
    env["WOBBLE_THREADS"] = CAMPAIGN_WORKERS
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> tuple[list[str], dict]:
    """Start one workload process; return its summary lines and result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("workload process ran past the time budget") from None
    finally:
        # the campaign's pool workers share the session; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("march", "campaign", "scan"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "wobble" / "__init__.py").is_file():
        print(f"benchmark: no wobble sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        if not args.trace:
            for k in range(SETUPS - 1):
                workdir = OUT / f"{tag}-setup{k}"
                workdir.mkdir(parents=True, exist_ok=True)
                try:
                    _, res = run_child(common + ["--workdir", str(workdir),
                                                 "--setup-only"], deadline)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                setups.append(res["setup_s"])
        workdir = OUT / tag
        workdir.mkdir(parents=True, exist_ok=True)
        extra = ["--workdir", str(workdir)]
        if args.trace:
            extra += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.csv")]
        try:
            lines, res = run_child(common + extra, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        lines.append(f"setup_s over {len(setups)} set-ups: "
                     + ", ".join(f"{s:.4f}" for s in setups))
    for line in lines:
        print(line)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
