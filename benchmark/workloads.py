"""One benchmark workload in one fresh process: set-up, timed ops, checks.

    python3 benchmark/workloads.py --workload march --seed 1 --seconds 30 \
        --trace 0 --t0 <time.monotonic() before this process started> \
        --workdir <directory for inputs and outputs> [--setup-only]

`run.py` starts this file; run it directly only to debug one workload. The
last line of standard output is one JSON object. Ops run one at a time in a
closed loop from a single client, in whole rounds of the same inputs, until
a round ends after `--seconds`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# calls go through the module attributes, which the tracer swaps
from wobble import balance, cli, terrain
from wobble.contact import TableSpec

import refcheck

STEP_DEG = 0.25             # the CLI's default motion step
SIDE = 1.0
BUMPS = 20
EXTENT = terrain.Extent(-8.0, 8.0, -8.0, 8.0)

MARCH_SLOPES_DEG = ((6.0, 10.0), (10.0, 14.0))   # one terrain per band

CAMPAIGN_RUNS = 16
CAMPAIGN_THETA_DEG = 35.0
CAMPAIGN_MOTION = "rt"

SCAN_PAIRS = 8              # (bump terrain, grid terrain) ops per round
SCAN_GRID_FILES = 4
SCAN_SLOPE_DEG = (6.0, 25.0)
SCAN_N = 4096
SCAN_CENTER = (0.0, 0.0)
GRID_NODES = 321
GRID_SPACING = 0.025
GRID_ORIGIN = -4.0
SCAN_TABLES = (
    # (program table, foot circle radius, foot angles in radians)
    (TableSpec.square(SIDE), SIDE / math.sqrt(2.0),
     tuple(math.radians(a) for a in (45.0, 135.0, 225.0, 315.0))),
    (TableSpec.circle(1.0, [math.radians(a) for a in (0.0, 60.0, 120.0, 180.0)]),
     1.0, tuple(math.radians(a) for a in (0.0, 60.0, 120.0, 180.0))),
)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run one `wobble` command in this process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class March:
    """One op is one `wobble solve --motion gamma` on a terrain file: parse,
    trace the march, refine the equilibrium, write the trace CSV."""

    units_per_op = 1        # solves

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.outputs: list[tuple[int, str, str]] = []

    def setup(self) -> None:
        self.round = []
        for k, (lo, hi) in enumerate(MARCH_SLOPES_DEG):
            slope = float(self.rng.uniform(lo, hi))
            tseed = int(self.rng.integers(0, 2**31))
            ground = terrain.generate_terrain(tseed, math.radians(slope), BUMPS, EXTENT)
            path = self.workdir / f"march-terrain-{k}.json"
            path.write_text(terrain.serialize_terrain(ground), encoding="utf-8")
            self.round.append(k)
        self.grounds = [refcheck.reference_from_text(
            (self.workdir / f"march-terrain-{k}.json").read_text(encoding="utf-8"))
            for k in self.round]

    def op(self, k: int):
        csv = self.workdir / "march-trace.csv"
        rc, report = _quiet_cli(["solve", "--terrain",
                                 str(self.workdir / f"march-terrain-{k}.json"),
                                 "--motion", "gamma", "--step", str(STEP_DEG),
                                 "--out", str(csv)])
        if rc not in (cli.EXIT_OK, cli.EXIT_NOT_FOUND):
            raise RuntimeError(f"wobble solve exited {rc}")
        return k, report, csv

    def keep(self, result) -> None:
        k, report, csv = result
        self.outputs.append((k, report, csv.read_text(encoding="utf-8")))

    def check(self) -> list[str]:
        problems = []
        for k, report, csv in self.outputs:
            problems += [f"terrain {k}: {p}" for p in
                         refcheck.check_march(report, csv, self.grounds[k], SIDE, STEP_DEG)]
        return problems


class Campaign:
    """One op is one whole `wobble montecarlo --motion rt --theta 35` of
    CAMPAIGN_RUNS seeded runs on the CLI's process pool (WOBBLE_THREADS=2)."""

    units_per_op = CAMPAIGN_RUNS

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.outputs: list[bytes] = []
        self.notes: list[str] = []

    def setup(self) -> None:
        self.master_seed = int(self.rng.integers(0, 2**31))
        self.round = [self.master_seed]

    def _argv(self, out: Path) -> list[str]:
        return ["montecarlo", "--n", str(CAMPAIGN_RUNS), "--motion", CAMPAIGN_MOTION,
                "--theta", str(CAMPAIGN_THETA_DEG), "--seed", str(self.master_seed),
                "--step", str(STEP_DEG), "--bumps", str(BUMPS), "--out", str(out)]

    def op(self, _master_seed: int):
        out = self.workdir / "campaign.csv"
        rc, _ = _quiet_cli(self._argv(out))
        if rc != cli.EXIT_OK:
            raise RuntimeError(f"wobble montecarlo exited {rc}")
        return out

    def keep(self, out: Path) -> None:
        self.outputs.append(out.read_bytes())

    def check(self) -> list[str]:
        if not self.outputs:
            return []
        seeds = refcheck.campaign_seeds(self.master_seed, CAMPAIGN_RUNS)
        problems = refcheck.check_campaign(self.outputs[0].decode("utf-8"), seeds,
                                           CAMPAIGN_THETA_DEG, CAMPAIGN_MOTION)
        if any(o != self.outputs[0] for o in self.outputs):
            problems.append("repeated campaigns wrote different CSVs")
        # the same campaign anew on one worker, untimed
        out = self.workdir / "campaign-1worker.csv"
        saved = os.environ.get("WOBBLE_THREADS")
        os.environ["WOBBLE_THREADS"] = "1"
        t = time.perf_counter()
        try:
            rc, _ = _quiet_cli(self._argv(out))
        finally:
            t = time.perf_counter() - t
            self.notes.append(f"one-worker rerun: {t:.3f} s, {CAMPAIGN_RUNS / t:.4f} runs/s")
            if saved is None:
                del os.environ["WOBBLE_THREADS"]
            else:
                os.environ["WOBBLE_THREADS"] = saved
        if rc != cli.EXIT_OK or out.read_bytes() != self.outputs[0]:
            problems.append("the one-worker campaign CSV differs from the pooled one")
        return problems


def grid_heights(rng: np.random.Generator, slope_deg: float) -> np.ndarray:
    """Smooth random heightfield on the node lattice: 20 Gaussian bumps,
    scaled so the steepest node gradient is tan(slope)."""
    xs = GRID_ORIGIN + GRID_SPACING * np.arange(GRID_NODES)
    x, y = np.meshgrid(xs, xs)
    z = np.zeros_like(x)
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    for _ in range(BUMPS):
        cx, cy = rng.uniform(-3.0, 3.0, size=2)
        sigma = rng.uniform(0.3, 0.8)
        amp = rng.uniform(0.2, 1.0) * sigma * (1.0 if rng.uniform() < 0.5 else -1.0)
        e = amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma ** 2))
        z += e
        gx -= e * (x - cx) / sigma ** 2
        gy -= e * (y - cy) / sigma ** 2
    return z * (math.tan(math.radians(slope_deg)) / float(np.sqrt(gx * gx + gy * gy).max()))


class Scan:
    """One op handles one bump terrain, generated by the program at a slope
    in SCAN_SLOPE_DEG, and one grid heightfield parsed from a file set-up
    wrote. Each terrain gets 4096-point full-turn scans for the unit square
    and the half-hexagon table, balance angles, and approximate_equilibrium
    at every root."""

    units_per_op = 2        # terrains

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.first: dict[int, list] = {}
        self.digests: dict[int, str] = {}
        self.mismatches = 0

    def setup(self) -> None:
        self.grid_texts = []
        for g in range(SCAN_GRID_FILES):
            h = grid_heights(self.rng, float(self.rng.uniform(*SCAN_SLOPE_DEG)))
            doc = {"type": "grid", "origin": [GRID_ORIGIN, GRID_ORIGIN],
                   "spacing": GRID_SPACING, "rows": GRID_NODES, "cols": GRID_NODES,
                   "heights": h.ravel().tolist()}
            text = json.dumps(doc)
            (self.workdir / f"grid-{g}.json").write_text(text, encoding="utf-8")
            self.grid_texts.append(text)
        self.round = []
        for k in range(SCAN_PAIRS):
            self.round.append((k, int(self.rng.integers(0, 2**31)),
                               float(self.rng.uniform(*SCAN_SLOPE_DEG)),
                               k % SCAN_GRID_FILES))

    @staticmethod
    def _scan_terrain(ground) -> list:
        out = []
        for table, _, _ in SCAN_TABLES:
            scan = balance.height_scan(table, ground, SCAN_CENTER, SCAN_N)
            balance.integral_equality_residual(scan)
            found = balance.find_balance_angles(scan)
            cands = [balance.approximate_equilibrium(table, ground, SCAN_CENTER, theta)
                     for theta in found.roots]
            out.append((scan.heights, found.roots,
                        [c.surface_points for c in cands]))
        return out

    def op(self, item):
        k, tseed, slope, g = item
        bump = terrain.generate_terrain(tseed, math.radians(slope), BUMPS, EXTENT)
        bump_out = self._scan_terrain(bump)
        with open(self.workdir / f"grid-{g}.json", encoding="utf-8") as fh:
            grid = terrain.parse_terrain(fh.read())
        grid_out = self._scan_terrain(grid)
        return k, bump, bump_out, grid_out

    def keep(self, result) -> None:
        k, bump, bump_out, grid_out = result
        h = hashlib.sha256()
        for heights, roots, points in bump_out + grid_out:
            h.update(heights.tobytes())
            h.update(np.asarray(roots, dtype=float).tobytes())
            for q in points:
                h.update(q.tobytes())
        digest = h.hexdigest()
        if k not in self.digests:
            self.digests[k] = digest
            self.first[k] = [terrain.serialize_terrain(bump), bump_out, grid_out]
        elif digest != self.digests[k]:
            self.mismatches += 1

    def check(self) -> list[str]:
        problems = []
        if self.mismatches:
            problems.append(f"{self.mismatches} repeated scan ops gave other results")
        for k, (bump_text, bump_out, grid_out) in sorted(self.first.items()):
            g = self.round[k][3]
            for kind, text, outs in (("bump", bump_text, bump_out),
                                     ("grid", self.grid_texts[g], grid_out)):
                ground = refcheck.reference_from_text(text)
                for (_, rho, angles), (heights, roots, points) in zip(SCAN_TABLES, outs):
                    problems += [f"op {k} {kind} rho={rho:.3f}: {p}" for p in
                                 refcheck.check_scan(ground, SCAN_CENTER, rho, angles,
                                                     heights, roots, points)]
        return problems


WORKLOADS = {"march": March, "campaign": Campaign, "scan": Scan}


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    beyond = 10
    q = 100.0 * (n - beyond) / n
    return q, ordered[n - beyond - 1]


def _timed_round(wl, tracer=None) -> tuple[list[float], int]:
    times = []
    failed = 0
    for item in wl.round:
        t = time.perf_counter()
        try:
            if tracer is None:
                result = wl.op(item)
            else:
                result = tracer.call("bench.op", wl.op, item)
        except Exception as exc:  # an op that fails is counted, not fatal
            failed += 1
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        times.append(time.perf_counter() - t)
        wl.keep(result)
    return times, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = failed = 0
    plain: list[float] = []
    traced: list[float] = []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    while True:
        times, bad = _timed_round(wl)
        plain += times
        attempted += len(wl.round)
        failed += bad
        if tracer is not None:
            tracer.install()
            try:
                times, bad = _timed_round(wl, tracer)
            finally:
                tracer.uninstall()
            traced += times
            attempted += len(wl.round)
            failed += bad
        if time.perf_counter() - start >= args.seconds:
            break
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    if not plain:
        print("every op failed; nothing to report", file=sys.stderr)
        return 1

    problems = wl.check()
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in getattr(wl, "notes", ()):
        print(line)

    if tracer is None:
        metrics = {
            "op_s": (statistics.median(plain), "s"),
            "runs_per_s": (wl.units_per_op * len(plain) / sum(plain), "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        tail = tail_percentile(plain)
        summary = (f"{args.workload}: {len(plain)} ops, median {statistics.median(plain):.4f} s")
        if tail is not None:
            summary += f", p{tail[0]:.1f} {tail[1]:.4f} s (10 of {len(plain)} ops beyond)"
        print(summary)
        print("op_times_s: " + " ".join(f"{t:.4f}" for t in plain))
    else:
        from spans import layer_metrics, write_spans
        traced_ops = len(traced)
        layers = layer_metrics(tracer.spans, tracer.counters, traced_ops)
        layers["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        if args.spans is not None:
            write_spans(args.spans, tracer.spans)
            print(f"spans written: {args.spans} ({len(tracer.spans)} spans)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
