"""Command-line surface: terrain tools, single solves, scans, campaigns.

Angles cross this boundary in degrees; everything inside runs in radians.
Exit codes: 0 solved/completed, 2 no equilibrium found, 3 a certified
condition was violated, 4 any other solver error (numerical, input or
geometry) or I/O failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .balance import (
    approximate_equilibrium,
    check_study,
    distortion_scaling_study,
    find_balance_angles,
    height_scan,
    integral_equality_residual,
)
from .contact import TableSpec
from .errors import (
    BlockedMotion,
    ConditionViolation,
    DomainError,
    GeometryViolation,
    UsageError,
    WobbleError,
)
from .motion import (
    DEFAULT_STEP,
    EquilibriumResult,
    MotionTrace,
    find_equilibrium,
    flag_names,
    run_march,
    run_pivot_slide,
)
from .ring import check_step
from .terrain import (
    Extent,
    check_bump_count,
    check_seed,
    check_target_slope,
    generate_terrain,
    parse_terrain,
    serialize_terrain,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 2
EXIT_CONDITION = 3
EXIT_FAILURE = 4
EXIT_USAGE = 64

TRACE_HEADER = ("param_deg,x1,y1,z1,x2,y2,z2,x3,y3,z3,x4,y4,z4,"
                "h4,sphere_R_over_L,lat_deg,warnings")
SCAN_HEADER = "theta_deg,h1,h2,h3,h4,g"
CAMPAIGN_HEADER = (
    "index,seed,theta_target_deg,theta_measured_deg,motion,found,degenerate,"
    "relabeled,sweep_deg,table_rot_deg,residual,r_over_l,lat_max_deg,"
    "lat_bound_deg,sphere_resid,surface_resid,monotone_ok,legs_clear,"
    "sign_changes,drop_angle_deg,warnings,error"
)
_CAMPAIGN_KEYS = CAMPAIGN_HEADER.split(",")
# every run's seed and record is held until the CSV is written: with each
# run replaced by a copy of one real record, 10^5 runs peak at 147 MB on one
# worker and 312 MB on two, where each record arrives as its own unpickled
# copy (queuing every task up front took 420 MB)
_MAX_CAMPAIGN_RUNS = 10**5
# campaign runs queued per pool worker
_IN_FLIGHT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _parse_numbers(text: str, flag: str, form: str | None = None) -> list[float]:
    """The comma-separated numbers given to `flag`. A non-number raises
    UsageError; when `form` names the fields, a wrong count raises
    DomainError."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if form is not None and len(values) != form.count(",") + 1:
        raise DomainError(f"{flag} expects '{form}', got {text!r}")
    return values


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    x, y = _parse_numbers(text, flag, "X,Y")
    return x, y


def _parse_extent(text: str) -> Extent:
    return Extent(*_parse_numbers(text, "--extent", "XMIN,XMAX,YMIN,YMAX"))


def _load_terrain(path: str):
    # the bytes go to the parser as they are: it checks the UTF-8 itself
    with open(path, "rb") as fh:
        return parse_terrain(fh.read())


def trace_csv_lines(trace: MotionTrace):
    yield TRACE_HEADER
    r_over_l = _fmt(trace.sphere.radius / trace.table.side
                    if trace.sphere is not None else None)
    n = len(trace)
    lats = trace.latitude1.tolist() if trace.latitude1 is not None else [None] * n
    for param, coords, h4, lat, flags in zip(
            trace.params.tolist(), trace.feet.reshape(n, 12).tolist(),
            trace.h4_values.tolist(), lats, trace.flags.tolist()):
        row = [
            _fmt(math.degrees(param)),
            *map(_fmt, coords),
            _fmt(h4),
            r_over_l,
            _fmt(math.degrees(lat) if lat is not None else None),
            ";".join(flag_names(flags)),
        ]
        yield ",".join(row)


def format_equilibrium_report(result: EquilibriumResult, trace: MotionTrace) -> str:
    lines = [
        f"motion:          {trace.kind}",
        f"slope bound:     {math.degrees(trace.terrain.slope_bound):.4f} deg "
        f"({trace.terrain.slope_bound_kind})",
        f"table side:      {trace.table.side}",
        f"samples:         {len(trace)}",
        f"relabeled:       {'yes' if trace.relabeled else 'no'}",
        f"equilibrium:     {'found' if result.found else 'not found'}",
    ]
    if trace.sphere is not None:
        lines.append(f"sphere R/L:      {trace.sphere.radius / trace.table.side:.6f}")
    if result.found:
        lines += [
            f"parameter:       {math.degrees(result.parameter):.4f} deg",
            f"azimuth sweep:   {math.degrees(result.sweep):.4f} deg",
            f"table rotation:  {math.degrees(result.table_rotation):.4f} deg",
            f"max |h_i|:       {result.max_abs_height:.3e}",
            f"legs clear:      {'yes' if result.legs_clear else 'no'}",
            f"sign changes:    {result.sign_changes}",
            "feet:",
        ]
        for i in range(4):
            p = result.feet.points[i]
            lines.append(f"  {i + 1}: ({p[0]:.12f}, {p[1]:.12f}, {p[2]:.12f})")
    else:
        lines.append(f"min |h4|:        {result.min_abs_h4:.3e}")
    if trace.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in trace.warnings)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# campaign machinery


@dataclass(frozen=True)
class CampaignConfig:
    n: int
    master_seed: int
    target_slope: float
    motion: str = "gamma"               # gamma | rt
    step: float = DEFAULT_STEP
    bump_count: int = 20
    side: float = 1.0
    extent: Extent = Extent(-8.0, 8.0, -8.0, 8.0)
    override: bool = False


def _campaign_seeds(cfg: CampaignConfig) -> list[int]:
    rng = np.random.default_rng(cfg.master_seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=cfg.n)]


def _run_one(args) -> dict:
    cfg, index, seed = args
    # every column, empty until the run fills it
    rec = dict.fromkeys(_CAMPAIGN_KEYS)
    rec.update(index=index, seed=seed,
               theta_target_deg=math.degrees(cfg.target_slope),
               motion=cfg.motion, found=False, degenerate=False,
               relabeled=False, monotone_ok=True, warnings="", error="")
    try:
        terrain = generate_terrain(seed, cfg.target_slope, cfg.bump_count,
                                   cfg.extent)
        rec["theta_measured_deg"] = math.degrees(terrain.slope_bound)
        table = TableSpec.square(cfg.side)
        runner = run_march if cfg.motion == "gamma" else run_pivot_slide
        trace = runner(table, terrain, step=cfg.step, override=cfg.override)
        result = find_equilibrium(trace, terrain)
        rec["found"] = result.found
        rec["degenerate"] = result.degenerate
        rec["relabeled"] = trace.relabeled
        rec["sign_changes"] = result.sign_changes
        rec["warnings"] = ";".join(trace.warnings)
        if trace.drop is not None:
            rec["drop_angle_deg"] = math.degrees(trace.drop.angle)
        if trace.sphere is not None:
            rec["r_over_l"] = trace.sphere.radius / cfg.side
        if cfg.motion == "gamma" and not trace.degenerate_start:
            lat = np.maximum(np.abs(trace.latitude1), np.abs(trace.latitude2))
            rec["lat_max_deg"] = math.degrees(float(np.max(lat)))
            rec["lat_bound_deg"] = math.degrees(trace.ring.latitude_bound)
            sph = trace.sphere
            rec["sphere_resid"] = max(abs(float(np.linalg.norm(p - sph.center)) - sph.radius)
                                      for p in trace.feet[:, :2].reshape(-1, 3))
            rec["surface_resid"] = float(np.max(np.abs(trace.heights[:, :3])))
            phi2 = trace.azimuth2
            rec["monotone_ok"] = bool(np.all(phi2[1:] > phi2[:-1]))
        if result.found:
            rec["sweep_deg"] = math.degrees(result.sweep)
            rec["table_rot_deg"] = math.degrees(result.table_rotation)
            rec["residual"] = result.max_abs_height
            rec["legs_clear"] = result.legs_clear
    except WobbleError as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


@dataclass
class CampaignResult:
    config: CampaignConfig
    records: list[dict]

    @property
    def success_count(self) -> int:
        return sum(1 for r in self.records if r["found"])

    @property
    def success_rate(self) -> float:
        return self.success_count / max(len(self.records), 1)

    def csv_lines(self):
        yield CAMPAIGN_HEADER
        for rec in self.records:
            yield ",".join(_fmt(rec[k]).replace(",", ";") for k in _CAMPAIGN_KEYS)


def worker_count(n_tasks: int) -> int:
    """Worker processes for a campaign of ``n_tasks`` runs.

    ``WOBBLE_THREADS`` overrides the default of min(8, CPU count) but is
    capped at the CPU count, so no setting starts an unbounded number of
    processes. The cap is never below 2, so a request for two workers is
    honoured on a one-core machine: that is how worker independence is
    checked there. A non-integer setting raises ``UsageError``.
    """
    cpus = os.cpu_count() or 1
    env = os.environ.get("WOBBLE_THREADS", "").strip()
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise UsageError(
                f"WOBBLE_THREADS must be an integer, got {env!r}") from None
        cap = min(requested, max(2, cpus))
    else:
        cap = min(8, cpus)
    return max(1, min(cap, n_tasks))


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Run n independently seeded solves; deterministic in the master seed.

    Runs are independent, so worker processes change nothing but wall time;
    records always land in seed order.
    """
    if cfg.n < 1:
        raise DomainError(f"campaign needs n >= 1, got {cfg.n}")
    if cfg.n > _MAX_CAMPAIGN_RUNS:
        raise DomainError(f"campaign takes at most 10^5 runs, got {cfg.n}")
    if cfg.motion not in ("gamma", "rt"):
        raise DomainError(f"unknown motion {cfg.motion!r}; use 'gamma' or 'rt'")
    # a bad step, slope, bump count, seed or table fails here, before any
    # worker starts
    check_step(cfg.step)
    check_target_slope(cfg.target_slope)
    check_bump_count(cfg.bump_count)
    check_seed(cfg.master_seed)
    TableSpec.square(cfg.side)
    tasks = ((cfg, i, s) for i, s in enumerate(_campaign_seeds(cfg)))
    workers = worker_count(cfg.n)
    if workers == 1:
        return CampaignResult(config=cfg, records=[_run_one(t) for t in tasks])
    # imported here: the pool machinery adds about 2 MB of resident memory
    # that no single solve or scan needs
    from concurrent.futures import ProcessPoolExecutor

    # at most _IN_FLIGHT runs per worker are queued at a time, so the pool's
    # futures and work items do not grow with the run count
    records = []
    window = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for task in tasks:
            if len(window) == _IN_FLIGHT * workers:
                records.append(window.popleft().result())
            window.append(pool.submit(_run_one, task))
        records.extend(f.result() for f in window)
    return CampaignResult(config=cfg, records=records)


# --------------------------------------------------------------------------
# subcommands


def _cmd_gen_terrain(args) -> int:
    extent = _parse_extent(args.extent)
    terrain = generate_terrain(args.seed, math.radians(args.theta), args.bumps,
                               extent)
    text = serialize_terrain(terrain)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    slope = terrain.slope_bound
    print(f"terrain written: {args.out}")
    print(f"bumps:           {len(terrain.bumps)}")
    print(f"slope bound:     {math.degrees(slope):.4f} deg "
          f"({terrain.slope_bound_kind}, target {args.theta:.4f} deg)")
    return EXIT_OK


def _cmd_check(args) -> int:
    terrain = _load_terrain(args.terrain)
    ext = terrain.extent
    print(f"terrain:         {args.terrain}")
    print(f"type:            {terrain.kind}")
    print(f"extent:          [{ext.xmin}, {ext.xmax}] x [{ext.ymin}, {ext.ymax}]")
    print(f"slope bound:     {math.degrees(terrain.slope_bound):.4f} deg "
          f"({terrain.slope_bound_kind})")
    if terrain.kind == "grid":
        return EXIT_OK
    search = terrain.slope_search()
    print(f"slope search:    {math.degrees(search.lower):.10f} to "
          f"{math.degrees(search.upper):.10f} deg, {search.levels} levels, "
          f"{search.points} gradient-and-Hessian points")
    return EXIT_OK


def _cmd_solve(args) -> int:
    terrain = _load_terrain(args.terrain)
    table = TableSpec.square(args.side)
    center = _parse_pair(args.center, "--center")
    runner = run_march if args.motion == "gamma" else run_pivot_slide
    trace = runner(table, terrain, center, math.radians(args.yaw),
                   step=math.radians(args.step), override=args.override)
    result = find_equilibrium(trace, terrain)
    _write_lines(args.out, trace_csv_lines(trace))
    report = format_equilibrium_report(result, trace)
    print(report)
    print(f"trace csv:       {args.out}")
    if args.report:
        _write_lines(args.report, report.splitlines())
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def _make_table(args) -> TableSpec:
    if args.circle is not None:
        if not args.angles:
            raise DomainError("--circle needs --angles A1,A2,A3,A4 (degrees)")
        angles = [math.radians(a) for a in _parse_numbers(args.angles, "--angles")]
        return TableSpec.circle(args.circle, angles)
    return TableSpec.square(args.side)


def _cmd_scan(args) -> int:
    levels = ([math.radians(s) for s in _parse_numbers(args.study, "--study")]
              if args.study else None)
    terrain = _load_terrain(args.terrain)
    # a study that cannot run fails before the scan
    if levels is not None:
        check_study(terrain, levels)
    table = _make_table(args)
    center = _parse_pair(args.center, "--center")
    scan = height_scan(table, terrain, center, args.n)
    lines = [SCAN_HEADER]
    g = scan.g_values
    for i in range(scan.n):
        row = [_fmt(math.degrees(float(scan.thetas[i])))]
        row.extend(_fmt(float(scan.heights[k, i])) for k in range(4))
        row.append(_fmt(float(g[i])))
        lines.append(",".join(row))

    # the whole report is made before the CSV is written, so a step that
    # fails leaves neither behind
    found = find_balance_angles(scan)
    report = [
        f"table:           {table.kind} (alpha={scan.alpha:.6f}, beta={scan.beta:.6f})",
        f"scan size:       {scan.n}",
        f"integral spread: {integral_equality_residual(scan):.3e}",
        f"integral of g:   {scan.integral_of_g():.3e}",
        f"scan csv:        {args.out}",
    ]
    if found.degenerate:
        report.append("balance angles:  degenerate (g vanishes identically; every "
                      "angle rests)")
    else:
        report.append(f"balance angles:  {len(found.roots)} "
                      f"({'even' if len(found.roots) % 2 == 0 else 'odd'})")
        for theta in found.roots:
            cand = approximate_equilibrium(table, terrain, center, theta)
            report.append(f"  theta = {math.degrees(theta):9.4f} deg  "
                          f"coplanarity = {cand.coplanarity_residual:.3e}  "
                          f"distortion = {cand.distortion:.3e}")
        if levels:
            study = distortion_scaling_study(table, terrain, levels, center, args.n)
            report.append("scaling study:")
            for lv in study.levels:
                if lv.distortion is None:
                    report.append(f"  slope {math.degrees(lv.target_slope):7.4f} deg: "
                                  f"{lv.note}")
                else:
                    report.append(f"  slope {math.degrees(lv.measured_slope):7.4f} deg: "
                                  f"distortion {lv.distortion:.6e}, "
                                  f"fit height err {lv.fit_height_error:.6e}")
            report += [
                f"  distortion exponent: {study.distortion_exponent:.4f} "
                f"(log-log fit residual {study.distortion_fit_residual:.4f})",
                f"  fit-height exponent: {study.height_exponent:.4f} "
                f"(log-log fit residual {study.height_fit_residual:.4f})",
                f"  reference claim:     order {study.reference_exponent:.0f} "
                f"in the slope bound (not asserted)",
            ]
    _write_lines(args.out, lines)
    print("\n".join(report))
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    cfg = CampaignConfig(
        n=args.n,
        master_seed=args.seed,
        target_slope=math.radians(args.theta),
        motion=args.motion,
        step=math.radians(args.step),
        bump_count=args.bumps,
        side=args.side,
        extent=_parse_extent(args.extent),
        override=args.override,
    )
    result = run_campaign(cfg)
    _write_lines(args.out, result.csv_lines())
    print(f"campaign:        {cfg.n} runs, motion {cfg.motion}, "
          f"target slope {args.theta:.4f} deg, master seed {cfg.master_seed}")
    print(f"found:           {result.success_count}/{cfg.n} "
          f"({100.0 * result.success_rate:.1f}%)")
    errors = [r for r in result.records if r["error"]]
    if errors:
        print(f"errors:          {len(errors)} (see CSV)")
    print(f"campaign csv:    {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wobble",
                     description="Four-legged table equilibrium solver on "
                                 "irregular terrain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-terrain", help="generate a seeded bump terrain")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--theta", type=float, required=True,
                   help="target slope bound in degrees")
    p.add_argument("--bumps", type=int, default=20)
    p.add_argument("--extent", default="-8,8,-8,8")
    p.add_argument("--out", default="terrain.json")
    p.set_defaults(fn=_cmd_gen_terrain)

    p = sub.add_parser("check", help="validate a terrain file and report slope")
    p.add_argument("--terrain", required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("solve", help="find an equilibrium placement")
    p.add_argument("--terrain", required=True)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--center", default="0,0")
    p.add_argument("--yaw", type=float, default=0.0, help="degrees")
    p.add_argument("--motion", choices=("gamma", "rt"), default="gamma")
    p.add_argument("--step", type=float, default=0.25, help="degrees")
    p.add_argument("--override", action="store_true",
                   help="run beyond certified slope limits; demote "
                        "violations to warnings")
    p.add_argument("--out", default="wobble_trace.csv")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("scan", help="full-turn height scan for circle feet")
    p.add_argument("--terrain", required=True)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--circle", type=float, default=None,
                   help="foot circle radius (with --angles)")
    p.add_argument("--angles", default=None, help="four foot angles, degrees")
    p.add_argument("--center", default="0,0")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--out", default="wobble_scan.csv")
    p.add_argument("--study", default=None,
                   help="comma list of slope levels (degrees) for the "
                        "distortion scaling study")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("montecarlo", help="seeded campaign of solves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, default=14.0, help="degrees")
    p.add_argument("--motion", choices=("gamma", "rt"), default="gamma")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--step", type=float, default=0.25, help="degrees")
    p.add_argument("--bumps", type=int, default=20)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--extent", default="-8,8,-8,8")
    p.add_argument("--override", action="store_true")
    p.add_argument("--out", default="wobble_campaign.csv")
    p.set_defaults(fn=_cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(args, "n", None) is not None and args.command == "montecarlo":
            if args.n < 1:
                parser.print_usage(sys.stderr)
                print("wobble: error: --n must be at least 1", file=sys.stderr)
                return EXIT_USAGE
        return args.fn(args)
    except UsageError as exc:
        print(f"wobble: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConditionViolation, BlockedMotion, GeometryViolation) as exc:
        print(f"condition violation: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except WobbleError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
