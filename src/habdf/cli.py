"""Command-line front end: simulate, fuse, eval, sweep.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or config error
(argparse uses 2 as well). All outputs are CSVs written through the canonical
formatter, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import astuple, fields

import numpy as np

from .errors import (
    ConfigError,
    HabdfError,
    InsufficientDetectorsError,
    RecordFormatError,
)
from .fusion import make_pipeline
from .metrics import FrameEval, gt_distance, jaccard, success, summarize
from .records import (
    load_config,
    parse_grid,
    read_columns,
    scenario_from_config,
    tracking_setup_from_config,
    write_csv,
)
from .sim import run_sim_experiment

__all__ = ["main", "cmd_simulate", "cmd_fuse", "cmd_eval", "cmd_sweep"]

SWEEP_CELL_LIMIT = 10_000


def _summary_path(out: str) -> str:
    stem, dot, ext = out.rpartition(".")
    return f"{stem}_summary.{ext}" if dot else out + "_summary"


def _sim_frame_rows(result):
    series = {"sensor": result.sensors, "expert": result.experts, "wM": result.w_m,
              "wd": result.w_d, "rvv": result.rvv}
    header = (
        ["frame", "truth"]
        + [f"{name}_{i + 1}" for name in series for i in range(result.n_sensors)]
        + ["fused", "fused_var"]
    )
    table = np.vstack([result.truth, *series.values(), result.fused, result.fused_var])
    # The frame cell stays an int; every other cell is a float.
    rows = [[int(t)] + row for t, row in zip(result.frame, table.T.tolist())]
    return header, rows


SIM_SUMMARY_HEADER = ["series", "rmse", "mean_wd", "mean_wM", "mean_rvv"]


def _sim_summary_rows(result):
    means = [a.mean(axis=1) for a in (result.w_d, result.w_m, result.rvv)]
    table = np.column_stack([result.sensor_rmse(), *means])
    rows = [[f"sensor_{i + 1}"] + row for i, row in enumerate(table.tolist())]
    rows.append(["fused", result.fused_rmse(), float("nan"), float("nan"), float("nan")])
    return rows


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    scenario = scenario_from_config(cfg, seed=args.seed)
    result = run_sim_experiment(scenario)
    out = args.out or cfg.get("run.out")
    if not out:
        raise ConfigError("no output path: pass --out or set run.out in the config")
    header, rows = _sim_frame_rows(result)
    write_csv(out, header, rows)
    summary_out = _summary_path(out)
    write_csv(summary_out, SIM_SUMMARY_HEADER, _sim_summary_rows(result))
    best = float(result.sensor_rmse().min())
    print(
        f"wrote {out} ({result.truth.shape[0]} frames) and {summary_out}; "
        f"fused rmse {result.fused_rmse():.6g}, best sensor rmse {best:.6g}"
    )
    return 0


def cmd_fuse(args) -> int:
    frames, boxes, ids, det, valid = read_columns(args.tracks, track=True)
    if not frames.size:
        raise RecordFormatError(f"{args.tracks}: no records")
    if len(ids) < 3:
        raise InsufficientDetectorsError(
            f"{args.tracks} carries {len(ids)} detectors; "
            "majority voting needs at least 3"
        )
    cfg = load_config(args.config)
    model, config, init_var = tracking_setup_from_config(cfg, len(ids))
    pipe = make_pipeline(len(ids), model, config, init_var)

    header = ["frame", "u", "v", "h", "w"] + [
        f"{name}_{d}" for name in ("wd", "wM", "rvv") for d in ids]
    # Valid readings sorted by frame; each frame's readings end where the next
    # frame starts. A frame whose rows are all invalid still steps.
    steps = np.unique(frames)
    keep = np.flatnonzero(valid)
    keep = keep[np.argsort(frames[keep], kind="stable")]
    ends = np.searchsorted(frames[keep], steps, side="right").tolist()
    slots, readings = det[keep].tolist(), boxes[keep]
    rows = []
    for frame, start, end in zip(steps.tolist(), [0] + ends, ends):
        meas = [None] * len(ids)
        for i in range(start, end):
            meas[slots[i]] = readings[i]
        est = pipe.step(meas)
        if est is None:
            continue  # nothing seen yet on any detector
        box = (model.C @ est.state.mean).tolist()
        rows.append([frame, *box, *est.w_d.tolist(), *est.w_M.tolist(),
                     *est.rvv_scale.tolist()])
    write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} frames, {len(ids)} detectors)")
    return 0


def cmd_eval(args) -> int:
    fused_frames, fused = read_columns(args.fused)
    gt_frames, gt = read_columns(args.gt)
    common, fi, gi = np.intersect1d(fused_frames, gt_frames, assume_unique=True,
                                    return_indices=True)
    skipped = fused_frames.size + gt_frames.size - 2 * common.size
    if not common.size:
        raise RecordFormatError(
            f"no overlapping frames between {args.fused} and {args.gt}"
        )
    frames = common.tolist()
    j = jaccard(fused[fi], gt[gi]).tolist()
    d = gt_distance(fused[fi], gt[gi]).tolist()
    ok = list(map(success, j, d))
    evals = list(map(FrameEval, frames, j, d, ok))
    write_csv(args.out, [f.name for f in fields(FrameEval)], zip(frames, j, d, ok))
    summary = summarize({"fused": evals})[0]
    summary_out = _summary_path(args.out)
    write_csv(summary_out, [f.name for f in fields(summary)], [astuple(summary)])
    if skipped:
        print(f"excluded {skipped} unmatched frames")
    print(
        f"wrote {args.out} and {summary_out}; {summary.frames} frames, "
        f"mean jaccard {summary.mean_jaccard:.6g}, mean distance "
        f"{summary.mean_distance:.6g}, success rate {summary.success_rate:.6g}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    grid = parse_grid(args.grid)
    if args.seed is not None and "run.seed" in grid:
        raise ConfigError("--seed and a run.seed grid axis cannot both set the seed")
    keys = list(grid)
    cells = math.prod(map(len, grid.values()))
    if cells > SWEEP_CELL_LIMIT and not args.force:
        raise ConfigError(
            f"grid has {cells} cells (> {SWEEP_CELL_LIMIT}); pass --force to run anyway"
        )
    header = keys + ["fused_rmse", "best_sensor_rmse", "mean_wd", "mean_wM", "mean_rvv"]
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell_cfg = dict(cfg)
        cell_cfg.update(zip(keys, combo))
        scenario = scenario_from_config(cell_cfg, seed=args.seed)
        result = run_sim_experiment(scenario)
        rows.append(list(combo) + [
            result.fused_rmse(),
            float(result.sensor_rmse().min()),
            float(np.mean(result.w_d)),
            float(np.mean(result.w_m)),
            float(np.mean(result.rvv)),
        ])
    write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} cells)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="habdf",
        description="Adaptive multi-sensor fusion: simulate, fuse, eval, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the fault-injection bench")
    p.add_argument("--config", required=True, help="scenario file (path or bundled name)")
    p.add_argument("--out", help="per-frame CSV path (summary lands next to it)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="replay a detector track log through the fusion stack")
    p.add_argument("tracks", help="track CSV: frame,detector_id,u,v,h,w,valid")
    p.add_argument("--config", required=True, help="fusion config file")
    p.add_argument("--out", required=True, help="fused track CSV path")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="score a fused track against ground truth")
    p.add_argument("fused", help="fused track CSV (frame,u,v,h,w,...)")
    p.add_argument("gt", help="ground-truth CSV (frame,u,v,h,w)")
    p.add_argument("--out", required=True, help="per-frame eval CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-sweep scenario parameters")
    p.add_argument("--config", required=True, help="base scenario file")
    p.add_argument("--grid", action="append", required=True, metavar="KEY=V1,V2",
                   help="axis values; repeat for more axes")
    p.add_argument("--out", required=True, help="summary CSV path, one row per cell")
    p.add_argument("--seed", type=int, help="override the scenario seed for every cell")
    p.add_argument("--force", action="store_true",
                   help=f"allow grids past {SWEEP_CELL_LIMIT} cells")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        name = exc.filename or (exc.args[0] if exc.args else exc)
        if isinstance(exc, FileNotFoundError):
            print(f"error: file not found: {name}", file=sys.stderr)
        else:
            print(f"error: {exc.strerror}: {name}", file=sys.stderr)
        return 2
    except HabdfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        bad_input = (ConfigError, RecordFormatError, InsufficientDetectorsError)
        return 2 if isinstance(exc, bad_input) else 1
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
