"""habdf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/habdf`` beside this directory, never from an installed copy. With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it runs a
short untraced pass, then a fixed-size traced pass, and prints the per-layer
metrics. ``--workload all`` runs every workload in this one process. The last
line of output is one JSON object; the exit code is 1 when an output
disagrees with the reference or is not reproducible, 2 when the program
cannot be found.
"""

import os

# Pin BLAS threading before numpy loads, so timings measure the program and
# not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (warm: imported by habdf)
import scipy.special  # noqa: E402,F401
import scipy.stats  # noqa: E402,F401

import workloads as wl  # noqa: E402
from tracing import BENCH, LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15

WORKLOADS = {
    "track3-stream": wl.Track3Stream,
    "track32-stream": wl.Track32Stream,
    "replay-cli": wl.ReplayCli,
    "sim-sweep": wl.SimSweep,
}


def import_habdf():
    """Import habdf afresh from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "habdf" or m.startswith("habdf.")]:
        del sys.modules[name]
    hb = importlib.import_module("habdf")
    for sub in ("cli", "records", "fusion", "sim"):
        importlib.import_module(f"habdf.{sub}")
    return hb


def env_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, blas {blas.get('name')} {blas.get('version')}, "
            f"BLAS/OpenMP threads pinned to 1, cpus {os.cpu_count()}")


def make_workload(name: str, seed: int):
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)


def timed_setup(workload):
    """Median over repeats of: fresh import, config load, object construction."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        hb = import_habdf()
        workload.build(hb)
        times.append(perf_counter() - start)
    return hb, statistics.median(times)


def measure(workload, hb, seconds, check, tracer=None):
    """One measuring pass; the traced pass does a fixed amount of work.

    Frames whose outputs differ from the checked prefix (stream) or from the
    first round's files (CLI) count as failed. Stream passes also return the
    fused means they kept for scoring.
    """
    if isinstance(workload, wl.StreamWorkload):
        keep = max(workload.prefix_frames, workload.eval_frames) * workload.tracks
        if tracer is not None:
            m, kept = workload.measure(hb, 0.0, workload.trace_frames, tracer, keep)
        else:
            m, kept = workload.measure(hb, seconds, workload.eval_frames, keep=keep)
        if wl.ref.digest(kept[:check.checked]) != check.digest:
            print("error: repeated outputs differ from the checked prefix", file=sys.stderr)
            m.failed += check.checked
        return m, kept
    if tracer is not None:
        return workload.measure(hb, 0.0, workload.trace_rounds, tracer, check.digest), None
    return workload.measure(hb, seconds, 2, expect_digest=check.digest), None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(workload, hb, seconds, check, lines):
    m, kept = measure(workload, hb, seconds, check)
    success, rmse = workload.quality(kept)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = m.latencies
    lines.append(f"frames: {m.work} in {len(m.windows)} windows, latency samples: {len(lat)}, "
                 f"mean speed scale {statistics.mean(w.scale for w in m.windows):.3f}")
    # Reported, not bounded: unscaled timings, and the fused error, which
    # hinges on a seed's few fault events and so spreads across seeds by
    # more than any allowed bound.
    raw = m.raw_latencies
    for key, value, unit in (
            ("frames_per_s unscaled", statistics.median(m.rates(scaled=False)), "1/s"),
            ("frame_latency_p50_us unscaled", percentile(raw, 50) * 1e6, "us"),
            ("frame_latency_p99_us unscaled", percentile(raw, 99) * 1e6, "us"),
            ("fused_rmse", rmse, "units" if isinstance(workload, wl.SimSweep) else "px")):
        lines.append(f"  {key + ' (report only)':42s} {value:>16.6g} {unit}")
    metrics = {
        "frames_per_s": (statistics.median(m.rates()), "1/s"),
        "frame_latency_p50_us": (percentile(lat, 50) * 1e6, "us"),
        "frame_latency_p99_us": (percentile(lat, 99) * 1e6, "us"),
        "success_rate": (success, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return m, metrics


def per_layer(workload, hb, seconds, check, lines):
    untraced, _ = measure(workload, hb, seconds / 2.0, check)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = measure(workload, hb, seconds, check, tracer)
    finally:
        tracer.uninstall()
    tracer.write(str(workload.workdir / "spans.csv"))
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    fc = "fusion.FusionCenter.step"
    box_in_fusion = tracer.child_calls("voting.box_distance", fc)
    metrics = {
        "kalman.kf_predict.calls": (get("kalman.kf_predict", "calls"), "count"),
        "kalman.kf_predict.busy_s": (get("kalman.kf_predict", "busy_s"), "s"),
        "kalman.kf_update.calls": (get("kalman.kf_update", "calls"), "count"),
        "kalman.kf_update.busy_s": (get("kalman.kf_update", "busy_s"), "s"),
        "kalman.kf_update.rows_mean": (ratio(c["kalman.kf_update.center_rows"],
                                             c["kalman.kf_update.center_calls"]), "rows"),
        "experts.Expert.step.calls": (get("experts.Expert.step", "calls"), "count"),
        "experts.Expert.step.self_s": (get("experts.Expert.step", "self_s"), "s"),
        "experts.Expert.step.coast_frac": (ratio(c["experts.Expert.step.coast"],
                                                 get("experts.Expert.step", "calls")), "ratio"),
        "experts.mahalanobis.busy_s": (get("experts.mahalanobis", "busy_s"), "s"),
        "experts.local_weight.busy_s": (get("experts.local_weight", "busy_s"), "s"),
        "voting.box_distance.calls": (get("voting.box_distance", "calls"), "count"),
        "voting.box_distance.busy_s": (get("voting.box_distance", "busy_s"), "s"),
        "voting.box_distance.pairs_ratio": (ratio(box_in_fusion, c[fc + ".pairs"]), "ratio"),
        "voting.vote_weight.calls": (get("voting.vote_weight", "calls"), "count"),
        "voting.vote_weight.busy_s": (get("voting.vote_weight", "busy_s"), "s"),
        "fusion.FusionCenter.step.calls": (get(fc, "calls"), "count"),
        "fusion.FusionCenter.step.self_s": (get(fc, "self_s"), "s"),
        "fusion.FusionCenter.step.coasting_frac": (ratio(c[fc + ".coasting"],
                                                         get(fc, "calls")), "ratio"),
        "fusion.Pipeline.step.self_s": (get("fusion.Pipeline.step", "self_s"), "s"),
        "fusion.adapt_rvv.busy_s": (get("fusion.adapt_rvv", "busy_s"), "s"),
        "records.read_track_csv.busy_s": (get("records.read_track_csv", "busy_s"), "s"),
        "records.read_track_csv.rows_per_s": (ratio(c["records.read_track_csv.rows"],
                                                    get("records.read_track_csv", "busy_s")),
                                              "1/s"),
        "records.write_csv.busy_s": (get("records.write_csv", "busy_s"), "s"),
        "records.read_box_csv.busy_s": (get("records.read_box_csv", "busy_s"), "s"),
        "records.load_config.busy_s": (get("records.load_config", "busy_s"), "s"),
        "metrics.jaccard.calls": (get("metrics.jaccard", "calls"), "count"),
        "metrics.jaccard.busy_s": (get("metrics.jaccard", "busy_s"), "s"),
        "metrics.gt_distance.busy_s": (get("metrics.gt_distance", "busy_s"), "s"),
        "metrics.summarize.busy_s": (get("metrics.summarize", "busy_s"), "s"),
        "sim.run_sim_experiment.self_s": (get("sim.run_sim_experiment", "self_s"), "s"),
        "sim.run_plant.busy_s": (get("sim.run_plant", "busy_s"), "s"),
        "sim.inject_faults.busy_s": (get("sim.inject_faults", "busy_s"), "s"),
        "cli.cmd_fuse.self_s": (get("cli.cmd_fuse", "self_s"), "s"),
        "cli.cmd_eval.self_s": (get("cli.cmd_eval", "self_s"), "s"),
        "cli.cmd_sweep.self_s": (get("cli.cmd_sweep", "self_s"), "s"),
    }
    layer_self = {}
    for layer in LAYERS + (BENCH,):
        layer_self[layer] = sum(row["self_s"] for name, row in s.items()
                                if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.layers_frac"] = (ratio(sum(layer_self[x] for x in LAYERS), traced.wall_s),
                                    "ratio")
    metrics["trace.overhead_frac"] = (
        1.0 - statistics.median(traced.rates(scaled=False))
        / statistics.median(untraced.rates(scaled=False)), "ratio")
    lines.append(f"traced pass: {traced.work} frames, {len(tracer.names)} spans, "
                 f"wall {traced.wall_s:.3f} s, untraced pass: {untraced.work} frames")
    attempted = untraced.work + traced.work
    return attempted, untraced.failed + traced.failed, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool):
    """Returns (correct, attempted, failed, metrics, report lines)."""
    lines = [f"workload {name}, seed {seed}, seconds {seconds}, trace {int(trace)}"]
    workload = make_workload(name, seed)
    hb, setup_s = timed_setup(workload)
    check = workload.verify(hb)
    lines.append(f"reference: {check.checked} frames checked, {check.disagree} disagree; "
                 f"digest {check.digest[:16]}")
    # What the benchmark made before timing (inputs, reference results)
    # lives for the whole run; keep the collector's full passes from
    # re-scanning it, a cost no tracker holding one frame would pay.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            attempted, failed, metrics = per_layer(workload, hb, seconds, check, lines)
        else:
            m, metrics = end_to_end(workload, hb, seconds, check, lines)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
            attempted, failed = m.work, m.failed
    finally:
        gc.unfreeze()
    failed += check.disagree
    correct = failed == 0
    # Zero whenever the run is correct, so it is reported, not bounded.
    lines.append(f"  {'failed_frac (report only)':42s} {failed / max(attempted, 1):>16.6g} "
                 f"ratio ({failed} of {attempted})")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:42s} {value:>16.6g} {unit}")
    return correct, attempted, failed, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "habdf" / "__init__.py").is_file():
        print(f"error: no habdf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    hb = import_habdf()
    if Path(hb.__file__).resolve().parent != SRC / "habdf":
        print(f"error: habdf imported from {hb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(env_line())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        correct, attempted, failed, metrics, lines = run_one(
            name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        prefix = f"{name}/" if len(names) > 1 else ""
        total["correct"] &= correct
        total["attempted"] += attempted
        total["failed"] += failed
        total["metrics"].update({prefix + k: {"value": float(v), "unit": u}
                                 for k, (v, u) in metrics.items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
