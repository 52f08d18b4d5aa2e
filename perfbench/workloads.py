"""The benchmark's four workloads.

All are closed loops with one client: a tracker waits for each fused
estimate before it sends the next frame, and a CLI user waits for each
command. A workload makes its inputs from the seed when it is created
(untimed), builds the program's objects in ``build`` (timed as set-up),
checks a prefix against the reference in ``verify`` (which also warms every
lazy path) and measures in ``measure``.

``measure`` runs until ``seconds`` have passed and a minimum amount of work
(frames or rounds) is done; ``seconds=0`` gives a fixed amount of work, which
is how the traced pass keeps its counts repeatable.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import itertools
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import reference as ref
from probe import StepProbe
from tracing import Tracer

HERE = Path(__file__).resolve().parent
TRACK_CONFIG = HERE / "track.cfg"
SCENARIO = "three_sensor_faults.scenario"
SCENARIO_PATH = HERE.parent / "src" / "habdf" / "scenarios" / SCENARIO


@dataclass
class Measurement:
    work: int = 0                 # frames attempted
    failed: int = 0               # frames that raised or came out wrong
    windows: list = field(default_factory=list)   # probe.Window per window or round
    latencies: np.ndarray = None  # seconds per Pipeline.step, speed-scaled
    raw_latencies: np.ndarray = None
    wall_s: float = 0.0

    def rates(self, scaled: bool = True) -> list[float]:
        """Frames per second of each window, at nominal speed when scaled."""
        return [w.frames / (w.seconds * (w.scale if scaled else 1.0)) for w in self.windows]

    def take_latencies(self, probe: StepProbe) -> None:
        self.latencies = probe.scaled_latencies()
        self.raw_latencies = np.asarray(probe.latencies)


@dataclass
class Check:
    checked: int       # frames compared with the reference
    disagree: int      # of those, frames outside tolerance
    digest: str        # hash of the checked outputs


def _report_failure(what: str) -> None:
    print(f"error: {what} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def track_pipelines(hb, detectors: int, count: int) -> list:
    cfg = hb.records.load_config(str(TRACK_CONFIG))
    model, config, init_var = hb.records.tracking_setup_from_config(cfg, detectors)
    return [hb.make_pipeline(detectors, model, config, init_var) for _ in range(count)]


class StreamWorkload:
    """Round-robin box tracks fed frame by frame through ``Pipeline.step``."""

    detectors: int
    tracks: int
    episode_frames: int   # frames per generated episode (fresh tracks each)
    prefix_frames: int    # checked against the reference and hashed
    eval_frames: int      # scored for success rate and RMS error
    trace_frames: int     # fixed work of the traced pass
    window_frames: int    # frames per throughput window
    calib_every: int      # Pipeline.step calls per calibration sample

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ref_config = ref.parse_flat_config(TRACK_CONFIG.read_text())
        self._episodes = {0: self._generate(0)}
        self.truth = [track.truth[t] for t in range(self.eval_frames)
                      for track in self._episodes[0]]

    def _generate(self, episode: int) -> list:
        raise NotImplementedError

    def episode(self, index: int) -> list:
        """The tracks of one episode. Inputs stay packed in arrays and each
        step's list is made as it is sent, so memory does not grow with speed;
        episode 0 is kept because every pass starts with it."""
        if index not in self._episodes:
            self._episodes = {0: self._episodes[0], index: self._generate(index)}
        return self._episodes[index]

    def steps(self, index: int, frames: int):
        """(track index, per-detector inputs) in call order: one step per
        track per frame, round-robin. The episode is generated before this
        returns, so generation never falls inside a timed window."""
        tracks = self.episode(index)
        return ((k, track.frame_inputs(t)) for t in range(frames)
                for k, track in enumerate(tracks))

    def build(self, hb):
        return track_pipelines(hb, self.detectors, self.tracks)

    def verify(self, hb) -> Check:
        pipes = self.build(hb)
        refs = [ref.track_pipeline(self.ref_config, self.detectors) for _ in range(self.tracks)]
        prog, expect = [], []
        for k, inputs in self.steps(0, self.prefix_frames):
            est = pipes[k].step(inputs)
            prog.append(None if est is None else est.state.mean)
            expect.append(refs[k].step(inputs))
        return Check(len(prog), ref.disagreeing(prog, expect), ref.digest(prog))

    def measure(self, hb, seconds: float, min_frames: int, tracer: Tracer | None = None,
                keep: int = 0):
        """Returns the Measurement and the fused means of the first ``keep`` steps.

        Untraced passes time each step through a StepProbe; the traced pass
        keeps plain wall-clock windows so the tracer is the only wrapper.
        """
        m = Measurement()
        window = self.window_frames * self.tracks
        min_steps = min_frames * self.tracks
        kept, elapsed, done = [], 0.0, False
        frame = tracer.frame if tracer is not None else contextlib.nullcontext
        probe = StepProbe(hb.fusion.Pipeline, self.calib_every)
        if tracer is None:
            probe.install()
        begin = perf_counter()
        try:
            for index in itertools.count():
                steps = self.steps(index, self.episode_frames)
                with frame("setup"):
                    pipes = self.build(hb)
                gc.collect()
                start = perf_counter()
                probe.start_window()
                for n, (k, inputs) in enumerate(steps, start=1):
                    try:
                        with frame():
                            est = pipes[k].step(inputs)
                    except Exception:
                        _report_failure("Pipeline.step")
                        m.failed += 1
                        est = None
                    if len(kept) < keep:
                        kept.append(None if est is None else est.state.mean)
                    m.work += 1
                    if n % window == 0:
                        m.windows.append(probe.end_window(window))
                        if m.work >= min_steps and elapsed + perf_counter() - start >= seconds:
                            done = True
                            break
                elapsed += perf_counter() - start
                if done:
                    break
        finally:
            probe.uninstall()
        m.take_latencies(probe)
        m.wall_s = perf_counter() - begin
        return m, kept

    def quality(self, kept) -> tuple[float, float]:
        boxes = [None if mean is None else mean[:4] for mean in kept[:len(self.truth)]]
        return ref.box_scores(boxes, self.truth)


class Track3Stream(StreamWorkload):
    detectors, tracks = 3, 64
    episode_frames, prefix_frames, eval_frames = 1500, 20, 120
    trace_frames, window_frames, calib_every = 48, 8, 8

    def _generate(self, episode):
        return gen.track3_tracks(self.seed, episode, self.tracks, self.episode_frames)


class Track32Stream(StreamWorkload):
    detectors, tracks = 32, 1
    episode_frames, prefix_frames, eval_frames = 3000, 30, 240
    trace_frames, window_frames, calib_every = 120, 8, 2

    def _generate(self, episode):
        return [gen.track32_track(self.seed, episode, self.episode_frames)]


def _quiet_cli(hb, argv) -> bool:
    """Run one CLI command in process with its stdout swallowed; True on exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return hb.cli.main(argv) == 0
        except Exception:
            _report_failure(f"habdf {argv[0]}")
            return False


class CliWorkload:
    """Repeated in-process CLI rounds whose output files must not change."""

    frames_per_round: int
    trace_rounds = 2
    calib_every = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def round(self, hb) -> bool:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for path in self.outputs():
            h.update(path.read_bytes())
        return h.hexdigest()

    def measure(self, hb, seconds: float, min_rounds: int, tracer: Tracer | None = None,
                expect_digest: str | None = None):
        """Each round is one window. Untraced rounds run under a StepProbe,
        which also gives the per-frame latency inside the CLI's own loop."""
        m = Measurement()
        frame = tracer.frame if tracer is not None else contextlib.nullcontext
        probe = StepProbe(hb.fusion.Pipeline, self.calib_every)
        if tracer is None:
            probe.install()
        begin = perf_counter()
        try:
            elapsed = 0.0
            while len(m.windows) < min_rounds or elapsed < seconds:
                probe.start_window()
                with frame("round"):
                    ok = self.round(hb)
                m.windows.append(probe.end_window(self.frames_per_round))
                elapsed += m.windows[-1].seconds
                m.work += self.frames_per_round
                if not ok or self.output_digest() != expect_digest:
                    m.failed += self.frames_per_round
        finally:
            probe.uninstall()
        m.take_latencies(probe)
        m.wall_s = perf_counter() - begin
        return m


class ReplayCli(CliWorkload):
    """``habdf fuse`` then ``habdf eval`` on a 3-detector track log."""

    frames_per_round = 1500
    prefix_rows = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tracks_csv = workdir / "tracks.csv"
        self.gt_csv = workdir / "gt.csv"
        self.fused_csv = workdir / "fused.csv"
        self.eval_csv = workdir / "eval.csv"
        self.track = gen.write_replay_inputs(seed, self.frames_per_round,
                                             str(self.tracks_csv), str(self.gt_csv))
        self.ref_config = ref.parse_flat_config(TRACK_CONFIG.read_text())

    def build(self, hb):
        return track_pipelines(hb, 3, 1)

    def round(self, hb):
        return (_quiet_cli(hb, ["fuse", str(self.tracks_csv), "--config", str(TRACK_CONFIG),
                                "--out", str(self.fused_csv)])
                and _quiet_cli(hb, ["eval", str(self.fused_csv), str(self.gt_csv),
                                    "--out", str(self.eval_csv)]))

    def outputs(self):
        return [self.fused_csv, self.eval_csv, self.eval_csv.with_name("eval_summary.csv")]

    def verify(self, hb) -> Check:
        self.evals, self.summary = [], None
        if not self.round(hb):
            return Check(self.frames_per_round, self.frames_per_round, "")
        fused = _read_rows(self.fused_csv)
        evals = _read_rows(self.eval_csv)
        summary = _read_rows(self.eval_csv.with_name("eval_summary.csv"))[0]
        pipe = ref.track_pipeline(self.ref_config, 3)
        expect = []
        for t in range(self.frames_per_round):
            mean = pipe.step(self.track.frame_inputs(t))
            if mean is not None:
                expect.append(np.concatenate([[t], mean[:4]]))
        prog = [np.array([float(r[k]) for k in ("frame", "u", "v", "h", "w")]) for r in fused]
        n = min(self.prefix_rows, len(expect))
        bad = ref.disagreeing(prog[:n], expect[:n]) + abs(len(prog) - len(expect))
        # Eval: every scored frame against the reference metrics on the same boxes.
        by_frame = {int(r["frame"]): r for r in fused}
        hits = 0
        for row in evals:
            box = [float(by_frame[int(row["frame"])][k]) for k in ("u", "v", "h", "w")]
            gt = self.track.truth[int(row["frame"])]
            j, d = ref.jaccard(box, gt), float(np.linalg.norm(np.asarray(box) - gt))
            ok = j >= ref.JACCARD_MIN and d <= ref.DISTANCE_MAX
            hits += ok
            bad += not (ref.close(float(row["jaccard"]), j) and ref.close(float(row["distance"]), d)
                        and (row["success"] == "true") == ok)
        bad += not ref.close(float(summary["success_rate"]), hits / max(len(evals), 1))
        self.evals = evals
        self.summary = summary
        return Check(n + len(evals), bad, self.output_digest())

    def quality(self, kept=None) -> tuple[float, float]:
        if not self.evals:
            return 0.0, 0.0
        dist = [float(r["distance"]) for r in self.evals]
        return float(self.summary["success_rate"]), math.sqrt(sum(d * d for d in dist) / len(dist))


class SimSweep(CliWorkload):
    """``habdf sweep`` of the bundled scalar fault bench over a run.seed grid."""

    cells = 4
    ref_cells = 2
    trace_rounds = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out_csv = workdir / "sweep.csv"
        self.seeds = gen.sweep_seeds(seed, self.cells)
        self.ref_scenario = ref.parse_flat_config(SCENARIO_PATH.read_text())
        self.frames_per_round = self.cells * int(self.ref_scenario["run.frames"])

    def _grid(self):
        return "run.seed=" + ",".join(str(s) for s in self.seeds)

    def build(self, hb):
        cfg = hb.records.load_config(SCENARIO)
        grid = hb.records.parse_grid([self._grid()])
        out = []
        for seed in grid["run.seed"]:
            scenario = hb.records.scenario_from_config({**cfg, "run.seed": seed})
            out.append(scenario.fusion_config())
        return out

    def round(self, hb):
        return _quiet_cli(hb, ["sweep", "--config", SCENARIO, "--grid", self._grid(),
                               "--out", str(self.out_csv)])

    def outputs(self):
        return [self.out_csv]

    def verify(self, hb) -> Check:
        self.rows = []
        if not self.round(hb):
            return Check(self.frames_per_round, self.frames_per_round, "")
        self.rows = _read_rows(self.out_csv)
        frames = int(self.ref_scenario["run.frames"])
        bad = 0
        for row, seed in zip(self.rows[:self.ref_cells], self.seeds):
            expect = ref.sim_cell(self.ref_scenario, seed)
            if int(row["run.seed"]) != seed or not all(
                    ref.close(float(row[k]), v) for k, v in expect.items()):
                bad += frames
        bad += frames * abs(len(self.rows) - self.cells)
        return Check(self.ref_cells * frames, bad, self.output_digest())

    def quality(self, kept=None) -> tuple[float, float]:
        if not self.rows:
            return 0.0, 0.0
        fused = [float(r["fused_rmse"]) for r in self.rows]
        wins = [float(r["fused_rmse"]) < float(r["best_sensor_rmse"]) for r in self.rows]
        return sum(wins) / len(wins), sum(fused) / len(fused)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
