"""Tests of the benchmark itself: generators, span arithmetic, reference."""

import json

import numpy as np
import pytest

import gen
import probe
import reference as ref
import run
from tracing import Tracer, self_times
from workloads import TRACK_CONFIG

CFG = ref.parse_flat_config(TRACK_CONFIG.read_text())


def _pipeline(hb, detectors):
    return run.wl.track_pipelines(hb, detectors, 1)[0]


def _same_track(a, b):
    return (np.array_equal(a.truth, b.truth) and np.array_equal(a.boxes, b.boxes)
            and np.array_equal(a.present, b.present))


class TestGenerators:
    def test_track3_is_a_function_of_seed_and_episode(self):
        a = gen.track3_tracks(7, 0, 4, 50)
        b = gen.track3_tracks(7, 0, 4, 50)
        assert all(_same_track(x, y) for x, y in zip(a, b))
        assert not _same_track(a[0], gen.track3_tracks(8, 0, 4, 50)[0])
        assert not _same_track(a[0], gen.track3_tracks(7, 1, 4, 50)[0])

    def test_track32_is_a_function_of_seed(self):
        assert _same_track(gen.track32_track(3, 0, 60), gen.track32_track(3, 0, 60))
        assert not _same_track(gen.track32_track(3, 0, 60), gen.track32_track(4, 0, 60))

    def test_replay_files_are_byte_identical_per_seed(self, tmp_path):
        paths = []
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            tracks, gt = tmp_path / f"{name}_t.csv", tmp_path / f"{name}_g.csv"
            gen.write_replay_inputs(seed, 40, str(tracks), str(gt))
            paths.append(tracks.read_bytes() + gt.read_bytes())
        assert paths[0] == paths[1] != paths[2]

    def test_sweep_seeds_are_a_function_of_seed(self):
        assert gen.sweep_seeds(2, 4) == gen.sweep_seeds(2, 4) != gen.sweep_seeds(3, 4)

    def test_fault_mix(self):
        track = gen.track32_track(1, 0, 2000)
        absent = 1.0 - track.present.mean()
        assert 0.08 < absent < 0.12
        frozen = np.all(np.diff(track.boxes, axis=1) == 0.0, axis=2).sum(axis=1)
        assert (frozen > 0).sum() == 4


class TestSelfTimes:
    def test_synthetic_tree(self):
        # 0: root [0, 10]
        #   1: [1, 3] with grandchild 4: [1.5, 2]
        #   2: [2, 4] overlaps 1 by one unit
        #   3: [9, 12] runs past the root's end
        starts = [0.0, 1.0, 2.0, 9.0, 1.5]
        ends = [10.0, 3.0, 4.0, 12.0, 2.0]
        parents = [-1, 0, 0, 0, 1]
        got = self_times(starts, ends, parents)
        # root covered on [1, 4] and [9, 10]
        assert got == pytest.approx([6.0, 1.5, 2.0, 3.0, 0.5])

    def test_selfs_sum_to_root_duration(self):
        starts = [0.0, 0.5, 0.6, 2.0, 2.5]
        ends = [5.0, 1.5, 1.0, 4.0, 3.0]
        parents = [-1, 0, 1, 0, 3]
        assert sum(self_times(starts, ends, parents)) == pytest.approx(5.0)


class TestTracer:
    def test_wraps_every_lookup_and_restores(self):
        hb = run.import_habdf()
        original = hb.kalman.kf_update
        pipe = _pipeline(hb, 3)
        tracer = Tracer()
        tracer.install()
        try:
            for module in (hb, hb.kalman, hb.experts, hb.fusion):
                assert module.kf_update is not original
            boxes = [np.array([100.0, 100.0, 50.0, 40.0])] * 3
            with tracer.frame():
                pipe.step(boxes)
                pipe.step(boxes)
        finally:
            tracer.uninstall()
        for module in (hb, hb.kalman, hb.experts, hb.fusion):
            assert module.kf_update is original
        summary = tracer.summary()
        assert summary["experts.Expert.step"]["calls"] == 6
        assert summary["fusion.FusionCenter.step"]["calls"] == 2
        assert tracer.child_calls("voting.box_distance", "fusion.FusionCenter.step") == 12
        assert tracer.counts["fusion.FusionCenter.step.pairs"] == 6
        assert tracer.counts["kalman.kf_update.center_rows"] == 24
        assert set(tracer.frames) == {0}
        root = tracer.names.index("bench.frame")
        assert sum(row["self_s"] for row in summary.values()) == pytest.approx(
            tracer.ends[root] - tracer.starts[root])


class TestStepProbe:
    def test_times_every_step_and_scales_by_calibration(self, monkeypatch):
        class Fake:
            def step(self, measurements):
                return measurements

        original = Fake.step
        samples = iter([2e-4, 4e-4, 2e-4])
        monkeypatch.setattr(probe, "calibrate", lambda: next(samples))
        p = probe.StepProbe(Fake, calib_every=2)
        p.install()
        try:
            assert [Fake().step(i) for i in range(6)] == list(range(6))
            window = p.end_window(6)
        finally:
            p.uninstall()
        assert Fake.step is original
        assert len(p.latencies) == 6 and p.calib == [2e-4, 4e-4, 2e-4]
        assert window.scale == pytest.approx(probe.CALIB_NOMINAL_S / (8e-4 / 3))
        # Each block of two steps uses the samples on either side of it.
        around = np.array([2e-4, 2e-4, 3e-4, 3e-4, 3e-4, 3e-4])
        assert p.scaled_latencies() == pytest.approx(
            np.asarray(p.latencies) * probe.CALIB_NOMINAL_S / around)


class TestReference:
    def _run(self, detectors, frames):
        pipe = _pipeline(run.import_habdf(), detectors)
        expect = ref.track_pipeline(CFG, detectors)
        track = (gen.track3_tracks(9, 0, 1, frames)[0] if detectors == 3
                 else gen.track32_track(9, 0, frames))
        prog, refs = [], []
        for t in range(frames):
            est = pipe.step(track.frame_inputs(t))
            prog.append(None if est is None else est.state.mean)
            refs.append(expect.step(track.frame_inputs(t)))
        return prog, refs

    @pytest.mark.parametrize("detectors", [3, 32])
    def test_agrees_with_program(self, detectors):
        prog, refs = self._run(detectors, 60)
        assert ref.disagreeing(prog, refs) == 0

    def test_rejects_perturbed_output(self):
        prog, refs = self._run(3, 60)
        digest = ref.digest(prog)
        prog[30] = prog[30].copy()
        prog[30][1] += 1e-3
        prog[45] = None
        assert ref.disagreeing(prog, refs) == 2
        assert ref.digest(prog) != digest

    def test_sim_cell_matches_program(self):
        hb = run.import_habdf()
        cfg = hb.records.load_config(run.wl.SCENARIO)
        result = hb.run_sim_experiment(hb.records.scenario_from_config(cfg, seed=11))
        scenario = ref.parse_flat_config(run.wl.SCENARIO_PATH.read_text())
        expect = ref.sim_cell(scenario, 11)
        assert ref.close(result.fused_rmse(), expect["fused_rmse"])
        assert not ref.close(result.fused_rmse() * (1 + 1e-4), expect["fused_rmse"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_exactly_the_declared_metrics(capsys, trace, key):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[key]
    code = run.main(["--workload", "replay-cli", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
