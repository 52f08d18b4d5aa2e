"""End-to-end CLI behavior, run in process through main(argv)."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from habdf import FrameEval, TrackRecord, chi2_xi, summarize
from habdf.cli import main
from habdf.records import read_box_csv, read_csv_dicts, write_track_csv

SMALL_SCENARIO = """\
run.frames = 80
run.dt = 0.05
run.seed = 3
sensors.count = 3
sensor.1.noise_sigma = 4
sensor.2.noise_sigma = 2
sensor.2.drift_rate = 0.2
sensor.3.noise_sigma = 2
sensor.3.shock_offset = -30
sensor.3.shock_start = 30
sensor.3.shock_end = 60
filter.accel_var = 2.0
filter.meas_var = 16
vote.omega0 = 1
vote.omega = 500
vote.lambda = 30
fusion.gamma = 50
fusion.delta = 100
"""


@pytest.fixture
def small_scenario(tmp_path):
    path = tmp_path / "small.scenario"
    path.write_text(SMALL_SCENARIO)
    return str(path)


def summary_floats(path):
    rows, _ = read_csv_dicts(path)
    return {r["series"]: r for r in rows}


def write_boxes(path, frames_to_boxes):
    lines = ["frame,u,v,h,w"]
    for frame, box in frames_to_boxes.items():
        lines.append(",".join(str(v) for v in (frame, *box)))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSimulate:
    def test_writes_frames_and_summary(self, small_scenario, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        assert main(["simulate", "--config", small_scenario, "--out", out]) == 0
        rows, header = read_csv_dicts(out)
        assert len(rows) == 80
        assert header[:2] == ["frame", "truth"]
        assert "fused" in header and "rvv_3" in header
        summary = summary_floats(str(tmp_path / "run_summary.csv"))
        assert set(summary) == {"sensor_1", "sensor_2", "sensor_3", "fused"}
        assert "fused rmse" in capsys.readouterr().out

    def test_seed_override_gives_identical_bytes(self, small_scenario, tmp_path):
        outs = [str(tmp_path / f"r{i}.csv") for i in (1, 2)]
        for out in outs:
            assert main(["simulate", "--config", small_scenario,
                         "--out", out, "--seed", "9"]) == 0
        a = Path(outs[0]).read_bytes()
        b = Path(outs[1]).read_bytes()
        assert a == b
        assert (tmp_path / "r1_summary.csv").read_bytes() == \
            (tmp_path / "r2_summary.csv").read_bytes()

    def test_different_seeds_differ(self, small_scenario, tmp_path):
        outs = [str(tmp_path / f"s{i}.csv") for i in (1, 2)]
        main(["simulate", "--config", small_scenario, "--out", outs[0], "--seed", "1"])
        main(["simulate", "--config", small_scenario, "--out", outs[1], "--seed", "2"])
        assert Path(outs[0]).read_bytes() != Path(outs[1]).read_bytes()

    def test_bundled_scenario_regression(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["simulate", "--config", "three_sensor_faults.scenario", "--out", out]) == 0
        summary = summary_floats(str(tmp_path / "bench_summary.csv"))
        assert float(summary["fused"]["rmse"]) == pytest.approx(8.28151534, rel=1e-8)
        assert float(summary["sensor_1"]["rmse"]) == pytest.approx(15.3673865, rel=1e-8)
        assert float(summary["sensor_2"]["rmse"]) == pytest.approx(173.029277, rel=1e-8)
        assert float(summary["sensor_3"]["rmse"]) == pytest.approx(34.5653944, rel=1e-8)
        assert float(summary["sensor_3"]["mean_rvv"]) == pytest.approx(2397.21026, rel=1e-8)

    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.scenario")
        assert main(["simulate", "--config", missing, "--out", str(tmp_path / "o.csv")]) == 2
        assert missing in capsys.readouterr().err

    def test_directory_config_exits_2_without_traceback(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: Is a directory: {tmp_path}" in err
        assert "Traceback" not in err

    def test_no_output_path_exits_2(self, small_scenario, capsys):
        assert main(["simulate", "--config", small_scenario]) == 2
        assert "output path" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["expert.use_diag_approx = true", "expert.xi = 2.5"])
    def test_removed_expert_key_exits_2_naming_its_line(self, small_scenario, tmp_path,
                                                         capsys, line):
        Path(small_scenario).write_text(SMALL_SCENARIO + line + "\n")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", small_scenario, "--out", str(out)]) == 2
        n = len(SMALL_SCENARIO.splitlines()) + 1
        key = line.split()[0]
        assert capsys.readouterr().err == f"error: {small_scenario}:{n}: unknown key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sensor.0.noise_sigma", "sensor.4.noise_sigma",
                                     "fusion.gamma.9"])
    def test_index_outside_the_sensors_exits_2_without_traceback(self, small_scenario,
                                                                 tmp_path, capsys, key):
        Path(small_scenario).write_text(SMALL_SCENARIO + f"{key} = 5\n")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", small_scenario, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: keys index detectors outside 1..3: {key}\n"
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["replay"])
        assert exc.value.code == 2


class TestFuse:
    def write_tracks(self, tmp_path, n_dets=3, frames=60, box=(100.0, 50.0, 40.0, 30.0)):
        path = str(tmp_path / "tracks.csv")
        names = [chr(ord("a") + i) for i in range(n_dets)]
        recs = [
            TrackRecord(t, d, *box, True)
            for t in range(frames) for d in names
        ]
        write_track_csv(path, recs)
        return path

    def write_cfg(self, tmp_path):
        path = tmp_path / "fuse.cfg"
        path.write_text("filter.meas_var = 25\nfilter.accel_var = 1\n")
        return str(path)

    def test_identical_tracks_reproduce_the_box(self, tmp_path):
        tracks = self.write_tracks(tmp_path)
        out = str(tmp_path / "fused.csv")
        assert main(["fuse", tracks, "--config", self.write_cfg(tmp_path), "--out", out]) == 0
        boxes = read_box_csv(out)
        assert len(boxes) == 60
        target = np.array([100.0, 50.0, 40.0, 30.0])
        for frame, box in boxes.items():
            np.testing.assert_allclose(np.asarray(box), target, atol=1e-9)

    def test_output_carries_weight_columns(self, tmp_path):
        tracks = self.write_tracks(tmp_path, frames=5)
        out = str(tmp_path / "fused.csv")
        main(["fuse", tracks, "--config", self.write_cfg(tmp_path), "--out", out])
        _, header = read_csv_dicts(out)
        assert header[:5] == ["frame", "u", "v", "h", "w"]
        for col in ("wd_a", "wd_b", "wd_c", "wM_a", "rvv_c"):
            assert col in header

    def test_fused_file_evaluates_against_itself(self, tmp_path, capsys):
        # Some fused boxes give an IoU a few ulps past 1 with themselves.
        tracks = str(tmp_path / "tracks.csv")
        write_track_csv(tracks, [
            TrackRecord(t, d, 100.0 + t, 50.0 + t, 40.0, 30.0, True)
            for t in range(5) for d in "abc"
        ])
        fused = str(tmp_path / "fused.csv")
        assert main(["fuse", tracks, "--config", self.write_cfg(tmp_path), "--out", fused]) == 0
        assert main(["eval", fused, fused, "--out", str(tmp_path / "eval.csv")]) == 0
        summary, _ = read_csv_dicts(str(tmp_path / "eval_summary.csv"))
        assert float(summary[0]["success_rate"]) == 1.0
        assert "success rate 1" in capsys.readouterr().out

    def test_leading_frame_of_invalid_rows_writes_no_row(self, tmp_path):
        # Frame 0 steps the pipeline with every detector absent; nothing has
        # been seen, so the fused file starts at frame 1.
        tracks = str(tmp_path / "tracks.csv")
        write_track_csv(tracks, [
            TrackRecord(t, d, 100.0 + t, 50.0, 40.0, 30.0, t > 0)
            for t in range(4) for d in "abc"
        ])
        out = str(tmp_path / "fused.csv")
        assert main(["fuse", tracks, "--config", self.write_cfg(tmp_path), "--out", out]) == 0
        boxes = read_box_csv(out)
        assert sorted(boxes) == [1, 2, 3]
        np.testing.assert_allclose(np.asarray(boxes[1]), [101.0, 50.0, 40.0, 30.0], atol=1e-9)

    def test_two_detectors_exit_2_citing_three(self, tmp_path, capsys):
        tracks = self.write_tracks(tmp_path, n_dets=2)
        rc = main(["fuse", tracks, "--config", self.write_cfg(tmp_path),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "at least 3" in capsys.readouterr().err

    def test_malformed_row_exit_2_with_row_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frame,detector_id,u,v,h,w,valid\n"
            "0,a,1,2,3,4,true\n"
            "1,a,oops,2,3,4,true\n"
        )
        rc = main(["fuse", str(path), "--config", self.write_cfg(tmp_path),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    def test_gain_index_past_the_detectors_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "fuse.cfg"
        cfg.write_text("filter.meas_var = 25\nfusion.gamma.4 = 10\n")
        out = tmp_path / "o.csv"
        rc = main(["fuse", self.write_tracks(tmp_path), "--config", str(cfg), "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            2, "error: keys index detectors outside 1..3: fusion.gamma.4\n")
        assert not out.exists()

    @pytest.mark.parametrize("det", ["a,b", "a\rb"])
    def test_id_that_would_break_the_fused_header_exits_2(self, tmp_path, capsys, det):
        """A quoted id reads as one cell, but its weight columns cannot be
        written as one: fuse names the header cell and writes nothing."""
        path = tmp_path / "tracks.csv"
        path.write_text("frame,detector_id,u,v,h,w,valid\n" + "".join(
            f"{t},{d},100,50,40,30,true\n" for t in range(3) for d in (f'"{det}"', "c", "d")))
        out = tmp_path / "o.csv"
        rc = main(["fuse", str(path), "--config", self.write_cfg(tmp_path), "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            2, f"error: cell value {'wd_' + det!r} would break the CSV layout\n")
        assert not out.exists()

    def test_header_only_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("frame,detector_id,u,v,h,w,valid\n")
        rc = main(["fuse", str(path), "--config", self.write_cfg(tmp_path),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "no records" in capsys.readouterr().err

    def test_truly_empty_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("")
        rc = main(["fuse", str(path), "--config", self.write_cfg(tmp_path),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "header" in capsys.readouterr().err

    def test_invalid_rows_are_gaps_not_measurements(self, tmp_path):
        path = str(tmp_path / "gap.csv")
        recs = []
        for t in range(40):
            for d in ("a", "b", "c"):
                bad = d == "c" and 10 <= t < 20
                box = (999.0, 999.0, 1.0, 1.0) if bad else (100.0, 50.0, 40.0, 30.0)
                recs.append(TrackRecord(t, d, *box, not bad))
        write_track_csv(path, recs)
        out = str(tmp_path / "fused.csv")
        assert main(["fuse", path, "--config", self.write_cfg(tmp_path), "--out", out]) == 0
        boxes = read_box_csv(out)
        target = np.array([100.0, 50.0, 40.0, 30.0])
        for frame, box in boxes.items():
            assert np.abs(np.asarray(box) - target).max() < 1.0

    def test_huge_box_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # A finite 1e308 box passes the reader; the frame that scores it is
        # refused by the expert, and the run stops before any output.
        path = str(tmp_path / "huge.csv")
        recs = [
            TrackRecord(t, d, *((1e308, 50.0, 40.0, 30.0) if (t, d) == (10, "b")
                                else (100.0, 50.0, 40.0, 30.0)), True)
            for t in range(20) for d in ("a", "b", "c")
        ]
        write_track_csv(path, recs)
        out = tmp_path / "fused.csv"
        with np.errstate(all="ignore"):
            rc = main(["fuse", path, "--config", self.write_cfg(tmp_path), "--out", str(out)])
        assert rc == 1
        assert "md must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_init_var_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # Refused with the config, before any frame runs.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("filter.init_var = 1e308\n")
        out = tmp_path / "fused.csv"
        rc = main(["fuse", self.write_tracks(tmp_path, frames=3), "--config", str(cfg),
                   "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            2, "error: filter.init_var: init_var overflows 2 * init_var, got 1e+308\n")
        assert not out.exists()

    def test_missing_tracks_exit_2_and_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        rc = main(["fuse", missing, "--config", self.write_cfg(tmp_path),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"file not found: {missing}" in capsys.readouterr().err

    def test_directory_tracks_exit_2_without_traceback(self, tmp_path, capsys):
        rc = main(["fuse", str(tmp_path), "--config", self.write_cfg(tmp_path),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: Is a directory: {tmp_path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("out_name, reason", [
        ("out_dir", "Is a directory"),
        ("tracks.csv/o.csv", "Not a directory"),
    ])
    def test_unwritable_out_exits_2_without_traceback(self, tmp_path, capsys, out_name,
                                                      reason):
        tracks = self.write_tracks(tmp_path)
        (tmp_path / "out_dir").mkdir()
        out = tmp_path / out_name
        rc = main(["fuse", tracks, "--config", self.write_cfg(tmp_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {reason}: {out}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_exit_2_naming_its_row(self, tmp_path, capsys, cell):
        path = tmp_path / "nonfinite.csv"
        rows = [f"{t},{d},100,50,40,30,true" for t in range(3) for d in "abc"]
        rows[4] = f"1,b,100,{cell},40,30,true"
        path.write_text("frame,detector_id,u,v,h,w,valid\n" + "\n".join(rows) + "\n")
        out = tmp_path / "fused.csv"
        rc = main(["fuse", str(path), "--config", self.write_cfg(tmp_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 6" in err and "v must be finite" in err
        assert not out.exists()


class TestConfigKeysAndValues:
    """Each command reads only its own key groups, and an out-of-range value
    is a config error: exit 2, one ``error:`` line naming the key, no output."""

    def run(self, tmp_path, capsys, command, cfg_text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "o.csv"
        if command == "fuse":
            argv = ["fuse", TestFuse().write_tracks(tmp_path, frames=5), "--config", str(cfg)]
        else:
            argv = [command, "--config", str(cfg)] + (
                ["--grid", "run.seed=1,2"] if command == "sweep" else [])
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1 and err.startswith("error: ")
        assert not out.exists()
        return rc, err

    @pytest.mark.parametrize("command", ["fuse", "simulate", "sweep"])
    @pytest.mark.parametrize("line, named", [
        ("expert.confidence = 1", "expert.confidence: confidence must be in (0, 1), got 1.0"),
        ("filter.meas_var = -1", "filter.meas_var: meas_var must be >= 0 and finite, got -1.0"),
        ("filter.dt = 0", "filter.dt: dt must be > 0 and finite, got 0.0"),
        ("filter.init_var = -5", "filter.init_var: init_var must be > 0 and finite, got -5.0"),
        ("filter.init_var = 1e308", "filter.init_var: init_var overflows 2 * init_var, "
                                    "got 1e+308"),
        ("vote.lambda = -1", "vote.lambda: lam must be >= 0 and finite, got -1.0"),
        ("fusion.cov_floor = 0", "fusion.cov_floor: cov_floor must be > 0 and finite, got 0.0"),
        ("fusion.stale_after = 0", "fusion.stale_after: stale_after must be an integer >= 1, "
                                   "got 0"),
        ("vote.omega = 1e308", "vote.omega: omega overflows the largest vote penalty "
                               "omega0 + 2 * omega, got 1e+308"),
        ("fusion.gamma = 1e308", "fusion.gamma: gamma overflows the largest noise scale "
                                 "gamma * (omega0 + 2 * omega) + delta, got 1e+308"),
        # An ordinary gain is named beside the term that makes the scale overflow.
        ("vote.omega0 = 1e308\nfusion.gamma = 2",
         "fusion.gamma, vote.omega0: gamma and omega0 overflow the largest noise scale "
         "gamma * (omega0 + 2 * omega) + delta, got 2.0 and 1e+308"),
        ("vote.omega0 = 1e308\nfusion.gamma = 1\nfusion.delta = 1e308",
         "vote.omega0, fusion.delta: omega0 and delta overflow the largest noise scale "
         "gamma * (omega0 + 2 * omega) + delta, got 1e+308 and 1e+308"),
    ])
    def test_out_of_range_value_exits_2_naming_its_key(self, tmp_path, capsys, command, line,
                                                       named):
        text = SMALL_SCENARIO if command != "fuse" else "filter.meas_var = 25\n"
        rc, err = self.run(tmp_path, capsys, command, text + line + "\n")
        assert (rc, err) == (2, f"error: {named}\n")

    @pytest.mark.parametrize("line, named", [
        ("run.dt = -1", "run.dt: dt must be > 0 and finite, got -1.0"),
        ("run.frames = 0", "run.frames: frames must be an integer >= 1, got 0"),
        ("run.seed = -1", "run.seed: seed must be an integer >= 0, got -1"),
        ("plant.damping = -1", "plant.damping: damping must be >= 0 and finite, got -1.0"),
        ("setpoint.period = 0", "setpoint.period: period must be an integer >= 1, got 0"),
        ("sensor.2.meas_var = -1", "sensor.2.meas_var: meas_var must be >= 0 and finite, got -1.0"),
        ("sensor.2.noise_sigma = -4", "sensor.2.noise_sigma: noise_sigma must be >= 0 and finite, "
                                      "got -4.0"),
        # An unordered window names its own sensor's two keys, not the windows beside it.
        ("sensor.1.shock_start = 10\nsensor.1.shock_end = 20\n"
         "sensor.2.shock_start = 300\nsensor.2.shock_end = 100",
         "sensor.2.shock_start, sensor.2.shock_end: shock_start and shock_end must be ordered, "
         "got 300 and 100"),
        # Nor a key of a valid window that holds the same number.
        ("sensor.1.shock_start = 300\nsensor.1.shock_end = 400\n"
         "sensor.2.shock_start = 300\nsensor.2.shock_end = 100",
         "sensor.2.shock_start, sensor.2.shock_end: shock_start and shock_end must be ordered, "
         "got 300 and 100"),
        # A per-detector gain names its own key, not the valid base gain beside it.
        ("fusion.gamma.2 = -1", "fusion.gamma.2: gamma must be > 0 and finite, got -1.0"),
        ("vote.omega = 9e307", "vote.omega: omega overflows the largest vote penalty "
                               "omega0 + 2 * omega, got 9e+307"),
        ("fusion.gamma.2 = 1e308", "fusion.gamma.2: gamma overflows the largest noise scale "
                                   "gamma * (omega0 + 2 * omega) + delta, got 1e+308"),
        ("fusion.gamma = 1\nfusion.gamma.2 = 3\nvote.omega = 5e307",
         "fusion.gamma.2, vote.omega: gamma and omega overflow the largest noise scale "
         "gamma * (omega0 + 2 * omega) + delta, got 3.0 and 5e+307"),
        ("fusion.delta.3 = 1.7e308\nvote.omega = 1e307\nfusion.gamma = 1",
         "vote.omega, fusion.delta.3: omega and delta overflow the largest noise scale "
         "gamma * (omega0 + 2 * omega) + delta, got 1e+307 and 1.7e+308"),
        # Nor the key of a valid detector's gain that holds the same number.
        ("vote.omega0 = 1e307\nfusion.gamma = 2\nfusion.gamma.3 = 0.5\n"
         "fusion.delta.1 = 1.7e308\nfusion.delta.3 = 1.7e308",
         "vote.omega0, fusion.delta.1: omega0 and delta overflow the largest noise scale "
         "gamma * (omega0 + 2 * omega) + delta, got 1e+307 and 1.7e+308"),
        # The plant's dt is run.dt and the filter's filter.dt; the plant refuses first.
        ("run.dt = 0\nfilter.dt = 0", "run.dt: dt must be > 0 and finite, got 0.0"),
        # The first sensor refused, not every sensor holding the same number.
        ("sensor.1.meas_var = -1\nsensor.2.meas_var = -1",
         "sensor.1.meas_var: meas_var must be >= 0 and finite, got -1.0"),
        # An unset window end is named by no key.
        ("sensor.2.shock_start = 5", "sensor.2.shock_start: shock_start and shock_end must be "
                                     "ordered, got 5 and 0"),
    ])
    def test_out_of_range_scenario_value_exits_2_naming_its_key(self, tmp_path, capsys, line,
                                                                named):
        rc, err = self.run(tmp_path, capsys, "simulate", SMALL_SCENARIO + line + "\n")
        assert (rc, err) == (2, f"error: {named}\n")

    @pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--grid", "filter.accel_var=1,5"]],
                             ids=["simulate", "sweep"])
    def test_negative_seed_flag_exits_2_naming_the_flag(self, small_scenario, tmp_path, capsys,
                                                        argv):
        # The bad value came from --seed; run.seed holds a valid 3.
        out = tmp_path / "o.csv"
        rc = main(argv + ["--config", small_scenario, "--seed", "-1", "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            2, "error: --seed must be an integer >= 0, got -1\n")
        assert not out.exists()

    def test_fuse_refuses_keys_it_does_not_read_naming_the_first_line(self, tmp_path, capsys):
        rc, err = self.run(tmp_path, capsys, "fuse",
                           "filter.meas_var = 25\nsensor.2.noise_sigma = 50\nplant.gain = 7\n")
        cfg = tmp_path / "run.cfg"
        assert (rc, err) == (2, f"error: {cfg}:2: key 'sensor.2.noise_sigma' is not read by fuse, "
                                "which reads only filter.*, expert.*, vote.*, fusion.* keys\n")

    @pytest.mark.parametrize("line", ["plant.gain = 7", "run.frames = 600", "sensors.count = 3",
                                      "setpoint.kind = square", "sensor.1.meas_var = 1"])
    def test_fuse_refuses_each_other_group_even_at_its_default(self, tmp_path, capsys, line):
        rc, err = self.run(tmp_path, capsys, "fuse", "filter.meas_var = 25\n" + line + "\n")
        assert rc == 2 and f"run.cfg:2: key {line.split()[0]!r} is not read by fuse" in err

    def test_bundled_scenario_and_benchmark_config_still_run(self, tmp_path, capsys):
        bench_cfg = Path(__file__).resolve().parent.parent / "perfbench" / "track.cfg"
        tracks = TestFuse().write_tracks(tmp_path, frames=5)
        assert main(["fuse", tracks, "--config", str(bench_cfg),
                     "--out", str(tmp_path / "f.csv")]) == 0
        assert main(["simulate", "--config", "three_sensor_faults.scenario",
                     "--out", str(tmp_path / "s.csv")]) == 0


class TestEval:
    def test_perfect_agreement_scores_one(self, tmp_path, capsys):
        boxes = {t: (10.0, 20.0, 30.0, 40.0) for t in range(5)}
        fused = write_boxes(tmp_path / "fused.csv", boxes)
        gt = write_boxes(tmp_path / "gt.csv", boxes)
        out = str(tmp_path / "eval.csv")
        assert main(["eval", fused, gt, "--out", out]) == 0
        summary, _ = read_csv_dicts(str(tmp_path / "eval_summary.csv"))
        assert float(summary[0]["success_rate"]) == 1.0
        assert float(summary[0]["mean_jaccard"]) == 1.0
        assert float(summary[0]["mean_distance"]) == 0.0
        assert "success rate 1" in capsys.readouterr().out

    def test_hundred_pixel_shift_scores_zero(self, tmp_path):
        gt_boxes = {t: (10.0, 20.0, 30.0, 40.0) for t in range(5)}
        fused_boxes = {t: (110.0, 20.0, 30.0, 40.0) for t in range(5)}
        fused = write_boxes(tmp_path / "fused.csv", fused_boxes)
        gt = write_boxes(tmp_path / "gt.csv", gt_boxes)
        out = str(tmp_path / "eval.csv")
        assert main(["eval", fused, gt, "--out", out]) == 0
        summary, _ = read_csv_dicts(str(tmp_path / "eval_summary.csv"))
        assert float(summary[0]["success_rate"]) == 0.0

    def test_mixed_run_matches_library_summary(self, tmp_path):
        fused_boxes = {
            0: (10.0, 10.0, 20.0, 20.0),
            1: (0.0, 0.0, 2.0, 2.0),
            2: (0.0, 0.0, 10.0, 10.0),
            3: (0.0, 0.0, 4.0, 4.0),
        }
        gt_boxes = {
            0: (10.0, 10.0, 20.0, 20.0),
            1: (1.0, 0.0, 2.0, 2.0),
            2: (100.0, 0.0, 10.0, 10.0),
            3: (0.0, 2.0, 4.0, 4.0),
        }
        fused = write_boxes(tmp_path / "fused.csv", fused_boxes)
        gt = write_boxes(tmp_path / "gt.csv", gt_boxes)
        out = str(tmp_path / "eval.csv")
        assert main(["eval", fused, gt, "--out", out]) == 0
        want = summarize({"fused": [
            FrameEval(0, 1.0, 0.0, True),
            FrameEval(1, 1.0 / 3.0, 1.0, False),
            FrameEval(2, 0.0, 100.0, False),
            FrameEval(3, 1.0 / 3.0, 2.0, False),
        ]})[0]
        got = read_csv_dicts(str(tmp_path / "eval_summary.csv"))[0][0]
        assert int(got["frames"]) == 4
        assert float(got["mean_jaccard"]) == pytest.approx(want.mean_jaccard, rel=1e-8)
        assert float(got["mean_distance"]) == pytest.approx(want.mean_distance, rel=1e-8)
        assert float(got["success_rate"]) == pytest.approx(want.success_rate, rel=1e-8)
        rows, _ = read_csv_dicts(out)
        assert [r["success"] for r in rows] == ["true", "false", "false", "false"]

    def test_unmatched_frames_reported_and_excluded(self, tmp_path, capsys):
        fused = write_boxes(tmp_path / "fused.csv",
                            {t: (0.0, 0.0, 4.0, 4.0) for t in range(6)})
        gt = write_boxes(tmp_path / "gt.csv",
                         {t: (0.0, 0.0, 4.0, 4.0) for t in range(3, 9)})
        out = str(tmp_path / "eval.csv")
        assert main(["eval", fused, gt, "--out", out]) == 0
        rows, _ = read_csv_dicts(out)
        assert [int(r["frame"]) for r in rows] == [3, 4, 5]
        assert "excluded 6 unmatched frames" in capsys.readouterr().out

    def test_missing_fused_file_exit_2_and_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        gt = write_boxes(tmp_path / "gt.csv", {0: (10.0, 20.0, 30.0, 40.0)})
        assert main(["eval", missing, gt, "--out", str(tmp_path / "e.csv")]) == 2
        assert f"file not found: {missing}" in capsys.readouterr().err

    def test_directory_input_exits_2_without_traceback(self, tmp_path, capsys):
        gt = write_boxes(tmp_path / "gt.csv", {0: (10.0, 20.0, 30.0, 40.0)})
        rc = main(["eval", str(tmp_path), gt, "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: Is a directory: {tmp_path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad, message", [
        ("1,2,3", "row 3: wrong field count"),
        ("1,2,3,-4,5", "row 3: negative box size"),
    ])
    def test_bad_row_exits_2_naming_the_row(self, tmp_path, capsys, bad, message):
        fused = tmp_path / "fused.csv"
        fused.write_text(f"frame,u,v,h,w\n0,1,2,3,4\n{bad}\n")
        gt = write_boxes(tmp_path / "gt.csv", {0: (1.0, 2.0, 3.0, 4.0)})
        rc = main(["eval", str(fused), gt, "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {fused}: {message}" in err
        assert "Traceback" not in err

    def test_no_overlap_exit_2(self, tmp_path, capsys):
        fused = write_boxes(tmp_path / "fused.csv", {0: (0.0, 0.0, 4.0, 4.0)})
        gt = write_boxes(tmp_path / "gt.csv", {5: (0.0, 0.0, 4.0, 4.0)})
        rc = main(["eval", fused, gt, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "overlapping" in capsys.readouterr().err


class TestSweep:
    def test_single_cell_matches_simulate(self, small_scenario, tmp_path):
        sim_out = str(tmp_path / "sim.csv")
        main(["simulate", "--config", small_scenario, "--out", sim_out])
        sim_summary = summary_floats(str(tmp_path / "sim_summary.csv"))

        sweep_out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "--config", small_scenario,
                   "--grid", "filter.accel_var=2.0", "--out", sweep_out])
        assert rc == 0
        rows, header = read_csv_dicts(sweep_out)
        assert header[0] == "filter.accel_var"
        assert len(rows) == 1
        assert float(rows[0]["fused_rmse"]) == \
            pytest.approx(float(sim_summary["fused"]["rmse"]), rel=1e-8)

    def test_xi_raises_mean_reliability_weight_falls(self, small_scenario, tmp_path):
        out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "--config", small_scenario,
                   "--grid", "expert.confidence=0.6827,0.9545,0.9973,0.999937",
                   "--out", out, "--seed", "3"])
        assert rc == 0
        rows, _ = read_csv_dicts(out)
        w = [float(r["mean_wM"]) for r in rows]
        conf = [float(r["expert.confidence"]) for r in rows]
        assert conf == [0.6827, 0.9545, 0.9973, 0.999937]
        assert [round(chi2_xi(1, c), 2) for c in conf] == [1.0, 2.0, 3.0, 4.0]
        assert all(b < a for a, b in zip(w, w[1:]))

    def test_two_axes_product_order(self, small_scenario, tmp_path):
        out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "--config", small_scenario,
                   "--grid", "filter.accel_var=1,2", "--grid", "run.seed=0,1,2",
                   "--out", out])
        assert rc == 0
        rows, _ = read_csv_dicts(out)
        assert len(rows) == 6
        assert [r["filter.accel_var"] for r in rows] == ["1", "1", "1", "2", "2", "2"]

    def test_reproducible_bytes(self, small_scenario, tmp_path):
        outs = [str(tmp_path / f"sw{i}.csv") for i in (1, 2)]
        for out in outs:
            main(["sweep", "--config", small_scenario,
                  "--grid", "run.seed=0,1", "--out", out])
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()

    def test_oversized_grid_rejected_without_force(self, small_scenario, tmp_path, capsys):
        big = ",".join(str(i) for i in range(101))
        rc = main(["sweep", "--config", small_scenario,
                   "--grid", f"run.seed={big}", "--grid", f"setpoint.period={big}",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "10201" in err and "--force" in err

    def test_force_flag_allows_small_grid_through(self, small_scenario, tmp_path):
        out = str(tmp_path / "sw.csv")
        rc = main(["sweep", "--config", small_scenario, "--force",
                   "--grid", "run.seed=0,1", "--out", out])
        assert rc == 0
        rows, _ = read_csv_dicts(out)
        assert len(rows) == 2

    def test_seed_with_a_run_seed_axis_exits_2(self, small_scenario, tmp_path, capsys):
        # --seed would set every cell's seed, so the axis's labels would lie.
        out = tmp_path / "o.csv"
        rc = main(["sweep", "--config", small_scenario, "--grid", "run.seed=0,1",
                   "--seed", "5", "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            2, "error: --seed and a run.seed grid axis cannot both set the seed\n")
        assert not out.exists()

    def test_unknown_grid_key_exit_2(self, small_scenario, tmp_path, capsys):
        rc = main(["sweep", "--config", small_scenario,
                   "--grid", "filter.turbo=1,2", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err
        rc = main(["sweep", "--config", small_scenario,
                   "--grid", "expert.xi=1,2", "--out", str(tmp_path / "o.csv")])
        assert (rc, capsys.readouterr().err) == (
            2, "error: grid axis references unknown key 'expert.xi'\n")
        assert not (tmp_path / "o.csv").exists()


def quiet_main(argv):
    """main(argv) with stdout dropped; (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


DETECTORS = ["a", "b", "cam1", "det_2", "Z", "x9"]


def random_track_log(rng, n_det, n_frames):
    """Lines of a track log, and the true box per frame. The log has gaps in
    frame numbers, absent detectors, rows shuffled within a frame, frames
    whose rows are all invalid, 1/0/TRUE validity, whitespace-padded cells
    and blank lines. Every detector reports on the first frame."""
    ids = [str(d) for d in rng.choice(DETECTORS, n_det, replace=False)]
    box, frame = np.array([200.0, 150.0, 40.0, 30.0]), int(rng.integers(0, 4))
    lines, truth = ["frame,detector_id,u,v,h,w,valid"], {}
    for t in range(n_frames):
        box[:2] += rng.normal(0.0, 3.0, 2)
        truth[frame] = box.copy()
        present = ids if t == 0 else [d for d in ids if rng.random() < 0.8]
        all_invalid = t > 0 and rng.random() < 0.15
        for k, det in enumerate(rng.permutation(present)):
            y = box + rng.normal(0.0, 2.0, 4) + (rng.random() < 0.05) * np.array([80.0, 0, 0, 0])
            y[2:] = np.abs(y[2:])
            valid = (t == 0 and k == 0) or (not all_invalid and rng.random() < 0.85)
            token = rng.choice(["true", "1", "TRUE"] if valid else ["false", "0", "FALSE"])
            numbers = [rng.choice([repr(float(x)), f"{x:.3f}", str(round(x))]) for x in y]
            cells = [str(frame), det, *numbers, token]
            lines.append(",".join(f" {c} " if rng.random() < 0.1 else str(c) for c in cells))
            if rng.random() < 0.05:
                lines.append("")
        frame += int(rng.integers(1, 4))
    return lines, truth


def random_gt(rng, truth):
    """Ground-truth lines for the first and most other frames of ``truth``
    and a few frames past it, shuffled, with an extra column and a blank line."""
    rows = [[f, *(b + rng.normal(0.0, 4.0, 4))] for f, b in truth.items()
            if f == min(truth) or rng.random() < 0.9]
    rows += [[max(truth) + 1 + i, 1.0, 2.0, 3.0, 4.0] for i in range(int(rng.integers(0, 3)))]
    lines = [",".join([str(r[0]), *(repr(abs(float(x))) for x in r[1:]), "gt"])
             for r in rows]
    lines = [lines[i] for i in rng.permutation(len(lines))]
    lines.insert(int(rng.integers(0, len(lines) + 1)), "")
    return ["frame,u,v,h,w,note", *lines]


BAD_NUMBERS = ["abc", "", " ", "nan", "inf", "-inf", "1e400", "0x10", "1.5", "1_0",
               "99999999999999999999"]


def inject(rng, lines, fault, numeric, sides, extra=None):
    """Put one ``fault`` on a random data line of ``lines``, in place."""
    i = int(rng.choice([i for i, line in enumerate(lines) if i and line]))
    if fault == "dup":
        lines.insert(int(rng.integers(i + 1, len(lines) + 1)), lines[i])
        return
    cells = lines[i].split(",")
    if fault == "field":
        cells = cells[:-1] if rng.random() < 0.5 else cells + ["x"]
    elif fault == "cell":
        cells[int(rng.choice(numeric))] = str(rng.choice(BAD_NUMBERS))
    elif fault == "side":
        cells[int(rng.choice(sides))] = "-1"
    elif fault == "order":
        cells[0] = str(int(rng.integers(0, 10)))
    else:
        cells[extra[fault]] = {"id": " ", "valid": "yes"}[fault]
    lines[i] = ",".join(cells)


CONFIG = "filter.meas_var = 25\nfusion.stale_after = 3\n"


class TestRowwiseOracle:
    """habdf fuse and eval against tests/oracles.py's row-wise versions: the
    csv module, a dict per frame, make_pipeline and format_value."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_det=st.integers(3, 6),
           n_frames=st.integers(1, 40))
    def test_fuse_and_eval_equal_the_oracle_byte_for_byte(self, seed, n_det, n_frames):
        rng = np.random.default_rng(seed)
        lines, truth = random_track_log(rng, n_det, n_frames)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp)
            (p / "t.csv").write_text("\n".join(lines) + "\n")
            (p / "gt.csv").write_text("\n".join(random_gt(rng, truth)) + "\n")
            (p / "f.cfg").write_text(CONFIG)
            assert quiet_main(["fuse", p / "t.csv", "--config", p / "f.cfg",
                               "--out", p / "fused.csv"]) == (0, "")
            oracles.fuse_rowwise(p / "t.csv", p / "f.cfg", p / "want.csv")
            assert (p / "fused.csv").read_bytes() == (p / "want.csv").read_bytes()
            assert quiet_main(["eval", p / "fused.csv", p / "gt.csv",
                               "--out", p / "e.csv"]) == (0, "")
            oracles.eval_rowwise(p / "fused.csv", p / "gt.csv", p / "want_e.csv",
                                 p / "want_s.csv")
            assert (p / "e.csv").read_bytes() == (p / "want_e.csv").read_bytes()
            assert (p / "e_summary.csv").read_bytes() == (p / "want_s.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           faults=st.lists(st.sampled_from(["cell", "side", "id", "valid", "order", "dup",
                                            "field"]), min_size=1, max_size=3),
           on_gt=st.booleans())
    # A huge w cell at frame 9 gives both sides a negative fused w, which both
    # evals refuse, naming the fused file.
    @example(seed=5787, faults=["cell"], on_gt=False)
    def test_faulty_files_fail_as_the_oracle_does(self, seed, faults, on_gt):
        """Error precedence as it was row by row: a wrong field count on any
        line first; otherwise the earliest faulty line, and within a line
        frame, u, v, h, w, side, detector_id, valid, order, duplicate. Both
        sides write the same file names, so their messages can be compared."""
        rng = np.random.default_rng(seed)
        lines, truth = random_track_log(rng, 3, 8)
        gt = random_gt(rng, truth)
        for fault in sorted(faults, key="field".__eq__):  # field counts last
            if on_gt and fault in ("id", "valid", "order"):
                continue
            if on_gt:
                inject(rng, gt, fault, numeric=[0, 1, 2, 3, 4], sides=[2, 3])
            else:
                inject(rng, lines, fault, numeric=[0, 2, 3, 4, 5], sides=[4, 5],
                       extra={"id": 1, "valid": 6})
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp)
            (p / "t.csv").write_text("\n".join(lines) + "\n")
            (p / "gt.csv").write_text("\n".join(gt) + "\n")
            (p / "f.cfg").write_text(CONFIG)
            try:
                oracles.fuse_rowwise(p / "t.csv", p / "f.cfg", p / "fused.csv")
                oracles.eval_rowwise(p / "fused.csv", p / "gt.csv", p / "e.csv",
                                     p / "e_summary.csv")
                want = (0, "")
            except ValueError as exc:
                want = (2, f"error: {exc}\n")
            got = quiet_main(["fuse", p / "t.csv", "--config", p / "f.cfg",
                              "--out", p / "fused.csv"])
            if got == (0, ""):
                got = quiet_main(["eval", p / "fused.csv", p / "gt.csv",
                                  "--out", p / "e.csv"])
            assert got == want

    @pytest.mark.parametrize("rows, fault", [
        (["0,a,1,2,3,4,true", "x,a,1,2,3,4,true", "1,a,1,2,3"], "row 4: wrong field count"),
        (["x,a,nan,2,3,4,true"], "row 2: bad frame value 'x'"),
        (["0,a,x,y,3,4,true"], "row 2: bad u value 'x'"),
        (["0,a,1,2,-1,nan,true"], "row 2: w must be finite, got 'nan'"),
        (["0,,1,2,-3,4,yes"], "row 2: negative box size"),
        (["0, ,1,2,3,4,yes"], "row 2: empty detector_id"),
        (["5,a,1,2,3,4,true", "3,a,1,2,3,4,yes"], "row 3: valid must be true/false, got 'yes'"),
        (["5,a,1,2,3,4,true", "7,a,1,2,3,4,true", "5,a,1,2,3,4,true"],
         "row 4: frames decrease for detector 'a'"),
        (["5,a,1,2,3,4,true", "5,a,1,2,3,4,true", "4,a,1,2,3,4,true"],
         "row 3: duplicate record for frame 5, detector 'a'"),
        (["0,a,1,2,3,4,true", "", "", "1,a,1,2,-3,4,true"], "row 5: negative box size"),
        (["0,a,1,2,3,4,maybe", "99999999999999999999,a,1,2,3,4,true"],
         "row 2: valid must be true/false, got 'maybe'"),
    ])
    def test_error_precedence_is_pinned(self, tmp_path, rows, fault):
        path = tmp_path / "t.csv"
        path.write_text("\n".join(["frame,detector_id,u,v,h,w,valid", *rows]) + "\n")
        (tmp_path / "f.cfg").write_text(CONFIG)
        want = f"error: {path}: {fault}\n"
        with pytest.raises(ValueError) as exc:
            oracles.read_boxes_rowwise(path, track=True)
        assert f"error: {exc.value}\n" == want
        assert quiet_main(["fuse", path, "--config", tmp_path / "f.cfg",
                           "--out", tmp_path / "o.csv"]) == (2, want)
