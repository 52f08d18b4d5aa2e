"""CSV formats and the flat key/value config parser."""

import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from habdf import (
    ConfigError,
    RecordFormatError,
    SecondOrderPlant,
    TrackRecord,
    load_config,
    read_track_csv,
    write_track_csv,
)
from habdf.experts import chi2_xi
from habdf.records import (
    format_value,
    parse_config_text,
    parse_grid,
    read_box_csv,
    read_csv_dicts,
    scenario_from_config,
    tracking_setup_from_config,
    write_csv,
)

TRACK_HEADER = "frame,detector_id,u,v,h,w,valid"


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestFormatValue:
    def test_floats_use_nine_significant_digits(self):
        assert format_value(0.1) == "0.1"
        assert format_value(1.0 / 3.0) == "0.333333333"
        assert format_value(123456789012.0) == "1.23456789e+11"

    def test_bools_are_lowercase_words(self):
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"

    def test_ints_stay_integral(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(-3)) == "-3"

    def test_separator_bytes_rejected(self):
        with pytest.raises(RecordFormatError):
            format_value("a,b")
        with pytest.raises(RecordFormatError):
            format_value("a\nb")
        with pytest.raises(RecordFormatError):
            format_value("a\rb")


class TestCsvRoundTrip:
    def test_track_records_round_trip_exactly(self, tmp_path):
        records = [
            TrackRecord(0, "det1", 10.5, 20.25, 30.0, 40.0, True),
            TrackRecord(0, "det2", 11.0, 21.0, 30.0, 40.0, True),
            TrackRecord(1, "det1", 10.625, 20.5, 30.0, 40.0, False),
        ]
        path = str(tmp_path / "tracks.csv")
        write_track_csv(path, records)
        assert read_track_csv(path) == records

    def test_written_bytes_are_deterministic(self, tmp_path):
        rec = [TrackRecord(3, "a", 1.0, 2.0, 3.0, 4.0, True)]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_track_csv(p1, rec)
        write_track_csv(p2, rec)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_generic_writer_reader(self, tmp_path):
        path = str(tmp_path / "g.csv")
        write_csv(path, ["x", "ok"], [[1.5, True], [2.5, False]])
        rows, fields = read_csv_dicts(path, required=("x",))
        assert fields == ["x", "ok"]
        assert rows[0] == {"x": "1.5", "ok": "true"}

    @pytest.mark.parametrize("cell", ["x,y", "x\ny", "x\ry"])
    def test_header_cells_are_checked_before_the_file_is_opened(self, tmp_path, cell):
        path = tmp_path / "g.csv"
        with pytest.raises(RecordFormatError, match="would break the CSV layout"):
            write_csv(str(path), ["frame", cell], [[1, 2.5]])
        assert not path.exists()

    @pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb"])
    def test_row_cells_that_break_the_layout_are_refused(self, tmp_path, cell):
        with pytest.raises(RecordFormatError, match="would break the CSV layout"):
            write_csv(str(tmp_path / "g.csv"), ["id", "x"], [["ok", 1.0], [cell, 2.0]])

    def test_wrong_field_count_names_the_file_line_past_blank_lines(self, tmp_path):
        path = write_lines(tmp_path / "g.csv", "x,y", "1,2", "", "", "3")
        with pytest.raises(RecordFormatError, match=r"g\.csv: row 5: wrong field count"):
            read_csv_dicts(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv_dicts(str(tmp_path / "nope.csv"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RecordFormatError, match="empty"):
            read_csv_dicts(str(path))


class TestReadTrackCsv:
    def test_header_must_match_exactly(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", "frame,detector,u,v,h,w,valid")
        with pytest.raises(RecordFormatError):
            read_track_csv(path)

    def test_reordered_header_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv",
            "detector_id,frame,u,v,h,w,valid",
            "det1,0,1,2,3,4,true",
        )
        with pytest.raises(RecordFormatError, match="header"):
            read_track_csv(path)

    @pytest.mark.parametrize("blanks", [0, 2])
    def test_bad_float_names_row(self, tmp_path, blanks):
        # Blank lines are skipped but still counted.
        path = write_lines(
            tmp_path / "t.csv", TRACK_HEADER,
            "0,det1,1,2,3,4,true",
            *[""] * blanks,
            "1,det1,oops,2,3,4,true",
        )
        with pytest.raises(RecordFormatError, match=f"row {3 + blanks}: bad u"):
            read_track_csv(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv", TRACK_HEADER, "0,det1,nan,2,3,4,true",
        )
        with pytest.raises(RecordFormatError, match="finite"):
            read_track_csv(path)

    def test_decreasing_frames_rejected_per_detector(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv", TRACK_HEADER,
            "5,det1,1,2,3,4,true",
            "4,det1,1,2,3,4,true",
        )
        with pytest.raises(RecordFormatError, match="row 3.*decrease"):
            read_track_csv(path)

    def test_interleaved_detectors_may_restart_frames(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv", TRACK_HEADER,
            "5,det1,1,2,3,4,true",
            "0,det2,1,2,3,4,true",
            "6,det1,1,2,3,4,true",
        )
        assert len(read_track_csv(path)) == 3

    def test_duplicate_frame_detector_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv", TRACK_HEADER,
            "5,det1,1,2,3,4,true",
            "5,det1,1,2,3,4,false",
        )
        with pytest.raises(RecordFormatError, match="duplicate"):
            read_track_csv(path)

    def test_valid_accepts_words_and_digits(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv", TRACK_HEADER,
            "0,d,1,2,3,4,true",
            "1,d,1,2,3,4,0",
            "2,d,1,2,3,4,1",
        )
        recs = read_track_csv(path)
        assert [r.valid for r in recs] == [True, False, True]

    def test_bad_valid_token(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", TRACK_HEADER, "0,d,1,2,3,4,yes")
        with pytest.raises(RecordFormatError, match="valid"):
            read_track_csv(path)

    def test_negative_size_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", TRACK_HEADER, "0,d,1,2,-3,4,true")
        with pytest.raises(RecordFormatError, match="size"):
            read_track_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", TRACK_HEADER, "0,d,1,2,3")
        with pytest.raises(RecordFormatError, match="row 2: wrong field count"):
            read_track_csv(path)


class TestReadBoxCsv:
    def test_reads_by_column_name_and_ignores_extras(self, tmp_path):
        path = write_lines(
            tmp_path / "b.csv",
            "note,frame,u,v,h,w",
            "hello,0,1,2,3,4",
            "world,2,5,6,7,8",
        )
        boxes = read_box_csv(path)
        assert set(boxes) == {0, 2}
        assert boxes[2].u == 5.0 and boxes[2].w == 8.0

    def test_duplicate_frame_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "b.csv", "frame,u,v,h,w", "0,1,2,3,4", "0,1,2,3,4",
        )
        with pytest.raises(RecordFormatError, match="duplicate frame"):
            read_box_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_lines(tmp_path / "b.csv", "frame,u,v,h", "0,1,2,3")
        with pytest.raises(RecordFormatError, match="missing"):
            read_box_csv(path)

    @pytest.mark.parametrize("bad", ["1,2,3", "1,2,3,4,5,6"])
    def test_wrong_field_count_names_row(self, tmp_path, bad):
        path = write_lines(tmp_path / "b.csv", "frame,u,v,h,w", "0,1,2,3,4", bad)
        with pytest.raises(RecordFormatError, match=r"b\.csv: row 3: wrong field count"):
            read_box_csv(path)

    @pytest.mark.parametrize("blanks", [0, 2])
    @pytest.mark.parametrize("bad", ["1,2,3,-4,5", "1,2,3,4,-5"])
    def test_negative_side_names_row(self, tmp_path, bad, blanks):
        path = write_lines(tmp_path / "b.csv", "frame,u,v,h,w", "0,1,2,3,4", *[""] * blanks, bad)
        with pytest.raises(RecordFormatError, match=rf"b\.csv: row {3 + blanks}: negative box size"):
            read_box_csv(path)


PINNED_CELLS = [" 1.5 ", "\t7 ", "1_000", "nan", "-inf", "inf", "1e400", "0x10", "", " ",
                "+3", ".5", "5.", "-0", "1__0", "_1", "1e", "\u0661\u0662", "9223372036854775807",
                "9223372036854775808", "-9223372036854775808", "99999999999999999999"]
CELLS = st.one_of(
    st.sampled_from(PINNED_CELLS),
    st.text(alphabet=" \t0123456789._+-eExXinfaINFNA", max_size=10),
    st.floats().map(repr),
    st.integers().map(str),
)


def cell_outcome(cell, conv):
    """What ``conv`` (int or float) makes of a cell: the value, "bad" or
    "non-finite". A frame must also fit in int64."""
    try:
        value = conv(cell)
    except ValueError:
        return "bad"
    if conv is int and not -2**63 <= value < 2**63:
        return "bad"
    return value if math.isfinite(value) else "non-finite"


class TestNumericCells:
    """A numeric cell is accepted or refused exactly as int() (frame) or
    float() (u, v, h, w) would, in a track log and in a box file; a frame
    past int64 is refused naming its line."""

    @staticmethod
    def check(track, name, cell, want):
        frame, u = (cell, "1") if name == "frame" else ("0", cell)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            if track:
                path.write_text(f"{TRACK_HEADER}\n{frame},d,{u},2,3,4,true\n")
            else:
                path.write_text(f"frame,u,v,h,w\n{frame},{u},2,3,4\n")

            def read():
                if track:
                    return read_track_csv(str(path))[0]
                ((frame, box),) = read_box_csv(str(path)).items()
                return SimpleNamespace(frame=frame, u=box.u)

            if want == "bad":
                with pytest.raises(RecordFormatError,
                                   match=re.escape(f"row 2: bad {name} value {cell!r}")):
                    read()
            elif want == "non-finite":
                with pytest.raises(RecordFormatError,
                                   match=re.escape(f"row 2: {name} must be finite, got {cell!r}")):
                    read()
            else:
                got = getattr(read(), name)
                assert type(got) is type(want) and repr(got) == repr(want)

    @pytest.mark.parametrize("track", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(cell=CELLS)
    def test_frame_cells_follow_int(self, track, cell):
        self.check(track, "frame", cell, cell_outcome(cell, int))

    @pytest.mark.parametrize("track", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(cell=CELLS)
    def test_box_cells_follow_float(self, track, cell):
        self.check(track, "u", cell, cell_outcome(cell, float))

    @pytest.mark.parametrize("track", [False, True])
    @pytest.mark.parametrize("cell, frame, u", [
        (" 7 ", 7, 7.0), ("\t7 ", 7, 7.0), ("1_000", 1000, 1000.0), ("-0", 0, -0.0),
        ("", "bad", "bad"), (" ", "bad", "bad"), ("nan", "bad", "non-finite"),
        ("inf", "bad", "non-finite"), ("-inf", "bad", "non-finite"),
        ("1e400", "bad", "non-finite"), ("0x10", "bad", "bad"), ("1.5", "bad", 1.5),
        ("99999999999999999999", "bad", 1e20), ("-9223372036854775808", -2**63, -2.0**63),
        ("9223372036854775807", 2**63 - 1, 2.0**63), ("9223372036854775808", "bad", 2.0**63),
    ])
    def test_pinned_cells(self, track, cell, frame, u):
        assert (cell_outcome(cell, int), cell_outcome(cell, float)) == (frame, u)
        self.check(track, "frame", cell, frame)
        self.check(track, "u", cell, u)

    def test_frame_past_int64_is_a_record_error_naming_its_line(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", TRACK_HEADER, "0,d,1,2,3,4,true", "",
                           "99999999999999999999,d,1,2,3,4,true")
        with pytest.raises(RecordFormatError,
                           match=r"row 4: bad frame value '99999999999999999999'"):
            read_track_csv(path)


class TestConfigFloatGuard:
    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_keys_refused(self, kind, value):
        with pytest.raises(ConfigError, match="key 'filter.dt' expects float"):
            parse_config_text(f"filter.dt = {kind(value)}")

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_finite_float_keys_parse(self, kind):
        assert parse_config_text(f"filter.dt = {kind(0.25)}")["filter.dt"] == 0.25


class TestConfigParsing:
    def test_defaults_fill_unset_keys(self):
        cfg = parse_config_text("")
        assert cfg["run.frames"] == 600
        assert cfg["vote.lambda"] == 50.0
        assert cfg["fusion.cov_floor"] == 1e-6

    def test_comments_and_blanks_skipped(self):
        cfg = parse_config_text("# a comment\n\nrun.frames = 42\n")
        assert cfg["run.frames"] == 42

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"cfg:3.*unknown key 'run\.framez'"):
            parse_config_text("# x\nrun.frames = 5\nrun.framez = 5\n", origin="cfg")
        for key in ("expert.xi", "expert.use_diag_approx"):
            with pytest.raises(ConfigError, match=rf"cfg:2: unknown key '{key}'"):
                parse_config_text(f"expert.confidence = 0.9\n{key} = 1\n", origin="cfg")

    def test_type_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"cfg:1.*expects int"):
            parse_config_text("run.frames = soon\n", origin="cfg")
        with pytest.raises(ConfigError, match="expects float"):
            parse_config_text("filter.accel_var = inf\n")
        with pytest.raises(ConfigError, match="expects bool"):
            parse_config_text("plant.start_at_steady = maybe\n")

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("run.frames 5\n")

    def test_choice_keys_validated(self):
        with pytest.raises(ConfigError, match="one of"):
            parse_config_text("setpoint.kind = sine\n")

    def test_pattern_keys_accepted(self):
        cfg = parse_config_text(
            "sensors.count = 3\nsensor.2.noise_sigma = 1.5\nfusion.gamma.1 = 200\n"
        )
        assert cfg["sensor.2.noise_sigma"] == 1.5
        assert cfg["fusion.gamma.1"] == 200.0

    def test_pattern_key_type_checked(self):
        with pytest.raises(ConfigError, match="expects float"):
            parse_config_text("sensor.1.spike_prob = often\n")


class TestLoadConfig:
    def test_loads_bundled_scenario_by_name(self):
        cfg = load_config("three_sensor_faults.scenario")
        assert cfg["sensors.count"] == 3
        assert cfg["sensor.1.noise_sigma"] == 15.0
        scenario = scenario_from_config(cfg)
        assert scenario.meas_var == (225.0, 4.0, 4.0)
        assert scenario.fusion.gamma == (200.0, 10.0, 10.0)
        assert scenario.fusion.delta == 400.0

    def test_path_takes_priority(self, tmp_path):
        path = write_lines(tmp_path / "my.scenario", "run.frames = 9", "sensors.count = 3")
        cfg = load_config(str(path))
        assert cfg["run.frames"] == 9

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "absent.scenario"))
        with pytest.raises(FileNotFoundError):
            load_config("absent.scenario")


class TestScenarioFromConfig:
    def test_requires_sensor_count(self):
        with pytest.raises(ConfigError, match="sensors.count"):
            scenario_from_config(parse_config_text(""))

    def test_rejects_fewer_than_three(self):
        with pytest.raises(ConfigError, match=">= 3"):
            scenario_from_config(parse_config_text("sensors.count = 2\n"))

    def test_fault_fields_land_on_the_right_sensor(self):
        cfg = parse_config_text(
            "sensors.count = 3\n"
            "sensor.3.shock_offset = -80\n"
            "sensor.3.shock_start = 150\n"
            "sensor.3.shock_end = 260\n"
        )
        sc = scenario_from_config(cfg)
        assert sc.faults[2].shock_offset == -80.0
        assert (sc.faults[2].shock_start, sc.faults[2].shock_end) == (150, 260)
        assert sc.faults[0].shock_offset == 0.0

    def test_scalar_meas_var_when_no_overrides(self):
        sc = scenario_from_config(parse_config_text("sensors.count = 4\n"))
        assert sc.meas_var == 25.0

    def test_seed_override(self):
        cfg = parse_config_text("sensors.count = 3\nrun.seed = 5\n")
        assert scenario_from_config(cfg).seed == 5
        assert scenario_from_config(cfg, seed=11).seed == 11

    def test_partial_meas_var_override_fills_from_filter_meas_var(self):
        cfg = parse_config_text(
            "sensors.count = 4\nfilter.meas_var = 9\nsensor.3.meas_var = 2\n"
        )
        assert scenario_from_config(cfg).meas_var == (9.0, 9.0, 2.0, 9.0)

    def test_plant_comes_from_plant_keys_and_run_dt(self):
        cfg = parse_config_text(
            "sensors.count = 3\nrun.dt = 0.02\nplant.natural_freq = 3\n"
            "plant.damping = 0.5\nplant.gain = 7\n"
        )
        assert scenario_from_config(cfg).plant == SecondOrderPlant(3.0, 0.5, gain=7.0, dt=0.02)

    def test_default_xi_is_one_dof_on_the_scenario_path(self):
        cfg = parse_config_text("sensors.count = 3\nexpert.confidence = 0.99\n")
        assert scenario_from_config(cfg).fusion_config().expert.xi == chi2_xi(1, 0.99)
        _, fusion_cfg, _ = tracking_setup_from_config(
            parse_config_text("expert.confidence = 0.99\n"), 3)
        assert fusion_cfg.expert.xi == chi2_xi(4, 0.99)

    @pytest.mark.parametrize("key", ["sensor.0.noise_sigma", "sensor.4.meas_var",
                                     "sensor.4.shock_start", "sensor.01.spike_prob",
                                     "fusion.gamma.9", "fusion.delta.0"])
    def test_index_outside_the_sensors_raises(self, key):
        cfg = parse_config_text(f"sensors.count = 3\n{key} = 1\n")
        with pytest.raises(ConfigError, match=rf"outside 1\.\.3: {re.escape(key)}$"):
            scenario_from_config(cfg)

    def test_every_index_outside_the_sensors_is_named(self):
        cfg = parse_config_text("sensors.count = 3\nsensor.3.meas_var = 1\n"
                                "fusion.gamma.9 = 1\nsensor.0.noise_sigma = 1\n")
        with pytest.raises(ConfigError, match=r"1\.\.3: fusion\.gamma\.9, sensor\.0\.noise_sigma$"):
            scenario_from_config(cfg)

    @pytest.mark.parametrize("text, seed, named", [
        ("run.seed = -2\n", None, "run.seed"),
        ("", -1, "run.seed"),
        ("run.dt = 0.05\nfilter.dt = -0.05\n", None, "filter.dt"),
        ("sensor.1.spike_prob = 2\nsensor.3.spike_prob = 0.5\n", None, "sensor.1.spike_prob"),
        ("sensor.2.shock_start = 9\nsensor.2.shock_end = 3\n", None,
         "sensor.2.shock_start, sensor.2.shock_end"),
    ])
    def test_out_of_range_value_is_a_config_error_naming_its_key(self, text, seed, named):
        cfg = parse_config_text("sensors.count = 3\n" + text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(named)}: "):
            scenario_from_config(cfg, seed=seed)

    def test_per_detector_gains_expand(self):
        cfg = parse_config_text(
            "sensors.count = 3\nfusion.gamma = 10\nfusion.gamma.2 = 99\n"
        )
        fusion_cfg = scenario_from_config(cfg).fusion_config()
        assert fusion_cfg.gamma == (10.0, 99.0, 10.0)
        assert fusion_cfg.delta == 1.0


class TestParseGrid:
    def test_parses_typed_axes(self):
        grid = parse_grid(["filter.accel_var=0.5,1.0", "run.seed=0,1,2"])
        assert grid["filter.accel_var"] == [0.5, 1.0]
        assert grid["run.seed"] == [0, 1, 2]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_grid(["run.framez=1,2"])

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            parse_grid(["run.seed=1", "run.seed=2"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="no values"):
            parse_grid(["run.seed="])

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match="key=v1,v2"):
            parse_grid(["run.seed"])


class TestTrackingSetup:
    def test_default_xi_comes_from_confidence(self):
        cfg = parse_config_text("expert.confidence = 0.95\n")
        model, fusion_cfg, init_var = tracking_setup_from_config(cfg, 3)
        assert fusion_cfg.expert.xi == pytest.approx(chi2_xi(4, 0.95), abs=1e-12)
        assert model.C.shape == (4, 8)
        assert init_var == 1e4

    @pytest.mark.parametrize("key", ["fusion.gamma.4", "fusion.delta.5", "fusion.delta.4"])
    def test_index_outside_the_detectors_raises(self, key):
        cfg = parse_config_text(f"{key} = 2\n")
        with pytest.raises(ConfigError, match=rf"outside 1\.\.3: {re.escape(key)}$"):
            tracking_setup_from_config(cfg, 3)
        assert tracking_setup_from_config(cfg, 5)[1] is not None

    def test_key_outside_the_fuse_groups_is_refused_with_its_line(self):
        cfg = parse_config_text("filter.dt = 1\nrun.seed = 4\nplant.gain = 7\n", "f.cfg")
        with pytest.raises(ConfigError, match=r"^f\.cfg:2: key 'run\.seed' is not read by fuse"):
            tracking_setup_from_config(cfg, 3)

    def test_program_built_config_names_the_key_without_a_line(self):
        cfg = {**parse_config_text("filter.dt = 1\n"), "sensor.1.meas_var": 4.0}
        with pytest.raises(ConfigError, match=r"^key 'sensor\.1\.meas_var' is not read by fuse"):
            tracking_setup_from_config(cfg, 3)
        # Defaults of the other groups are not settings: a plain copy still loads.
        assert tracking_setup_from_config(dict(parse_config_text("filter.dt = 1\n")), 3)

    def test_out_of_range_value_is_a_config_error_naming_its_key(self):
        cfg = parse_config_text("expert.confidence = 1\n")
        with pytest.raises(ConfigError, match=r"^expert\.confidence: confidence must be in"):
            tracking_setup_from_config(cfg, 3)

    def test_per_detector_gains_expand(self):
        cfg = parse_config_text("fusion.gamma = 10\nfusion.gamma.2 = 99\n")
        _, fusion_cfg, _ = tracking_setup_from_config(cfg, 3)
        assert fusion_cfg.gamma == (10.0, 99.0, 10.0)
