"""On-disk formats: track CSVs, run CSVs, and the flat key/value config.

All CSVs carry a one-line header and LF newlines; floats are written with 9
significant digits, so files are human-diffable and identical bytes under
identical inputs. Config files are flat ``section.key = value`` lines with
``#`` comment lines; every key must be known to the schema, and values are
typed. Unknown keys are rejected outright to prevent silent misconfiguration.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, RecordFormatError
from .experts import ExpertConfig, chi2_xi
from .fusion import FusionConfig
from .kalman import build_cv_model
from .sim import FaultProfile, SecondOrderPlant, SimScenario
from .voting import BoundingBox, VoteConfig

__all__ = [
    "TrackRecord",
    "format_value",
    "write_csv",
    "read_csv_dicts",
    "read_track_csv",
    "write_track_csv",
    "read_box_csv",
    "load_config",
    "parse_config_text",
    "parse_grid",
    "scenario_from_config",
    "tracking_setup_from_config",
    "CONFIG_SCHEMA",
]

TRACK_HEADER = ["frame", "detector_id", "u", "v", "h", "w", "valid"]


@dataclass(frozen=True)
class TrackRecord:
    """One detector observation: frame index, detector id, box, validity."""

    frame: int
    detector_id: str
    u: float
    v: float
    h: float
    w: float
    valid: bool

    def box(self) -> BoundingBox:
        return BoundingBox(self.u, self.v, self.h, self.w)


def format_value(x) -> str:
    """Canonical CSV cell: floats at 9 significant digits, bools true/false."""
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.9g" % float(x)
    s = str(x)
    if "," in s or "\n" in s:
        raise RecordFormatError(f"cell value {s!r} would break the CSV layout")
    return s


def write_csv(path: str, header, rows) -> None:
    """Write rows of cells through format_value with LF newlines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(c) for c in row) + "\n")


def _numbered_rows(path: str, required=()):
    """Each dict row of a headered CSV with its 1-based file line, plus the
    header. Blank lines are skipped but still counted."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise RecordFormatError(f"{path}: empty file, expected a header row")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise RecordFormatError(f"{path}: missing columns {missing}")
        rows = [(reader.line_num, row) for row in reader]
    for row_no, row in rows:
        # DictReader files extra cells under None and fills missing ones with None.
        if None in row or None in row.values():
            raise RecordFormatError(f"{path}: row {row_no}: wrong field count")
    return rows, reader.fieldnames


def read_csv_dicts(path: str, required=()):
    """Read a headered CSV into dict rows; checks the required columns exist
    and that every row has one cell per header column."""
    rows, fields = _numbered_rows(path, required)
    return [row for _, row in rows], fields


def _parse_int(path: str, row_no: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise RecordFormatError(f"{path}: row {row_no}: bad {name} value {raw!r}") from None


def _parse_float(path: str, row_no: int, name: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise RecordFormatError(f"{path}: row {row_no}: bad {name} value {raw!r}") from None
    if not math.isfinite(v):
        raise RecordFormatError(f"{path}: row {row_no}: {name} must be finite, got {raw!r}")
    return v


def _frame_and_box(path: str, row_no: int, row: dict) -> tuple[int, dict]:
    """The row's ``frame`` and its ``u,v,h,w`` floats; box sides must be >= 0."""
    frame = _parse_int(path, row_no, "frame", row["frame"])
    box = {k: _parse_float(path, row_no, k, row[k]) for k in ("u", "v", "h", "w")}
    if box["h"] < 0 or box["w"] < 0:
        raise RecordFormatError(f"{path}: row {row_no}: negative box size")
    return frame, box


def read_track_csv(path: str) -> list[TrackRecord]:
    """Read detector track logs, validating as it goes.

    Errors carry the 1-based file row number (header is row 1). Frames must
    be nondecreasing per detector and (frame, detector) pairs unique.
    """
    rows, fields = _numbered_rows(path, required=TRACK_HEADER)
    if list(fields) != TRACK_HEADER:
        raise RecordFormatError(
            f"{path}: header must be exactly {','.join(TRACK_HEADER)}"
        )
    records = []
    last_frame: dict[str, int] = {}
    seen: set[tuple[int, str]] = set()
    for row_no, row in rows:
        frame, box = _frame_and_box(path, row_no, row)
        det = row["detector_id"].strip()
        if not det:
            raise RecordFormatError(f"{path}: row {row_no}: empty detector_id")
        raw_valid = row["valid"].strip().lower()
        if raw_valid not in ("true", "false", "1", "0"):
            raise RecordFormatError(
                f"{path}: row {row_no}: valid must be true/false, got {row['valid']!r}"
            )
        if frame < last_frame.get(det, frame):
            raise RecordFormatError(
                f"{path}: row {row_no}: frames decrease for detector {det!r}"
            )
        if (frame, det) in seen:
            raise RecordFormatError(
                f"{path}: row {row_no}: duplicate record for frame {frame}, detector {det!r}"
            )
        seen.add((frame, det))
        last_frame[det] = frame
        records.append(TrackRecord(
            frame=frame, detector_id=det, valid=raw_valid in ("true", "1"), **box,
        ))
    return records


def write_track_csv(path: str, records) -> None:
    write_csv(path, TRACK_HEADER, (
        [r.frame, r.detector_id, r.u, r.v, r.h, r.w, r.valid] for r in records
    ))


def read_box_csv(path: str) -> dict[int, BoundingBox]:
    """Read any CSV carrying frame,u,v,h,w columns (extras ignored) into boxes."""
    rows, _ = _numbered_rows(path, required=("frame", "u", "v", "h", "w"))
    out: dict[int, BoundingBox] = {}
    for row_no, row in rows:
        frame, box = _frame_and_box(path, row_no, row)
        if frame in out:
            raise RecordFormatError(f"{path}: row {row_no}: duplicate frame {frame}")
        out[frame] = BoundingBox(**box)
    return out


# --- config schema ----------------------------------------------------------


@dataclass(frozen=True)
class _Key:
    type: type
    default: object = None
    choices: tuple = ()


CONFIG_SCHEMA: dict[str, _Key] = {
    "run.frames": _Key(int, 600),
    "run.dt": _Key(float, 0.05),
    "run.seed": _Key(int, 0),
    "run.out": _Key(str, None),
    "plant.natural_freq": _Key(float, 2.0),
    "plant.damping": _Key(float, 0.7),
    "plant.gain": _Key(float, 100.0),
    "plant.start_at_steady": _Key(bool, True),
    "setpoint.kind": _Key(str, "square", ("constant", "square", "ramp")),
    "setpoint.amplitude": _Key(float, 1.0),
    "setpoint.period": _Key(int, 200),
    "setpoint.value": _Key(float, 0.0),
    "sensors.count": _Key(int, None),
    "filter.dt": _Key(float, 1.0),
    "filter.accel_var": _Key(float, 1.0),
    "filter.meas_var": _Key(float, 25.0),
    "filter.init_var": _Key(float, 1e4),
    "expert.confidence": _Key(float, 0.95),
    "expert.xi": _Key(float, None),
    "expert.use_diag_approx": _Key(bool, False),
    "vote.omega0": _Key(float, 1.0),
    "vote.omega": _Key(float, 1.0),
    "vote.lambda": _Key(float, 50.0),
    "fusion.gamma": _Key(float, 1.0),
    "fusion.delta": _Key(float, 1.0),
    "fusion.cov_floor": _Key(float, 1e-6),
    "fusion.stale_after": _Key(int, 30),
}

# Indexed keys: sensor.<i>.field and per-detector fusion gains. Types only: an
# unset key takes the default of the code that reads it.
_PATTERN_SCHEMA: list[tuple[re.Pattern, _Key]] = [
    (re.compile(r"^sensor\.\d+\.noise_sigma$"), _Key(float)),
    (re.compile(r"^sensor\.\d+\.spike_prob$"), _Key(float)),
    (re.compile(r"^sensor\.\d+\.spike_mag$"), _Key(float)),
    (re.compile(r"^sensor\.\d+\.drift_rate$"), _Key(float)),
    (re.compile(r"^sensor\.\d+\.shock_offset$"), _Key(float)),
    (re.compile(r"^sensor\.\d+\.shock_start$"), _Key(int)),
    (re.compile(r"^sensor\.\d+\.shock_end$"), _Key(int)),
    (re.compile(r"^sensor\.\d+\.meas_var$"), _Key(float)),
    (re.compile(r"^fusion\.gamma\.\d+$"), _Key(float)),
    (re.compile(r"^fusion\.delta\.\d+$"), _Key(float)),
]


def _key_spec(key: str) -> _Key | None:
    if key in CONFIG_SCHEMA:
        return CONFIG_SCHEMA[key]
    for pat, spec in _PATTERN_SCHEMA:
        if pat.match(key):
            return spec
    return None


def _convert(key: str, raw: str, spec: _Key, origin: str):
    raw = raw.strip()
    try:
        if spec.type is bool:
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError
            val = low == "true"
        elif spec.type is int:
            val = int(raw)
        elif spec.type is float:
            val = float(raw)
            if np.isnan(val) or np.isinf(val):
                raise ValueError
        else:
            val = raw
    except ValueError:
        raise ConfigError(
            f"{origin}: key {key!r} expects {spec.type.__name__}, got {raw!r}"
        ) from None
    if spec.choices and val not in spec.choices:
        raise ConfigError(
            f"{origin}: key {key!r} must be one of {spec.choices}, got {val!r}"
        )
    return val


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; returns defaults merged with the file."""
    cfg = {k: spec.default for k, spec in CONFIG_SCHEMA.items()}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        spec = _key_spec(key)
        if spec is None:
            raise ConfigError(f"{origin}:{line_no}: unknown key {key!r}")
        cfg[key] = _convert(key, raw, spec, f"{origin}:{line_no}")
    return cfg


def load_config(path_or_name: str) -> dict:
    """Load a config file; bare names fall back to the bundled scenarios."""
    if os.path.exists(path_or_name):
        with open(path_or_name) as fh:
            return parse_config_text(fh.read(), path_or_name)
    if os.sep not in path_or_name:
        bundled = resources.files("habdf").joinpath("scenarios").joinpath(path_or_name)
        if bundled.is_file():
            return parse_config_text(bundled.read_text(), f"bundled:{path_or_name}")
    raise FileNotFoundError(path_or_name)


def parse_grid(specs) -> dict[str, list]:
    """Parse repeated ``key=v1,v2,...`` grid axes against the config schema."""
    grid: dict[str, list] = {}
    for spec_str in specs:
        if "=" not in spec_str:
            raise ConfigError(f"grid axis {spec_str!r} must look like key=v1,v2")
        key, _, rest = spec_str.partition("=")
        key = key.strip()
        spec = _key_spec(key)
        if spec is None:
            raise ConfigError(f"grid axis references unknown key {key!r}")
        if key in grid:
            raise ConfigError(f"grid axis {key!r} given twice")
        values = [v for v in (s.strip() for s in rest.split(",")) if v]
        if not values:
            raise ConfigError(f"grid axis {key!r} has no values")
        grid[key] = [_convert(key, v, spec, f"grid:{key}") for v in values]
    return grid


def _per_detector(cfg: dict, n: int, base: str, indexed: str):
    """``cfg[base]``, or a tuple over detectors 1..n when any ``indexed``
    key (formatted with the detector's 1-based index) overrides it."""
    per = [cfg.get(indexed.format(i)) for i in range(1, n + 1)]
    if any(v is not None for v in per):
        return tuple(cfg[base] if v is None else v for v in per)
    return cfg[base]


def _fusion_from_config(cfg: dict, n: int, dof: int) -> FusionConfig:
    """Fusion settings for n detectors whose measurements have ``dof`` entries.

    Expert xi is the ``dof``-dof chi-square root at expert.confidence unless
    expert.xi pins it.
    """
    xi = cfg["expert.xi"]
    if xi is None:
        xi = chi2_xi(dof, cfg["expert.confidence"])
    return FusionConfig(
        gamma=_per_detector(cfg, n, "fusion.gamma", "fusion.gamma.{}"),
        delta=_per_detector(cfg, n, "fusion.delta", "fusion.delta.{}"),
        cov_floor=cfg["fusion.cov_floor"],
        stale_after=cfg["fusion.stale_after"],
        vote=VoteConfig(
            omega0=cfg["vote.omega0"], omega=cfg["vote.omega"], lam=cfg["vote.lambda"],
        ),
        expert=ExpertConfig(xi=xi, use_diag_approx=cfg["expert.use_diag_approx"]),
    )


def scenario_from_config(cfg: dict, seed: int | None = None) -> SimScenario:
    """Build the simulation scenario; requires sensors.count >= 3."""
    count = cfg.get("sensors.count")
    if count is None:
        raise ConfigError("sensors.count is required for simulation configs")
    if count < 3:
        raise ConfigError(f"sensors.count must be >= 3, got {count}")
    faults = []
    for i in range(1, count + 1):
        def get(field, default=0.0):
            return cfg.get(f"sensor.{i}.{field}", default)
        faults.append(FaultProfile(
            noise_sigma=get("noise_sigma"),
            spike_prob=get("spike_prob"),
            spike_mag=get("spike_mag"),
            drift_rate=get("drift_rate"),
            shock_offset=get("shock_offset"),
            shock_window=(int(get("shock_start", 0)), int(get("shock_end", 0))),
        ))
    return SimScenario(
        frames=cfg["run.frames"],
        plant=SecondOrderPlant(
            cfg["plant.natural_freq"], cfg["plant.damping"], cfg["plant.gain"], cfg["run.dt"],
        ),
        fusion=_fusion_from_config(cfg, count, dof=1),
        start_at_steady=cfg["plant.start_at_steady"],
        setpoint_kind=cfg["setpoint.kind"],
        setpoint_amplitude=cfg["setpoint.amplitude"],
        setpoint_period=cfg["setpoint.period"],
        setpoint_value=cfg["setpoint.value"],
        faults=tuple(faults),
        filter_dt=cfg["filter.dt"],
        accel_var=cfg["filter.accel_var"],
        meas_var=_per_detector(cfg, count, "filter.meas_var", "sensor.{}.meas_var"),
        init_var=cfg["filter.init_var"],
        seed=cfg["run.seed"] if seed is None else int(seed),
    )


def tracking_setup_from_config(cfg: dict, n_detectors: int):
    """Fusion setup for bounding-box replay: (model, FusionConfig, init_var).

    The model is the 4-axis constant-velocity box model, so expert xi is a
    4-dof threshold.
    """
    model = build_cv_model(4, cfg["filter.dt"], cfg["filter.accel_var"], cfg["filter.meas_var"])
    return model, _fusion_from_config(cfg, n_detectors, model.meas_dim), cfg["filter.init_var"]
