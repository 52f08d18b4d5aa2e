"""On-disk formats: track CSVs, run CSVs, and the flat key/value config.

All CSVs carry a one-line header and LF newlines; floats are written with 9
significant digits, so files are human-diffable and identical bytes under
identical inputs. Config files are flat ``section.key = value`` lines with
``#`` comment lines; every key must be known to the schema, and values are
typed. Unknown keys are rejected outright to prevent silent misconfiguration.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolationError, RecordFormatError
from .experts import ExpertConfig, chi2_xi
from .fusion import FusionCenter, FusionConfig
from .kalman import build_cv_model
from .sim import FaultProfile, SecondOrderPlant, SimScenario, _pipeline, setpoint_profile
from .voting import BoundingBox, VoteConfig

__all__ = [
    "TrackRecord",
    "format_value",
    "write_csv",
    "read_csv_dicts",
    "read_track_csv",
    "write_track_csv",
    "read_box_csv",
    "read_columns",
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


_BOOLS = (bool, np.bool_)
_SPECS = ((_BOOLS, "%s"), ((int, np.integer), "%d"), ((float, np.floating), "%.9g"))


def _cell_spec(t) -> str:
    """The ``%`` spec of a cell of type ``t``; a bool goes to it as a word."""
    return next((spec for kinds, spec in _SPECS if issubclass(t, kinds)), "%s")


def format_value(x) -> str:
    """Canonical CSV cell: ints as digits, floats at 9 significant digits,
    bools true/false; no cell may hold a comma, LF or CR."""
    if isinstance(x, _BOOLS):
        x = "true" if x else "false"
    s = _cell_spec(type(x)) % (x,)
    if "," in s or "\n" in s or "\r" in s:
        raise RecordFormatError(f"cell value {s!r} would break the CSV layout")
    return s


def write_csv(path: str, header, rows) -> None:
    """Write the header and rows with LF newlines, each cell as format_value
    writes it: one ``%`` string per row, built once per sequence of cell types."""
    formats = {}
    head = ",".join(map(format_value, header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(head)
        for row in rows:
            types = tuple(map(type, row))
            if types not in formats:
                formats[types] = ",".join(map(_cell_spec, types)) + "\n"
            if bool in types or np.bool_ in types:
                row = [("true" if c else "false") if t in _BOOLS else c
                       for c, t in zip(row, types)]
            line = formats[types] % tuple(row)
            if line.count(",") >= len(types) or line.count("\n") > 1 or "\r" in line:
                list(map(format_value, row))  # raises, naming the cell
            fh.write(line)


def _first(mask) -> int | None:
    """Index of the first true entry of ``mask``, None if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _read_rows(path: str, required=()):
    """Header, data rows and their 1-based file lines; blank lines are skipped
    but counted, and every row must have one cell per header column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise RecordFormatError(f"{path}: empty file, expected a header row")
        missing = [c for c in required if c not in header]
        if missing:
            raise RecordFormatError(f"{path}: missing columns {missing}")
        numbered = [(reader.line_num, row) for row in reader if row]
    lines, rows = zip(*numbered) if numbered else ((), ())
    if (bad := _first(np.fromiter(map(len, rows), int, len(rows)) != len(header))) is not None:
        raise RecordFormatError(f"{path}: row {lines[bad]}: wrong field count")
    return header, rows, lines


def read_csv_dicts(path: str, required=()):
    """Read a headered CSV into dict rows; checks the required columns exist
    and that every row has one cell per header column."""
    header, rows, _ = _read_rows(path, required)
    return [dict(zip(header, row)) for row in rows], header


def _column(cells, conv) -> np.ndarray:
    """``conv`` of each cell as an array, cut before the first cell that it
    refuses or, for ``int``, that int64 cannot hold."""
    out = []
    try:
        out.extend(map(conv, cells))
    except ValueError:
        pass
    if conv is int and out and not -2**63 <= min(out) <= max(out) < 2**63:
        del out[next(k for k, x in enumerate(out) if not -2**63 <= x < 2**63):]
    return np.array(out, dtype=np.int64 if conv is int else float)


_VALID = {"true": True, "1": True, "false": False, "0": False}


def read_columns(path: str, track: bool = False):
    """The column reader under every box CSV: ``frames`` (int64) and
    ``boxes`` ((n, 4) floats u,v,h,w) in file order, each column parsed once
    and checked as an array. Frames are unique; extra columns are ignored. A
    ``track`` log has exactly TRACK_HEADER and frames nondecreasing and unique
    per detector, and also returns the sorted detector ids, each row's index
    into them and the ``valid`` flags. The README's CSV schemas section gives
    what cells accept and, when a file has several faults, which one is named.
    """
    required = TRACK_HEADER if track else ("frame", "u", "v", "h", "w")
    header, rows, lines = _read_rows(path, required)
    if track and header != TRACK_HEADER:
        raise RecordFormatError(f"{path}: header must be exactly {','.join(TRACK_HEADER)}")
    cols = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    faults = []  # (row index, rank of the check, message): each check's first fault
    nums = []
    for rank, name in enumerate(("frame", "u", "v", "h", "w")):
        cells = cols[name]
        nums.append(vals := _column(cells, float if rank else int))
        if len(vals) < len(cells):
            faults.append((len(vals), rank, f"bad {name} value {cells[len(vals)]!r}"))
        if rank and (bad := _first(~np.isfinite(vals))) is not None:
            faults.append((bad, rank, f"{name} must be finite, got {cells[bad]!r}"))
    n = min(map(len, nums))  # the later checks see the rows whose numbers all parsed
    frames, boxes = nums[0][:n], np.column_stack([v[:n] for v in nums[1:]])
    if (bad := _first((boxes[:, 2:] < 0).any(axis=1))) is not None:
        faults.append((bad, 5, "negative box size"))
    if track:
        dets = list(map(str.strip, cols["detector_id"][:n]))
        if "" in dets:
            faults.append((dets.index(""), 6, "empty detector_id"))
        flags = list(map(_VALID.get, map(str.lower, map(str.strip, cols["valid"][:n]))))
        if None in flags:
            bad = flags.index(None)
            faults.append((bad, 7, f"valid must be true/false, got {cols['valid'][bad]!r}"))
        ids = sorted(set(dets))
        det = np.fromiter(map(dict(zip(ids, range(len(ids)))).__getitem__, dets), np.intp, n)
    # Each detector's rows in file order, or all rows by frame: a row that
    # repeats the frame before it is a duplicate, one below it a decrease.
    order = np.argsort(det if track else frames, kind="stable")
    f, later = frames[order], order[1:]
    same = det[order][1:] == det[order][:-1] if track else True
    if track and (bad := int(later[same & (f[1:] < f[:-1])].min(initial=n))) < n:
        faults.append((bad, 8, f"frames decrease for detector {dets[bad]!r}"))
    if (bad := int(later[same & (f[1:] == f[:-1])].min(initial=n))) < n:
        message = (f"duplicate record for frame {frames[bad]}, detector {dets[bad]!r}"
                   if track else f"duplicate frame {frames[bad]}")
        faults.append((bad, 9, message))
    if faults:
        bad, _, message = min(faults)
        raise RecordFormatError(f"{path}: row {lines[bad]}: {message}")
    return (frames, boxes, ids, det, np.array(flags, dtype=bool)) if track else (frames, boxes)


def read_track_csv(path: str) -> list[TrackRecord]:
    """Read a detector track log into records; ``read_columns`` checks it."""
    frames, boxes, ids, det, valid = read_columns(path, track=True)
    return list(map(TrackRecord, frames.tolist(), map(ids.__getitem__, det.tolist()),
                    *boxes.T.tolist(), valid.tolist()))


def write_track_csv(path: str, records) -> None:
    write_csv(path, TRACK_HEADER, map(attrgetter(*TRACK_HEADER), records))


def read_box_csv(path: str) -> dict[int, BoundingBox]:
    """Read any CSV carrying frame,u,v,h,w columns (extras ignored) into boxes."""
    frames, boxes = read_columns(path)
    return dict(zip(frames.tolist(), map(BoundingBox, *boxes.T.tolist())))


# --- config schema ----------------------------------------------------------


class _Key(NamedTuple):
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
_FAULT_FIELDS = ("noise_sigma", "spike_prob", "spike_mag", "drift_rate", "shock_offset")
_PATTERN_SCHEMA: list[tuple[re.Pattern, _Key]] = [
    (re.compile(rf"^sensor\.\d+\.({'|'.join(_FAULT_FIELDS)}|meas_var)$"), _Key(float)),
    (re.compile(r"^sensor\.\d+\.shock_(start|end)$"), _Key(int)),
    (re.compile(r"^fusion\.(gamma|delta)\.\d+$"), _Key(float)),
]
_INDEX = re.compile(r"^(?:sensor|fusion\.gamma|fusion\.delta)\.(\d+)\b")


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
            val = {"true": True, "false": False}[raw.lower()]
        elif spec.type is int:
            val = int(raw)
        elif spec.type is float:
            val = float(raw)
            if not math.isfinite(val):
                raise ValueError
        else:
            val = raw
    except (KeyError, ValueError):
        raise ConfigError(
            f"{origin}: key {key!r} expects {spec.type.__name__}, got {raw!r}"
        ) from None
    if spec.choices and val not in spec.choices:
        raise ConfigError(
            f"{origin}: key {key!r} must be one of {spec.choices}, got {val!r}"
        )
    return val


class _Config(dict):
    """Config values; ``lines`` holds the ``origin:line`` of each key a file sets."""


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; returns defaults merged with the file."""
    cfg = _Config({k: spec.default for k, spec in CONFIG_SCHEMA.items()})
    cfg.lines = {}
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
        cfg.lines[key] = f"{origin}:{line_no}"
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
    """``cfg[base]`` and ``base``, or, when any ``indexed`` key (formatted with
    the detector's 1-based index) overrides it, a tuple over detectors 1..n of
    the values and one of the keys they come from."""
    keys = [k if k in cfg else base for k in map(indexed.format, range(1, n + 1))]
    if keys != [base] * n:
        return tuple(cfg[k] for k in keys), tuple(keys)
    return cfg[base], base


# The key an argument is read from, by the argument's name (the plant's dt is run.dt).
_ARG_KEYS = {**{k.rpartition(".")[2]: k for k in CONFIG_SCHEMA},
             "dt": "filter.dt", "lam": "vote.lambda", "xi": "expert.confidence"}


@contextlib.contextmanager
def _naming(keys: dict):
    """Yield ``keys``, re-raising a ContractViolationError as a ConfigError that names,
    for each argument it blames, the key ``keys`` holds for it: of a per-detector
    argument's tuple, the refused detector's; of an argument no key set, none."""
    try:
        yield keys
    except ContractViolationError as exc:
        held = [k[exc.detector] if isinstance(k, tuple) else k for k in map(keys.get, exc.names)]
        raise ConfigError(f"{', '.join(filter(None, held)) or 'config'}: {exc}") from None


def _fusion_from_config(cfg: dict, n: int, dof: int, keys: dict, reads=None) -> FusionConfig:
    """Fusion settings for n detectors whose measurements have ``dof`` entries,
    recording the gains' keys in ``keys``. Expert xi is the ``dof``-dof
    chi-square root at expert.confidence. A key the config sets outside the
    groups in ``reads`` (fuse's, when given) is refused, naming its line when a
    file set it; so is an indexed key naming no detector in 1..n, as the
    readers spell it."""
    lines = getattr(cfg, "lines", {})
    for key in (*lines, *(k for k in cfg if k not in CONFIG_SCHEMA)):
        if reads and key.split(".")[0] not in reads:
            raise ConfigError(f"{lines[key] + ': ' if key in lines else ''}key {key!r} is not "
                              f"read by fuse, which reads only {'.*, '.join(reads)}.* keys")
    names = set(map(str, range(1, n + 1)))
    if bad := sorted(k for k in cfg if (m := _INDEX.match(k)) and m[1] not in names):
        raise ConfigError(f"keys index detectors outside 1..{n}: {', '.join(bad)}")
    gamma, keys["gamma"] = _per_detector(cfg, n, "fusion.gamma", "fusion.gamma.{}")
    delta, keys["delta"] = _per_detector(cfg, n, "fusion.delta", "fusion.delta.{}")
    return FusionConfig(
        gamma=gamma,
        delta=delta,
        cov_floor=cfg["fusion.cov_floor"],
        stale_after=cfg["fusion.stale_after"],
        vote=VoteConfig(
            omega0=cfg["vote.omega0"], omega=cfg["vote.omega"], lam=cfg["vote.lambda"],
        ),
        expert=ExpertConfig(xi=chi2_xi(dof, cfg["expert.confidence"])),
    )


def scenario_from_config(cfg: dict, seed: int | None = None) -> SimScenario:
    """Build the simulation scenario; requires sensors.count >= 3. A value the
    scenario or its run refuses raises ConfigError naming its key."""
    count = cfg.get("sensors.count")
    if count is None:
        raise ConfigError("sensors.count is required for simulation configs")
    if count < 3:
        raise ConfigError(f"sensors.count must be >= 3, got {count}")
    names = (*_FAULT_FIELDS, "shock_start", "shock_end")  # an unset key takes FaultProfile's 0
    faults = []
    for i in range(1, count + 1):  # each sensor's faults under its own keys
        with _naming({f: k for f in names if (k := f"sensor.{i}.{f}") in cfg}) as keys:
            faults.append(FaultProfile(**{f: cfg[k] for f, k in keys.items()}))
    with _naming({**_ARG_KEYS, "dt": "run.dt"}):
        plant = SecondOrderPlant(cfg["plant.natural_freq"], cfg["plant.damping"],
                                 cfg["plant.gain"], cfg["run.dt"])
    with _naming(dict(_ARG_KEYS)) as keys:
        fusion = _fusion_from_config(cfg, count, 1, keys)
        mv, keys["meas_var"] = _per_detector(cfg, count, "filter.meas_var", "sensor.{}.meas_var")
        scenario = SimScenario(
            frames=cfg["run.frames"],
            plant=plant,
            fusion=fusion,
            start_at_steady=cfg["plant.start_at_steady"],
            setpoint_kind=cfg["setpoint.kind"],
            setpoint_amplitude=cfg["setpoint.amplitude"],
            setpoint_period=cfg["setpoint.period"],
            setpoint_value=cfg["setpoint.value"],
            faults=tuple(faults),
            filter_dt=cfg["filter.dt"],
            accel_var=cfg["filter.accel_var"],
            meas_var=mv,
            init_var=cfg["filter.init_var"],
            seed=cfg["run.seed"] if seed is None else seed,
        )
        setpoint_profile(scenario.setpoint_kind, 1, period=scenario.setpoint_period)
        _pipeline(scenario)
    return scenario


def tracking_setup_from_config(cfg: dict, n_detectors: int):
    """Fusion setup for bounding-box replay: (model, FusionConfig, init_var).

    The model is the 4-axis constant-velocity box model, so expert xi is a
    4-dof threshold. Only filter.*, expert.*, vote.* and fusion.* keys may be
    set, and a value a pipeline refuses raises ConfigError naming its key.
    """
    with _naming(dict(_ARG_KEYS)) as keys:
        fusion = _fusion_from_config(cfg, n_detectors, 4, keys, ("filter", "expert", "vote",
                                                                 "fusion"))
        model = build_cv_model(4, cfg["filter.dt"], cfg["filter.accel_var"], cfg["filter.meas_var"])
        FusionCenter(model, n_detectors, fusion, cfg["filter.init_var"])  # refuses gains, init_var
    return model, fusion, cfg["filter.init_var"]
