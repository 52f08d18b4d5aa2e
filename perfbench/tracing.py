"""Span tracing of habdf's public functions, applied from outside the package.

``Tracer.install`` swaps each target for a timing wrapper everywhere callers
look it up: module globals that hold the function (``kf_update`` lives in
``habdf.kalman``, ``habdf.experts``, ``habdf.fusion`` and ``habdf``) and class
attributes for methods. Spans (name, start, end, parent, frame id) stay in
memory until ``write`` saves them; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "habdf"
LAYERS = ("kalman", "experts", "voting", "fusion", "records", "metrics", "sim", "cli")
BENCH = "bench"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _kf_update_rows(tracer, args, kwargs, result):
    # Rows of the fusion center's stacked update, the one that grows with n.
    if tracer.parent_name() == "fusion.FusionCenter.step":
        tracer.count("kalman.kf_update.center_calls", 1)
        tracer.count("kalman.kf_update.center_rows", _arg(args, kwargs, 1, "model").C.shape[0])


def _expert_coast(tracer, args, kwargs, result):
    tracer.count("experts.Expert.step.coast", _arg(args, kwargs, 1, "y") is None)


def _center_pairs(tracer, args, kwargs, result):
    reports = _arg(args, kwargs, 1, "reports")
    measurements = _arg(args, kwargs, 2, "measurements")
    m = sum(r is not None and y is not None for r, y in zip(reports, measurements))
    tracer.count("fusion.FusionCenter.step.pairs", m * (m - 1) // 2)
    tracer.count("fusion.FusionCenter.step.coasting", result is not None and result.coasting)


def _track_rows(tracer, args, kwargs, result):
    tracer.count("records.read_track_csv.rows", len(result))


# (module, attribute path, probe): the public names the per-layer metrics
# cover. A probe records counts at the boundary from the call's arguments.
TARGETS = (
    ("kalman", "kf_predict", None),
    ("kalman", "kf_update", _kf_update_rows),
    ("experts", "Expert.step", _expert_coast),
    ("experts", "mahalanobis", None),
    ("experts", "local_weight", None),
    ("voting", "box_distance", None),
    ("voting", "vote_weight", None),
    ("fusion", "FusionCenter.step", _center_pairs),
    ("fusion", "Pipeline.step", None),
    ("fusion", "adapt_rvv", None),
    ("records", "read_track_csv", _track_rows),
    ("records", "write_csv", None),
    ("records", "read_box_csv", None),
    ("records", "load_config", None),
    ("metrics", "jaccard", None),
    ("metrics", "gt_distance", None),
    ("metrics", "summarize", None),
    ("sim", "run_sim_experiment", None),
    ("sim", "run_plant", None),
    ("sim", "inject_faults", None),
    ("cli", "cmd_fuse", None),
    ("cli", "cmd_eval", None),
    ("cli", "cmd_sweep", None),
)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.frames: list[int] = []
        self.counts: Counter = Counter()
        self.frame_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.frames.append(self.frame_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.starts[idx] = start
        self.ends[idx] = end

    def count(self, key: str, value) -> None:
        self.counts[key] += value

    def parent_name(self) -> str | None:
        """Name of the innermost open span, None outside every span."""
        return self.names[self._stack[-1]] if self._stack else None

    @contextmanager
    def frame(self, name: str = "frame"):
        """Root span for one unit of benchmark work; its children share its id."""
        self.frame_id += 1
        idx = self._open(f"{BENCH}.{name}")
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter())

    def _wrapper(self, name: str, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, perf_counter())
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever the package's modules refer to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, path, probe in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrapper(name, original, probe))
                continue
            original = getattr(module, path)
            wrapper = self._wrapper(name, original, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy seconds (inclusive) and self seconds."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, start, end, own in zip(self.names, self.starts, self.ends, selfs):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += own
        return dict(out)

    def child_calls(self, name: str, parent_name: str) -> int:
        return sum(1 for n, p in zip(self.names, self.parents)
                   if n == name and p >= 0 and self.names[p] == parent_name)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "name", "start", "end", "parent", "frame"])
            for row in zip(range(len(self.names)), self.names, self.starts,
                           self.ends, self.parents, self.frames):
                out.writerow(row)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may arrive in any order and may overlap one another; overlaps
    count once, and any part outside the parent's interval is ignored.
    """
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for child in sorted(children.get(idx, ()), key=starts.__getitem__):
            lo, hi = max(starts[child], reach), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
