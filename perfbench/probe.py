"""Per-step timing with a machine-speed calibration, for the untraced passes.

Hosts shared with other tenants run a fixed loop up to ±25% faster or slower
from one second to the next, and the slow phases last seconds to minutes, so
raw timings of two runs differ by more than any regression worth catching.
``StepProbe`` therefore times every ``Pipeline.step`` and, every
``calib_every`` calls, a fixed calibration loop of the same kind of work
(interpreted Python plus small numpy calls). Times are scaled by
``CALIB_NOMINAL_S / calibration time``, so they read as seconds on a host that
runs the loop in ``CALIB_NOMINAL_S``: a window's time by the mean of the
samples taken in it, a step's latency by the two samples around its block of
``calib_every`` steps, which follows faster swings. The calibration time
itself is left out of every window and latency.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Reference time of the calibration loop: scaled timings read as seconds on a
# host that runs it in this long: about its median, between pipeline steps,
# on a shared 2-vCPU x86-64 virtual machine with Python 3.11 and numpy 2.4.
CALIB_NOMINAL_S = 1.7e-4

_EYE = np.eye(4)
_SPD = np.eye(8) * 4.0 + 1.0
_RHS = np.ones(8)


def calibrate() -> float:
    """Seconds taken by a fixed mix of bytecode and small numpy calls."""
    start = perf_counter()
    x = 0.0
    for i in range(800):
        x += i * 0.5
    v = np.ones(4)
    for _ in range(20):
        v = _EYE @ v
    for _ in range(4):
        np.linalg.solve(_SPD, _RHS)
    return perf_counter() - start


@dataclass
class Window:
    frames: int
    seconds: float       # wall time minus calibration time
    scale: float         # CALIB_NOMINAL_S / mean calibration time in the window


@dataclass
class StepProbe:
    """Wraps ``Pipeline.step`` on the class until ``uninstall``."""

    pipeline_cls: type
    calib_every: int
    latencies: array = field(default_factory=lambda: array("d"))
    calib: list = field(default_factory=list)
    calib_s: float = 0.0
    _original: object = None
    _mark: tuple = (0.0, 0, 0.0)

    def install(self) -> None:
        original = self._original = self.pipeline_cls.__dict__["step"]
        probe = self

        def step(pipe, measurements):
            start = perf_counter()
            try:
                return original(pipe, measurements)
            finally:
                probe.latencies.append(perf_counter() - start)
                if len(probe.latencies) % probe.calib_every == 0:
                    c = calibrate()
                    probe.calib.append(c)
                    probe.calib_s += c

        self.pipeline_cls.step = step
        self.start_window()

    def uninstall(self) -> None:
        if self._original is not None:
            self.pipeline_cls.step = self._original
            self._original = None

    def scaled_latencies(self) -> np.ndarray:
        """Each step's latency scaled by the samples on either side of its block."""
        lat = np.asarray(self.latencies)
        if not self.calib:
            return lat
        cal = np.asarray(self.calib)
        block = np.arange(len(lat)) // self.calib_every
        after = cal[np.minimum(block, len(cal) - 1)]
        before = cal[np.clip(block - 1, 0, len(cal) - 1)]
        return lat * CALIB_NOMINAL_S / (0.5 * (after + before))

    def start_window(self) -> None:
        self._mark = (perf_counter(), len(self.calib), self.calib_s)

    def end_window(self, frames: int) -> Window:
        """Close the window opened by the last start/end and open the next."""
        start, cal0, calib_s0 = self._mark
        wall = perf_counter() - start - (self.calib_s - calib_s0)
        samples = self.calib[cal0:] or self.calib[-1:]
        scale = CALIB_NOMINAL_S / (sum(samples) / len(samples)) if samples else 1.0
        self.start_window()
        return Window(frames, wall, scale)
