"""Speed references that take the host's drift out of the timings.

On a shared machine the speed of one core drifts by a quarter within
seconds, while the program stays the same. The benchmark therefore
interleaves a fixed reference job with the ops and rescales every op
time by (the reference's nominal time) / (reference job time around it).
Times are then reported in "reference seconds": what the op would take
on a host where the reference job takes its nominal time.

In-process work and fresh processes follow the drift differently, so
there are two references:

- Speedometer, for ops inside the benchmark process, runs at least every
  CALIBRATE_EVERY seconds of ops. Its job builds small dicts, lists and
  strings and encodes them as JSON: the interpreter, allocator and
  encoder work of anosurf's own ops. It runs with the cyclic collector
  off and frees all it made, so it neither triggers nor pays for a
  collection of the program's objects.
- ProcessReference, for fresh processes (cold ops and set-up), runs
  around every process measured. Its job is a child interpreter that
  imports a fixed set of standard modules.

No anosurf code runs in either job. Over five seeds, rescaling took the
spread of the sweep median op time from 0.38 to 0.02; a plain pointer
chase as the in-process job did not follow the drift, and the in-process
job does not follow fresh processes.
"""

from __future__ import annotations

import gc
import json
import sys
from time import perf_counter
from typing import Callable

REFERENCE_S = 0.001         # the in-process job's time on the reference host
REFERENCE_PROCESS_S = 0.1   # the reference process's time on the reference host
CALIBRATE_EVERY = 0.05      # seconds of in-process ops between two reference jobs
_ITEMS = 200
_REPEATS = 2
_ENCODER = json.JSONEncoder()
_REFERENCE_IMPORTS = ("import json, hashlib, dataclasses, fractions, re, enum, typing, "
                      "importlib.resources, pathlib")


def _reference_job() -> int:
    out = []
    for i in range(_ITEMS):
        out.append({"id": i, "rule": "x/" + str(i), "facts": {"k": i, "v": [i, i + 1]}})
    return len(_ENCODER.encode(out))


class Speedometer:
    every = CALIBRATE_EVERY

    def __init__(self):
        self.samples = []

    def calibrate(self) -> float:
        """Seconds for one reference job: the fastest of a few repeats,
        so that a single preemption does not count."""
        best = None
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(_REPEATS):
                t0 = perf_counter()
                _reference_job()
                dt = perf_counter() - t0
                best = dt if best is None else min(best, dt)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(best)
        return best

    def factor(self, before: float, after: float) -> float:
        """Multiplier from seconds measured between two reference jobs to
        reference seconds."""
        return REFERENCE_S / ((before + after) / 2)


class ProcessReference:
    """The fresh-process reference. `run(args)` runs a child process to
    completion, and raises if it fails."""

    every = 0.0  # around every process

    def __init__(self, run: Callable[[list], None]):
        self.run = run
        self.samples = []

    def calibrate(self) -> float:
        t0 = perf_counter()
        self.run([sys.executable, "-c", _REFERENCE_IMPORTS])
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self, before: float, after: float) -> float:
        return REFERENCE_PROCESS_S / ((before + after) / 2)
