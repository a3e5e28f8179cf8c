"""anosurf benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cold|sweep|export|laws --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the run measures ops for S seconds (and at least 100
ops) and reports the end-to-end metrics. With --trace 1 it runs a fixed,
seed-determined list of ops twice, untraced and then traced, and reports
the per-layer metrics plus the tracing overhead; its counters repeat
exactly for one seed. Every op's output is checked, and failed ops are
counted, not fatal. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
from array import array
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from checks import RULE_IDS, Expectations
from speed import ProcessReference, Speedometer
from tracer import Tracer, layer_metrics, rule_metric, trace_classification, trace_laws
from workloads import WORKLOADS, child_env, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100               # so that op_ms_p90 has ten samples beyond it
SETUP_PROCESSES = 7         # fresh processes timed per run for setup_s
TRACED_SETUP_PROCESSES = 3

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

SETUP_LAYERS = [
    ("anosurf.import_s", "s"),
    ("cli.import_s", "s"),
    ("catalog.load_s", "s"),
    ("catalog.load_unverified_s", "s"),
    ("spine.load_track_bundle_s", "s"),
    ("resources.files_read", "count"),
    ("resources.bytes_hashed", "B"),
]
COLD_STAGES = [
    ("cold.interpreter_s", "s"),
    ("cold.import_s", "s"),
    ("cold.load_s", "s"),
    ("cold.classify_s", "s"),
    ("cold.serialize_s", "s"),
    ("cold.cli_s", "s"),
]
OVERHEAD = [
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
]


def op_layers() -> list:
    counts = ["catalog.candidates", "catalog.complement_components.calls",
              "branched_surface.orientability.calls", "branched_surface.euler.calls",
              "classifier.traces", "classifier.steps", "classifier.serialized_bytes",
              "gc.collections.gen0", "gc.collections.gen1", "gc.collections.gen2",
              "traintrack.solutions", "traintrack.classes", "traintrack.violations"]
    times = ["catalog.candidates_s", "catalog.complement_components_s",
             "branched_surface.orientability_s", "branched_surface.euler_s",
             "classifier.chains_s", "classifier.classify_self_s", "classifier.serialize_s",
             "gc.pause_s", "traintrack.enumerate_s", "traintrack.fold_s", "traintrack.law_s"]
    return ([(n, "s") for n in times]
            + [(n, "B" if n.endswith("_bytes") else "count") for n in counts]
            + [(rule_metric(r), "count") for r in RULE_IDS])


def per_layer() -> list:
    return SETUP_LAYERS + op_layers() + COLD_STAGES + OVERHEAD


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Set-up and environment.


def import_program():
    if not (SRC / "anosurf" / "__init__.py").is_file():
        raise BenchError(f"no anosurf sources under {SRC}")
    os.environ.pop("ANOSURF_CATALOG", None)
    sys.path.insert(0, str(SRC))
    import anosurf
    if Path(anosurf.__file__).resolve().parent != (SRC / "anosurf").resolve():
        raise BenchError(f"anosurf was imported from {anosurf.__file__}, not from {SRC}")
    return anosurf


def run_reference(args: list) -> None:
    code, _, err, _ = run_child(args, child_env(SRC))
    if code != 0:
        raise BenchError(f"reference process exited {code}: {err.decode(errors='replace')[-800:]}")


def run_setup(tracks: bool, trace: bool, reference: ProcessReference) -> dict:
    """Set-up timings of one fresh process (setup_child.py), with
    "setup_ref_s": setup_s rescaled by reference processes around it."""
    before = reference.calibrate()
    code, out, err, _ = run_child(
        [sys.executable, str(HERE / "setup_child.py"), str(int(tracks)), str(int(trace))],
        child_env(SRC))
    if code != 0:
        raise BenchError(f"set-up process exited {code}: {err.decode(errors='replace')[-800:]}")
    report = json.loads(out)
    if not report["module"].startswith(str(SRC)):
        raise BenchError(f"set-up process imported anosurf from {report['module']}")
    report["setup_ref_s"] = report["setup_s"] * reference.factor(before, reference.calibrate())
    return report


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's files, so runs of one tree can be matched
    where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "anosurf").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Measurement.


class Measurement:
    """Op latencies of one pass, rescaled to reference seconds.

    A reference job runs whenever `speed.every` seconds have passed since
    the last one; the ops in between are rescaled by the mean of the
    reference jobs just before and just after them.
    """

    def __init__(self, speed):
        self.speed = speed
        # arrays, not lists of floats, so the benchmark's own memory barely
        # grows with the op count and peak_rss_mb stays the program's
        self.raw_latencies = array("d")  # seconds, one per op that returned
        self.latencies = array("d")      # the same in reference seconds
        self.errors = []
        self.attempted = 0
        self._before = speed.calibrate()
        self._since = perf_counter()

    def run_round(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            latency, error = op()
            if latency is not None:
                self.raw_latencies.append(latency)
            if error is not None:
                self.errors.append(error)
            if perf_counter() - self._since >= self.speed.every:
                self.flush()

    def flush(self) -> None:
        if len(self.latencies) == len(self.raw_latencies):
            return
        after = self.speed.calibrate()
        factor = self.speed.factor(self._before, after)
        self.latencies.extend(x * factor for x in self.raw_latencies[len(self.latencies):])
        self._before = after
        self._since = perf_counter()

    def restart(self) -> None:
        """Take a fresh reference after a pause in the ops."""
        self._before = self.speed.calibrate()
        self._since = perf_counter()

    def ops_per_s(self) -> float:
        """Completed ops per second of op time. The wall time of a run also
        holds the benchmark's checks, reference jobs and set-up processes,
        which are not the program's work."""
        return len(self.latencies) / sum(self.latencies)


def timed_run(workload, seconds: float, speed, reference: ProcessReference) -> tuple:
    """Rounds for `seconds` (and MIN_OPS ops), with the set-up processes
    spread evenly over the run, between rounds and outside every op's
    time, so that set-up samples the same minute as the ops.
    Returns (measurement, set-up reports)."""
    m = Measurement(speed)
    setups = [run_setup(workload.tracks, False, reference)]
    start = perf_counter()
    deadline = start + seconds
    for ops in workload.rounds():
        m.run_round(ops)
        now = perf_counter()
        if len(setups) < SETUP_PROCESSES and now >= start + len(setups) * seconds / SETUP_PROCESSES:
            m.flush()
            setups.append(run_setup(workload.tracks, False, reference))
            m.restart()
        if m.attempted >= MIN_OPS and now >= deadline:
            break
    m.flush()
    while len(setups) < SETUP_PROCESSES:
        setups.append(run_setup(workload.tracks, False, reference))
    m.errors.extend(workload.failures)
    return m, setups


def fixed_run(workload, traced: bool, speed) -> Measurement:
    m = Measurement(speed)
    for ops in workload.fixed_rounds(traced):
        m.run_round(ops)
    m.flush()
    return m


def percentiles(latencies) -> tuple:
    """(p50, p90) in milliseconds."""
    deciles = statistics.quantiles([x * 1000.0 for x in latencies], n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(workload, m: Measurement, setups: list) -> dict:
    p50, p90 = percentiles(m.latencies)
    if workload.name == "cold":
        rss_kib = workload.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": m.ops_per_s(),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "setup_s": statistics.median(r["setup_ref_s"] for r in setups),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def unscaled(m: Measurement, setups: list) -> dict:
    """The end-to-end times as measured, before rescaling, for the record."""
    p50, p90 = percentiles(m.raw_latencies)
    return {
        "ops_per_s": len(m.raw_latencies) / sum(m.raw_latencies),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "setup_s": statistics.median(r["setup_s"] for r in setups),
    }


def setup_layers(setups: list) -> dict:
    def med(key):
        return statistics.median(r[key] for r in setups)
    return {
        "anosurf.import_s": med("import_s"),
        "cli.import_s": med("cli_import_s"),
        "catalog.load_s": med("load_s"),
        "catalog.load_unverified_s": med("load_unverified_s"),
        "spine.load_track_bundle_s": med("tracks_s"),
        "resources.files_read": setups[0]["files_read"],
        "resources.bytes_hashed": setups[0]["bytes_hashed"],
    }


def traced_run(workload, speed) -> tuple:
    """Warm-up, untraced and traced pass over one fixed op list.

    The warm-up lets the heap and the interpreter's caches settle, so the
    untraced pass is comparable with the traced one that follows it.
    Returns (metrics, passes).
    """
    warm = fixed_run(workload, False, speed)
    plain = fixed_run(workload, False, speed)
    workload.run.clear()
    if workload.name == "cold":
        traced = fixed_run(workload, True, speed)
        layers = {}
        for report in workload.child_reports:
            for key, value in {**report["layers"], **report["stages"]}.items():
                layers[key] = layers.get(key, 0) + value
    else:
        with Tracer() as tracer:
            trace_classification(tracer)
            trace_laws(tracer)
            tracer.watch_gc()
            traced = fixed_run(workload, True, speed)
        layers = layer_metrics(tracer)
    untraced_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
    layers.update({
        "trace.ops_per_s_untraced": untraced_rate,
        "trace.ops_per_s_traced": traced_rate,
        "trace.overhead_ops_per_s": untraced_rate - traced_rate,
    })
    return layers, (warm, plain, traced)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cold", "sweep", "export", "laws"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        anosurf = import_program()
        load_before = os.getloadavg()
        reference = ProcessReference(run_reference)
        cls = WORKLOADS[args.workload]
        speed = reference if cls.fresh_process else Speedometer()
        expect = Expectations(SRC / "anosurf" / "_data")
        workload = cls(expect, args.seed, SRC)
        if args.trace:
            setups = [run_setup(cls.tracks, True, reference)
                      for _ in range(TRACED_SETUP_PROCESSES)]
            layers, passes = traced_run(workload, speed)
            values = {**dict.fromkeys((n for n, _ in per_layer()), 0),
                      **setup_layers(setups), **layers}
            units = per_layer()
        else:
            m, setups = timed_run(workload, args.seconds, speed, reference)
            passes = (m,)
            values = end_to_end(workload, m, setups)
            units = END_TO_END
            raw = unscaled(m, setups)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p.attempted for p in passes)
    errors = [e for p in passes for e in p.errors]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "anosurf": anosurf.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "ops": [p.attempted for p in passes],
        "reference_ms": {
            name: {"median": statistics.median(ref.samples) * 1000.0,
                   "quartiles": [q * 1000.0 for q in statistics.quantiles(ref.samples, n=4)],
                   "count": len(ref.samples)}
            for name, ref in (("in_process", speed), ("process", reference))},
        "sizes": workload.sizes(),
        "inputs": workload.inputs(),
        "failed_frac": len(errors) / attempted,
        "first_failures": errors[:5],
    }
    if not args.trace:
        record["unscaled"] = raw
    print("record " + json.dumps(record, sort_keys=True))
    metrics = {}
    for name, unit in units:
        value = values[name]
        print(f"{name:<52} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"{name:<52} {value:>16} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"{'failed_frac':<52} {record['failed_frac']:>16.6f} 1")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
