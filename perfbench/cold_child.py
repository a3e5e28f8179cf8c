"""One traced cold op: `anosurf classify SLOPE --format json --traces full`
in a fresh process, split into its stages.

Run by run.py with PYTHONPATH pointing at the checkout's src/:

    cold_child.py SPAWNED_AT SLOPE

SPAWNED_AT is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so the difference
to this script's first statement is the interpreter start. The CLI
output goes to stdout unchanged; the stage times and layer counters go
to stderr as one JSON line.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawned_at, slope = float(sys.argv[1]), sys.argv[2]
    t = time.perf_counter()
    from anosurf import cli
    import_s = time.perf_counter() - t

    from tracer import Tracer, layer_metrics, trace_classification
    tracer = Tracer()
    trace_classification(tracer, extra_classify_sites=[(cli, "classify")])
    tracer.wrap([(cli, "load_catalog")], "load")
    tracer.watch_gc()
    t = time.perf_counter()
    try:
        code = cli.main(["classify", slope, "--format", "json", "--traces", "full"])
    finally:
        command_s = time.perf_counter() - t
        tracer.restore()
    sys.stdout.flush()
    stages = {
        "cold.interpreter_s": started - spawned_at,
        "cold.import_s": import_s,
        "cold.load_s": tracer.total["load"],
        "cold.classify_s": tracer.total["classify"],
        "cold.serialize_s": tracer.total["serialize"],
        "cold.cli_s": command_s - tracer.total["load"] - tracer.total["classify"]
                      - tracer.total["serialize"],
    }
    report = {"module": cli.__file__, "stages": stages, "layers": layer_metrics(tracer)}
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
