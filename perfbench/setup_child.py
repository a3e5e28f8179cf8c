"""One fresh process's set-up: import anosurf, verified load_catalog().

Run by run.py with PYTHONPATH pointing at the checkout's src/. Prints
one JSON line of timings in seconds.

    setup_child.py TRACKS TRACE

TRACKS=1 also loads the eleven track bundles, as the laws workload does
before its first op. TRACE=1 counts the data files read and bytes hashed
by set-up, and then times the layers that set-up does not need: the
click front end, an unverified load and (when TRACKS=0) the track
bundles.
"""

import json
import sys
import time


def main() -> int:
    tracks, trace = sys.argv[1] == "1", sys.argv[2] == "1"
    start = time.perf_counter()
    import anosurf
    from anosurf import catalog, spine
    imported = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer, trace_resources
        tracer = Tracer()
        trace_resources(tracer)
    begin_load = time.perf_counter()
    catalog.load_catalog()
    loaded = time.perf_counter()
    if tracks:
        for family in catalog.FAMILIES:
            spine.load_track_bundle(family)
    done = time.perf_counter()
    out = {
        "module": anosurf.__file__,
        "setup_s": (imported - start) + (done - begin_load),
        "import_s": imported - start,
        "load_s": loaded - begin_load,
    }
    if trace:
        out["files_read"] = tracer.counts["resources.files_read"]
        out["bytes_hashed"] = tracer.counts["resources.bytes_hashed"]
        tracer.restore()
        if tracks:
            out["tracks_s"] = done - loaded
        else:
            t = time.perf_counter()
            for family in catalog.FAMILIES:
                spine.load_track_bundle(family)
            out["tracks_s"] = time.perf_counter() - t
        t = time.perf_counter()
        import anosurf.cli  # noqa: F401
        out["cli_import_s"] = time.perf_counter() - t
        t = time.perf_counter()
        catalog.load_catalog(verify=False)
        out["load_unverified_s"] = time.perf_counter() - t
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
