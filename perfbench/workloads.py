"""The four workloads: seeded inputs, one op each, and output checks.

Every workload yields rounds of ops. An op is a callable returning
(latency in seconds, error text or None); only the program's work is
inside the latency, the benchmark's checks are not. Checks run with the
cyclic collector paused, so a collection that their allocations make
due runs inside the next op, where a real caller would pay for it.

Load is closed loop with one client: the next op starts when the
previous one has returned.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path
from time import monotonic, perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from checks import Expectations, QP

Op = Callable[[], Tuple[Optional[float], Optional[str]]]

LAW_BOUND = 20          # the acceptance gate's bound; never enumerate_solutions here
SWEEP_HEIGHT = 50       # the height-50 grid of the acceptance sweep, 3095 slopes
CERTIFICATE = 2048      # export results kept together before they are released
CLI_ARGS = ("--format", "json", "--traces", "full")


def qp_name(slope: QP) -> str:
    q, p = slope
    return str(q) if p == 1 else f"{q}/{p}"


def grid(height: int) -> List[QP]:
    return [(q, p) for p in range(1, height + 1) for q in range(-height, height + 1)
            if gcd(p, abs(q)) == 1]


def slope_shares(slopes: List[QP], expect: Expectations) -> dict:
    """Input properties that decide which code paths a slope takes."""
    n = len(slopes)
    if not n:
        return {}
    integer = sum(1 for _, p in slopes if p == 1)
    p2 = sum(1 for _, p in slopes if p == 2)
    candidates = sum(len(expect.admissible(s)) for s in slopes if s[1] != 1)
    return {
        "slopes": n,
        "integer_share": integer / n,
        "p2_share": p2 / n,
        "p3plus_share": (n - integer - p2) / n,
        "candidates_per_slope": candidates / n,
        "distinct_share": len(set(slopes)) / n,
    }


class Workload:
    """Base: subclasses set name and tracks, and implement the rounds."""

    name = ""
    tracks = False          # whether set-up also loads the eleven track bundles
    fresh_process = False   # whether each op is a fresh process

    def __init__(self, expect: Expectations, seed: int, src: Path):
        self.expect = expect
        self.seed = seed
        self.src = src
        self.failures: List[str] = []
        self.run: list = []  # the input of every op run so far

    def rounds(self) -> Iterator[List[Op]]:
        """Ops for a timed run, without end; the run stops between rounds."""
        raise NotImplementedError

    def fixed_rounds(self, traced: bool) -> List[List[Op]]:
        """The same ops on every call with one seed, for traced runs."""
        raise NotImplementedError

    def inputs(self) -> dict:
        return slope_shares(self.run, self.expect)

    def sizes(self) -> dict:
        return {}


def _checked(check: Callable[[], Optional[str]]) -> Optional[str]:
    gc.disable()
    try:
        return check()
    except Exception as exc:  # a check that crashes is a failed op
        return f"check raised {exc!r}"
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Warm workloads: the benchmark process is the program.


class Sweep(Workload):
    """classify() over the height-50 grid in seeded order, results dropped
    once their kind is tallied, as `anosurf sweep` does."""

    name = "sweep"

    def __init__(self, expect, seed, src, height: int = SWEEP_HEIGHT):
        super().__init__(expect, seed, src)
        from anosurf import catalog
        self.catalog = catalog.load_catalog()
        self.grid = grid(height)
        self.admissible = {s: expect.admissible(s) for s in self.grid}
        self.want_tally = Counter(
            "NoAnosov" if p != 1 else ("SuspensionAnosov" if q == 0 else "UniqueAnosov")
            for q, p in self.grid)
        self.passes = 0

    def _passes(self) -> Iterator[List[QP]]:
        rng = random.Random(self.seed)
        while True:
            order = list(self.grid)
            rng.shuffle(order)
            yield order

    def _op(self, slope: QP, tally: Counter) -> Op:
        from anosurf import classifier
        from anosurf.slopes import Slope
        s = Slope(*slope)
        catalog, expect, admissible = self.catalog, self.expect, self.admissible[slope]

        def op():
            self.run.append(slope)
            t0 = perf_counter()
            try:
                result = classifier.classify(s, catalog)
                tally[result.kind] += 1
            except Exception as exc:
                return None, f"{qp_name(slope)}: {exc!r}"
            latency = perf_counter() - t0
            error = _checked(lambda: expect.check_result(slope, result, admissible))
            t0 = perf_counter()
            del result
            return latency + perf_counter() - t0, error
        return op

    def rounds(self):
        for order in self._passes():
            tally = Counter()
            for slope in order:
                yield [self._op(slope, tally)]
            self.passes += 1
            if tally != self.want_tally:
                self.failures.append(f"pass {self.passes}: tally {dict(tally)} "
                                     f"!= {dict(self.want_tally)}")

    def fixed_rounds(self, traced):
        tally = Counter()
        return [[self._op(s, tally)] for s in next(self._passes())]

    def sizes(self):
        return {"grid_slopes": len(self.grid), "complete_passes": self.passes}


def shell(height: int) -> List[QP]:
    """The reduced slopes of exactly this height: max(|q|, p) == height."""
    return ([(q, p) for p in range(1, height) if gcd(p, height) == 1 for q in (-height, height)]
            + [(q, height) for q in range(-height, height + 1) if gcd(height, abs(q)) == 1])


def export_slopes(seed: int) -> Iterator[QP]:
    """The reduced grids of the acceptance sweep, walked in order of height,
    in seeded order within each height: every slope once, so no slope
    repeats, and the denominators and heights mix as in the documented
    sweeps (height 50 holds 3095 slopes, height 200 holds 48,927)."""
    rng = random.Random(seed)
    height = 0
    while True:
        height += 1
        slopes = shell(height)
        rng.shuffle(slopes)
        yield from slopes


class Export(Workload):
    """classify() + to_json("full") + json.dumps per distinct slope, the
    results kept as a certificate file builder keeps them."""

    name = "export"

    def __init__(self, expect, seed, src, certificate: int = CERTIFICATE):
        super().__init__(expect, seed, src)
        from anosurf import catalog
        self.catalog = catalog.load_catalog()
        self.certificate_size = certificate
        self.kept: list = []
        self.certificates = 0
        self.slopes = export_slopes(seed)

    def _op(self, slope: QP) -> Op:
        from anosurf import classifier
        from anosurf.slopes import Slope
        s = Slope(*slope)
        catalog, expect, kept = self.catalog, self.expect, self.kept

        def op():
            self.run.append(slope)
            t0 = perf_counter()
            try:
                result = classifier.classify(s, catalog)
                doc = result.to_json("full")
                text = json.dumps(doc)
                kept.append(result)
            except Exception as exc:
                return None, f"{qp_name(slope)}: {exc!r}"
            latency = perf_counter() - t0
            error = _checked(lambda: expect.check_document(slope, doc)
                             or (None if json.loads(text) == doc else "JSON text differs"))
            t0 = perf_counter()
            del result, doc, text
            if len(kept) >= self.certificate_size:
                self.certificates += 1
                kept.clear()
            return latency + perf_counter() - t0, error
        return op

    def rounds(self):
        while True:
            yield [self._op(next(self.slopes))]

    def fixed_rounds(self, traced):
        slopes = export_slopes(self.seed)
        return [[self._op(next(slopes))] for _ in range(self.certificate_size)]

    def sizes(self):
        return {"certificate_slopes": self.certificate_size,
                "complete_certificates": self.certificates}


class Laws(Workload):
    """slope_law_check at bound 20 for one family per op, families in
    seeded order, one round per pass over all eleven."""

    name = "laws"
    tracks = True

    def __init__(self, expect, seed, src):
        super().__init__(expect, seed, src)
        from anosurf import catalog, spine
        self.catalog = catalog.load_catalog()
        for family in catalog.FAMILIES:
            spine.load_track_bundle(family)
        self.families = list(catalog.FAMILIES)
        self.order = random.Random(seed)
        self.realized: Dict[str, frozenset] = {}

    def _op(self, family: str) -> Op:
        from anosurf import catalog as catalog_mod
        catalog, expect = self.catalog, self.expect

        def op():
            self.run.append(family)
            t0 = perf_counter()
            try:
                report = catalog_mod.slope_law_check(catalog, family, bound=LAW_BOUND)
            except Exception as exc:
                return None, f"{family}: {exc!r}"
            latency = perf_counter() - t0

            def check():
                realized = frozenset((s.q, s.p) for s in report.realized)
                first = self.realized.setdefault(family, realized)
                if first != realized:
                    return f"{family}: {len(realized)} realized slopes, first op had {len(first)}"
                return expect.check_law_report(family, report)
            error = _checked(check)
            t0 = perf_counter()
            del report
            return latency + perf_counter() - t0, error
        return op

    def _round(self, rng: random.Random) -> List[Op]:
        order = list(self.families)
        rng.shuffle(order)
        return [self._op(f) for f in order]

    def rounds(self):
        while True:
            yield self._round(self.order)

    def fixed_rounds(self, traced):
        rng = random.Random(self.seed)
        return [self._round(rng) for _ in range(2)]

    def inputs(self):
        n = len(self.run)
        return {"ops": n, "families": len(self.families), "bound": LAW_BOUND,
                "distinct_share": len(set(self.run)) / n if n else 0.0}

    def sizes(self):
        return {"families": len(self.families), "law_bound": LAW_BOUND}


# ---------------------------------------------------------------------------
# Cold: one fresh CLI process per op.


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ANOSURF_CATALOG"}
    env["PYTHONPATH"] = str(src)
    return env


def run_child(args: List[str], env: dict) -> Tuple[int, bytes, bytes, int]:
    """Run a child to completion: (exit code, stdout, stderr, peak RSS in KiB).

    The child is reaped with wait4 so its own peak RSS is known.
    """
    proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def cold_slopes(seed: int) -> Iterator[QP]:
    """Slopes drawn uniformly, with repeats, from the height-50 grid of the
    acceptance sweep."""
    rng = random.Random(seed)
    slopes = grid(SWEEP_HEIGHT)
    while True:
        yield rng.choice(slopes)


class Cold(Workload):
    """`anosurf classify SLOPE --format json --traces full` in a fresh
    process per op; the op is the whole process lifetime."""

    name = "cold"
    fresh_process = True
    TRACED_OPS = 10

    def __init__(self, expect, seed, src):
        super().__init__(expect, seed, src)
        self.env = child_env(src)
        self.slopes = cold_slopes(seed)
        self.peak_rss_kib = 0
        self.child_reports: List[dict] = []

    def _check_output(self, slope: QP, code: int, out: bytes, err: bytes) -> Optional[str]:
        if code != 0:
            return f"{qp_name(slope)}: exit {code}: {err.decode(errors='replace')[-300:]}"
        return self.expect.check_document(slope, json.loads(out))

    def _op(self, slope: QP, traced: bool = False) -> Op:
        def op():
            self.run.append(slope)
            if traced:
                args = [sys.executable, str(Path(__file__).with_name("cold_child.py")),
                        repr(monotonic()), qp_name(slope)]
            else:
                args = [sys.executable, "-m", "anosurf.cli", "classify", qp_name(slope),
                        *CLI_ARGS]
            t0 = perf_counter()
            code, out, err, rss = run_child(args, self.env)
            latency = perf_counter() - t0
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            if traced and code == 0:
                report = json.loads(err.decode().strip().splitlines()[-1])
                if not report["module"].startswith(str(self.src)):
                    return None, f"child imported anosurf from {report['module']}"
                self.child_reports.append(report)
            return latency, _checked(lambda: self._check_output(slope, code, out, err))
        return op

    def rounds(self):
        while True:
            yield [self._op(next(self.slopes))]

    def fixed_rounds(self, traced):
        slopes = cold_slopes(self.seed)
        return [[self._op(next(slopes), traced)] for _ in range(self.TRACED_OPS)]


WORKLOADS = {w.name: w for w in (Cold, Sweep, Export, Laws)}
