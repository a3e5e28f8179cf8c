"""Count Anosov flows on the fillings of the figure eight knot. Every
command that reads the catalog takes --catalog DIR, a directory that
shadows the packaged data files one by one. Exit codes: 0 success, 1
stdout closed before the output was written, 2 usage, 130 interrupted,
3 bad or unsupported slope, 4 a classification gap or a violated slope
law, 5 unusable catalog data. Any other status is a bug.
"""

import argparse
import gc
import json
import os
import sys
import time

from ._track import MAX_LAW_BOUND
from .catalog import check_catalog, load_catalog, slope_law_check, FAMILIES
from .classifier import ANCHORS, classify
from .errors import AnosurfError
from .slopes import is_hyperbolic, parse_slope, sorted_slopes, up_to_height

# Ceiling on `sweep --max`: the sweep visits about 1.2 * max^2 slopes, and
# 200 (48,927 slopes) is the largest documented sweep.
MAX_SWEEP_HEIGHT = 200


def _bounded(top: int):
    """Argument type: an integer from 0 to top."""
    def integer(text: str) -> int:
        if 0 <= int(text) <= top:
            return int(text)
        raise argparse.ArgumentTypeError(f"{text} is not in the range 0<=x<={top}")
    return integer


def _directory(text: str) -> str:
    """Argument type of --catalog: a path that is missing or not a directory
    is a usage error (exit 2), not a silent fall back to the packaged data."""
    if os.path.isdir(text):
        return text
    raise argparse.ArgumentTypeError(f"{text!r} is not a directory")


def classify_cmd(slope: str, traces: str, fmt: str, catalog_path: str | None):
    """Classify the filling at SLOPE (for example 3, -2, 7/2, 0).

    --traces (default digest) sets how much of each exclusion argument to
    print; --format defaults to table.
    """
    s = parse_slope(slope)
    catalog = load_catalog(path=catalog_path)
    result = classify(s, catalog=catalog)
    if fmt == "json":
        print(json.dumps(result.to_json(traces=traces), indent=2))
        return
    print(f"slope {result.slope}: {result.kind}")
    print(f"  hyperbolic filling: {'yes' if is_hyperbolic(s) else 'no'}")
    print("  taut foliation: yes")
    if result.argument:
        print("  argument:")
        for step in result.argument:
            print(f"    {step.rule}")
            if traces == "full":
                print(f"        {ANCHORS[step.rule]}")
    if result.traces and traces != "none":
        print(f"  excluded candidates: {len(result.traces)}")
        for trace in result.traces:
            d = trace.digest()
            print(f"    {d['entry']}: {' -> '.join(d['rules'])}")
            if traces == "full":
                for step in trace.steps:
                    print(f"        [{step.rule}] {ANCHORS[step.rule]}")
    elif result.traces:
        print(f"  excluded candidates: {len(result.traces)}")


def sweep_cmd(max_height: int, fmt: str, catalog_path: str | None):
    """Classify every reduced slope q/p with p and |q| at most the bound.

    --max is the bound, the largest numerator and denominator to visit
    (default 50).
    """
    catalog = load_catalog(path=catalog_path)
    started = time.monotonic()
    kinds = {}
    for s in up_to_height(max_height):
        kinds.setdefault(classify(s, catalog=catalog).kind, []).append(s)
    elapsed = time.monotonic() - started
    counts = {k: len(v) for k, v in sorted(kinds.items())}
    if fmt == "json":
        print(json.dumps({
            "max": max_height,
            "counts": counts,
            "seconds": round(elapsed, 3),
            "slopes": {k: [str(s) for s in sorted_slopes(v)]
                       for k, v in sorted(kinds.items())},
        }, indent=2))
        return
    total = sum(counts.values())
    print(f"swept {total} slopes up to {max_height} in {elapsed:.2f}s")
    for kind, count in counts.items():
        print(f"  {kind}: {count}")


def track_cmd(family: str, bound: int, fmt: str, catalog_path: str | None):
    """Check the boundary slope law of a family's double cover track.

    --bound is the max weight per branch when enumerating solutions
    (default 20).
    """
    catalog = load_catalog(path=catalog_path)
    bundle = catalog.tracks[family]
    report = slope_law_check(catalog, family, bound=bound)
    realized = sorted_slopes(report.realized)
    if fmt == "json":
        print(json.dumps({
            "family": family,
            "law": bundle.law.kind,
            "bound": bound,
            "branches": len(bundle.track.branches),
            "realized": [str(s) for s in realized],
            "violations": report.violations,
            "ok": report.ok,
        }, indent=2))
    else:
        print(f"{family}: law {bundle.law.kind}, {len(bundle.track.branches)} branches, bound {bound}")
        print(f"  realized slopes: {', '.join(str(s) for s in realized) or '(none)'}")
        if report.violations:
            print("  violations:")
            for v in report.violations:
                print(f"    {v}")
        else:
            print("  law holds")
    report.raise_if_violated()


def catalog_list(fmt: str, catalog_path: str | None):
    """List every entry with its family and exclusion class."""
    catalog = load_catalog(path=catalog_path)
    rows = [(e.id, e.family, e.exclusion_class, e.admissible.kind)
            for e in catalog]
    if fmt == "json":
        print(json.dumps([{"id": r[0], "family": r[1], "exclusion_class": r[2], "admissible": r[3]}
                          for r in rows], indent=2))
        return
    width = max(len(r[0]) for r in rows)
    for r in rows:
        print(f"{r[0]:<{width}}  {r[1]:<4} {r[2]:<12} {r[3]}")
    print(f"({len(rows)} entries)")


def catalog_show(entry_id: str, catalog_path: str | None):
    """Dump one entry as JSON."""
    catalog = load_catalog(path=catalog_path)
    entry = catalog.get(entry_id)
    doc = {
        "id": entry.id,
        "family": entry.family,
        "summary": entry.summary,
        "admissible": entry.admissible.to_json(),
        "exclusion_class": entry.exclusion_class,
        "orientable": entry.orientable,
        "disk_sectors": list(entry.disk_sectors),
        "complement": list(entry.complement),
    }
    if entry.orientation_graph is not None:
        doc["orientation_graph"] = entry.orientation_graph
    if entry.euler is not None:
        doc["euler"] = entry.euler
    if entry.sector_pairs:
        doc["sector_pairs"] = [list(p) for p in entry.sector_pairs]
    if entry.vacant_annulus:
        doc["vacant_annulus"] = entry.vacant_annulus
    if entry.split_curves:
        doc["split_curves"] = list(entry.split_curves)
    if entry.notes:
        doc["notes"] = entry.notes
    print(json.dumps(doc, indent=2))


def catalog_check(laws: bool, law_bound: int, fmt: str, catalog_path: str | None):
    """Verify checksums, counts, certificates and sector data.

    --laws also checks every family's boundary slope law (slower), up to
    the weight --law-bound (default 6).
    """
    catalog = load_catalog(path=catalog_path)
    report = check_catalog(catalog)
    law_results = {}
    if laws:
        for family in FAMILIES:
            law_report = slope_law_check(catalog, family, bound=law_bound)
            law_results[family] = law_report.violations
            if law_report.violations:
                report.problems.append(
                    f"{family}: slope law violated ({len(law_report.violations)})")
    if fmt == "json":
        print(json.dumps({
            "entry_count": report.entry_count,
            "family_counts": report.family_counts,
            "stated_total": report.stated_total,
            "warnings": report.warnings,
            "problems": report.problems,
            "laws": law_results,
            "ok": report.ok,
        }, indent=2))
    else:
        print(f"entries: {report.entry_count}")
        print("per family: " + ", ".join(f"{f}={n}" for f, n in report.family_counts.items()))
        for w in report.warnings:
            print(f"warning: {w}")
        for p in report.problems:
            print(f"PROBLEM: {p}")
        if laws:
            for family, violations in law_results.items():
                status = "violated" if violations else "holds"
                print(f"law {family}: {status}")
        print("catalog ok" if report.ok else "catalog NOT ok")
    if not report.ok:
        print(f"error: catalog check found {len(report.problems)} problem(s)", file=sys.stderr)
        return 4


def _parser() -> argparse.ArgumentParser:
    """The command line's parser, on the standard library's argparse: the
    module docstring describes the program, and each command's docstring
    the command."""
    parser = argparse.ArgumentParser(prog="anosurf", description=__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    group = commands.add_parser("catalog", help="Inspect the branched surface catalog.")
    group = group.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name, run, fmt=True):
        doc = run.__doc__ or ""  # None under python -OO
        sub = group.add_parser(name, help=doc.partition("\n")[0], description=doc)
        sub.set_defaults(command=run)
        if fmt:
            sub.add_argument("--format", dest="fmt", choices=["table", "json"], default="table")
        sub.add_argument("--catalog", dest="catalog_path", type=_directory, metavar="DIR")
        return sub

    sub = command(commands, "classify", classify_cmd)
    sub.add_argument("slope")
    sub.add_argument("--traces", choices=["none", "digest", "full"], default="digest")
    sub = command(commands, "sweep", sweep_cmd)
    sub.add_argument("--max", dest="max_height", type=_bounded(MAX_SWEEP_HEIGHT), default=50)
    sub = command(commands, "track", track_cmd)
    sub.add_argument("family", choices=list(FAMILIES))
    sub.add_argument("--bound", type=_bounded(MAX_LAW_BOUND), default=20)
    command(group, "list", catalog_list)
    command(group, "show", catalog_show, fmt=False).add_argument("entry_id")
    sub = command(group, "check", catalog_check)
    sub.add_argument("--laws", action=argparse.BooleanOptionalAction, default=False)
    sub.add_argument("--law-bound", type=_bounded(MAX_LAW_BOUND), default=6)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point with stable exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["classify"] and "--" not in argv:
        # argparse reads "-7/2" as an unknown option; behind "--" it is the slope
        negative = [a for a in argv if a[:1] == "-" and a[1:2].isdigit()]
        argv = [a for a in argv if a not in negative] + ["--", *negative] if negative else argv
    try:
        args = vars(_parser().parse_args(argv))
        return args.pop("command")(**args) or 0
    except SystemExit as exc:
        # argparse exits 2 after a usage error and 0 after --help
        return exc.code
    except KeyboardInterrupt:
        return 130
    except AnosurfError as exc:
        # each package error class carries its own exit code
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    """Program entry: the `anosurf` console script and `python -m anosurf.cli`.

    A stdout that nobody reads (a closed pipe) fails the command, or the
    flush after it at the latest, with BrokenPipeError: the exit status
    is then 1, and stdout goes to /dev/null so that the interpreter's own
    flush at exit succeeds and stderr stays empty. Once the command has
    returned, the heap is frozen, so the exiting interpreter's cycle
    collections skip every object alive by then, most of them made by
    import. `main` never freezes: tests and library callers run it
    in-process.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
