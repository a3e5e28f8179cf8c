"""Command line front end.

Exit codes: 0 success, 2 usage, 130 interrupted; a package error exits
with its class's `AnosurfError.exit_code` (3 bad or unsupported slope,
4 a classification gap or a violated slope law, 5 unusable catalog data).
Any other status is a bug.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional

import click

from .catalog import check_catalog, load_catalog, slope_law_check, FAMILIES
from .classifier import ANCHORS, classify
from .errors import AnosurfError
from .slopes import is_hyperbolic, parse_slope, sorted_slopes, up_to_height
from .traintrack import MAX_LAW_BOUND

# Ceiling on `sweep --max`: the sweep visits about 1.2 * max^2 slopes, and
# 200 (48,927 slopes) is the largest documented sweep.
MAX_SWEEP_HEIGHT = 200


# A path that is missing or not a directory is a usage error (exit 2), not
# a silent fall back to the packaged data.
catalog_option = click.option(
    "--catalog", "catalog_path", default=None,
    type=click.Path(exists=True, file_okay=False),
    help="Directory shadowing the packaged catalog files.")

format_option = click.option("--format", "fmt", type=click.Choice(["table", "json"]),
                             default="table", show_default=True)


@click.group()
def cli():
    """Count Anosov flows on the fillings of the figure eight knot."""


# ignore_unknown_options lets negative slopes through without a "--"
@cli.command("classify", context_settings={"ignore_unknown_options": True})
@click.argument("slope")
@click.option("--traces", type=click.Choice(["none", "digest", "full"]),
              default="digest", show_default=True,
              help="How much of each exclusion argument to print.")
@format_option
@catalog_option
def classify_cmd(slope: str, traces: str, fmt: str, catalog_path: Optional[str]):
    """Classify the filling at SLOPE (for example 3, -2, 7/2, 0)."""
    s = parse_slope(slope)
    catalog = load_catalog(path=catalog_path)
    result = classify(s, catalog=catalog)
    if fmt == "json":
        click.echo(json.dumps(result.to_json(traces=traces), indent=2))
        return
    click.echo(f"slope {result.slope}: {result.kind}")
    click.echo(f"  hyperbolic filling: {'yes' if is_hyperbolic(s) else 'no'}")
    click.echo("  taut foliation: yes")
    if result.argument:
        click.echo("  argument:")
        for step in result.argument:
            click.echo(f"    {step.rule}")
            if traces == "full":
                click.echo(f"        {ANCHORS[step.rule]}")
    if result.traces and traces != "none":
        click.echo(f"  excluded candidates: {len(result.traces)}")
        for trace in result.traces:
            d = trace.digest()
            click.echo(f"    {d['entry']}: {' -> '.join(d['rules'])}")
            if traces == "full":
                for step in trace.steps:
                    click.echo(f"        [{step.rule}] {ANCHORS[step.rule]}")
    elif result.traces:
        click.echo(f"  excluded candidates: {len(result.traces)}")


@cli.command("sweep")
@click.option("--max", "max_height", type=click.IntRange(min=0, max=MAX_SWEEP_HEIGHT), default=50,
              show_default=True, help="Largest numerator and denominator to visit.")
@format_option
@catalog_option
def sweep_cmd(max_height: int, fmt: str, catalog_path: Optional[str]):
    """Classify every reduced slope q/p with p and |q| at most the bound."""
    catalog = load_catalog(path=catalog_path)
    started = time.monotonic()
    kinds = {}
    for s in up_to_height(max_height):
        kinds.setdefault(classify(s, catalog=catalog).kind, []).append(s)
    elapsed = time.monotonic() - started
    counts = {k: len(v) for k, v in sorted(kinds.items())}
    if fmt == "json":
        click.echo(json.dumps({
            "max": max_height,
            "counts": counts,
            "seconds": round(elapsed, 3),
            "slopes": {k: [str(s) for s in sorted_slopes(v)]
                       for k, v in sorted(kinds.items())},
        }, indent=2))
        return
    total = sum(counts.values())
    click.echo(f"swept {total} slopes up to {max_height} in {elapsed:.2f}s")
    for kind, count in counts.items():
        click.echo(f"  {kind}: {count}")


@cli.command("track")
@click.argument("family", type=click.Choice(list(FAMILIES)))
@click.option("--bound", type=click.IntRange(min=0, max=MAX_LAW_BOUND), default=20,
              show_default=True, help="Max weight per branch when enumerating solutions.")
@format_option
@catalog_option
def track_cmd(family: str, bound: int, fmt: str, catalog_path: Optional[str]):
    """Check the boundary slope law of a family's double cover track."""
    catalog = load_catalog(path=catalog_path)
    bundle = catalog.tracks[family]
    report = slope_law_check(catalog, family, bound=bound)
    realized = sorted_slopes(report.realized)
    if fmt == "json":
        click.echo(json.dumps({
            "family": family,
            "law": bundle.law.kind,
            "bound": bound,
            "branches": len(bundle.track.branches),
            "realized": [str(s) for s in realized],
            "violations": report.violations,
            "ok": report.ok,
        }, indent=2))
    else:
        click.echo(f"{family}: law {bundle.law.kind}, "
                   f"{len(bundle.track.branches)} branches, bound {bound}")
        click.echo(f"  realized slopes: {', '.join(str(s) for s in realized) or '(none)'}")
        if report.violations:
            click.echo("  violations:")
            for v in report.violations:
                click.echo(f"    {v}")
        else:
            click.echo("  law holds")
    report.raise_if_violated()


@cli.group("catalog")
def catalog_group():
    """Inspect the branched surface catalog."""


@catalog_group.command("list")
@format_option
@catalog_option
def catalog_list(fmt: str, catalog_path: Optional[str]):
    """List every entry with its family and exclusion class."""
    catalog = load_catalog(path=catalog_path)
    rows = [(e.id, e.family, e.exclusion_class, e.admissible.kind)
            for e in catalog]
    if fmt == "json":
        click.echo(json.dumps(
            [{"id": r[0], "family": r[1], "exclusion_class": r[2],
              "admissible": r[3]} for r in rows], indent=2))
        return
    width = max(len(r[0]) for r in rows)
    for r in rows:
        click.echo(f"{r[0]:<{width}}  {r[1]:<4} {r[2]:<12} {r[3]}")
    click.echo(f"({len(rows)} entries)")


@catalog_group.command("show")
@click.argument("entry_id")
@catalog_option
def catalog_show(entry_id: str, catalog_path: Optional[str]):
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
    click.echo(json.dumps(doc, indent=2))


@catalog_group.command("check")
@click.option("--laws/--no-laws", default=False,
              help="Also check every family's boundary slope law (slower).")
@click.option("--law-bound", type=click.IntRange(min=0, max=MAX_LAW_BOUND), default=6,
              show_default=True)
@format_option
@catalog_option
def catalog_check(laws: bool, law_bound: int, fmt: str, catalog_path: Optional[str]):
    """Verify checksums, counts, certificates and sector data."""
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
        click.echo(json.dumps({
            "entry_count": report.entry_count,
            "family_counts": report.family_counts,
            "stated_total": report.stated_total,
            "warnings": report.warnings,
            "problems": report.problems,
            "laws": law_results,
            "ok": report.ok,
        }, indent=2))
    else:
        click.echo(f"entries: {report.entry_count}")
        click.echo("per family: " + ", ".join(
            f"{f}={n}" for f, n in report.family_counts.items()))
        for w in report.warnings:
            click.echo(f"warning: {w}")
        for p in report.problems:
            click.echo(f"PROBLEM: {p}")
        if laws:
            for family, violations in law_results.items():
                status = "violated" if violations else "holds"
                click.echo(f"law {family}: {status}")
        click.echo("catalog ok" if report.ok else "catalog NOT ok")
    if not report.ok:
        click.echo(f"error: catalog check found {len(report.problems)} problem(s)",
                   err=True)
        raise click.exceptions.Exit(4)


def main(argv=None) -> int:
    """Entry point with stable exit codes."""
    try:
        # outside standalone mode click returns the code of an Exit raised
        # by a command, and the command's own result (None) otherwise
        return cli.main(args=argv, standalone_mode=False) or 0
    except click.exceptions.Abort:
        return 130
    except click.UsageError as exc:
        exc.show()
        return 2
    except AnosurfError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
