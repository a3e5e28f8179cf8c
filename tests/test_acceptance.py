"""Acceptance gates for the whole engine.

Nine tests, each pinning one externally visible guarantee: the
integer dichotomy over the full slope grid, admissibility against an
independent oracle, the hyperbolicity table,
the boundary slope laws at bound twenty, orientability certificates,
Euler characteristic bookkeeping, fuzzed exclusion chains, catalog
integrity, and exact agreement of the enumerator with an independent
oracle.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from oracles import (oracle_admissible, oracle_slope_pairs, oracle_solutions,
                     verify_orientation_certificate)
from trackgen import random_track_doc

from anosurf.branched_surface import (
    detect_sink_disks,
    euler_characteristic,
    is_transversely_orientable,
)
from anosurf.catalog import CatalogEntry, check_catalog, slope_law_check
from anosurf.classifier import classify, exclusion_trace
from anosurf.cli import main as cli_main
from anosurf.errors import ClassificationGapError
from anosurf.slopes import INFINITY, AdmissibleSet, Slope, eval_admissible, is_hyperbolic
from anosurf.traintrack import TrainTrack, carried_classes
from conftest import all_solutions, load_data_json

FAMILIES = [f"Q{i}" for i in range(1, 12)]


def grid_slopes(height):
    for p in range(1, height + 1):
        for q in range(-height, height + 1):
            if math.gcd(p, abs(q)) == 1:
                yield Slope(q, p)


def raw_admissible_records():
    """Entry id -> the admissible record of its shipped JSON."""
    return {doc["id"]: doc["admissible"]
            for doc in map(load_data_json, load_data_json("catalog/manifest.json")["entry_files"])}


def test_integer_dichotomy_over_the_full_grid(catalog):
    """Integers carry exactly one flow, zero the suspension, everything
    else none, each non-carrier excluded entry by entry, in under ten
    seconds for the whole height fifty grid."""
    records = raw_admissible_records()
    assert set(records) == {e.id for e in catalog}
    started = time.monotonic()
    seen = 0
    for s in grid_slopes(50):
        result = classify(s, catalog)
        seen += 1
        if s.p == 1 and s.q == 0:
            assert result.kind == "SuspensionAnosov"
        elif s.p == 1:
            assert result.kind == "UniqueAnosov"
        else:
            assert result.kind == "NoAnosov"
            expected = sorted(eid for eid, doc in records.items()
                              if oracle_admissible(doc, s.q, s.p))
            assert sorted(t.entry for t in result.traces) == expected
        assert result.taut_foliation is True
    elapsed = time.monotonic() - started
    assert seen == 3095
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_admissibility_matches_the_oracle(catalog):
    records = raw_admissible_records()
    assert len(records) == 38
    slopes = [*grid_slopes(50), INFINITY]
    for entry in catalog:
        doc = records[entry.id]
        for s in slopes:
            assert eval_admissible(entry.admissible, s) == oracle_admissible(doc, s.q, s.p), \
                (entry.id, str(s))


def test_hyperbolic_fillings_over_the_grid():
    non_hyperbolic = {s for s in grid_slopes(50) if not is_hyperbolic(s)}
    assert non_hyperbolic == {Slope(q, 1) for q in range(-4, 5)}
    # the trivial filling sits outside the grid and is not hyperbolic either
    assert not is_hyperbolic(INFINITY)


def test_boundary_slope_laws_at_bound_twenty(catalog):
    for family in FAMILIES:
        report = slope_law_check(catalog, family, bound=20)
        assert report.ok, (family, report.violations)

    # constant law families, re-read off the raw class reports
    constants = {"Q1": {Slope(0, 1)}, "Q3": {Slope(4, 1)},
                 "Q5": {Slope(4, 1)}, "Q10": {Slope(4, 1)},
                 "Q11": {Slope(4, 1)},
                 "Q6": {INFINITY}, "Q7": {INFINITY}, "Q8": {INFINITY}}
    for family, expected in constants.items():
        bundle = catalog.tracks[family]
        assert carried_classes(bundle.track, 20).slopes() == expected, family

    def role_sums(bundle, witness, *roles):
        return [sum(witness[b] for b in bundle.designated[r]) for r in roles]

    # the cover over the unbranched torus with doubled curves realizes
    # every slope of height six, each class matching (mu - nu) / omega
    bundle = catalog.tracks["Q2"]
    report = carried_classes(bundle.track, 20)
    wanted = {INFINITY} | set(grid_slopes(6))
    assert wanted <= report.slopes()
    for (p, q), witness in report.classes.items():
        omega, mu, nu = role_sums(bundle, witness, "omega", "mu", "nu")
        assert (p, q) == (omega, mu - nu)

    # the mixed family realizes exactly 3 + (mu + nu) / omega with
    # omega >= 2, mu >= 1 and 1 <= nu < omega; each realized slope gets
    # an explicit member triple
    bundle = catalog.tracks["Q4"]
    report = carried_classes(bundle.track, 20)
    for (p, q), witness in report.classes.items():
        omega, mu, nu = role_sums(bundle, witness, "omega", "mu", "nu")
        assert p == omega and q == 3 * omega + mu + nu
        assert mu >= 1
    for s in report.slopes():
        assert not s.is_infinity and s.as_fraction() > 3
        excess = s.as_fraction() - 3
        omega, mu, nu = 2 * excess.denominator, 2 * excess.numerator - 1, 1
        assert omega >= 2 and mu >= 1 and 1 <= nu < omega
        assert Fraction(mu + nu, omega) == excess

    # the genus witness family matches (g + h - e - f - i) / g whenever
    # the leading role is positive
    bundle = catalog.tracks["Q9"]
    report = carried_classes(bundle.track, 20)
    saw_positive_g = False
    for (p, q), witness in report.classes.items():
        g, h, e, f, i = role_sums(bundle, witness, "g", "h", "e", "f", "i")
        assert (p, q) == (g, g + h - e - f - i)
        saw_positive_g = saw_positive_g or g > 0
    assert saw_positive_g

    # class level agreement with the independent grid oracle
    for family in FAMILIES:
        doc = load_data_json(f"tracks/{family}.json")
        bundle = catalog.tracks[family]
        mine = {(s.p, s.q) for s in carried_classes(bundle.track, 6).slopes()}
        assert oracle_slope_pairs(doc["track"], 6) == mine, family


def test_orientability_certificates(catalog):
    # the paper's split, as the entries' own graphs colour it
    certified = {e.id: e.orientation.orientable for e in catalog if e.orientation is not None}
    assert {i for i, v in certified.items() if v} == {"B6", "B7", "B8", "B9"}
    assert {i for i, v in certified.items() if not v} == {"B3"}

    for entry_id in ("B6", "B7", "B8", "B9"):
        entry = catalog.get(entry_id)
        result = is_transversely_orientable(entry.orientation_graph)
        assert result.orientable is True
        assert result.coloring and set(result.coloring.values()) <= {1, -1}
        assert verify_orientation_certificate(entry.orientation_graph, result.orientable,
                                              result.coloring, result.obstruction)

    b3 = catalog.get("B3")
    result = is_transversely_orientable(b3.orientation_graph)
    assert result.orientable is False
    known = {edge["id"] for edge in b3.orientation_graph["edges"]}
    assert result.obstruction and set(result.obstruction) <= known
    assert verify_orientation_certificate(b3.orientation_graph, result.orientable,
                                          result.coloring, result.obstruction)


def test_euler_characteristics_agree(catalog):
    recorded = {e.id: e.euler for e in catalog if e.euler is not None}
    expected = {"B1": 0, "B2": -1, "B3": 0, "B4": -1, "B9_M": -3}
    assert set(recorded) == set(expected)
    for entry_id, euler in recorded.items():
        chi_surface = euler_characteristic(euler["surface_cw"])
        chi_complement = euler_characteristic(euler["complement_cw"])
        assert chi_surface == chi_complement == expected[entry_id], entry_id


def _consistent_graph(rng, broken=False):
    n = rng.randint(1, 6)
    nodes = [f"s{i}" for i in range(n)]
    colors = {v: rng.choice((1, -1)) for v in nodes}
    edges = []

    def join(u, v):
        edges.append({"id": f"e{len(edges)}", "from": u, "to": v,
                      "flip": colors[u] != colors[v]})

    for i in range(1, n):
        join(nodes[i], nodes[rng.randrange(i)])
    for _ in range(rng.randint(0, 4)):
        join(rng.choice(nodes), rng.choice(nodes))
    if broken:
        v = rng.choice(nodes)
        edges.append({"id": f"e{len(edges)}", "from": v, "to": v, "flip": True})
    return {"nodes": nodes, "edges": edges}


def _synthetic_annulus_entry(rng, orientable):
    """An annulus sector entry whose graph is consistent (orientable True),
    has an odd flip cycle (False), or is absent (None)."""
    graph = None if orientable is None else _consistent_graph(rng, broken=not orientable)
    return CatalogEntry(
        id="Zfuzz", family="Q6", summary="synthetic annulus sector entry",
        admissible=AdmissibleSet(kind="AllRationals"),
        exclusion_class="BasicTypeII",
        orientation_graph=graph,
        sector_pairs=(("u.A", "v.A"),),
    )


def _coprime_numerator(rng, p, span):
    return rng.choice([q for q in range(-span, span + 1)
                       if math.gcd(p, abs(q)) == 1])


def test_fuzzed_exclusion_chains():
    """No synthetic entry is ever accepted at denominator two or more.

    Denominators of three or more die on the power bound alone; exactly
    two must pass through the orientability contradiction, and without
    a verified certificate the chain refuses to conclude instead of
    guessing."""
    rng = random.Random(2026)
    forbidden = {"ForcesIntegerSlope", "YieldsCoreOrbit"}

    for _ in range(300):
        orientable = rng.choice((True, False, None))
        entry = _synthetic_annulus_entry(rng, orientable)
        p = rng.randint(2, 12)
        slope = Slope(_coprime_numerator(rng, p, 25), p)
        if p >= 3:
            trace = exclusion_trace(entry, slope)
            rules = trace.digest()["rules"]
            assert trace.conclusion == "Excludes"
            assert rules[-1] == "fenley/power-bound"
        elif orientable is True:
            trace = exclusion_trace(entry, slope)
            rules = trace.digest()["rules"]
            assert trace.conclusion == "Excludes"
            assert rules[-1] == "carried/orientable-contradiction"
        else:
            with pytest.raises(ClassificationGapError):
                exclusion_trace(entry, slope)
            continue
        assert trace.conclusion not in forbidden

    pieces = {
        "TypeI": {"kind": "SolidTorus", "annulus_wrap": [2], "meridian_hits": 2},
        "SplitTypeII": {"kind": "SolidTorus", "annulus_wrap": [2, 2], "meridian_hits": 2},
        "R7Cusps": {"kind": "SolidTorus", "annulus_wrap": [1, 1, 1], "meridian_hits": 3},
        "DiskLeaf": {"kind": "TorusCrossInterval"},
    }
    for _ in range(100):
        klass = rng.choice(sorted(pieces))
        entry = CatalogEntry(
            id="Zpiece", family="Q7", summary="synthetic piece entry",
            admissible=AdmissibleSet(kind="AllRationals"),
            exclusion_class=klass,
            complement=(pieces[klass],),
            vacant_annulus="v",
            split_curves=("c1", "c2"),
        )
        p = rng.randint(2, 9)
        slope = Slope(_coprime_numerator(rng, p, 9), p)
        trace = exclusion_trace(entry, slope)
        assert trace.conclusion == "Excludes"
        assert trace.conclusion not in forbidden


def test_catalog_integrity(catalog, capsys):
    assert len(catalog) == len(catalog.manifest["entry_files"]) == 38
    assert catalog.family_counts() == {"Q1": 1, "Q2": 1, "Q3": 1, "Q4": 1, "Q5": 1, "Q6": 4,
                                       "Q7": 20, "Q8": 4, "Q9": 3, "Q10": 1, "Q11": 1}

    report = check_catalog(catalog)
    assert report.problems == []
    assert len(report.warnings) == 1
    assert "39" in report.warnings[0] and "38" in report.warnings[0]

    # the command line surfaces the same discrepancy as a warning
    assert cli_main(["catalog", "check"]) == 0
    out = capsys.readouterr().out
    assert "warning:" in out and "39" in out

    probes = [Slope(0, 1), Slope(4, 1), Slope(1, 2), Slope(7, 2), Slope(-5, 3)]
    for entry in catalog:
        assert detect_sink_disks(entry.disk_sectors) == [], entry.id
        assert any(eval_admissible(entry.admissible, s) for s in probes), entry.id


def test_enumerator_matches_the_grid_oracle():
    for family in FAMILIES:
        doc = load_data_json(f"tracks/{family}.json")
        track = TrainTrack.from_json(doc["track"], track_id=family)
        mine = set(all_solutions(track, 6))
        assert mine == oracle_solutions(doc["track"], 6), family

    for seed in range(100):
        doc = random_track_doc(seed)
        track = TrainTrack.from_json(doc, track_id=f"fuzz{seed}")
        mine = set(all_solutions(track, 4))
        assert mine == oracle_solutions(doc, 4), seed
