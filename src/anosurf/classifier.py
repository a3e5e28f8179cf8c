"""Classification of flows on the filled manifolds.

The engine answers one question per slope: does the filling carry an
Anosov flow, and if so how many up to equivalence. Integer fillings
carry exactly one (the zero filling carries a suspension), and every
noninteger filling carries none. The negative half is mechanized: each
catalog entry that could carry the weak stable lamination of a flow is
run through an exclusion chain, and each chain step cites one anchor
from a fixed registry of the underlying facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .branched_surface import (
    ComplementComponent,
    admits_coherent_ibundle,
    is_transversely_orientable,  # noqa: F401  bound here for the bench tracer to wrap
    meridian_vertical_intersection,
)
from .catalog import (
    Catalog,
    CatalogEntry,
    candidates_for,
    complement_components,
    default_catalog,
)
from .errors import ClassificationGapError, UnsupportedSlopeError
from .slopes import Slope

# ---------------------------------------------------------------------------
# Anchor registry. Every trace step cites exactly one of these by id,
# and embeds the registry string itself, so a trace is self contained.

ANCHORS: Dict[str, str] = {
    "complement-shape/three-types":
        "If an essential branched surface carries a lamination coming from an "
        "Anosov flow, every complement piece admits an interval bundle "
        "coherent with its vertical boundary, and only three shapes do: a "
        "product solid torus with two straight vertical annuli, a solid torus "
        "whose single vertical annulus wraps the core twice, and a ball with "
        "one vertical annulus.",
    "disk-leaves/no-legal-shape":
        "A complement piece that is none of the three coherent shapes cannot "
        "occur, so the surface carries no essential lamination of the "
        "required kind at this filling.",
    "complement/three-vertical-cusps":
        "A solid torus complement piece whose vertical boundary consists of "
        "three annuli admits no interval bundle coherent with all three "
        "cusps.",
    "type-i/vacant-annulus":
        "When an annulus sector carries weight zero, the piece of the "
        "complement left behind is a solid torus adjacent to a single "
        "vertical annulus whose core a meridian disk meets exactly twice.",
    "type-i/exceptional-core":
        "A solid torus piece whose meridian meets the adjacent annulus core "
        "twice is exceptional: its core is not isotopic to the surgery core, "
        "and at most one exceptional piece can occur.",
    "attractor/one-boundary-orbit":
        "Splitting the flow along the carried lamination and collapsing the "
        "exceptional piece leaves an expanding attractor on the knot "
        "exterior with exactly one boundary periodic orbit.",
    "attractor/uniqueness-two-orbits":
        "Up to equivalence the knot exterior carries a unique expanding "
        "attractor, obtained by blowing one orbit of the suspension, and "
        "that attractor has exactly two boundary periodic orbits.",
    "split/two-annuli-one-torus":
        "After a sector splits in two along its branch curves, the filled "
        "solid torus is the unique exceptional piece and its vertical "
        "boundary consists of two annuli, one from each half.",
    "split/meridian-twice":
        "The meridian of the exceptional piece crosses the core of one of "
        "its two vertical annuli more than once, so no interval bundle on "
        "the piece is coherent with both.",
    "type-ii/slope-infinity-annulus":
        "An annulus sector whose boundary circles both run along the "
        "meridian direction closes the boundary of the fibered neighborhood "
        "into tori, and the filled solid torus sits behind one of them.",
    "type-ii/core-power":
        "The core of that annulus sector is freely homotopic, inside the "
        "filled manifold, to the k-th power of the surgery core, where k is "
        "the denominator of the filling slope.",
    "fenley/power-bound":
        "On a hyperbolic filling every periodic orbit of an Anosov flow is "
        "freely homotopic to a primitive curve or to the square of one, so "
        "the power k satisfies 1 <= |k| <= 2.",
    "fenley/square-non-coorientable":
        "If a periodic orbit is freely homotopic to the square of a "
        "primitive curve, the weak stable or weak unstable foliation of the "
        "flow fails to be transversely orientable.",
    "non-coorientable/infinitely-many":
        "A transitive Anosov flow whose weak foliation is not transversely "
        "orientable has infinitely many periodic orbits whose stable leaves "
        "are non orientable.",
    "carried/orientable-contradiction":
        "The lamination carried by this surface is transversely orientable, "
        "certified by a consistent two coloring of its sectors, so it has no "
        "room for infinitely many non orientable leaves; the square case is "
        "impossible here.",
    "core-orbit/isotopic":
        "With k equal to one the annulus core is isotopic to the surgery "
        "core, which forces the filling slope to be an integer and marks the "
        "core as a periodic orbit of any carried flow.",
    "type-ii/core-orbit":
        "On an integer filling the carried weak stable lamination marks the "
        "surgery core as a periodic orbit of the flow.",
    "core-orbit/da-surgery":
        "Blowing up that periodic orbit and deleting it leaves an expanding "
        "attractor on the knot exterior.",
    "attractor/unique-model":
        "The knot exterior carries exactly one expanding attractor up to "
        "equivalence, with two boundary periodic orbits and a fixed "
        "framing.",
    "plante/suspension-rigidity":
        "The zero filling is a torus bundle with solvable fundamental group, "
        "and every Anosov flow on it is equivalent to the suspension of its "
        "hyperbolic monodromy; that suspension is equivalent to its own "
        "reverse.",
    "surgery/equivalence-transfer":
        "Undoing the blow up with the integer framing identifies the given "
        "flow with the standard surgered suspension at the same slope, so "
        "the filling carries exactly one flow up to equivalence.",
}

# What a concluding rule yields when it fires as the last step of a
# chain; every other rule in ANCHORS is a premise step.
_EXCLUDES = "Excludes"
_CONCLUSIONS = {
    "disk-leaves/no-legal-shape": _EXCLUDES,
    "complement/three-vertical-cusps": _EXCLUDES,
    "attractor/uniqueness-two-orbits": _EXCLUDES,
    "split/meridian-twice": _EXCLUDES,
    "fenley/power-bound": _EXCLUDES,
    "carried/orientable-contradiction": _EXCLUDES,
    "core-orbit/isotopic": "ForcesIntegerSlope",
    "type-ii/core-orbit": "YieldsCoreOrbit",
}


def fenley_power_admissible(k: int) -> bool:
    """Whether a free homotopy to the k-th power of a primitive curve is
    possible for a periodic orbit on a hyperbolic filling."""
    if k == 0:
        raise ValueError("a periodic orbit is never null homotopic")
    return 1 <= abs(k) <= 2


@dataclass(frozen=True, slots=True)
class TraceStep:
    rule: str
    facts: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"rule": self.rule,
                "anchor": ANCHORS[self.rule],
                "facts": dict(self.facts)}


@dataclass(frozen=True, slots=True)
class ExclusionTrace:
    entry: str
    slope: Slope
    steps: tuple

    @property
    def conclusion(self) -> str:
        conclusion = _CONCLUSIONS.get(self.steps[-1].rule)
        if conclusion is None:
            raise ClassificationGapError(
                self.entry, self.slope, "trace ends on a premise step")
        return conclusion

    def to_json(self) -> dict:
        return {"entry": self.entry,
                "slope": str(self.slope),
                "steps": [s.to_json() for s in self.steps],
                "conclusion": self.conclusion}

    def digest(self) -> dict:
        return {"entry": self.entry,
                "rules": [s.rule for s in self.steps],
                "conclusion": self.conclusion}


def _step(rule_id: str, **facts) -> TraceStep:
    if rule_id not in ANCHORS:
        raise KeyError(f"unknown rule {rule_id!r}")
    # positional: keywords cost a frozen dataclass's __init__ half again
    return TraceStep(rule_id, facts)


# ---------------------------------------------------------------------------
# Exclusion chains, one per exclusion class. Each takes the entry, a
# finite slope and the entry's complement pieces, which it only reads.

_Pieces = Sequence[ComplementComponent]


def _solid_torus(comps: _Pieces) -> Optional[ComplementComponent]:
    # a loop: next() over a generator expression takes about five times as long
    for c in comps:
        if c.kind == "SolidTorus":
            return c
    return None


def _disk_leaf_chain(entry: CatalogEntry, slope: Slope, comps: _Pieces) -> List[TraceStep]:
    coherent = [admits_coherent_ibundle(c) for c in comps]
    if any(coherent):
        raise ClassificationGapError(
            entry.id, slope,
            "complement unexpectedly admits a coherent interval bundle")
    steps = [_step("complement-shape/three-types",
                   components=[c.kind for c in comps],
                   coherent=coherent)]
    facts: Dict[str, object] = {}
    euler = entry.euler_characteristics
    if euler is not None:
        facts["surface_euler"], facts["complement_euler"] = euler
    steps.append(_step("disk-leaves/no-legal-shape", **facts))
    return steps


def _r7_chain(entry: CatalogEntry, slope: Slope, comps: _Pieces) -> List[TraceStep]:
    torus = _solid_torus(comps)
    if torus is None or torus.vertical_annuli != 3:
        raise ClassificationGapError(
            entry.id, slope, "expected a solid torus piece with three cusps")
    if admits_coherent_ibundle(torus):
        raise ClassificationGapError(
            entry.id, slope, "three cusp piece unexpectedly coherent")
    return [_step("complement/three-vertical-cusps",
                  vertical_annuli=torus.vertical_annuli,
                  coherent=False)]


def _type_i_chain(entry: CatalogEntry, slope: Slope, comps: _Pieces) -> List[TraceStep]:
    if not entry.vacant_annulus:
        raise ClassificationGapError(
            entry.id, slope, "type I entry without a vacant annulus")
    torus = _solid_torus(comps)
    if torus is None:
        raise ClassificationGapError(
            entry.id, slope, "type I entry lacks its solid torus piece")
    hits = meridian_vertical_intersection(torus)
    if hits != 2:
        raise ClassificationGapError(
            entry.id, slope, f"expected a doubly wrapped piece, meridian hits {hits}")
    return [
        _step("type-i/vacant-annulus",
              vacant_sector=entry.vacant_annulus,
              meridian_hits=hits),
        _step("type-i/exceptional-core", exceptional=bool(torus.exceptional)),
        _step("attractor/one-boundary-orbit", boundary_orbits=1),
        _step("attractor/uniqueness-two-orbits", expected_boundary_orbits=2),
    ]


def _split_type_ii_chain(entry: CatalogEntry, slope: Slope, comps: _Pieces) -> List[TraceStep]:
    if len(entry.split_curves) != 2:
        raise ClassificationGapError(
            entry.id, slope, "split entry must name two split curves")
    torus = _solid_torus(comps)
    if torus is None or torus.vertical_annuli != 2:
        raise ClassificationGapError(
            entry.id, slope, "split entry lacks its two annulus solid torus")
    hits = meridian_vertical_intersection(torus)
    if hits < 2 or admits_coherent_ibundle(torus):
        raise ClassificationGapError(
            entry.id, slope, "split piece unexpectedly coherent")
    return [
        _step("split/two-annuli-one-torus",
              split_curves=list(entry.split_curves),
              vertical_annuli=torus.vertical_annuli),
        _step("split/meridian-twice", meridian_hits=hits, coherent=False),
    ]


def _basic_type_ii_chain(entry: CatalogEntry, slope: Slope, _comps: _Pieces) -> List[TraceStep]:
    power = slope.p
    steps = [
        _step("type-ii/slope-infinity-annulus",
              sector_pairs=[list(p) for p in entry.sector_pairs]),
        _step("type-ii/core-power", core_power=power),
    ]
    if power == 1:
        steps.append(_step("core-orbit/isotopic", slope=str(slope)))
        return steps
    if not fenley_power_admissible(power):
        # any denominator of three or more dies here, unconditionally
        steps.append(_step("fenley/power-bound",
                           core_power=power, admissible_powers=[1, 2]))
        return steps
    # the denominator is exactly two: the power bound alone does not
    # exclude, and the chain must continue through orientability
    steps.append(_step("fenley/power-bound",
                       core_power=power, admissible_powers=[1, 2],
                       within_bound=True))
    # the entry's constructor coloured its orientation graph once
    cert = entry.orientation
    if entry.orientable is not True or cert is None:
        raise ClassificationGapError(
            entry.id, slope,
            "denominator two needs a transverse orientability certificate "
            "and this entry carries none")
    if not cert.orientable:
        raise ClassificationGapError(
            entry.id, slope, "orientability certificate failed to verify")
    steps.extend([
        _step("fenley/square-non-coorientable", core_power=power),
        _step("non-coorientable/infinitely-many",
              requires="transitivity of the flow"),
        _step("carried/orientable-contradiction", certificate=dict(cert.coloring)),
    ])
    return steps


_CHAINS = {
    "DiskLeaf": _disk_leaf_chain,
    "R7Cusps": _r7_chain,
    "TypeI": _type_i_chain,
    "SplitTypeII": _split_type_ii_chain,
    "BasicTypeII": _basic_type_ii_chain,
}


def _require_finite(slope: Slope) -> None:
    if slope.is_infinity:
        raise UnsupportedSlopeError(
            slope, "the trivial filling is not a surgery; classification "
                   "covers finite slopes only")


def _trace(entry: CatalogEntry, slope: Slope, pieces: _Pieces) -> ExclusionTrace:
    """The entry's chain on its complement pieces, at a slope already
    checked to be finite. Admissibility is the caller's: classify passes
    only candidates, and exclusion_trace checks it."""
    return ExclusionTrace(entry.id, slope,
                          tuple(_CHAINS[entry.exclusion_class](entry, slope, pieces)))


def exclusion_trace(entry: CatalogEntry, slope: Slope) -> ExclusionTrace:
    """The full argument excluding (or failing to exclude) an entry. The
    infinite slope raises UnsupportedSlopeError, as in classify, and a
    slope outside the entry's admissible set raises ValueError, for every
    exclusion class."""
    _require_finite(slope)
    return _trace(entry, slope, complement_components(entry, slope))


def exclusion_reason(catalog: Catalog, entry_id: str, slope: Slope) -> ExclusionTrace:
    """Why the given entry cannot carry a flow lamination at the slope.

    Raises when no exclusion exists, in particular for the annulus
    sector entries at integer slopes, where the entry genuinely does
    carry the lamination of the surgered suspension. The infinite slope
    raises UnsupportedSlopeError, as in classify.
    """
    entry = catalog.get(entry_id)
    trace = exclusion_trace(entry, slope)
    if trace.conclusion != _EXCLUDES:
        raise ClassificationGapError(
            entry_id, slope,
            f"chain concludes {trace.conclusion}, not an exclusion")
    return trace


# ---------------------------------------------------------------------------
# Existence side.


def unique_flow_argument(slope: Slope) -> List[TraceStep]:
    """The argument pinning down the flow on an integer filling."""
    if slope.p != 1:
        raise ValueError("only integer fillings carry flows")
    if slope.q == 0:
        return [_step("plante/suspension-rigidity", slope="0")]
    return [
        _step("type-ii/core-orbit", slope=str(slope)),
        _step("core-orbit/da-surgery"),
        _step("attractor/unique-model", boundary_orbits=2),
        _step("plante/suspension-rigidity"),
        _step("surgery/equivalence-transfer", framing=slope.q),
    ]


# ---------------------------------------------------------------------------
# The classifier.

UNIQUE_ANOSOV = "UniqueAnosov"
SUSPENSION_ANOSOV = "SuspensionAnosov"
NO_ANOSOV = "NoAnosov"


@dataclass(slots=True)
class ClassificationResult:
    slope: Slope
    kind: str
    taut_foliation: bool
    argument: List[TraceStep] = field(default_factory=list)
    traces: List[ExclusionTrace] = field(default_factory=list)

    def to_json(self, traces: str = "digest") -> dict:
        doc = {
            "slope": str(self.slope),
            "kind": self.kind,
            "taut_foliation": self.taut_foliation,
        }
        if self.argument:
            doc["argument"] = [s.to_json() for s in self.argument]
        if self.traces:
            if traces == "full":
                doc["exclusions"] = [t.to_json() for t in self.traces]
            elif traces == "digest":
                doc["exclusions"] = [t.digest() for t in self.traces]
            else:
                doc["excluded_entries"] = [t.entry for t in self.traces]
        return doc


def classify(slope: Slope, catalog: Optional[Catalog] = None) -> ClassificationResult:
    """Decide how many Anosov flows the filling at `slope` carries.

    Integer slopes carry exactly one flow up to equivalence (at zero it
    is the suspension itself). Noninteger slopes carry none, and the
    result carries one exclusion trace for every catalog entry whose
    admissible set contains the slope. Every filling carries a taut
    foliation regardless.
    """
    _require_finite(slope)
    if slope.p == 1:
        kind = SUSPENSION_ANOSOV if slope.q == 0 else UNIQUE_ANOSOV
        return ClassificationResult(
            slope=slope, kind=kind, taut_foliation=True,
            argument=unique_flow_argument(slope))

    if catalog is None:
        catalog = default_catalog()
    traces = []
    for entry in candidates_for(catalog, slope):
        trace = _trace(entry, slope, entry.complement_pieces)
        if trace.conclusion != _EXCLUDES:
            raise ClassificationGapError(
                entry.id, slope,
                f"candidate not excluded: chain concludes {trace.conclusion}")
        traces.append(trace)
    if not traces:
        raise ClassificationGapError(
            "<none>", slope, "no catalog entry covers this slope")
    return ClassificationResult(
        slope=slope, kind=NO_ANOSOV, taut_foliation=True, traces=traces)
