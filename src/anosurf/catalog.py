"""The branched surface catalog, with its spine, complexes and tracks.

All of it lives in packaged JSON, guarded by a manifest of SHA-256
checksums. Loading hashes and parses the same bytes of each file, so a
corrupted data file is caught before any classification runs. One
directory, passed explicitly or else named by the ANOSURF_CATALOG
environment variable, shadows packaged files one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from . import _resources, _schema
from .branched_surface import (
    ComplementComponent,
    OrientationResult,
    detect_sink_disks,
    euler_characteristic,
    is_transversely_orientable,
)
from .errors import (ClassificationGapError, CatalogIntegrityError, CatalogKeyError,
                     UnsupportedComplexError)
from .slopes import AdmissibleSet, Slope, _admissible, eval_admissible
from .spine import Spine, TrackBundle, adjacent_short_pairs
from .traintrack import LawReport, check_law, dead_branches

FAMILIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11")
MANIFEST = "catalog/manifest.json"
# the enumeration bound at which a track's noncompact branches are dead
NONCOMPACT_BOUND = 6

EXCLUSION_CLASSES = (
    "DiskLeaf",       # some leaf is a disk or the surface is too small
    "TypeI",          # vacant annulus next to the filled torus
    "BasicTypeII",    # annulus sector with both boundaries on the filling torus
    "SplitTypeII",    # same, after splitting the sector in two
    "R7Cusps",        # solid torus complement with three vertical cusps
)


@dataclass(frozen=True)
class CatalogEntry:
    """One branched surface of the catalog. from_json checks a document
    against entry.schema.json. The constructor checks the id, the family
    and the exclusion class, stores the list records as tuples, and builds
    every slope-independent fact, so a malformed record raises here
    (ValueError, KeyError or TypeError), not in a later classification or
    health check."""

    id: str
    family: str
    summary: str
    admissible: AdmissibleSet
    exclusion_class: str
    orientable: Optional[bool] = None
    orientation_graph: Optional[dict] = None
    disk_sectors: Tuple[dict, ...] = ()
    complement: Tuple[dict, ...] = ()
    euler: Optional[dict] = None
    sector_pairs: Tuple[Tuple[str, str], ...] = ()
    vacant_annulus: Optional[str] = None
    split_curves: Tuple[str, ...] = ()
    notes: Dict[str, str] = field(default_factory=dict)
    # Slope-independent facts, built by the constructor from the records
    # above: the complement pieces, the Euler characteristics of the surface
    # and complement CW structures, the colouring of the orientation graph
    # (None without a graph) and the ids of the sink disks.
    complement_pieces: Tuple[ComplementComponent, ...] = field(init=False, compare=False, repr=False)
    euler_characteristics: Optional[Tuple[int, int]] = field(init=False, compare=False, repr=False)
    orientation: Optional[OrientationResult] = field(init=False, compare=False, repr=False)
    sink_disks: Tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.id) is not str or not self.id:
            raise ValueError(f"entry id must be a non-empty string, not {self.id!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"entry {self.id} has unknown family {self.family!r}")
        if self.exclusion_class not in EXCLUSION_CLASSES:
            raise ValueError(
                f"entry {self.id} has unknown exclusion class {self.exclusion_class!r}")
        # the list records as tuples, then the facts
        facts = {
            "disk_sectors": tuple(self.disk_sectors),
            "complement": tuple(self.complement),
            "sector_pairs": tuple(map(tuple, self.sector_pairs)),
            "split_curves": tuple(self.split_curves),
            "complement_pieces": tuple(
                ComplementComponent.from_json(doc) for doc in self.complement),
            "euler_characteristics": None if self.euler is None else (
                euler_characteristic(self.euler["surface_cw"]),
                euler_characteristic(self.euler["complement_cw"])),
            "orientation": None if self.orientation_graph is None
            else is_transversely_orientable(self.orientation_graph),
            "sink_disks": tuple(detect_sink_disks(self.disk_sectors)),
        }
        for name, value in facts.items():
            object.__setattr__(self, name, value)

    @staticmethod
    def from_json(doc: dict) -> "CatalogEntry":
        # entry.schema.json allows exactly the keys the constructor takes
        return CatalogEntry(**{**_schema.validate(doc, "entry"),
                               "admissible": _admissible(doc["admissible"])})


@dataclass(frozen=True)
class Catalog:
    entries: Dict[str, CatalogEntry]
    manifest: dict
    spine: Spine
    complexes: Dict[str, Dict[str, int]]
    tracks: Dict[str, TrackBundle]

    def get(self, entry_id: str) -> CatalogEntry:
        try:
            return self.entries[entry_id]
        except KeyError:
            raise CatalogKeyError(entry_id) from None

    def __iter__(self):
        return iter(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def family_counts(self) -> Dict[str, int]:
        counts = {f: 0 for f in FAMILIES}
        for entry in self.entries.values():
            counts[entry.family] += 1
        return counts

    def family_of(self, q: Mapping[str, int]) -> str:
        """The family whose canonical complex is q; its boundary track is
        tracks[family_of(q)]. Only the cataloged complexes have one."""
        self.spine.validate_complex(q)
        for family, canonical in self.complexes.items():
            if dict(q) == canonical:
                return family
        raise UnsupportedComplexError(
            "no shipped double-cover layout matches this complex; "
            "only the eleven cataloged families are supported")


def _loaded_complexes(doc: dict, spine: Spine) -> Dict[str, Dict[str, int]]:
    """One valid complex on the spine for each family, and no other; no
    two families share one."""
    _schema.validate(doc, "qcomplexes")
    complexes = {family: dict(body["connectors"]) for family, body in doc.items()}
    owners: Dict[frozenset, str] = {}
    for family, q in complexes.items():
        spine.validate_complex(q)
        owner = owners.setdefault(frozenset(q.items()), family)
        if owner != family:
            raise ValueError(f"{family} has the complex of {owner}")
    return complexes


def _loaded_track(doc: dict, family: str, q: Mapping[str, int]) -> TrackBundle:
    """The family's track, whose projection lifts its complex q: one record
    for each copy 1 to m of each connector of multiplicity m, and arcs that
    partition the branches, so the track has two branches per copy."""
    bundle = TrackBundle.from_json(doc)
    if bundle.family != family:
        raise ValueError(f"the track of {family} has id {bundle.family!r}")
    copies = sorted((rec["connector"], rec["copy"]) for rec in bundle.projection)
    if copies != sorted((cid, k) for cid, m in q.items() for k in range(1, m + 1)):
        raise ValueError(f"the projection of {family} does not list copies 1 to m of "
                         f"each connector of its complex {dict(q)}")
    arcs = sorted(arc for rec in bundle.projection for arc in rec["arcs"])
    if arcs != sorted(bundle.track.branches):
        raise ValueError(f"the projection arcs of {family} do not partition its branches")
    return bundle


def load_catalog(path: Optional[str] = None, verify: bool = True) -> Catalog:
    """Load, checksum and build the catalog.

    One directory, `path` or else ANOSURF_CATALOG (never both), shadows
    the packaged data file by file. Each file, the manifest included, is
    read once, and every file the manifest lists is checked against it
    before anything is built. Only listed files are used: under either
    `verify`, an unlisted file or a malformed manifest raises. Each file
    must have the shape of its schema, and each track's projection must
    lift its family's complex; the facts that need an enumeration are left
    to check_catalog.
    """
    docs = {MANIFEST: _resources.load_json(MANIFEST, override=path)}

    def build(relpath, make):
        if relpath not in docs:
            raise CatalogIntegrityError(relpath, "the manifest does not list this file")
        try:
            return make(docs[relpath])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CatalogIntegrityError(
                relpath, f"unusable data ({type(exc).__name__}: {exc})") from exc

    manifest = build(MANIFEST, lambda doc: _schema.validate(doc, "manifest"))
    for relpath, sha in sorted(manifest["files"].items()):
        docs[relpath] = _resources.load_json(relpath, override=path,
                                             sha256=sha if verify else None)
    entries: Dict[str, CatalogEntry] = {}
    for relpath in manifest["entry_files"]:
        entry = build(relpath, CatalogEntry.from_json)
        if entry.id in entries:
            raise CatalogIntegrityError(relpath,
                                        f"duplicate entry id {entry.id!r}")
        entries[entry.id] = entry
    if verify and len(entries) != manifest["entry_count"]:
        raise CatalogIntegrityError(
            MANIFEST, f"{len(entries)} entries but the manifest promises {manifest['entry_count']}")
    spine = build("spine.json", Spine)
    complexes = build("qcomplexes.json", lambda doc: _loaded_complexes(doc, spine))
    return Catalog(
        entries=entries,
        manifest=manifest,
        spine=spine,
        complexes=complexes,
        tracks={family: build(f"tracks/{family}.json",
                              lambda doc, family=family: _loaded_track(
                                  doc, family, complexes[family]))
                for family in FAMILIES},
    )


def default_catalog() -> Catalog:
    """The verified catalog used when a caller passes none, reloaded
    whenever the ANOSURF_CATALOG environment variable changes."""
    return _catalog_at(_resources.override_dir())


@lru_cache(maxsize=1)
def _catalog_at(override: Optional[_resources.PathLike]) -> Catalog:
    return load_catalog(path=override)


def candidates_for(catalog: Catalog, slope: Slope) -> List[CatalogEntry]:
    """Entries whose admissible slope set contains the given slope."""
    return [e for e in catalog if eval_admissible(e.admissible, slope)]


def complement_components(entry: CatalogEntry, slope: Slope) -> List[ComplementComponent]:
    """The complement pieces of an entry at a slope, the checked accessor
    that exclusion_trace and library callers use: a slope outside the
    entry's admissible set raises ValueError. The pieces do not depend on
    the slope; the list is new on every call. classify skips the check and
    reads entry.complement_pieces, since its candidates are admissible.
    """
    if not eval_admissible(entry.admissible, slope):
        raise ValueError(f"slope {slope} is not admissible for {entry.id}")
    return list(entry.complement_pieces)


def slope_law_check(catalog: Catalog, family: str, bound: int = 6) -> LawReport:
    """Check the boundary slope law of a family's double cover track."""
    if family not in FAMILIES:
        raise CatalogKeyError(family)
    bundle = catalog.tracks[family]
    return check_law(bundle.track, bundle.law, bundle.designated,
                     bound=bound, family=family)


@dataclass
class CatalogReport:
    entry_count: int
    family_counts: Dict[str, int]
    stated_total: Optional[int]
    warnings: List[str]
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def check_catalog(catalog: Catalog) -> CatalogReport:
    """Structural health check of every entry, complex and track.

    Verifies sink disk emptiness, orientation certificates, Euler
    characteristic records, the per family counts against the manifest,
    that no complex has adjacent short connectors, and that each track's
    noncompact branches are the ones dead in every solution at bound
    NONCOMPACT_BOUND. Each entry with no problem so far then runs its
    exclusion chain once at 1/2: a chain reads the slope only through its
    denominator, and denominator two checks the most premises, so a gap
    that classify would meet at some slope is reported here. A mismatch
    between the shipped entry count and the total stated by the
    underlying tabulation is reported as a warning, not a failure; the
    discrepancy is known and documented.
    """
    from .classifier import _trace  # here, since classifier imports this module

    warnings: List[str] = []
    problems: List[str] = []

    counts = catalog.family_counts()
    manifest_counts = catalog.manifest["families"]
    if manifest_counts != counts:
        problems.append(
            f"family counts {counts} disagree with the manifest {manifest_counts}")

    stated = catalog.manifest.get("stated_total_in_source")
    if stated is not None and stated != len(catalog):
        warnings.append(
            f"catalog ships {len(catalog)} entries while the underlying tabulation "
            f"states {stated}; this off-by-one is a known, documented discrepancy "
            f"between the two lists")

    for entry in catalog:
        reported = len(problems)
        # no entry may contain a sink disk
        if entry.sink_disks:
            problems.append(f"{entry.id}: sink disks {list(entry.sink_disks)}")

        # orientability flags must be certified
        if entry.orientable is not None:
            if entry.orientation is None:
                problems.append(f"{entry.id}: orientable flag without a sector graph")
            elif entry.orientation.orientable != entry.orientable:
                problems.append(
                    f"{entry.id}: sector graph says orientable={entry.orientation.orientable}, "
                    f"entry says {entry.orientable}")

        # stored CW structures must be consistent and agree
        if entry.euler_characteristics is not None:
            chi_b, chi_w = entry.euler_characteristics
            if chi_b != chi_w:
                problems.append(
                    f"{entry.id}: surface Euler characteristic {chi_b} "
                    f"differs from complement {chi_w}")

        # the premises of the entry's chain, unless a check above reported it
        if len(problems) == reported:
            try:
                _trace(entry, Slope(1, 2), entry.complement_pieces)
            except ClassificationGapError as exc:
                problems.append(f"{entry.id}: {exc.detail}")

    for family in FAMILIES:
        pairs = adjacent_short_pairs(catalog.spine, catalog.complexes[family])
        if pairs:
            problems.append(f"{family}: adjacent short connectors {pairs}")
        bundle = catalog.tracks[family]
        dead = sorted(dead_branches(bundle.track, NONCOMPACT_BOUND))
        if sorted(bundle.noncompact) != dead:
            problems.append(f"{family}: noncompact {list(bundle.noncompact)} "
                            f"is not the dead branches {dead}")

    return CatalogReport(
        entry_count=len(catalog),
        family_counts=counts,
        stated_total=stated,
        warnings=warnings,
        problems=problems,
    )
