"""The branched surface catalog, with its spine, complexes and tracks.

All of it lives in packaged JSON, guarded by a manifest of SHA-256
checksums. Loading reads each file once, when it is built, and hashes
and parses the same bytes, so a corrupted data file is caught before any
classification runs. One directory, passed explicitly or else named by
the ANOSURF_CATALOG environment variable, shadows packaged files one by
one. A verified load of the shipped bytes skips the schema walk, which
the test suite has already made over those bytes, and so never imports
the validator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import _resources
from ._record import frozen, record
from ._track import _FORMULAS, SlopeLaw, TrainTrack, check_roles
from .branched_surface import (
    ComplementComponent,
    detect_sink_disks,
    euler_characteristic,
    is_transversely_orientable,
)
from .errors import (ClassificationGapError, CatalogIntegrityError, CatalogKeyError,
                     UnsupportedComplexError)
from .slopes import AdmissibleSet, Slope, _admissible, eval_admissible
from .spine import Spine, adjacent_short_pairs

FAMILIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11")
MANIFEST = "catalog/manifest.json"

EXCLUSION_CLASSES = (
    "DiskLeaf",       # some leaf is a disk or the surface is too small
    "TypeI",          # vacant annulus next to the filled torus
    "BasicTypeII",    # annulus sector with both boundaries on the filling torus
    "SplitTypeII",    # same, after splitting the sector in two
    "R7Cusps",        # solid torus complement with three vertical cusps
)


@record(frozen=True)
class CatalogEntry:
    """One branched surface of the catalog. from_json checks a document
    against entry.schema.json. The constructor checks the id, the family
    and the exclusion class, stores the list records as tuples, and builds
    every slope-independent fact, so a malformed record raises here
    (ValueError, KeyError or TypeError), not in a later classification or
    health check. Its documents and maps are read-only at every depth."""

    def __init__(self, id: str, family: str, summary: str, admissible: AdmissibleSet,
                 exclusion_class: str, orientation_graph: Optional[dict] = None,
                 disk_sectors: Tuple[dict, ...] = (),
                 complement: Tuple[dict, ...] = (), euler: Optional[dict] = None,
                 sector_pairs: Tuple[Tuple[str, str], ...] = (),
                 vacant_annulus: Optional[str] = None, split_curves: Tuple[str, ...] = (),
                 notes: Optional[Dict[str, str]] = None):
        if type(id) is not str or not id:
            raise ValueError(f"entry id must be a non-empty string, not {id!r}")
        if family not in FAMILIES:
            raise ValueError(f"entry {id} has unknown family {family!r}")
        if exclusion_class not in EXCLUSION_CLASSES:
            raise ValueError(f"entry {id} has unknown exclusion class {exclusion_class!r}")
        # The records, the list ones as tuples, then the slope-independent
        # facts built from them, which are neither compared nor shown: the
        # complement pieces, the Euler characteristics of the surface and
        # complement CW structures, the colouring of the orientation graph
        # (None without a graph) and the ids of the sink disks.
        self.__dict__.update(frozen(dict(
            id=id, family=family, summary=summary, admissible=admissible,
            exclusion_class=exclusion_class, orientation_graph=orientation_graph,
            disk_sectors=tuple(disk_sectors),
            complement=tuple(complement), euler=euler,
            sector_pairs=tuple(map(tuple, sector_pairs)), vacant_annulus=vacant_annulus,
            split_curves=tuple(split_curves), notes={} if notes is None else notes)))
        self.__dict__.update(
            complement_pieces=tuple(ComplementComponent.from_json(doc) for doc in complement),
            euler_characteristics=None if euler is None else (
                euler_characteristic(euler["surface_cw"]),
                euler_characteristic(euler["complement_cw"])),
            orientation=None if orientation_graph is None
            else is_transversely_orientable(orientation_graph),
            sink_disks=tuple(detect_sink_disks(disk_sectors)))

    @staticmethod
    def from_json(doc: dict) -> "CatalogEntry":
        from . import _schema  # here, since a load of the shipped data never needs it

        return _entry(_schema.validate(doc, "entry"))

    def to_json(self) -> dict:
        """The entry file's own document, which `anosurf catalog show`
        prints and from_json reads back to an equal entry: the fields in
        order, tuples as lists, and each optional field only when it is
        not empty. The document is new on every call, so editing it
        leaves the entry as it was."""
        from copy import deepcopy  # here, since a classification never needs it

        optional = {"orientation_graph": self.orientation_graph, "euler": self.euler,
                    "sector_pairs": [list(p) for p in self.sector_pairs],
                    "vacant_annulus": self.vacant_annulus,
                    "split_curves": list(self.split_curves), "notes": self.notes}
        return deepcopy({
            "id": self.id, "family": self.family, "summary": self.summary,
            "admissible": self.admissible.to_json(), "exclusion_class": self.exclusion_class,
            "disk_sectors": list(self.disk_sectors), "complement": list(self.complement),
            **{key: value for key, value in optional.items() if value}})


@record(frozen=True)
class TrackBundle:
    """A family's boundary track with its slope law and designated roles.
    The constructor checks that each designated role lists branches of
    the track and that a formula law designates only its formula's roles
    (one it does not read, a misspelled mu say, would leave mu summing to
    0), and stores the lists as tuples."""

    def __init__(self, track: TrainTrack, law: SlopeLaw,
                 designated: Mapping[str, Sequence[str]]):
        check_roles(track, designated)
        if law.kind in _FORMULAS:
            stray = sorted(set(designated) - set(_FORMULAS[law.kind][1]))
            if stray:
                raise ValueError(f"the {law.kind} law of {track.track_id} has no role {stray[0]!r}")
        self.__dict__.update(track=track, law=law,
                             designated=frozen({k: tuple(v) for k, v in designated.items()}))


@record(frozen=True)
class Catalog:
    """The loaded catalog. Its maps and manifest are read-only at every
    depth, and the records they hold are frozen."""

    def __init__(self, entries: Dict[str, CatalogEntry], manifest: dict, spine: Spine,
                 complexes: Dict[str, Dict[str, int]], tracks: Dict[str, TrackBundle]):
        self.__dict__.update(frozen(dict(entries=entries, manifest=manifest, spine=spine,
                                         complexes=complexes, tracks=tracks)))

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


def _entry(doc: dict) -> CatalogEntry:
    """The entry of a document with the shape of entry.schema.json, which
    allows exactly the keys the constructor takes."""
    return CatalogEntry(**{**doc, "admissible": _admissible(doc["admissible"])})


def _loaded_complexes(doc: dict, spine: Spine) -> Dict[str, Dict[str, int]]:
    """One valid complex on the spine for each family, and no other; no
    two families share one."""
    complexes = {family: dict(body["connectors"]) for family, body in doc.items()}
    owners: Dict[frozenset, str] = {}
    for family, q in complexes.items():
        spine.validate_complex(q)
        owner = owners.setdefault(frozenset(q.items()), family)
        if owner != family:
            raise ValueError(f"{family} has the complex of {owner}")
    return complexes


def _loaded_track(doc: dict, family: str, q: Mapping[str, int]) -> TrackBundle:
    """The family's track file, the one reader of its keys. After the
    bundle, which checks the switch system, the law and the designated
    roles, the file's id must be the family, and its
    projection must lift the complex q: one record for each copy 1 to m
    of each connector of multiplicity m, and arcs that partition the
    branches, so the track has two branches per copy. The projection is
    checked here and not kept."""
    bundle = TrackBundle(TrainTrack.from_json(doc["track"], track_id=doc["id"]),
                         SlopeLaw(**doc["law"]), doc["designated"])
    if doc["id"] != family:
        raise ValueError(f"the track of {family} has id {doc['id']!r}")
    projection = doc["projection"]
    copies = sorted((rec["connector"], rec["copy"]) for rec in projection)
    # the count first, so that the copies listed below are as many as the records
    if len(copies) != sum(q.values()) or copies != sorted(
            (cid, k) for cid, m in q.items() for k in range(1, m + 1)):
        raise ValueError(f"the projection of {family} does not list copies 1 to m of "
                         f"each connector of its complex {dict(q)}")
    arcs = sorted(arc for rec in projection for arc in rec["arcs"])
    if arcs != sorted(bundle.track.branches):
        raise ValueError(f"the projection arcs of {family} do not partition its branches")
    return bundle


def load_catalog(path: Optional[str] = None, verify: bool = True) -> Catalog:
    """Load, checksum and build the catalog.

    One directory, `path` or else ANOSURF_CATALOG (never both), shadows
    the packaged data file by file. Each file, the manifest included, is
    read once, when it is built, and checked against the manifest just
    before it is built from; `verify=False` skips only that checksum. The
    manifest must list exactly the files the catalog is built from: under
    either `verify`, an unlisted file, a listed path that nothing is built
    from or a malformed manifest raises.
    Each file must have the shape of its schema, and each track's
    projection must lift its family's complex; the facts that need an
    enumeration are left to check_catalog. The shape is known, and not
    walked, when `verify` is on and the manifest's bytes hash to
    `_resources.SHIPPED_MANIFEST_SHA256`: every file then matches a
    checksum of the shipped manifest, so it holds the bytes of a shipped
    file, which the test suite validates. Every other load walks each file.
    """
    # each path the manifest lists, with its checksum, and those not yet built
    listed, unbuilt = {MANIFEST: None}, set()
    # whether this load reads the shipped manifest; decided by its digest, once
    shipped = False

    def build(relpath, schema, make):
        nonlocal shipped
        if relpath not in listed:
            raise CatalogIntegrityError(relpath, "the manifest does not list this file")
        unbuilt.discard(relpath)
        doc, digest = _resources.load_json(relpath, override=path,
                                           sha256=listed[relpath] if verify else None)
        if relpath == MANIFEST:
            shipped = verify and digest == _resources.SHIPPED_MANIFEST_SHA256
        try:
            if not shipped:
                from . import _schema  # here, since a load of the shipped data never needs it
                _schema.validate(doc, schema)
            return make(doc)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CatalogIntegrityError(
                relpath, f"unusable data ({type(exc).__name__}: {exc})") from exc

    manifest = build(MANIFEST, "manifest", lambda doc: doc)
    listed.update(manifest["files"])
    unbuilt.update(manifest["files"])
    entries: Dict[str, CatalogEntry] = {}
    for relpath in manifest["entry_files"]:
        entry = build(relpath, "entry", _entry)
        if entry.id in entries:
            raise CatalogIntegrityError(relpath,
                                        f"duplicate entry id {entry.id!r}")
        entries[entry.id] = entry
    spine = build("spine.json", "spine", Spine._of_valid)
    complexes = build("qcomplexes.json", "qcomplexes",
                      lambda doc: _loaded_complexes(doc, spine))
    tracks = {family: build(f"tracks/{family}.json", "track",
                            lambda doc, family=family: _loaded_track(
                                doc, family, complexes[family]))
              for family in FAMILIES}
    # last, so that a listed file that fails to build is named first
    if unbuilt:
        raise CatalogIntegrityError(min(unbuilt), "the manifest lists this file, "
                                                  "but nothing is built from it")
    return Catalog(entries=entries, manifest=manifest, spine=spine, complexes=complexes,
                   tracks=tracks)


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
    from . import traintrack  # the solver, compiled on the first law check

    if family not in FAMILIES:
        raise CatalogKeyError(family)
    bundle = catalog.tracks[family]
    return traintrack.check_law(bundle.track, bundle.law, bundle.designated,
                                bound=bound, family=family)


# The solver's names, resolved on first use so that loading the catalog
# does not compile the solver; `from anosurf.catalog import check_law` and
# the like still work.
_SOLVER_NAMES = ("LawReport", "carried_classes", "check_law", "check_law_bounds",
                 "dead_branches")


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        from . import traintrack
        return getattr(traintrack, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@record(frozen=False)
class CatalogReport:
    def __init__(self, entry_count: int, family_counts: Dict[str, int],
                 stated_total: Optional[int], warnings: List[str], problems: List[str]):
        self.entry_count = entry_count
        self.family_counts = family_counts
        self.stated_total = stated_total
        self.warnings = warnings
        self.problems = problems

    @property
    def ok(self) -> bool:
        return not self.problems


def check_catalog(catalog: Catalog) -> CatalogReport:
    """Structural health check of every entry, complex and track.

    Verifies sink disk emptiness, Euler characteristic records and that
    no complex has adjacent short connectors. A track whose classes would
    span more than CLASS_SPAN_CAP bits, or one of whose components would
    have more than COMPONENT_SOLUTION_CAP solutions, at MAX_LAW_BOUND, so
    that a law check at some bound the CLI accepts would refuse it, raises
    SwitchSystemError as that law check does; so does a track too large
    to solve at all. Each entry with no problem so far then runs its
    exclusion chain once at 1/2: a chain reads the slope only through its
    denominator, and denominator two checks the most premises, the
    orientation certificate of a BasicTypeII entry among them, so a gap
    that classify would meet at some slope is reported here. A mismatch
    between the shipped entry count and the total stated by the
    underlying tabulation is reported as a warning, not a failure; the
    discrepancy is known and documented.
    """
    from . import traintrack
    from .classifier import _trace  # here, since classifier imports this module

    warnings: List[str] = []
    problems: List[str] = []

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
        traintrack.check_law_bounds(catalog.tracks[family].track)

    return CatalogReport(
        entry_count=len(catalog),
        family_counts=catalog.family_counts(),
        stated_total=stated,
        warnings=warnings,
        problems=problems,
    )
