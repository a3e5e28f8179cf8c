import hashlib
import inspect
import itertools
import json
import pathlib
import shutil

import pytest

from anosurf import _resources, traintrack
from anosurf._schema import SCHEMA_DIR
from anosurf.catalog import load_catalog

DATA_DIR = pathlib.Path(_resources.resolve("spine.json")).parent

# balanced, uses every edge, and puts three shorts around P1 corners; it is
# none of the canonical complexes
ALL_POSITIVE_COMPLEX = {"s1": 1, "s3": 1, "s5": 1, "t4": 1, "mc2": 1, "md3": 1}


def replace(record, **changes):
    """A copy of a record with some fields changed. It is rebuilt through
    the constructor, so every check of the constructor runs again, and a
    name that is no parameter of the constructor raises TypeError."""
    fields = {name: getattr(record, name)
              for name in inspect.signature(type(record)).parameters}
    return type(record)(**{**fields, **changes})


def admissible_edit(**fields):
    def edit(doc):
        doc["admissible"].update(fields)
    return edit


def record_edit(*path, value=None, drop=False):
    """Set (or, with drop, delete) the record at a key path of a document."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        if drop:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value
    return edit


# Entry records that load_catalog and entry.schema.json both refuse, with
# their test ids: entry id and the edit of its shipped document.
BAD_ENTRY_RECORDS = {
    "count-float": ("B5", admissible_edit(count=2.5)),
    "count-bool": ("B5", admissible_edit(count=True)),
    "count-negative": ("B5", admissible_edit(count=-1)),
    "only-with-bound": ("B1", admissible_edit(bound="5")),
    "bound-int": ("B4", admissible_edit(bound=3)),
    "all-rationals-with-anchor": ("B2", admissible_edit(anchor="4")),
    "only-with-count": ("B1", admissible_edit(count=1)),
    "euler-edge-list": ("B2", record_edit("euler", "surface_cw", "edges", 0, value=[1])),
    "surface-cw-list": ("B2", record_edit("euler", "surface_cw", value=[])),
    "complement-number": ("B2", record_edit("complement", value=[5])),
    "graph-without-edges": ("B6", record_edit("orientation_graph", "edges", drop=True)),
    "arc-without-direction": (
        "B6", record_edit("disk_sectors", 0, "boundary", 0, "direction", drop=True)),
    "disk-without-boundary": ("B6", record_edit("disk_sectors", 0, "boundary", value=[])),
    "meridian-null": ("B6_I_g", record_edit("complement", 0, "meridian_hits", value=None)),
    "meridian-missing": ("B6_I_g", record_edit("complement", 0, "meridian_hits", drop=True)),
    "meridian-pair": ("B7_II_fg", record_edit("complement", 0, "meridian_hits", value=[0, 0])),
    "meridian-pair-type-i": ("B6_I_g", record_edit("complement", 0, "meridian_hits",
                                                   value=[0, 0])),
    "meridian-bool": ("B6_I_g", record_edit("complement", 0, "meridian_hits", value=True)),
    "id-int": ("B6_I_h", record_edit("id", value=7)),
    "id-list": ("B1", record_edit("id", value=["x"])),
    "id-empty": ("B1", record_edit("id", value="")),
    # records of the wrong JSON type; each used to load
    "summary-int": ("B1", record_edit("summary", value=7)),
    "vacant-annulus-object": ("B7_I_g", record_edit("vacant_annulus", value={"x": 1})),
    "notes-number": ("B6", record_edit("notes", "geometry", value=7)),
    "split-curves-text": ("B7_II_fg", record_edit("split_curves", value="fg")),
    "sector-pairs-text": ("B6", record_edit("sector_pairs", value=["gh"])),
    "vertical-annuli-bool": ("B6_I_g", record_edit("complement", 0, "vertical_annuli",
                                                   value=True)),
    "annulus-wrap-text": ("B6_I_g", record_edit("complement", 0, "annulus_wrap", value="2")),
    "exceptional-object": ("B7_I_g", record_edit("complement", 0, "exceptional", value={})),
    "flip-number": ("B3", record_edit("orientation_graph", "edges", 0, "flip", value=1)),
    # a complement record that nothing reads, once shipped as null
    "core-power-null": ("B6", record_edit("complement", 0, "core_power", value=None)),
    # a copy of what the orientation graph certifies, once shipped
    "orientable-present": ("B6", record_edit("orientable", value=True)),
}


# Slope laws that load_catalog and track.schema.json both refuse, with their
# test ids: the family whose track file gets the law, and the law.
BAD_LAWS = {
    # a misspelled height used to fall back to 1 and let the law hold
    "law-height-misspelled": ("Q2", {"kind": "FORMULA_MU_NU_OMEGA", "surjective_heigth": 6}),
    "law-height-on-constant": ("Q1", {"kind": "ONLY_ZERO", "surjective_height": 5}),
    "law-height-on-formula": ("Q4", {"kind": "FORMULA_THREE_PLUS", "surjective_height": 2}),
}


# Edits of qcomplexes.json that load_catalog and qcomplexes.schema.json both
# refuse, with their test ids.
BAD_COMPLEXES = {
    "multiplicity-text": record_edit("Q1", "connectors", "ly3", value="1"),
    "multiplicity-bool": record_edit("Q1", "connectors", "ly3", value=True),
    "family-missing": record_edit("Q5", drop=True),
}


def q2_as_q1(doc):
    """Give Q2 the complex of Q1 in qcomplexes.json."""
    doc["Q2"] = doc["Q1"]


def _q6_projection_on_all_positive(doc):
    # Q6's six records each lift one copy of a distinct connector
    for record, connector in zip(doc["projection"], ALL_POSITIVE_COMPLEX):
        record["connector"] = connector


# Q6 with ALL_POSITIVE_COMPLEX in place of its complex, in the two files that
# must agree on it: the edited files with their edits
ALL_POSITIVE_AS_Q6 = (
    ("qcomplexes.json", record_edit("Q6", "connectors", value=ALL_POSITIVE_COMPLEX)),
    ("tracks/Q6.json", _q6_projection_on_all_positive),
)


# Manifests that load_catalog and manifest.schema.json both refuse, with
# their test ids: each maps the shipped manifest to a bad one.
BAD_MANIFESTS = {
    "manifest-list": lambda doc: [doc],
    "files-list": lambda doc: {**doc, "files": list(doc["files"])},
    "entry-files-string": lambda doc: {**doc, "entry_files": doc["entry_files"][0]},
    "entry-files-empty": lambda doc: {**doc, "entry_files": []},
    "entry-file-number": lambda doc: {**doc, "entry_files": [*doc["entry_files"], 7]},
    # copies of what the entries give, once shipped; right or wrong, each is
    # an unknown key
    "entry-count-present": lambda doc: {**doc, "entry_count": len(doc["entry_files"])},
    "families-present": lambda doc: {**doc, "families": {"Q1": 1}},
}

# a schema fault that only the schema walk finds, and the message the
# loader refuses its file with
SCHEMA_FAULT = ("catalog/entries/B6_I_g.json", BAD_ENTRY_RECORDS["meridian-null"][1],
                "catalog at catalog/entries/B6_I_g.json: unusable data (ValueError: "
                "complement/0/meridian_hits: expected {'type': 'integer'}, not None)")


@pytest.fixture
def data_copy(tmp_path):
    """A writable copy of the packaged data, for use as --catalog."""
    root = tmp_path / "data"
    shutil.copytree(DATA_DIR, root)
    return root


def restamp_manifest(root) -> None:
    """Rewrite the manifest's checksums to match the files under root."""
    manifest_path = root / "catalog" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for rel in manifest["files"]:
        manifest["files"][rel] = hashlib.sha256((root / rel).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def rewrite(root, relpath, edit) -> None:
    """Apply edit to the JSON document at root/relpath and restamp."""
    path = root / relpath
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    restamp_manifest(root)


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def spine(catalog):
    return catalog.spine


def load_data_json(relpath: str) -> dict:
    return _resources.load_json(relpath)[0]


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


def expand(runs, step):
    """Each run's tuples, first + k * step for k below its length."""
    return [[tuple(w + k * d for w, d in zip(first, step)) for k in range(length)]
            for first, length in runs]


def all_solutions(track, bound):
    """Every solution at the bound, as a weight tuple over
    sorted(track.branches): the product over the components of their
    expanded runs, in the product's order."""
    plan, solved = traintrack._solve(track, bound)
    ids = [bid for comp in plan.comps for bid in comp]
    order = [ids.index(bid) for bid in sorted(track.branches)]
    per_comp = [[tup for run in expand(runs, plan.steps[system]) for tup in run]
                for runs, system in zip(solved, plan.systems)]
    flats = (sum(combo, ()) for combo in itertools.product(*per_comp))
    return [tuple(flat[i] for i in order) for flat in flats]
