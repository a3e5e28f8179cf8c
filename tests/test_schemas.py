"""Every shipped data file conforms to its packaged schema, and the
package's validator agrees with jsonschema."""

import pathlib

import pytest
from jsonschema import Draft202012Validator

import anosurf
import catalogfuzz
from anosurf import _schema
from anosurf.catalog import load_catalog
from anosurf.classifier import classify
from anosurf.errors import CatalogIntegrityError
from anosurf.slopes import parse_slope
from conftest import (
    BAD_COMPLEXES,
    BAD_ENTRY_RECORDS,
    BAD_LAWS,
    BAD_MANIFESTS,
    DATA_DIR,
    load_data_json,
    load_schema,
    record_edit,
    rewrite,
)

FAMILIES = [f"Q{i}" for i in range(1, 12)]


def validator_for(name: str) -> Draft202012Validator:
    schema = load_schema(name)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def test_spine_document():
    validator_for("spine.schema.json").validate(load_data_json("spine.json"))


def test_qcomplex_document():
    validator_for("qcomplexes.schema.json").validate(
        load_data_json("qcomplexes.json"))


@pytest.mark.parametrize("name", BAD_COMPLEXES)
def test_qcomplex_schema_refuses_what_the_loader_refuses(name):
    doc = load_data_json("qcomplexes.json")
    BAD_COMPLEXES[name](doc)
    assert not validator_for("qcomplexes.schema.json").is_valid(doc)


@pytest.mark.parametrize("family", FAMILIES)
def test_track_documents(family):
    validator_for("track.schema.json").validate(
        load_data_json(f"tracks/{family}.json"))


@pytest.mark.parametrize("name", BAD_LAWS)
def test_track_schema_refuses_what_the_loader_refuses(name):
    family, law = BAD_LAWS[name]
    doc = load_data_json(f"tracks/{family}.json")
    doc["law"] = law
    assert not validator_for("track.schema.json").is_valid(doc)


def test_entry_documents():
    validator = validator_for("entry.schema.json")
    manifest = load_data_json("catalog/manifest.json")
    assert manifest["entry_files"]
    for relpath in manifest["entry_files"]:
        validator.validate(load_data_json(relpath))


@pytest.mark.parametrize("name", BAD_ENTRY_RECORDS)
def test_entry_schema_refuses_what_the_loader_refuses(name):
    entry, edit = BAD_ENTRY_RECORDS[name]
    doc = load_data_json(f"catalog/entries/{entry}.json")
    edit(doc)
    assert not validator_for("entry.schema.json").is_valid(doc)


def test_manifest_document():
    validator_for("manifest.schema.json").validate(
        load_data_json("catalog/manifest.json"))


@pytest.mark.parametrize("name", BAD_MANIFESTS)
def test_manifest_schema_refuses_what_the_loader_refuses(name):
    doc = BAD_MANIFESTS[name](load_data_json("catalog/manifest.json"))
    assert not validator_for("manifest.schema.json").is_valid(doc)


def test_emitted_traces(catalog):
    validator = validator_for("trace.schema.json")
    result = classify(parse_slope("5/2"), catalog)
    assert result.traces
    for trace in result.traces:
        validator.validate(trace.to_json())


def package_accepts(doc, name: str) -> bool:
    try:
        _schema.validate(doc, name)
    except ValueError:
        return False
    return True


def bad_documents():
    """Each BAD_* row of conftest as its schema and its edited document, by test id."""
    rows = {}
    for name, (entry, edit) in BAD_ENTRY_RECORDS.items():
        doc = load_data_json(f"catalog/entries/{entry}.json")
        edit(doc)
        rows[f"entry-{name}"] = ("entry", doc)
    for name, (family, law) in BAD_LAWS.items():
        rows[f"track-{name}"] = ("track", {**load_data_json(f"tracks/{family}.json"), "law": law})
    for name, edit in BAD_COMPLEXES.items():
        doc = load_data_json("qcomplexes.json")
        edit(doc)
        rows[f"qcomplexes-{name}"] = ("qcomplexes", doc)
    for name, make in BAD_MANIFESTS.items():
        rows[f"manifest-{name}"] = ("manifest", make(load_data_json("catalog/manifest.json")))
    return rows


BAD_DOCUMENTS = bad_documents()


def test_the_package_validator_accepts_every_shipped_file():
    for relpath in catalogfuzz.data_files(DATA_DIR):
        name = catalogfuzz.schema_of(relpath)
        doc = load_data_json(relpath)
        assert package_accepts(doc, name) and catalogfuzz.oracle(name).is_valid(doc), relpath


@pytest.mark.parametrize("row", BAD_DOCUMENTS)
def test_the_package_validator_agrees_with_jsonschema_on_a_bad_row(row):
    name, doc = BAD_DOCUMENTS[row]
    assert package_accepts(doc, name) == catalogfuzz.oracle(name).is_valid(doc)


@pytest.mark.parametrize("first", range(0, 600, 100))
def test_the_package_validator_agrees_with_jsonschema_on_fuzzed_files(first):
    for seed in range(first, first + 100):
        case = catalogfuzz.make_case(DATA_DIR, seed)
        name = catalogfuzz.schema_of(case.relpath)
        assert package_accepts(case.doc, name) == catalogfuzz.oracle(name).is_valid(case.doc), \
            (seed, case.edit)


# small schemas with the keywords of the packaged ones, and values on each
# side of them
EDGE_CASES = [
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, [5, -1, "x"]),
    ({"const": 1}, [1, True, 1.0]),
    ({"enum": ["a", 1, None]}, ["a", True, None, [1]]),
    ({"type": "object", "additionalProperties": {"type": "string"}}, [{"a": 1}, {"a": "b"}]),
    ({"patternProperties": {"^x": {"type": "integer"}}, "additionalProperties": False},
     [{"xa": 1}, {"xa": 1, "b": 2}, {"xa": "s"}]),
    ({"if": {"required": ["a"]}, "then": {"required": ["b"]}}, [{"a": 1}, {}, {"a": 1, "b": 2}]),
    ({"type": "array", "minItems": 1, "maxItems": 2, "items": {"type": "integer"}},
     [[], [1, 2], [1, 2, 3], [True]]),
    ({"type": "string", "pattern": "^a", "minLength": 2}, ["ab", "ba", "a"]),
    ({"minLength": 2, "minimum": 3}, [5, "x", 2, False]),
    ({"type": ["integer", "null"], "minimum": 0}, [None, -1, 0, 0.5]),
    ({"minProperties": 1, "required": ["a"]}, [{}, {"a": 0}, []]),
    # a fault inside a container, and oneOf branches that each fail on an item
    ({"properties": {"a": {"type": "string", "minLength": 1}}, "additionalProperties": {
        "type": ["integer", "null"]}}, [{"a": ""}, {"a": "x"}, {"a": 1}, {"b": None},
                                        {"b": True}, {"b": 1.5}, {"a": "x", "b": 2}]),
    ({"type": "array", "items": {"type": ["boolean", "string"], "minLength": 2}},
     [[True, "ab"], ["a"], [1], [False, None]]),
    ({"oneOf": [{"type": "array", "items": {"type": "string"}},
                {"type": "array", "items": {"type": "integer"}}]}, [[], ["a"], [1], ["a", 1]]),
    # the edges of the compiler's checks: every leaf keyword in one node (an
    # enum member that is not the const is refused), every container
    # keyword in one node, a type list of every type, and one pattern
    ({"type": "string", "enum": ["ab", "ax", 1], "const": "ab", "minLength": 2,
      "pattern": "^a", "minimum": 0, "maximum": 1}, ["ab", "ax", "a", "ba", 1, None]),
    ({"type": "object", "properties": {"a": {"type": "integer"}}, "required": ["a"],
      "additionalProperties": False, "patternProperties": {}, "minProperties": 1,
      "items": {"type": "string"}, "minItems": 0, "maxItems": 1,
      "if": {"properties": {"a": {"minimum": 5}}}, "then": {"properties": {"a": {"const": 7}}},
      "oneOf": [{"properties": {"a": {"minimum": 0}}}, {"properties": {"a": {"maximum": 0}}}]},
     [{"a": 1}, {"a": 0}, {"a": 6}, {"a": 7}, {}, {"a": 1, "b": 2}, {"a": "x"}, [1], "x"]),
    ({"type": ["string", "integer", "boolean", "null", "object", "array"]},
     ["x", 1, True, None, {}, [], 1.5]),
    ({"patternProperties": {"^x": {"type": "integer"}}}, [{"xa": 1}, {"xa": "s"}, {"b": "s"}]),
]


@pytest.mark.parametrize("schema, values", EDGE_CASES,
                         ids=[f"case{i}" for i in range(len(EDGE_CASES))])
def test_the_package_validator_agrees_with_jsonschema_on_edge_cases(schema, values):
    check = _schema.compile_schema(schema)[None]
    for value in values:
        accepted = check(value) is None
        assert accepted == Draft202012Validator(schema).is_valid(value), value


@pytest.mark.parametrize("schema", [
    {"type": "array", "uniqueItems": True},
    {"$defs": {"pair": {"type": "array", "items": {"type": "integer"}, "uniqueItems": True}},
     "$ref": "#/$defs/pair"},
], ids=["top-level", "in-defs"])
def test_a_schema_with_an_unknown_keyword_does_not_compile(schema):
    with pytest.raises(NotImplementedError, match="uniqueItems"):
        _schema.compile_schema(schema)


@pytest.mark.parametrize("schema", [
    {"properties": {"a": {}}, "patternProperties": {"^x": {}}},
    {"patternProperties": {"^x": {}, "^y": {}}},
    {"type": ["string", "number"]},
], ids=["pattern-beside-properties", "two-patterns", "unknown-type"])
def test_an_unsupported_container_or_type_does_not_compile(schema):
    with pytest.raises(NotImplementedError, match="^unsupported keywords in "):
        _schema.compile_schema(schema)


@pytest.mark.parametrize("node", [
    {"$ref": "#/$defs/missing"},
    {"$ref": "other.schema.json#/$defs/pair"},
    {"$ref": "#/$defs/pair", "type": "array"},
], ids=["unknown-name", "other-document", "with-a-sibling"])
def test_an_unsupported_ref_does_not_compile(node):
    schema = {"$defs": {"pair": {"type": "array"}}, "properties": {"x": node}}
    with pytest.raises(NotImplementedError, match=r"^unsupported \$ref in "):
        _schema.compile_schema(schema)


def test_an_integer_is_an_int():
    check = _schema.compile_schema(load_schema("track.schema.json"))["law"]
    law = {"kind": "ANY_SLOPE", "surjective_height": 2}
    assert check(law) is None
    for value in (True, 2.0):
        fault = check({**law, "surjective_height": value})
        assert fault.path == ["surjective_height"] and fault.value is value
        assert fault.node == {"type": "integer", "minimum": 1, "maximum": 50}
    # where jsonschema takes a float without a fraction for an integer
    assert Draft202012Validator({"type": "integer"}).is_valid(2.0)


@pytest.mark.parametrize("relpath, edit, where", [
    ("catalog/entries/B6_I_g.json", BAD_ENTRY_RECORDS["meridian-null"][1],
     "complement/0/meridian_hits: expected {'type': 'integer'}, not None"),
    ("tracks/Q2.json", record_edit("law", value=BAD_LAWS["law-height-misspelled"][1]),
     "law/surjective_heigth: expected {'additionalProperties': False}, not 6"),
], ids=["entry", "law"])
def test_a_refused_file_is_named_with_the_json_path(data_copy, relpath, edit, where):
    rewrite(data_copy, relpath, edit)
    with pytest.raises(CatalogIntegrityError) as info:
        load_catalog(path=str(data_copy))
    assert info.value.path == relpath and where in str(info.value)


def test_every_packaged_json_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    package = pathlib.Path(anosurf.__file__).resolve().parent
    pyproject = package.parent.parent / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]["anosurf"]
    listed = {path for pattern in globs for path in package.glob(pattern)}
    shipped = set(package.rglob("*.json"))
    assert _schema.SCHEMA_DIR / "entry.schema.json" in shipped
    assert shipped - listed == set()
