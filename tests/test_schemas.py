"""Every shipped data file conforms to its published schema."""

import pytest
from jsonschema import Draft202012Validator

from anosurf.classifier import classify
from anosurf.slopes import parse_slope
from conftest import (
    BAD_COMPLEXES,
    BAD_ENTRY_RECORDS,
    BAD_LAWS,
    BAD_MANIFESTS,
    load_data_json,
    load_schema,
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
