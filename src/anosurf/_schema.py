"""The packaged JSON Schemas, the one statement of each data file's shape, and a
validator for the part of JSON Schema 2020-12 they use: type, $ref into $defs
(alone), and either the leaf keywords of _LEAF or the container keywords of
_CONTAINER (patternProperties with one pattern and no properties). Any other
schema does not compile. An integer is an int, never a bool or a float."""

import json
import math
import re
import reprlib
from functools import lru_cache
from pathlib import Path

from ._record import ReadOnlyDict, ReadOnlyList

SCHEMA_DIR = Path(__file__).resolve().parent / "_schemas"
_TYPES = {"string": str, "integer": int, "boolean": bool, "null": type(None), "object": dict,
          "array": list}
_SCALARS = frozenset({str, int, float, bool, type(None)})
# a frozen document has the shape of its plain twin
_PLAIN = {ReadOnlyDict: dict, ReadOnlyList: list}
_NOTES = {"$schema", "$id", "$defs", "title", "description"}
_LEAF = {"type", "enum", "const", "minLength", "pattern", "minimum", "maximum"}
_CONTAINER = {"type", "properties", "required", "additionalProperties", "patternProperties",
              "minProperties", "items", "minItems", "maxItems", "if", "then", "oneOf"}
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel, _BRIEF.maxdict = 2, 6


class _Fault:
    """A value of another shape than its node's, and the keys from it to the root."""

    __slots__ = ("node", "value", "path")

    def __init__(self, node: dict, value):
        self.node, self.value, self.path = node, value, []


def validate(doc, schema: str):
    """Return doc if it has the shape of the packaged schema `schema` ("entry" for
    entry.schema.json), else raise ValueError naming the JSON path of the fault,
    the schema there and the value."""
    fault = _packaged(schema)[None](doc)
    if fault is not None:
        where = "/".join(map(str, reversed(fault.path))) or "the document"
        shape = {k: v for k, v in fault.node.items() if k not in _NOTES}
        raise ValueError(f"{where}: expected {_BRIEF.repr(shape)}, "
                         f"not {_BRIEF.repr(fault.value)}")
    return doc


@lru_cache(maxsize=None)
def _packaged(name: str) -> dict:
    return compile_schema(json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text("utf-8")))


def _refuse(value):
    return _Fault({"additionalProperties": False}, value)


def compile_schema(root: dict) -> dict:
    """The check of root, under None, and of each of its $defs, by name: a function
    that returns None on a value of the node's shape and the _Fault on any other."""
    defs, checks = root.get("$defs", {}), {}

    def build(node: dict):
        keys, name = set(node) - _NOTES, node.get("$ref", "")[len("#/$defs/"):]
        if name and (keys != {"$ref"} or node["$ref"] != f"#/$defs/{name}" or name not in defs):
            raise NotImplementedError(f"unsupported $ref in {node}")
        if name:
            if name not in checks:
                checks[name] = build(defs[name])
            return checks[name]
        names = [node["type"]] if isinstance(node.get("type"), str) else node.get("type", [])
        if not (keys <= _LEAF or keys <= _CONTAINER) or not _TYPES.keys() >= set(names) or len(
                node.get("patternProperties", ())) > ("properties" not in node):
            raise NotImplementedError(f"unsupported keywords in {node}")
        types = frozenset(map(_TYPES.get, names))
        if keys <= _LEAF:
            # a value must be a member of the enum and equal the const, of those given
            options = [{(type(o) is bool, o) for o in values} for values in (
                node.get("enum"), [node["const"]] if "const" in node else None)
                if values is not None]
            members = set.intersection(*options) if options else None
            shortest, pattern = node.get("minLength", 0), node.get("pattern")
            search = pattern and re.compile(pattern).search
            low, high = node.get("minimum", -math.inf), node.get("maximum", math.inf)

            def check_leaf(value):
                kind = _PLAIN.get(type(value), type(value))
                if types and kind not in types or members is not None and (
                        kind not in _SCALARS or (kind is bool, value) not in members) or (
                        kind is str and (len(value) < shortest or search and not search(value))
                        or (kind is int or kind is float) and not low <= value <= high):
                    return _Fault(node, value)
                return None
            return check_leaf
        fewest, most = node.get("minItems", 0), node.get("maxItems", math.inf)
        items = build(node["items"]) if "items" in node else None
        props = {key: build(sub) for key, sub in node.get("properties", {}).items()}
        (regex, by_pattern), = [(re.compile(key), build(sub)) for key, sub in
                                node.get("patternProperties", {}).items()] or [(None, None)]
        extra = node.get("additionalProperties", True)
        extra = None if extra is True else _refuse if extra is False else build(extra)
        required, least = frozenset(node.get("required", ())), node.get("minProperties", 0)
        condition = "if" in node and (build(node["if"]), build(node.get("then", {})))
        branches = [build(branch) for branch in node.get("oneOf", ())]

        def check(value):
            kind = _PLAIN.get(type(value), type(value))
            if types and kind not in types:
                return _Fault(node, value)
            if kind is dict:
                if not value.keys() >= required:
                    return _Fault({"required": sorted(required - value.keys())}, value)
                if len(value) < least:
                    return _Fault({"minProperties": least}, value)
                pairs = value.items()
            elif kind is list:
                if not fewest <= len(value) <= most:
                    return _Fault(node, value)
                pairs = enumerate(value) if items else ()
            else:
                pairs = ()
            for key, item in pairs:
                sub = items if kind is list else by_pattern if regex and regex.search(
                    key) else props.get(key, extra)
                fault = sub and sub(item)
                if fault is not None:
                    fault.path.append(key)
                    return fault
            if condition and condition[0](value) is None:
                fault = condition[1](value)
                if fault is not None:
                    return fault
            if branches and sum(branch(value) is None for branch in branches) != 1:
                return _Fault(node, value)
            return None
        return check

    for name in defs:
        build({"$ref": f"#/$defs/{name}"})
    checks[None] = build(root)
    return checks
