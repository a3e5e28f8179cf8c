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

SCHEMA_DIR = Path(__file__).resolve().parent / "_schemas"
_TYPES = {"string": str, "integer": int, "boolean": bool, "null": type(None), "object": dict,
          "array": list}
_SCALARS = frozenset({str, int, float, bool, type(None)})
_NOTES = {"$schema", "$id", "$defs", "title", "description"}
_LEAF = {"type", "enum", "const", "minLength", "pattern", "minimum", "maximum"}
_CONTAINER = {"type", "properties", "required", "additionalProperties", "patternProperties",
              "minProperties", "items", "minItems", "maxItems", "if", "then", "oneOf"}
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel, _BRIEF.maxdict = 2, 6


class _Fault(Exception):
    """A value of another shape than its node's, and the keys from it to the root."""

    def __init__(self, node: dict, value):
        self.node, self.value, self.path = node, value, []


def validate(doc, schema: str, definition=None):
    """Return doc if it has the shape of the packaged schema `schema` ("entry" for
    entry.schema.json) or of its $defs entry `definition`, else raise ValueError
    naming the JSON path of the fault, the schema there and the value."""
    try:
        _packaged(schema)[definition](doc)
    except _Fault as fault:
        where = "/".join(map(str, reversed(fault.path))) or "the document"
        shape = {k: v for k, v in fault.node.items() if k not in _NOTES}
        raise ValueError(f"{where}: expected {_BRIEF.repr(shape)}, "
                         f"not {_BRIEF.repr(fault.value)}") from None
    return doc


@lru_cache(maxsize=None)
def _packaged(name: str) -> dict:
    return compile_schema(json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text("utf-8")))


def _passes(check, value) -> bool:
    try:
        check(value)
    except _Fault:
        return False
    return True


def _refuse(value):
    raise _Fault({"additionalProperties": False}, value)


def compile_schema(root: dict) -> dict:
    """The check of root, under None, and of each of its $defs, by name: a function
    that raises _Fault on a value of another shape."""
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
            options = node.get("enum", [node["const"]] if "const" in node else None)
            members = None if options is None else {(type(o) is bool, o) for o in options}
            shortest, pattern = node.get("minLength", 0), node.get("pattern")
            search = pattern and re.compile(pattern).search
            low, high = node.get("minimum", -math.inf), node.get("maximum", math.inf)

            def check_leaf(value):
                kind = type(value)
                if types and kind not in types or members is not None and (
                        kind not in _SCALARS or (kind is bool, value) not in members):
                    raise _Fault(node, value)
                if kind is str and (len(value) < shortest or search and not search(value)) or (
                        kind is int or kind is float) and not low <= value <= high:
                    raise _Fault(node, value)
            return check_leaf
        fewest, most = node.get("minItems", 0), node.get("maxItems", math.inf)
        items = "items" in node and build(node["items"])
        props = {key: build(sub) for key, sub in node.get("properties", {}).items()}
        (regex, by_pattern), = [(re.compile(key), build(sub)) for key, sub in
                                node.get("patternProperties", {}).items()] or [(None, None)]
        extra = node.get("additionalProperties", True)
        extra = None if extra is True else _refuse if extra is False else build(extra)
        required, least = frozenset(node.get("required", ())), node.get("minProperties", 0)
        condition = "if" in node and (build(node["if"]), build(node.get("then", {})))
        branches = [build(branch) for branch in node.get("oneOf", ())]

        def check(value):
            kind = type(value)
            if types and kind not in types:
                raise _Fault(node, value)
            if kind is dict:
                if not value.keys() >= required:
                    raise _Fault({"required": sorted(required - value.keys())}, value)
                if len(value) < least:
                    raise _Fault({"minProperties": least}, value)
                for key, item in value.items():
                    sub = by_pattern if regex and regex.search(key) else props.get(key, extra)
                    try:
                        sub and sub(item)
                    except _Fault as fault:
                        fault.path.append(key)
                        raise
            elif kind is list:
                if not fewest <= len(value) <= most:
                    raise _Fault(node, value)
                for index, item in enumerate(value if items else ()):
                    try:
                        items(item)
                    except _Fault as fault:
                        fault.path.append(index)
                        raise
            if condition and _passes(condition[0], value):
                condition[1](value)
            if branches and sum(_passes(branch, value) for branch in branches) != 1:
                raise _Fault(node, value)
        return check

    for name in defs:
        build({"$ref": f"#/$defs/{name}"})
    checks[None] = build(root)
    return checks
