"""Expected outputs, derived from the raw data files and not from anosurf.

The admissible entries of a slope are computed here from each entry's
JSON admissible record, with integer arithmetic on (q, p), so a bug in
candidates_for or eval_admissible cannot hide behind itself. Expected
rule sequences are spelled out per exclusion class and denominator.
"""

from __future__ import annotations

import json
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

QP = Tuple[int, int]  # (q, p), reduced, p >= 1

RULE_IDS = (
    "complement-shape/three-types",
    "disk-leaves/no-legal-shape",
    "complement/three-vertical-cusps",
    "type-i/vacant-annulus",
    "type-i/exceptional-core",
    "attractor/one-boundary-orbit",
    "attractor/uniqueness-two-orbits",
    "split/two-annuli-one-torus",
    "split/meridian-twice",
    "type-ii/slope-infinity-annulus",
    "type-ii/core-power",
    "fenley/power-bound",
    "fenley/square-non-coorientable",
    "non-coorientable/infinitely-many",
    "carried/orientable-contradiction",
    "core-orbit/isotopic",
    "type-ii/core-orbit",
    "core-orbit/da-surgery",
    "attractor/unique-model",
    "plante/suspension-rigidity",
    "surgery/equivalence-transfer",
)

_CLASS_RULES = {
    "DiskLeaf": ("complement-shape/three-types", "disk-leaves/no-legal-shape"),
    "R7Cusps": ("complement/three-vertical-cusps",),
    "TypeI": ("type-i/vacant-annulus", "type-i/exceptional-core",
              "attractor/one-boundary-orbit", "attractor/uniqueness-two-orbits"),
    "SplitTypeII": ("split/two-annuli-one-torus", "split/meridian-twice"),
}
_TYPE_II_HEAD = ("type-ii/slope-infinity-annulus", "type-ii/core-power",
                 "fenley/power-bound")
_TYPE_II_SQUARE = ("fenley/square-non-coorientable", "non-coorientable/infinitely-many",
                   "carried/orientable-contradiction")
_INTEGER_ARGUMENT = ("type-ii/core-orbit", "core-orbit/da-surgery",
                     "attractor/unique-model", "plante/suspension-rigidity",
                     "surgery/equivalence-transfer")
_ZERO_ARGUMENT = ("plante/suspension-rigidity",)

_CONSTANT_LAWS = {"ONLY_ZERO": {(0, 1)}, "ONLY_FOUR": {(4, 1)}, "ONLY_INFINITY": {(1, 0)}}


def parse_qp(text: str) -> QP:
    q, _, p = text.partition("/")
    q, p = int(q), int(p or 1)
    if p < 0:
        q, p = -q, -p
    g = gcd(q, p)
    return q // g, p // g


def expected_rules(exclusion_class: str, p: int) -> Tuple[str, ...]:
    if exclusion_class == "BasicTypeII":
        return _TYPE_II_HEAD + (_TYPE_II_SQUARE if p == 2 else ())
    return _CLASS_RULES[exclusion_class]


class Expectations:
    """What a correct anosurf returns, read from the shipped data."""

    def __init__(self, data_root: Path):
        manifest = json.loads((data_root / "catalog/manifest.json").read_text())
        self.entries: List[Tuple[str, str, object]] = []  # id, class, predicate
        for relpath in manifest["entry_files"]:
            doc = json.loads((data_root / relpath).read_text())
            self.entries.append((doc["id"], doc["exclusion_class"],
                                 _predicate(doc["admissible"])))
        self.entry_class = {eid: cls for eid, cls, _ in self.entries}
        self.laws: Dict[str, str] = {}
        for relpath in manifest["files"]:
            if relpath.startswith("tracks/"):
                doc = json.loads((data_root / relpath).read_text())
                self.laws[doc["id"]] = doc["law"]["kind"]
        self.basic_type_ii = sum(1 for _, cls, _ in self.entries if cls == "BasicTypeII")

    def admissible(self, slope: QP) -> List[str]:
        return [eid for eid, _, pred in self.entries if pred(*slope)]

    # -- classification ----------------------------------------------------

    def check_classification(self, slope: QP, kind: str, argument: Sequence[str],
                             traces: Sequence[Tuple[str, Sequence[str], str]],
                             admissible: Optional[List[str]] = None) -> Optional[str]:
        """None when the result is right, else what is wrong with it.

        `traces` holds (entry id, rule ids, conclusion) per trace.
        """
        q, p = slope
        if p == 1:
            want_kind = "SuspensionAnosov" if q == 0 else "UniqueAnosov"
            if kind != want_kind:
                return f"{q}: kind {kind}, expected {want_kind}"
            want_arg = _ZERO_ARGUMENT if q == 0 else _INTEGER_ARGUMENT
            if tuple(argument) != want_arg:
                return f"{q}: argument {list(argument)}"
            if traces:
                return f"{q}: integer slope carries exclusion traces"
            return None
        name = f"{q}/{p}"
        if kind != "NoAnosov":
            return f"{name}: kind {kind}, expected NoAnosov"
        if admissible is None:
            admissible = self.admissible(slope)
        got = [t[0] for t in traces]
        if sorted(got) != sorted(admissible) or len(set(got)) != len(got):
            return f"{name}: traces for {sorted(got)}, admissible {sorted(admissible)}"
        for entry, rules, conclusion in traces:
            if conclusion != "Excludes":
                return f"{name}: {entry} concludes {conclusion}"
            if tuple(rules) != expected_rules(self.entry_class[entry], p):
                return f"{name}: {entry} rules {list(rules)}"
        return None

    def check_result(self, slope: QP, result, admissible=None) -> Optional[str]:
        """Check a ClassificationResult object."""
        return self.check_classification(
            slope, result.kind, [s.rule for s in result.argument],
            [(t.entry, [s.rule for s in t.steps], t.conclusion) for t in result.traces],
            admissible)

    def check_document(self, slope: QP, doc: dict, admissible=None) -> Optional[str]:
        """Check the JSON document of a result serialized with traces "full"."""
        want_slope = str(slope[0]) if slope[1] == 1 else f"{slope[0]}/{slope[1]}"
        if doc.get("slope") != want_slope or doc.get("taut_foliation") is not True:
            return f"{want_slope}: document names slope {doc.get('slope')!r}"
        traces = []
        for t in doc.get("exclusions", ()):
            if t.get("slope") != want_slope:
                return f"{want_slope}: trace for {t.get('entry')} names slope {t.get('slope')!r}"
            if any(not s.get("anchor") for s in t["steps"]):
                return f"{want_slope}: trace for {t.get('entry')} has a step without anchor"
            traces.append((t["entry"], [s["rule"] for s in t["steps"]], t["conclusion"]))
        return self.check_classification(
            slope, doc.get("kind"), [s["rule"] for s in doc.get("argument", ())],
            traces, admissible)

    # -- laws ----------------------------------------------------------------

    def check_law_report(self, family: str, report) -> Optional[str]:
        if not report.ok:
            return f"{family}: violations {report.violations[:3]}"
        want = _CONSTANT_LAWS.get(self.laws[family])
        if want is not None:
            got = {(s.q, s.p) for s in report.realized}
            if got != want:
                return f"{family}: realized {sorted(got)}, law {self.laws[family]}"
        return None


def _predicate(adm: dict):
    kind = adm["kind"]
    if kind == "AllRationals":
        return lambda q, p: True
    if kind == "IntegerDenominatorAtLeast2":
        return lambda q, p: p >= 2
    if kind == "Only":
        only = parse_qp(adm["slope"])
        return lambda q, p: (q, p) == only
    if kind == "GreaterThan":
        bq, bp = parse_qp(adm["bound"])
        return lambda q, p: q * bp > bq * p
    aq, ap = parse_qp(adm["anchor"])
    count = adm["count"]
    if kind == "IntersectionWithAtLeast":
        return lambda q, p: abs(p * aq - ap * q) >= count
    if kind == "IntersectionWithMoreThan":
        return lambda q, p: abs(p * aq - ap * q) > count
    raise ValueError(f"unknown admissible kind {kind!r}")
