"""Deterministic restamped edits of the shipped catalog.

A case makes one edit of one shipped data file, chosen by its seed: it
sets a value from a fixed pool, drops a key or duplicates a list item.
Unless the edited file is the manifest, the manifest is then restamped,
so the edit passes the checksums and reaches the builders. The case runs
each CLI command of `commands` on the edited catalog, and each must exit
with a code in EXIT_CODES: a fault in the data is refused with its
documented exit code, never with a traceback.

    python tests/catalogfuzz.py [FIRST [COUNT]]

runs the cases of COUNT seeds from FIRST (default 0 and 100) and prints
every case that raises or exits with another code. It also validates
each edited file with jsonschema against its packaged schema (under
src/anosurf/_schemas) and prints every case the schema refuses but some
command does not refuse as unusable data (exit 5); `catalog check --laws
--law-bound 4` exits 4 on the shipped data too. Last, it prints every
case that a plain `catalog check` passes (exit 0) while a classify
command does not: a catalog that checks ok must classify.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import sys
import tempfile
import traceback
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, NamedTuple, Tuple

from jsonschema import Draft202012Validator

from anosurf.catalog import FAMILIES, MANIFEST
from anosurf.cli import main
from conftest import DATA_DIR, load_schema, restamp_manifest

POOL = (None, True, False, 0, 1, -1, 7, 2.5, "", "x", "Q1", "inf", "1/2",
        [], {}, [0, 0], ["x"], {"x": 1})
EXIT_CODES = {0, 3, 4, 5}
# the schema of each data file, by path prefix
SCHEMAS = (("spine.json", "spine"), ("qcomplexes.json", "qcomplexes"), ("tracks/", "track"),
           (MANIFEST, "manifest"), ("catalog/entries/", "entry"))


def schema_of(relpath: str) -> str:
    """The name of the schema of a data file."""
    return next(name for prefix, name in SCHEMAS if relpath.startswith(prefix))


@lru_cache(maxsize=None)
def oracle(name: str) -> Draft202012Validator:
    """jsonschema's validator for a packaged schema, independent of the package's."""
    return Draft202012Validator(load_schema(f"{name}.schema.json"))


CLASSIFY = (["classify", "7/2"], ["classify", "5/3"])
CHECK = ["catalog", "check"]


def commands(family: str) -> List[List[str]]:
    return [*CLASSIFY, ["sweep", "--max", "4"], ["track", family, "--bound", "4"], CHECK,
            ["catalog", "check", "--laws", "--law-bound", "4"], ["catalog", "list"]]


def checked_but_unclassified(runs: List[Tuple[List[str], int]]) -> bool:
    """Whether `catalog check` passed the case while a classify refused it."""
    codes = {tuple(argv): code for argv, code in runs}
    return codes[tuple(CHECK)] == 0 and any(codes[tuple(argv)] for argv in CLASSIFY)


def data_files(root: Path) -> List[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*.json"))


def _paths(doc, path=()) -> Iterator[tuple]:
    """The key path of every node below the root, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def mutate(doc, rng: random.Random) -> str:
    """Make one edit of doc in place and describe it."""
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.choice(("set", "drop", "duplicate") if isinstance(parent, list) else ("set", "drop"))
    if op == "set":
        value = copy.deepcopy(rng.choice(POOL))
        parent[key] = value
        return f"set {list(path)} to {json.dumps(value)}"
    if op == "drop":
        del parent[key]
        return f"drop {list(path)}"
    parent.insert(key, copy.deepcopy(parent[key]))
    return f"duplicate {list(path)}"


class Case(NamedTuple):
    relpath: str        # the edited file
    doc: object         # its edited document
    edit: str           # what was edited
    family: str         # the family the track command checks


def make_case(root: Path, seed: int) -> Case:
    rng = random.Random(seed)
    relpath = rng.choice(data_files(root))
    doc = json.loads((root / relpath).read_bytes())
    edit = mutate(doc, rng)
    family = relpath[len("tracks/"):-len(".json")] if relpath.startswith("tracks/") \
        else rng.choice(FAMILIES)
    return Case(relpath, doc, f"{relpath}: {edit}", family)


def run_case(root: Path, case: Case) -> List[Tuple[List[str], int]]:
    """Each command with its exit code on root with the case's edit, after
    which root is restored. An exception of a command propagates."""
    path, manifest = root / case.relpath, root / MANIFEST
    original, original_manifest = path.read_bytes(), manifest.read_bytes()
    try:
        path.write_text(json.dumps(case.doc))
        if case.relpath != MANIFEST:
            restamp_manifest(root)
        return [(argv, main([*argv, "--catalog", str(root)])) for argv in commands(case.family)]
    finally:
        path.write_bytes(original)
        manifest.write_bytes(original_manifest)


def _search(first: int, count: int) -> int:
    bad = unseen = missed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        shutil.copytree(DATA_DIR, root)
        for seed in range(first, first + count):
            case, out = make_case(root, seed), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    runs = run_case(root, case)
            except Exception:
                bad += 1
                print(f"seed {seed}: {case.edit}: raised\n{traceback.format_exc()}")
                continue
            for argv, code in runs:
                if code not in EXIT_CODES:
                    bad += 1
                    print(f"seed {seed}: {case.edit}: {' '.join(argv)} exited {code}")
            schema = schema_of(case.relpath)
            if any(code != 5 for _, code in runs) and not oracle(schema).is_valid(case.doc):
                unseen += 1
                print(f"seed {seed}: {case.edit}: the {schema} schema refuses it, "
                      f"not every command exits 5")
            if checked_but_unclassified(runs):
                missed += 1
                print(f"seed {seed}: {case.edit}: catalog check exits 0, a classify does not")
    print(f"{count} cases from seed {first}, {bad} faults, "
          f"{unseen} schema refusals that load, "
          f"{missed} classify refusals that catalog check passes")
    return 1 if bad else 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    sys.exit(_search(*args, *(0, 100)[len(args):]))
