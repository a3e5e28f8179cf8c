"""Comparison-swap mutants of one package module, each run against the tests.

A mutant is the package with one comparison operator of one module
swapped: `<` and `<=`, `>` and `>=`, `==` and `!=`. The script copies the
checkout (without .git) to a temporary directory once, and for each
mutant writes the mutated module into the copy and runs pytest there
with -x, on tier-1 or on the pytest arguments given after the module.
A mutant is killed when pytest fails or runs for longer than TIMEOUT
seconds, and survives when pytest passes. The unmutated copy must pass
first, or the script stops with status 2. Bytecode is never written, so
a swap that keeps the file's size and mtime is still recompiled.

    python tests/mutants.py MODULE [PYTEST_ARG ...]

MODULE names a module of the package, for example branched_surface. The
script prints one line per mutant, then every survivor with its line.
It uses only the standard library and is not a tier-1 test: each mutant
runs the suite once, so the comparisons of one module take minutes.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = ["--continue-on-collection-errors"]
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
TIMEOUT = 600


class Mutant(NamedTuple):
    line: int    # 1-based
    col: int     # character offset of the operator in its line
    op: str
    swap: str


def mutants(text: str) -> List[Mutant]:
    """Every comparison operator of the source with a swap, in order."""
    lines = text.splitlines(keepends=True)

    def at(lineno: int, byte_col: int):
        # ast counts columns in UTF-8 bytes, tokenize in characters
        return lineno, len(lines[lineno - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    ops = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
           if tok.type == tokenize.OP and tok.string in SWAPS]
    found = set()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Compare):
            continue
        for left, right in zip([node.left, *node.comparators], node.comparators):
            start = at(left.end_lineno, left.end_col_offset)
            stop = at(right.lineno, right.col_offset)
            # an `is`, `in` or `not in` between them is a name, not an op
            for tok in ops:
                if start <= tok.start and tok.end <= stop:
                    found.add(Mutant(*tok.start, tok.string, SWAPS[tok.string]))
    return sorted(found)


def apply(text: str, mutant: Mutant) -> str:
    lines = text.splitlines(keepends=True)
    line = lines[mutant.line - 1]
    assert line[mutant.col:mutant.col + len(mutant.op)] == mutant.op, mutant
    lines[mutant.line - 1] = line[:mutant.col] + mutant.swap + line[mutant.col + len(mutant.op):]
    return "".join(lines)


def run_tests(tree: Path, args: List[str]) -> str:
    """'killed', 'timeout' or 'survived': pytest -x on the copy."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = child.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        # the suite starts processes of its own; end them all
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"
    return "survived" if code == 0 else "killed"


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip().split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    module, args = argv[0], argv[1:] or TIER_1
    relpath = Path("src", "anosurf", f"{module}.py")
    text = (ROOT / relpath).read_text(encoding="utf-8")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="anosurf-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = tree / relpath
        # a copy that fails unmutated would count every mutant as killed
        if run_tests(tree, args) != "survived":
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        found = mutants(text)
        for n, mutant in enumerate(found, 1):
            target.write_text(apply(text, mutant), encoding="utf-8")
            outcome = run_tests(tree, args)
            print(f"[{n}/{len(found)}] {relpath}:{mutant.line}:{mutant.col + 1} "
                  f"{mutant.op} -> {mutant.swap}: {outcome}", flush=True)
            if outcome == "survived":
                survivors.append(mutant)
    lines = text.splitlines()
    print(f"{module}: {len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for mutant in survivors:
        print(f"  {relpath}:{mutant.line} {mutant.op} -> {mutant.swap}: "
              f"{lines[mutant.line - 1].strip()}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
