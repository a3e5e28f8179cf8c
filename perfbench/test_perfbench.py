"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from checks import Expectations  # noqa: E402
from speed import ProcessReference, Speedometer  # noqa: E402
from workloads import Cold, Export, Laws, Sweep  # noqa: E402

EXPECT = Expectations(run.SRC / "anosurf" / "_data")
ORIENTABLE = "classifier.rule.carried.orientable-contradiction"


def _small(name, seed):
    if name == "sweep":
        return Sweep(EXPECT, seed, run.SRC, height=12)
    if name == "export":
        return Export(EXPECT, seed, run.SRC, certificate=96)
    if name == "laws":
        return Laws(EXPECT, seed, run.SRC)
    workload = Cold(EXPECT, seed, run.SRC)
    workload.TRACED_OPS = 2
    return workload


def _traced(workload):
    speed = ProcessReference(run.run_reference) if workload.fresh_process else Speedometer()
    return run.traced_run(workload, speed)


def _counters(layers):
    units = dict(run.per_layer())
    return {k: v for k, v in layers.items()
            if units.get(k) in ("count", "B") and not k.startswith("gc.")}


@pytest.mark.parametrize("name", ["sweep", "export", "laws", "cold"])
def test_traced_counters_repeat_for_one_seed(name):
    first, second = (_small(name, 7) for _ in range(2))
    layers_a, passes_a = _traced(first)
    layers_b, passes_b = _traced(second)
    assert not [e for p in passes_a + passes_b for e in p.errors]
    assert _counters(layers_a) == _counters(layers_b)
    busy = "traintrack.solutions" if name == "laws" else "classifier.traces"
    assert layers_a[busy] > 0


@pytest.mark.parametrize("name", ["sweep", "export"])
def test_orientable_contradiction_counts_basic_type_ii_at_p_two(name):
    workload = _small(name, 3)
    layers, _ = _traced(workload)
    p2 = sum(1 for _, p in workload.run if p == 2)
    assert p2 > 0
    assert layers[ORIENTABLE] == EXPECT.basic_type_ii * p2


def test_checks_catch_wrong_results():
    from anosurf import load_catalog
    from anosurf.classifier import ClassificationResult, classify
    from anosurf.slopes import Slope

    catalog = load_catalog()
    good = classify(Slope(7, 2), catalog)
    assert EXPECT.check_result((7, 2), good) is None

    missing = ClassificationResult(good.slope, good.kind, True, traces=good.traces[1:])
    assert "admissible" in EXPECT.check_result((7, 2), missing)

    doc = good.to_json("full")
    doc["exclusions"][0]["steps"].pop()
    assert EXPECT.check_document((7, 2), doc) is not None

    assert EXPECT.check_result((5, 1), classify(Slope(0, 1), catalog)) is not None


def test_benchmark_file_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.per_layer()]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.per_layer()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

