"""The packaged data must be exactly what tools/build_data.py writes."""

import importlib.util
import pathlib

from conftest import DATA_DIR

BUILDER = pathlib.Path(__file__).resolve().parent.parent / "tools" / "build_data.py"


def _files(root: pathlib.Path):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_rebuild_matches_packaged_data(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("build_data", BUILDER)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)

    assert builder.main([str(tmp_path)]) == 0
    assert "all build checks passed" in capsys.readouterr().out
    assert _files(tmp_path) == _files(DATA_DIR)
    for rel in _files(DATA_DIR):
        assert (tmp_path / rel).read_bytes() == (DATA_DIR / rel).read_bytes(), rel
