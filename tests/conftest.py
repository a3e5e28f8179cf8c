import json
import pathlib

import pytest

from anosurf import _resources
from anosurf.catalog import load_catalog

DATA_DIR = pathlib.Path(_resources.resolve("spine.json")).parent
SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"

# balanced, uses every edge, and puts three shorts around P1 corners; it is
# none of the canonical complexes
ALL_POSITIVE_COMPLEX = {"s1": 1, "s3": 1, "s5": 1, "t4": 1, "mc2": 1, "md3": 1}


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def spine(catalog):
    return catalog.spine


def load_data_json(relpath: str) -> dict:
    return _resources.load_json(relpath)


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))
