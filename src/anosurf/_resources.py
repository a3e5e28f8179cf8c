"""Access to the packaged data files, with an override hook.

Data lives under anosurf/_data. Setting the environment variable
ANOSURF_CATALOG to a directory mirroring that layout makes files found
there shadow the packaged ones, file by file. An explicit directory
passed by a caller takes precedence over the environment variable.
An override that is missing or not a directory raises
CatalogIntegrityError instead of falling back to the packaged data.
Integrity checking hashes whatever copy was actually resolved.
"""

from __future__ import annotations

import hashlib
import json
import os
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .errors import CatalogIntegrityError

ENV_OVERRIDE = "ANOSURF_CATALOG"

PathLike = Union[str, Path]


def override_dir() -> Optional[Path]:
    value = os.environ.get(ENV_OVERRIDE)
    if not value:
        return None
    return Path(value)


def _package_data_root():
    return resources.files("anosurf") / "_data"


def resolve(relpath: str, override: Optional[PathLike] = None) -> Path:
    """Path of the active copy of a data file."""
    roots = []
    if override is not None:
        roots.append(Path(override))
    env_root = override_dir()
    if env_root is not None:
        roots.append(env_root)
    for root in roots:
        # a missing override must fail, never fall back to the packaged data
        if not root.is_dir():
            raise CatalogIntegrityError(str(root), "the override is not a directory")
        candidate = root / relpath
        if candidate.exists():
            return candidate
    packaged = _package_data_root() / relpath
    with resources.as_file(packaged) as p:
        return Path(p)


def load_json(relpath: str, override: Optional[PathLike] = None,
              sha256: Optional[str] = None) -> dict:
    """Parse a data file from one read, whose bytes must hash to `sha256`."""
    data = resolve(relpath, override=override).read_bytes()
    if sha256 is not None:
        have = hashlib.sha256(data).hexdigest()
        if have != sha256:
            raise CatalogIntegrityError(
                relpath, f"checksum {have[:12]}... does not match the manifest")
    return json.loads(data.decode("utf-8"))


def sha256_of(relpath: str, override: Optional[PathLike] = None) -> str:
    path = resolve(relpath, override=override)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
