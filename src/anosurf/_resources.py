"""Access to the packaged data files, with an override hook.

Data lives under anosurf/_data. One override directory shadows it file
by file: the one a caller passes, else the one named by the environment
variable ANOSURF_CATALOG, never both. An override that is missing or not
a directory raises CatalogIntegrityError instead of falling back to the
packaged data. Integrity checking hashes whatever copy was actually resolved.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from .errors import CatalogIntegrityError

ENV_OVERRIDE = "ANOSURF_CATALOG"
# the packaged data, read in place: the package must be installed as plain files
PACKAGE_DATA = Path(__file__).resolve().parent / "_data"

PathLike = Union[str, Path]


def override_dir() -> Optional[Path]:
    value = os.environ.get(ENV_OVERRIDE)
    if not value:
        return None
    return Path(value)


def resolve(relpath: str, override: Optional[PathLike] = None) -> Path:
    """Path of the active copy of a data file."""
    root = Path(override) if override is not None else override_dir()
    if root is not None:
        # a missing override must fail, never fall back to the packaged data
        if not root.is_dir():
            raise CatalogIntegrityError(str(root), "the override is not a directory")
        candidate = root / relpath
        if candidate.exists():
            return candidate
    return PACKAGE_DATA / relpath


def load_json(relpath: str, override: Optional[PathLike] = None,
              sha256: Optional[str] = None) -> dict:
    """Parse one read of a data file, whose bytes must hash to `sha256`;
    a file that cannot be read, checked or parsed, nested too deeply for
    the parser included, is a CatalogIntegrityError."""
    try:
        data = resolve(relpath, override=override).read_bytes()
        if sha256 is not None:
            have = hashlib.sha256(data).hexdigest()
            if have != sha256:
                raise CatalogIntegrityError(
                    relpath, f"checksum {have[:12]}... does not match the manifest")
        return json.loads(data.decode("utf-8"))
    except (OSError, RecursionError, ValueError) as exc:
        raise CatalogIntegrityError(relpath, f"unusable file ({type(exc).__name__}: {exc})") from exc


def sha256_of(relpath: str, override: Optional[PathLike] = None) -> str:
    path = resolve(relpath, override=override)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
