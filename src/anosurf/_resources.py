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
import stat
from pathlib import Path
from typing import Optional, Union

from .errors import CatalogIntegrityError

ENV_OVERRIDE = "ANOSURF_CATALOG"
# the packaged data, read in place: the package must be installed as plain files
PACKAGE_DATA = Path(__file__).resolve().parent / "_data"

# Ceiling on the size of one data file. The largest shipped file holds
# 7,511 bytes, and all of them together 123,659.
DATA_FILE_CAP = 1 << 20

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


def _read_bounded(path: Path, relpath: str) -> bytes:
    """The bytes of the data file at path, refused unless it is a regular
    file of at most DATA_FILE_CAP bytes. The open does not wait for a
    FIFO's writer, and the read stops after DATA_FILE_CAP + 1 bytes, in
    case the file grew after the check."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise CatalogIntegrityError(relpath, "unusable file (not a regular file)")
        if info.st_size <= DATA_FILE_CAP:
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read(DATA_FILE_CAP + 1)
            if len(data) <= DATA_FILE_CAP:
                return data
        raise CatalogIntegrityError(relpath, f"unusable file (over {DATA_FILE_CAP} bytes)")
    finally:
        os.close(fd)


def load_json(relpath: str, override: Optional[PathLike] = None,
              sha256: Optional[str] = None) -> dict:
    """Parse one read of a data file, whose bytes must hash to `sha256`;
    a file that cannot be read, checked or parsed, nested too deeply for
    the parser included, is a CatalogIntegrityError, and so is one that
    is not a regular file or is over DATA_FILE_CAP bytes."""
    try:
        data = _read_bounded(resolve(relpath, override=override), relpath)
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
