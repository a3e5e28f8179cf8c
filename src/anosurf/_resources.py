"""Access to the packaged data files, with an override hook.

Data lives under anosurf/_data. One override directory shadows it file
by file: the one a caller passes, else the one named by the environment
variable ANOSURF_CATALOG, never both; an empty variable names none. An
override that is missing or not a directory, the empty path included,
raises CatalogIntegrityError instead of falling back to the packaged
data, and so does a name in it that cannot be read, a dangling symlink
included. Every data file is read through one bounded reader,
and integrity checking hashes whatever copy was actually resolved.

SHIPPED_MANIFEST_SHA256 is the digest of the packaged manifest's bytes.
A manifest read with this digest is the shipped one, so every file that
matches a checksum it lists is byte-identical to a shipped file, which
the test suite validates against its schema: catalog.load_catalog skips
the schema walk for those files. Rebuilding the data changes the digest,
and a test prints the new one.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from pathlib import Path
from typing import Optional, Tuple, Union

from .errors import CatalogIntegrityError

ENV_OVERRIDE = "ANOSURF_CATALOG"
# the packaged data, read in place: the package must be installed as plain files
PACKAGE_DATA = Path(__file__).resolve().parent / "_data"

# Ceiling on the size of one data file. The largest shipped file holds
# 7,417 bytes, and all of them together 102,111.
DATA_FILE_CAP = 1 << 20

# sha256 of the bytes of _data/catalog/manifest.json
SHIPPED_MANIFEST_SHA256 = "102270bf3bb23a9d67d7ea3c302a482302caab3d9cef340953b866022e9d6699"

PathLike = Union[str, Path]


def override_dir() -> Optional[Path]:
    value = os.environ.get(ENV_OVERRIDE)
    if not value:
        return None
    return Path(value)


def resolve(relpath: str, override: Optional[PathLike] = None) -> Path:
    """Path of the active copy of a data file."""
    if override == "":
        # Path("") is the current directory, which an empty path does not name
        raise CatalogIntegrityError("", "the override is not a directory")
    root = Path(override) if override is not None else override_dir()
    if root is not None:
        # a missing override must fail, never fall back to the packaged data
        if not root.is_dir():
            raise CatalogIntegrityError(str(root), "the override is not a directory")
        # a name that is there but cannot be read, a dangling symlink say,
        # is the override's copy and fails to read
        candidate = root / relpath
        if os.path.lexists(candidate):
            return candidate
    return PACKAGE_DATA / relpath


def _read_bounded(path: Path, relpath: str) -> bytes:
    """The bytes of the data file at path, refused unless it is a regular
    file of at most DATA_FILE_CAP bytes. The open does not wait for a
    FIFO's writer. The read asks for one byte more than the size the
    check saw, and only if that byte comes, the file having grown since,
    reads on until DATA_FILE_CAP + 1 bytes."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise CatalogIntegrityError(relpath, "unusable file (not a regular file)")
        if info.st_size <= DATA_FILE_CAP:
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read(info.st_size + 1)
                if len(data) > info.st_size:
                    data += fh.read(DATA_FILE_CAP + 1 - len(data))
            if len(data) <= DATA_FILE_CAP:
                return data
        raise CatalogIntegrityError(relpath, f"unusable file (over {DATA_FILE_CAP} bytes)")
    finally:
        os.close(fd)


def _distinct_keys(pairs: list) -> dict:
    """The JSON object of these pairs, refused if a key repeats: the parser
    would keep its last value, and the bytes of the others would be
    checksummed but never used."""
    seen: set = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"the key {key!r} is repeated in one object")
        seen.add(key)
    return dict(pairs)


def load_json(relpath: str, override: Optional[PathLike] = None,
              sha256: Optional[str] = None) -> Tuple[dict, str]:
    """The parse of one read of a data file, whose bytes must hash to
    `sha256` when it is given, and the sha256 of those bytes; a file that
    cannot be read, checked or parsed, nested too deeply for the parser
    included or with a key repeated in one object, is a
    CatalogIntegrityError, and so is one that is not a regular file or is
    over DATA_FILE_CAP bytes."""
    try:
        data = _read_bounded(resolve(relpath, override=override), relpath)
        have = hashlib.sha256(data).hexdigest()
        if sha256 is not None and have != sha256:
            raise CatalogIntegrityError(
                relpath, f"checksum {have[:12]}... does not match the manifest")
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_distinct_keys)
        return doc, have
    except (OSError, RecursionError, ValueError) as exc:
        raise CatalogIntegrityError(relpath, f"unusable file ({type(exc).__name__}: {exc})") from exc


def sha256_of(relpath: str, override: Optional[PathLike] = None) -> str:
    """The SHA-256 of one bounded read of a data file, refused as
    _read_bounded refuses it. The package itself does not call it."""
    return hashlib.sha256(_read_bounded(resolve(relpath, override=override), relpath)).hexdigest()
