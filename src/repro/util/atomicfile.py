"""Crash-safe file writes: the one write path of every on-disk store.

The artifact cache, the precompute store, the kernel library, run
records, run sidecars and job records all write through this module.
Its contract: a file appears under its final name all at once, even if
the writing process crashes or is killed, so a reader sees the previous
file, no file, or the whole new one.  Each write fills a
:func:`tempfile.mkstemp` file beside the target (``.<name>.<random>.tmp``,
mode 0600), then renames or links it into place.

Nothing is fsynced, so nothing is promised across power loss.  A killed
writer can leave its temp file behind; no store reads ``.tmp`` names,
and nothing here removes them.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Iterator, Tuple, Union

PathArg = Union[str, Path]


def _temp_beside(directory: Path, name: str) -> Tuple[int, str]:
    return tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")


def _discard(tmp_name: str) -> None:
    try:
        os.unlink(tmp_name)
    except OSError:
        pass


def write_atomic(path: PathArg, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step (last writer wins)."""
    path = Path(path)
    handle, tmp_name = _temp_beside(path.parent, path.name)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        _discard(tmp_name)
        raise


@contextlib.contextmanager
def atomic_path(path: PathArg) -> Iterator[str]:
    """Yield a temp name for a writer that opens the file itself.

    When the block exits normally the temp file replaces ``path``; when
    it raises, the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    handle, tmp_name = _temp_beside(path.parent, path.name)
    os.close(handle)
    try:
        yield tmp_name
        os.replace(tmp_name, path)
    except BaseException:
        _discard(tmp_name)
        raise


def create_unique(directory: PathArg, stem: str, data: bytes) -> Path:
    """Create ``<stem>.json`` (else ``<stem>-1.json``, ...) holding ``data``.

    Never overwrites: the whole file is written under a temp name and
    then hard-linked to the first free name, so a concurrent creator
    takes the next suffix and no reader sees a partial file.
    """
    directory = Path(directory)
    handle, tmp_name = _temp_beside(directory, stem)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        path = directory / f"{stem}.json"
        attempt = 0
        while True:
            try:
                os.link(tmp_name, path)
                return path
            except FileExistsError:
                attempt += 1
                path = directory / f"{stem}-{attempt}.json"
    finally:
        _discard(tmp_name)
