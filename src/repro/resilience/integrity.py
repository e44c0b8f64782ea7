"""Self-verifying artifact primitives: checksums, atomic writes, quarantine.

Every durable store in the harness (the sweep-result cache, the run
database, the poison-blame log) trusts its own disk; this module is
the shared machinery that lets them *verify* instead:

* **content checksums** — :func:`seal` stamps a document with the
  sha256 of its canonical JSON body; :func:`verify` recomputes and
  compares on every read.  A bit-flip anywhere in a sealed document is
  detected, never silently deserialized into a wrong result.
* **atomic writes** — :func:`atomic_write_text` is write-temp-then-
  rename (with fsync), so a crash mid-emit never leaves a torn file in
  place of a good one.
* **an injectable write shim** — every write issued through this
  module first consults the installed shim, the seam the host-fault
  harness (``repro chaos host``) uses to simulate ENOSPC and other
  disk failures without filling a real disk.
* **quarantine, never deletion** — corrupt artifacts are moved into
  a ``<store>.quarantine/`` directory next to the store they came
  from, named by content hash so the operation is deterministic and
  idempotent.  Evidence of corruption is preserved for post-mortems;
  the store itself heals by recomputing.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional

#: Key under which a document's checksum is stored (excluded from the
#: checksummed body; part of the on-disk contract of every sealed store).
INTEGRITY_KEY = "integrity"

# ----------------------------------------------------------------------
# Write shim: the ENOSPC / disk-fault injection seam.
# ----------------------------------------------------------------------

#: When set, called as ``shim(path, nbytes)`` before every write issued
#: through this module; raising ``OSError`` simulates the disk failing.
_WRITE_SHIM: Optional[Callable[[Path, int], None]] = None


def install_write_shim(shim: Optional[Callable[[Path, int], None]]) -> None:
    """Install (or clear, with None) the global write shim."""
    global _WRITE_SHIM
    _WRITE_SHIM = shim


@contextmanager
def write_shim(shim: Callable[[Path, int], None]):
    """Temporarily route all resilience-layer writes through ``shim``."""
    saved = _WRITE_SHIM
    install_write_shim(shim)
    try:
        yield
    finally:
        install_write_shim(saved)


def atomic_write_text(path, text: str) -> None:
    """Write-temp-fsync-then-rename: readers never observe a torn file.

    The data reaches the disk before the rename, so a crash — of the
    process or the host — leaves either the old file or the whole new
    one.  The write goes through the injectable shim first.  The temp
    file lives in the destination directory (rename must not cross
    filesystems) and carries the pid so concurrent writers race
    benignly — last rename wins with a complete file either way.
    """
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        if _WRITE_SHIM is not None:
            _WRITE_SHIM(tmp, len(data))
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Content checksums.
# ----------------------------------------------------------------------

def content_checksum(doc) -> str:
    """sha256 over the canonical (sorted, compact) JSON of ``doc``."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def seal(doc: Dict[str, object]) -> Dict[str, object]:
    """Return ``doc`` with an ``integrity`` checksum over its body."""
    body = {k: v for k, v in doc.items() if k != INTEGRITY_KEY}
    return {**body, INTEGRITY_KEY: content_checksum(body)}


def verify(doc) -> bool:
    """True iff ``doc`` is a sealed dict whose checksum matches its body."""
    if not isinstance(doc, dict):
        return False
    stamp = doc.get(INTEGRITY_KEY)
    if not isinstance(stamp, str):
        return False
    body = {k: v for k, v in doc.items() if k != INTEGRITY_KEY}
    return content_checksum(body) == stamp


# ----------------------------------------------------------------------
# Quarantine: preserve corrupt artifacts, never delete them.
# ----------------------------------------------------------------------

def quarantine_dir(store_path) -> Path:
    """``<store>.quarantine/`` next to the store (file or directory)."""
    store_path = Path(store_path)
    return store_path.parent / (store_path.name + ".quarantine")


def quarantine_file(path, store_path) -> Optional[Path]:
    """Move a corrupt artifact into the store's quarantine directory.

    Rename-based (no new disk space needed, so it works on a full
    disk); the destination is suffixed with the content hash so two
    distinct corruptions of the same filename both survive.  Returns
    the quarantine path, or None when the move itself failed (the
    caller should then treat the artifact as untrusted but in place).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        data = b""
    digest = hashlib.sha256(data).hexdigest()[:12]
    qdir = quarantine_dir(store_path)
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        qpath = qdir / f"{path.name}.{digest}"
        path.replace(qpath)
        return qpath
    except OSError:
        return None
