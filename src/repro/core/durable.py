"""Crash-durable file primitives shared by the durability layer.

Everything that survives a process here survives it the same way:

* **Atomic replace** — payloads are written to a uniquely-named
  ``*.tmp`` file in the *same directory*, flushed, ``fsync``'d, and then
  ``os.replace``'d over the final name.  A reader never observes a
  half-written file: it sees the old bytes, the new bytes, or nothing.
  Stray ``*.tmp`` files are the only possible crash residue and
  :func:`sweep_temp_files` removes them on the next startup.
* **Self-describing records** — :func:`write_record` prefixes the
  payload with a magic line and a JSON header carrying the payload's
  blake2b checksum, its length, and caller metadata.  :func:`read_record`
  re-verifies all of it on every load and raises
  :class:`CorruptRecordError` on any mismatch, so torn writes from a
  crashed or concurrent writer are *rejected*, never deserialized.
* **Quarantine, don't delete** — :func:`quarantine_file` moves a corrupt
  record into a ``quarantine/`` subdirectory (atomically, unique name)
  so the bad bytes stay inspectable while the caller recomputes.

Used by the artifact store's disk tier
(:mod:`repro.server.artifacts`), the per-shard sweep checkpoints
(:mod:`repro.core.checkpoint`) and the service's drain-time list of
pending requests.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

__all__ = [
    "CorruptRecordError",
    "atomic_write_bytes",
    "checksum_of",
    "quarantine_file",
    "read_record",
    "sweep_temp_files",
    "write_record",
]

#: First line of every record file; a version bump invalidates old files.
MAGIC = b"repro-durable-v1\n"

#: Crash residue suffix: every writer stages through ``<unique>.tmp`` in
#: the destination directory, so startup sweeps know exactly what to rm.
TMP_SUFFIX = ".tmp"


class CorruptRecordError(Exception):
    """A durable record failed integrity verification.

    Deliberately *not* a :class:`~repro.errors.ReproError`: corruption is
    an infrastructure condition every caller here handles in place
    (quarantine + recompute), never a user-facing failure.
    """


def checksum_of(payload: bytes) -> str:
    """blake2b-16 hex digest — the integrity checksum for record payloads."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def atomic_write_bytes(path: str, blob: bytes, fsync: bool = True) -> None:
    """Write ``blob`` to ``path`` atomically (tmp + fsync + replace).

    The temp file lives in ``path``'s directory so the final
    ``os.replace`` is a same-filesystem rename.  ``fsync=False`` skips
    the data fsync for callers where post-crash loss of the *newest*
    write is acceptable (the rename is still atomic either way).
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + ".", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        # Persist the directory entry too, or the rename itself can be
        # lost on power failure even though the data blocks made it.
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def write_record(path: str, payload: bytes, meta: dict, fsync: bool = True) -> None:
    """Atomically write a checksummed record: magic + JSON header + payload.

    ``meta`` must be JSON-serializable; ``checksum`` and ``nbytes`` are
    added by this function and verified by :func:`read_record`.
    """
    header = dict(meta)
    header["checksum"] = checksum_of(payload)
    header["nbytes"] = len(payload)
    blob = MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    atomic_write_bytes(path, blob, fsync=fsync)


def read_record(path: str) -> tuple[dict, bytes]:
    """Load and verify a record; ``(meta, payload)`` or raise.

    Raises :class:`FileNotFoundError` for a missing file and
    :class:`CorruptRecordError` for *anything* wrong with an existing
    one — bad magic, unparseable header, truncated payload, checksum
    mismatch.  Callers quarantine on the latter and recompute.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(MAGIC):
        raise CorruptRecordError(f"{path}: bad magic")
    rest = blob[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise CorruptRecordError(f"{path}: truncated header")
    try:
        meta = json.loads(rest[:newline])
    except ValueError as exc:
        raise CorruptRecordError(f"{path}: unparseable header: {exc}") from None
    if not isinstance(meta, dict):
        raise CorruptRecordError(f"{path}: header is not an object")
    payload = rest[newline + 1:]
    if meta.get("nbytes") != len(payload):
        raise CorruptRecordError(
            f"{path}: payload is {len(payload)} bytes, header says "
            f"{meta.get('nbytes')}"
        )
    if meta.get("checksum") != checksum_of(payload):
        raise CorruptRecordError(f"{path}: payload checksum mismatch")
    return meta, payload


def quarantine_file(path: str, quarantine_dir: str) -> str | None:
    """Move a corrupt file into ``quarantine_dir``; returns the new path.

    The destination name is made unique with pid + counter so repeated
    quarantines of the same key never overwrite evidence.  Returns
    ``None`` if the file vanished first (a concurrent writer replaced
    and a concurrent reader already quarantined it).
    """
    os.makedirs(quarantine_dir, exist_ok=True)
    base = os.path.basename(path)
    for attempt in range(1000):
        target = os.path.join(quarantine_dir, f"{base}.{os.getpid()}.{attempt}")
        if os.path.exists(target):
            continue
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return None
        return target
    return None


def sweep_temp_files(directory: str) -> int:
    """Remove crash-residue ``*.tmp`` files under ``directory`` (recursive).

    Returns the number removed.  Safe against concurrent sweepers: a
    file someone else removed first simply doesn't count.
    """
    removed = 0
    if not os.path.isdir(directory):
        return 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if not name.endswith(TMP_SUFFIX):
                continue
            try:
                os.unlink(os.path.join(root, name))
            except OSError:
                continue
            removed += 1
    return removed
