"""Content-addressed artifact store with integrity checking.

The analysis service amortizes work across requests by caching what it
builds: parsed circuits, resolved SP maps, and finished analysis
payloads.  A long-lived cache is a liability unless it defends itself,
so every entry here is stored as *verified bytes*:

* **Content addressing** — keys are blake2b digests of the request
  content (:func:`digest_of`), so two clients asking for the same
  circuit + knobs share one entry and a changed request can never alias
  a stale one.
* **Integrity checksums** — each entry keeps the blake2b digest of its
  pickled payload, recomputed on every load.  A mismatch (bit rot, a
  buggy writer, the chaos harness flipping bytes) quarantines the entry:
  it is dropped, the key is recorded, and the caller recomputes from
  scratch — a corrupt artifact can degrade latency, never correctness.
* **Mutation tokens** — entries derived from a live
  :class:`~repro.netlist.circuit.Circuit` record its ``mutation_token``
  (the PR-7 staleness guard); a lookup presenting a different token
  drops the entry instead of serving pre-edit results.
* **Bounded LRU eviction** — the store holds at most ``max_bytes`` of
  payload; least-recently-used entries are evicted on insert, and an
  object bigger than the whole budget is simply not stored.
* **Optional disk tier** — with ``store_dir`` set, every put is also
  written as a content-addressed file (``<store_dir>/<kind>/<key>.art``)
  through the atomic temp-file + fsync + rename path of
  :mod:`repro.core.durable`, and a memory miss falls through to a
  checksum-verified disk read that *promotes* the entry back into
  memory.  Both tiers are LRU-by-bytes: memory eviction demotes an entry
  to disk-only (the hot set stays small, the warm set survives), disk
  eviction unlinks the file.  A restarted server rescans the directory
  (removing crash-residue ``*.tmp`` files) and answers warm from disk.
  Corrupt disk files are moved to ``<store_dir>/quarantine/`` and
  recomputed, exactly like the in-memory quarantine.  Concurrent
  servers may share one ``store_dir``: writes are last-writer-wins via
  atomic rename and every read is checksum-verified, so a torn or
  foreign file is rejected, never served.

The store is thread-safe: the service calls it from worker threads.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict

from repro.core.durable import (
    CorruptRecordError,
    checksum_of,
    quarantine_file,
    read_record,
    sweep_temp_files,
    write_record,
)

__all__ = ["ArtifactStore", "digest_of"]


def digest_of(*parts) -> str:
    """A stable blake2b content digest over heterogeneous parts.

    Each part is serialized to its ``repr`` (bytes pass through raw) and
    length-prefixed before hashing, so ``("ab", "c")`` and ``("a", "bc")``
    never collide.  ``repr`` keeps the digest exact for floats and stable
    for the JSON-shaped values the wire protocol produces (strings,
    numbers, lists, dicts round-tripped by ``json``).
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        blob = part if isinstance(part, bytes) else repr(part).encode()
        h.update(str(len(blob)).encode())
        h.update(b":")
        h.update(blob)
    return h.hexdigest()


def _token_text(token) -> str | None:
    """Mutation tokens serialized for the disk record's JSON header.

    ``repr`` keeps integer tokens exact and any exotic token stable
    enough for the only operation ever performed: equality against the
    token presented at load time.
    """
    return None if token is None else repr(token)


class _Entry:
    __slots__ = ("payload", "checksum", "nbytes", "token")

    def __init__(self, payload: bytes, token):
        self.payload = payload
        self.checksum = checksum_of(payload)
        self.nbytes = len(payload)
        self.token = token


class ArtifactStore:
    """Bounded, checksummed, token-aware pickle cache.

    Parameters
    ----------
    max_bytes:
        In-memory payload budget.  Inserts evict least-recently-used
        entries until the new entry fits; an entry larger than the whole
        budget is rejected (counted in ``stats()["oversize"]``).
    store_dir:
        Directory for the disk tier, or ``None`` (memory only).  Created
        on demand; an existing directory is rescanned so the store
        answers warm after a restart (crash-residue ``*.tmp`` files are
        removed first, counted in ``stats()["tmp_cleaned"]``).
    disk_bytes:
        Disk-tier payload budget (ignored without ``store_dir``).
        Least-recently-used files are unlinked when a write would exceed
        it.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024,
                 store_dir: str | None = None,
                 disk_bytes: int = 512 * 1024 * 1024):
        self.max_bytes = int(max_bytes)
        self.store_dir = None if store_dir is None else os.fspath(store_dir)
        self.disk_bytes = int(disk_bytes)
        self._entries: OrderedDict[tuple[str, str], _Entry] = OrderedDict()
        self._bytes = 0
        #: Disk-tier LRU index: (kind, key) -> file payload size.  A
        #: bookkeeping cache, not the source of truth — lookups always
        #: probe the filesystem, so entries written by *another* process
        #: sharing the directory are found (and then indexed) too.
        self._disk: OrderedDict[tuple[str, str], int] = OrderedDict()
        self._disk_bytes_used = 0
        self._lock = threading.Lock()
        #: Keys dropped on checksum mismatch, kept for inspection until
        #: a fresh put() rehabilitates them.
        self.quarantined: set[tuple[str, str]] = set()
        self._stats = {
            "hits": 0, "misses": 0, "stale": 0, "corrupt": 0,
            "evictions": 0, "oversize": 0, "puts": 0,
            "disk_hits": 0, "disk_evictions": 0, "disk_errors": 0,
            "tmp_cleaned": 0,
        }
        if self.store_dir is not None:
            self._scan()

    # ----------------------------------------------------------------- api

    def put(self, kind: str, key: str, obj, token=None) -> bool:
        """Store ``obj`` under ``(kind, key)``; returns False if oversize.

        A successful put rehabilitates a quarantined key — the fresh
        payload has a fresh checksum, so the corrupt bytes are gone.
        """
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        entry = _Entry(payload, token)
        with self._lock:
            self._stats["puts"] += 1
            if entry.nbytes > self.max_bytes:
                self._stats["oversize"] += 1
                return False
            self._promote(kind, key, entry)
            self._disk_put(kind, key, entry)
        return True

    def get(self, kind: str, key: str, token=None):
        """Load ``(kind, key)`` or ``None`` (miss / stale / corrupt).

        ``token`` is compared against the token recorded at put time;
        a mismatch means the source circuit was mutated since — the
        entry is dropped and the lookup misses (never serve stale).
        A checksum mismatch quarantines the entry the same way.

        A memory miss falls through to the disk tier (when configured):
        a verified disk read counts as ``disk_hits``, promotes the entry
        back into memory and returns it.  A corrupt *memory* entry
        purges both tiers — the caller's recompute is the recovery path,
        and its fresh put() repopulates disk.
        """
        with self._lock:
            entry = self._entries.get((kind, key))
            if entry is None:
                payload = self._disk_get(kind, key, token)
                if payload is None:
                    self._stats["misses"] += 1
                    return None
                self._promote(kind, key, _Entry(payload, token))
                self._stats["disk_hits"] += 1
                return pickle.loads(payload)
            if entry.token != token:
                self._drop((kind, key))
                self._disk_drop(kind, key)
                self._stats["stale"] += 1
                return None
            if checksum_of(entry.payload) != entry.checksum:
                self._drop((kind, key))
                self._disk_drop(kind, key)
                self.quarantined.add((kind, key))
                self._stats["corrupt"] += 1
                return None
            self._entries.move_to_end((kind, key))
            self._stats["hits"] += 1
            payload = entry.payload
        return pickle.loads(payload)

    def corrupt(self, kind: str, key: str) -> bool:
        """Flip a byte of a stored payload (chaos-harness hook).

        Returns True if the entry existed.  The next :meth:`get` of the
        key detects the mismatch and quarantines it — this is how the
        service chaos suite pins the integrity path end to end.
        """
        with self._lock:
            entry = self._entries.get((kind, key))
            if entry is None:
                return False
            mutated = bytearray(entry.payload)
            mutated[len(mutated) // 2] ^= 0xFF
            entry.payload = bytes(mutated)
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                **self._stats,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "quarantined": len(self.quarantined),
                "disk_entries": len(self._disk),
                "disk_bytes": self._disk_bytes_used,
                "store_dir": self.store_dir,
            }

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; ``disk=True`` unlinks the disk tier too."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            if disk:
                for kind, key in list(self._disk):
                    self._disk_drop(kind, key)

    # ------------------------------------------------------------ internals

    def _drop(self, full_key: tuple[str, str]) -> None:
        entry = self._entries.pop(full_key, None)
        if entry is not None:
            self._bytes -= entry.nbytes

    def _promote(self, kind: str, key: str, entry: "_Entry") -> None:
        """Install an entry into the memory tier (LRU end), evicting the
        least-recently-used entries until it fits; an entry bigger than
        the whole budget is not installed.  Installing rehabilitates a
        quarantined key."""
        if entry.nbytes > self.max_bytes:
            return
        self._drop((kind, key))
        while self._bytes + entry.nbytes > self.max_bytes and self._entries:
            # Memory eviction is a *demotion* when the disk tier is on:
            # the file written at put time stays, so the entry still
            # serves (and re-promotes) from disk.
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._stats["evictions"] += 1
        self._entries[(kind, key)] = entry
        self._bytes += entry.nbytes
        self.quarantined.discard((kind, key))

    # ------------------------------------------------------------- disk tier

    def _disk_path(self, kind: str, key: str) -> str:
        return os.path.join(self.store_dir, kind, f"{key}.art")

    def _quarantine_dir(self) -> str:
        return os.path.join(self.store_dir, "quarantine")

    def _scan(self) -> None:
        """Rehydrate the disk index from an existing ``store_dir``.

        Sizes come from ``stat`` and ordering from mtime (oldest =
        evicted first); contents are *not* read here — integrity is
        verified lazily on each load, so startup stays O(entries), not
        O(bytes).  Crash-residue ``*.tmp`` files are removed.
        """
        os.makedirs(self.store_dir, exist_ok=True)
        self._stats["tmp_cleaned"] += sweep_temp_files(self.store_dir)
        found: list[tuple[float, tuple[str, str], int]] = []
        for kind in sorted(os.listdir(self.store_dir)):
            kind_dir = os.path.join(self.store_dir, kind)
            if kind == "quarantine" or not os.path.isdir(kind_dir):
                continue
            for name in os.listdir(kind_dir):
                if not name.endswith(".art"):
                    continue
                try:
                    info = os.stat(os.path.join(kind_dir, name))
                except OSError:
                    continue
                found.append((info.st_mtime, (kind, name[:-4]), info.st_size))
        for _mtime, full_key, nbytes in sorted(found, key=lambda item: item[0]):
            self._disk[full_key] = nbytes
            self._disk_bytes_used += nbytes

    def _disk_put(self, kind: str, key: str, entry: "_Entry") -> None:
        """Write-through to the disk tier (holding the lock)."""
        if self.store_dir is None or entry.nbytes > self.disk_bytes:
            return
        self._disk_drop(kind, key, unlink=False)
        while self._disk_bytes_used + entry.nbytes > self.disk_bytes and self._disk:
            old_kind, old_key = next(iter(self._disk))
            self._disk_drop(old_kind, old_key)
            self._stats["disk_evictions"] += 1
        path = self._disk_path(kind, key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_record(
                path, entry.payload,
                {"kind": kind, "key": key, "token": _token_text(entry.token)},
            )
        except OSError:
            # Disk trouble (full, permissions, ...) degrades durability,
            # never the request: the memory tier already has the entry.
            self._stats["disk_errors"] += 1
            return
        self._disk[(kind, key)] = entry.nbytes
        self._disk_bytes_used += entry.nbytes

    def _disk_get(self, kind: str, key: str, token):
        """Verified payload bytes from disk, or ``None`` (holding the lock).

        Always probes the filesystem — another process sharing the
        directory may have written the entry — and re-verifies the
        record checksum plus the embedded (kind, key) identity on every
        load.  Corruption quarantines the file; a token mismatch unlinks
        it (stale, never served).
        """
        if self.store_dir is None:
            return None
        path = self._disk_path(kind, key)
        try:
            meta, payload = read_record(path)
        except FileNotFoundError:
            self._disk_drop(kind, key, unlink=False)
            return None
        except CorruptRecordError:
            quarantine_file(path, self._quarantine_dir())
            self._disk_drop(kind, key, unlink=False)
            self.quarantined.add((kind, key))
            self._stats["corrupt"] += 1
            return None
        except OSError:
            self._stats["disk_errors"] += 1
            return None
        if meta.get("kind") != kind or meta.get("key") != key:
            quarantine_file(path, self._quarantine_dir())
            self._disk_drop(kind, key, unlink=False)
            self._stats["corrupt"] += 1
            return None
        if meta.get("token") != _token_text(token):
            self._disk_drop(kind, key)
            self._stats["stale"] += 1
            return None
        nbytes = len(payload)
        previous = self._disk.pop((kind, key), None)
        if previous is not None:
            self._disk_bytes_used -= previous
        self._disk[(kind, key)] = nbytes
        self._disk_bytes_used += nbytes
        return payload

    def _disk_drop(self, kind: str, key: str, unlink: bool = True) -> None:
        nbytes = self._disk.pop((kind, key), None)
        if nbytes is not None:
            self._disk_bytes_used -= nbytes
        if unlink and self.store_dir is not None:
            try:
                os.unlink(self._disk_path(kind, key))
            except OSError:
                pass
