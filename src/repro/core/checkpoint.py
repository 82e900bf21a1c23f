"""Per-shard sweep checkpoints: finished work survives the process.

A sharded EPP sweep over a large circuit is minutes of work delivered
shard by shard.  PR 6 made the sweep survive a *worker* dying; this
module makes completed shards survive the *host* dying.  The engine
journals each completed shard's result arrays — exactly what the worker
returned — to a checkpoint directory as it merges them; a rerun of the
identical sweep loads the journaled shards back, checksum-verified, and
only the unfinished shards re-sweep.  Because the journal stores the
very arrays the merge consumes, a resumed run is ``np.array_equal`` to a
clean one — the kill-9 chaos test pins this.

A shard record holds the arrays of one result kind:

* ``columns`` — ``analyze_sites``' ``(p_sensitized, cone_sizes)``, two
  arrays of one entry per site (what every bulk ``analyze`` journals);
* ``packed`` — ``pack_sites``' five-array tuple, every on-path
  (site, sink) pair included (what a sharded ``EPPEngine.analyze``
  journals; every ``snapshot`` and delta is a column query).

Layout of a checkpoint directory::

    manifest.json      # run identity: version, payload key, shard count
    shard_00003.shard  # durable record: header + pickled result arrays
    quarantine/        # corrupt shard files, moved aside for inspection

Identity is content-addressed: ``run_key`` digests the payload key the
engine passes — its
:meth:`~repro.core.epp_shard.ShardedEPPEngine.payload_key` (circuit
structure + SP map + batch size) suffixed with ``|kind=columns`` or
``|kind=packed`` — together with every shard's site-id partition.  Any
change to the circuit, the knobs that shape the payload, the result
kind or the shard partition yields a different ``run_key``, so a
journal of one kind is never read as the other; :meth:`open` then
discards the stale files and starts a fresh journal, so a checkpoint can
never leak pre-edit results into a post-edit sweep.  Corrupt shard files
(torn write from a crash, bit rot) are quarantined and their shards
re-sweep — a damaged checkpoint costs time, never correctness.

One directory holds one run's journal at a time; retention is therefore
bounded by the number of distinct checkpoint directories the caller
maintains (the analysis service keys them per circuit under its
``--store-dir``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle

import numpy as np

from repro.core.durable import (
    CorruptRecordError,
    atomic_write_bytes,
    quarantine_file,
    read_record,
    sweep_temp_files,
    write_record,
)
from repro.errors import CheckpointError

__all__ = ["ShardCheckpoint", "shard_digest"]

#: Bumped when the record layout changes; old journals are discarded.
VERSION = 1

_MANIFEST = "manifest.json"
_SHARD_SUFFIX = ".shard"
_QUARANTINE = "quarantine"


def shard_digest(site_ids) -> str:
    """Stable digest of one shard's site-id partition."""
    h = hashlib.blake2b(digest_size=16)
    for site_id in site_ids:
        h.update(str(int(site_id)).encode())
        h.update(b",")
    return h.hexdigest()


def _run_key(payload_key: str, shard_digests: list[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(VERSION).encode())
    h.update(b"|")
    h.update(str(payload_key).encode())
    for digest in shard_digests:
        h.update(b"|")
        h.update(digest.encode())
    return h.hexdigest()


class ShardCheckpoint:
    """A journal of completed shards for one specific sweep.

    Build with :meth:`open`; ``stats`` counts what happened::

        loaded      shards served from the journal this run
        stored      shards journaled this run
        stale       files discarded (older run / foreign key)
        corrupt     files quarantined on checksum mismatch
        tmp_cleaned crash-residue ``*.tmp`` files removed at open
        resumed     True when an existing matching manifest was found

    ``on_store`` is a chaos hook: called as ``on_store(index, stored)``
    after each shard file lands, *before* the engine merges it — the
    kill-9 test uses it to die at a deterministic journaled-shard count.
    """

    def __init__(self, directory: str, run_key: str, shard_digests: list[str],
                 on_store=None):
        self.directory = str(directory)
        self.run_key = run_key
        self.shard_digests = list(shard_digests)
        self.on_store = on_store
        self.stats = {
            "loaded": 0, "stored": 0, "stale": 0, "corrupt": 0,
            "tmp_cleaned": 0, "resumed": False,
        }

    # ------------------------------------------------------------------ open

    @classmethod
    def open(cls, directory, payload_key: str, shards, on_store=None
             ) -> "ShardCheckpoint":
        """Open (resuming) or initialize the journal for this sweep.

        ``shards`` is the full ordered partition (sequences of site
        ids).  If the directory already holds a manifest for the same
        ``run_key`` the journal resumes; otherwise every stale shard
        file is removed and a fresh manifest is written first — so a
        crash *during* open still leaves either the old run's journal or
        a fresh one, never a blend.
        """
        directory = str(directory)
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint directory {directory!r} cannot be created: {exc}"
            ) from None
        if not os.path.isdir(directory):
            raise CheckpointError(
                f"checkpoint path {directory!r} is not a directory"
            )
        digests = [shard_digest(ids) for ids in shards]
        journal = cls(directory, _run_key(payload_key, digests), digests,
                      on_store=on_store)
        journal.stats["tmp_cleaned"] = sweep_temp_files(directory)
        manifest = journal._read_manifest()
        if manifest is not None and manifest.get("run_key") == journal.run_key:
            journal.stats["resumed"] = True
            return journal
        # Different (or missing/corrupt) run: drop stale shard files
        # before publishing the new manifest, so a reader never pairs
        # the new manifest with old shards.
        for name in os.listdir(directory):
            if name.endswith(_SHARD_SUFFIX):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass
        atomic_write_bytes(
            os.path.join(directory, _MANIFEST),
            json.dumps(
                {
                    "version": VERSION,
                    "run_key": journal.run_key,
                    "payload_key": str(payload_key),
                    "n_shards": len(digests),
                    "shards": digests,
                },
                indent=2, sort_keys=True,
            ).encode() + b"\n",
        )
        return journal

    def _read_manifest(self) -> dict | None:
        try:
            with open(os.path.join(self.directory, _MANIFEST), "rb") as handle:
                manifest = json.loads(handle.read())
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict) or manifest.get("version") != VERSION:
            return None
        return manifest

    # ------------------------------------------------------------- load/store

    def _shard_path(self, index: int) -> str:
        return os.path.join(self.directory, f"shard_{index:05d}{_SHARD_SUFFIX}")

    def load(self, index: int):
        """The journaled result arrays for shard ``index``, or ``None``.

        Verified end to end: record checksum, run key, shard index and
        the shard's site-id digest all have to match.  A checksum
        failure quarantines the file (``stats["corrupt"]``); an
        identity mismatch (a file from another run) just removes it
        (``stats["stale"]``).  Either way the caller re-sweeps the
        shard.
        """
        path = self._shard_path(index)
        try:
            meta, payload = read_record(path)
        except FileNotFoundError:
            return None
        except CorruptRecordError:
            quarantine_file(path, os.path.join(self.directory, _QUARANTINE))
            self.stats["corrupt"] += 1
            return None
        if (
            meta.get("run_key") != self.run_key
            or meta.get("shard") != index
            or meta.get("sites") != self.shard_digests[index]
        ):
            try:
                os.unlink(path)
            except OSError:
                pass
            self.stats["stale"] += 1
            return None
        try:
            arrays = pickle.loads(payload)
        except Exception:
            quarantine_file(path, os.path.join(self.directory, _QUARANTINE))
            self.stats["corrupt"] += 1
            return None
        self.stats["loaded"] += 1
        return tuple(np.asarray(a) for a in arrays)

    def store(self, index: int, packed) -> None:
        """Journal shard ``index``'s result arrays (atomic, checksummed)."""
        payload = pickle.dumps(
            tuple(np.ascontiguousarray(a) for a in packed),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        write_record(
            self._shard_path(index),
            payload,
            {
                "run_key": self.run_key,
                "shard": int(index),
                "sites": self.shard_digests[index],
                "arrays": len(packed),
            },
        )
        self.stats["stored"] += 1
        if self.on_store is not None:
            self.on_store(index, self.stats["stored"])
