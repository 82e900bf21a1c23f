"""Crash-durable sharded sweeps (PR 9): checkpoint journal + recovery.

Two layers under test.  :mod:`repro.core.durable` is the record
primitive — atomic temp-file+rename writes, a checksummed header, and
quarantine-don't-delete handling of anything that fails verification.
:mod:`repro.core.checkpoint` journals each finished shard of a sharded
sweep through it, keyed by the payload digest, so a restarted engine
loads finished shards checksum-verified from disk and only re-sweeps
the rest — with the merged result pinned ``np.array_equal`` to a clean
run, including after a kill-9 of the engine host mid-sweep (the @slow
chaos test at the bottom, nightly in CI).
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.checkpoint import ShardCheckpoint, shard_digest
from repro.core.durable import (
    CorruptRecordError,
    atomic_write_bytes,
    checksum_of,
    quarantine_file,
    read_record,
    sweep_temp_files,
    write_record,
)
from repro.core.epp import EPPEngine
from repro.core.epp_shard import ShardedEPPEngine
from repro.errors import CheckpointError
from repro.netlist.generate import generate_iscas


# --------------------------------------------------------------------------
# The durable record primitive.
# --------------------------------------------------------------------------


class TestDurableRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.bin"
        write_record(path, b"payload", {"shard": 3})
        meta, payload = read_record(path)
        assert payload == b"payload"
        assert meta["shard"] == 3
        assert meta["checksum"] == checksum_of(b"payload")

    def test_no_tmp_residue_after_write(self, tmp_path):
        write_record(tmp_path / "r.bin", b"payload", {})
        assert [p.name for p in tmp_path.iterdir()] == ["r.bin"]

    def test_missing_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_record(tmp_path / "absent.bin")

    @pytest.mark.parametrize("mutation", ["flip", "truncate", "magic"])
    def test_corruption_detected(self, tmp_path, mutation):
        path = tmp_path / "r.bin"
        write_record(path, b"payload-bytes", {"shard": 0})
        blob = bytearray(path.read_bytes())
        if mutation == "flip":
            blob[-4] ^= 0xFF
        elif mutation == "truncate":
            blob = blob[:-3]
        else:
            blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptRecordError):
            read_record(path)

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_bytes(path, b"old-contents")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_quarantine_moves_not_deletes(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"evidence")
        moved = quarantine_file(path, tmp_path / "quarantine")
        assert not path.exists()
        assert moved is not None and os.path.exists(moved)
        with open(moved, "rb") as handle:
            assert handle.read() == b"evidence"

    def test_sweep_temp_files_recursive(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "keep.bin").write_bytes(b"x")
        (tmp_path / ".a.tmp").write_bytes(b"partial")
        (tmp_path / "sub" / ".b.tmp").write_bytes(b"partial")
        assert sweep_temp_files(tmp_path) == 2
        assert (tmp_path / "keep.bin").exists()


# --------------------------------------------------------------------------
# The shard journal.
# --------------------------------------------------------------------------


def _shards():
    return [[0, 1, 2], [3, 4], [5, 6, 7]]


def _packed(seed: int):
    rng = np.random.default_rng(seed)
    return (rng.random(4), np.arange(seed, seed + 3), rng.random((3, 4)))


class TestShardCheckpoint:
    def test_checkpoint_store_load_round_trip(self, tmp_path):
        journal = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        assert not journal.stats["resumed"]
        packed = _packed(1)
        journal.store(1, packed)
        # A second open over the same directory resumes and serves the
        # shard back bit-identically; unfinished shards stay None.
        resumed = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        assert resumed.stats["resumed"]
        loaded = resumed.load(1)
        assert all(np.array_equal(a, b) for a, b in zip(loaded, packed))
        assert resumed.load(0) is None and resumed.load(2) is None
        assert resumed.stats["loaded"] == 1

    def test_checkpoint_foreign_run_is_wiped(self, tmp_path):
        first = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        first.store(0, _packed(1))
        # Different payload (knobs, circuit, site roster): the directory
        # is rebuilt for the new run, never cross-served.
        second = ShardCheckpoint.open(tmp_path / "ck", "payload-B", _shards())
        assert not second.stats["resumed"]
        assert second.load(0) is None

    def test_checkpoint_changed_shard_split_never_resumes(self, tmp_path):
        journal = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        journal.store(0, _packed(1))
        # Same payload key, different shard split: the run key covers the
        # per-shard site digests, so the directory is rebuilt outright.
        moved = ShardCheckpoint.open(
            tmp_path / "ck", "payload-A", [[9, 1, 2], [3, 4], [5, 6, 7]]
        )
        assert not moved.stats["resumed"]
        assert moved.load(0) is None

    def test_checkpoint_misplaced_record_is_stale_not_served(self, tmp_path):
        # A record copied under the wrong index (a concurrent writer, a
        # botched restore): its embedded shard identity disagrees with
        # the slot, so it is unlinked as stale, never merged misaligned.
        import shutil

        journal = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        journal.store(0, _packed(1))
        shutil.copyfile(
            tmp_path / "ck" / "shard_00000.shard",
            tmp_path / "ck" / "shard_00001.shard",
        )
        resumed = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        assert resumed.load(1) is None
        assert resumed.stats["stale"] == 1
        assert not (tmp_path / "ck" / "shard_00001.shard").exists()

    def test_checkpoint_corrupt_record_quarantined(self, tmp_path):
        journal = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        journal.store(0, _packed(1))
        path = tmp_path / "ck" / "shard_00000.shard"
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        resumed = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        assert resumed.load(0) is None
        assert resumed.stats["corrupt"] == 1
        assert list((tmp_path / "ck" / "quarantine").iterdir())

    def test_checkpoint_tmp_residue_swept_on_open(self, tmp_path):
        ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        (tmp_path / "ck" / ".shard_00000.shard.7.tmp").write_bytes(b"partial")
        resumed = ShardCheckpoint.open(tmp_path / "ck", "payload-A", _shards())
        assert resumed.stats["tmp_cleaned"] == 1
        assert not list((tmp_path / "ck").glob("*.tmp"))

    def test_checkpoint_unusable_directory_raises(self, tmp_path):
        blocker = tmp_path / "flat-file"
        blocker.write_bytes(b"not a directory")
        with pytest.raises(CheckpointError):
            ShardCheckpoint.open(blocker / "ck", "payload-A", _shards())

    def test_shard_digest_sensitive_to_ids_and_order(self):
        assert shard_digest([1, 2, 3]) == shard_digest([1, 2, 3])
        assert shard_digest([1, 2, 3]) != shard_digest([3, 2, 1])
        assert shard_digest([1, 2]) != shard_digest([1, 2, 3])


# --------------------------------------------------------------------------
# The engine integration: resume bit-identically, re-sweep only the rest.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def s953_engine():
    circuit = generate_iscas("s953")
    return EPPEngine(circuit)


def _sharded(engine, checkpoint=None):
    return ShardedEPPEngine(
        engine.compiled, engine._sp, jobs=2, min_process_work=0,
        checkpoint=checkpoint,
    )


class TestEngineCheckpointResume:
    def test_checkpoint_resume_bit_identical_no_pool(self, tmp_path, s953_engine):
        engine = s953_engine
        ids = [engine.compiled.index[s] for s in engine.default_sites()]
        reference = engine.vector_backend().pack_sites(ids)

        cold = _sharded(engine, tmp_path / "ck")
        cold_packed = cold.pack_sites(ids)
        assert cold.stats["checkpointed_shards"] > 0
        assert cold.stats["checkpoint_shards"] == 0
        cold.close()
        assert all(np.array_equal(a, b) for a, b in zip(reference, cold_packed))

        warm = _sharded(engine, tmp_path / "ck")
        warm_packed = warm.pack_sites(ids)
        # Every shard came off disk; the worker pool never spun up.
        assert warm.stats["checkpoint_shards"] == cold.stats["checkpointed_shards"]
        assert warm.stats["checkpointed_shards"] == 0
        assert not warm.pool_started
        warm.close()
        assert all(np.array_equal(a, b) for a, b in zip(reference, warm_packed))

    def test_checkpoint_partial_resume_resweeps_only_missing(
        self, tmp_path, s953_engine
    ):
        engine = s953_engine
        ids = [engine.compiled.index[s] for s in engine.default_sites()]
        reference = engine.vector_backend().pack_sites(ids)
        cold = _sharded(engine, tmp_path / "ck")
        cold.pack_sites(ids)
        n_shards = cold.stats["checkpointed_shards"]
        cold.close()
        # Corrupt one journaled shard: resume must quarantine it, re-sweep
        # exactly that shard, and still merge bit-identically.
        victim = tmp_path / "ck" / "shard_00000.shard"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        resumed = _sharded(engine, tmp_path / "ck")
        packed = resumed.pack_sites(ids)
        assert resumed.stats["checkpoint_shards"] == n_shards - 1
        assert resumed.stats["checkpointed_shards"] == 1
        resumed.close()
        assert all(np.array_equal(a, b) for a, b in zip(reference, packed))
        assert list((tmp_path / "ck" / "quarantine").iterdir())

    def test_checkpoint_full_resume_resets_last_outcomes(
        self, tmp_path, s953_engine
    ):
        # last_outcomes records the shards that ran on the pool; a call
        # served wholly from the journal ran none, so it must not keep
        # showing the previous call's records.
        engine = s953_engine
        ids = [engine.compiled.index[s] for s in engine.default_sites()]
        backend = _sharded(engine, tmp_path / "ck")
        backend.pack_sites(ids)
        n_shards = backend.stats["checkpointed_shards"]
        assert len(backend.last_outcomes) == n_shards
        backend.pack_sites(ids)
        assert backend.stats["checkpoint_shards"] == n_shards
        assert backend.last_outcomes == []
        backend.close()

    def test_checkpoint_result_kinds_never_cross(self, tmp_path, s953_engine):
        """A journal holds one result kind, named by its run key: a
        packed journal is never loaded as columns, nor a columns journal
        as packed — the other kind's query discards it and re-sweeps —
        while each kind resumes from its own."""
        import json

        engine = s953_engine
        ids = [engine.compiled.index[s] for s in engine.default_sites()]
        local = engine.vector_backend()
        expected = {"packed": local.pack_sites(ids),
                    "columns": local.analyze_sites(ids)}
        journal = tmp_path / "ck"
        backend = _sharded(engine, journal)
        queries = {"packed": backend.pack_sites,
                   "columns": backend.analyze_sites}
        n_arrays = {"packed": 5, "columns": 2}
        try:
            for kind, resumes in [("packed", False), ("packed", True),
                                  ("columns", False), ("columns", True),
                                  ("packed", False)]:
                before = dict(backend.stats)
                got = queries[kind](ids)
                loaded = backend.stats["checkpoint_shards"] - before[
                    "checkpoint_shards"]
                stored = backend.stats["checkpointed_shards"] - before[
                    "checkpointed_shards"]
                shards = sorted(journal.glob("*.shard"))
                assert (loaded, stored) == (
                    (len(shards), 0) if resumes else (0, len(shards))
                ), kind
                manifest = json.loads((journal / "manifest.json").read_text())
                assert manifest["payload_key"].endswith(f"|kind={kind}")
                for path in shards:
                    meta, _ = read_record(path)
                    assert meta["arrays"] == n_arrays[kind]
                assert len(got) == n_arrays[kind]
                for left, right in zip(expected[kind], got):
                    assert np.array_equal(left, right)
        finally:
            backend.close()

    def test_checkpoint_knob_reaches_analyze(self, tmp_path):
        # The public path: EPPEngine.analyze(checkpoint=...) threads the
        # directory into the sharded backend, and journaling must not
        # perturb the sweep — checkpointed, resumed and clean sharded
        # runs all agree exactly.
        circuit = generate_iscas("s953")
        sites = EPPEngine(circuit).default_sites()[:40]

        def sharded_analyze(engine, checkpoint=None):
            backend = engine.sharded_backend(jobs=2, checkpoint=checkpoint)
            backend.min_process_work = 0
            results = engine.analyze(
                sites=sites, backend="sharded", jobs=2, checkpoint=checkpoint,
            )
            return backend, results

        clean_backend, clean = sharded_analyze(EPPEngine(circuit))
        clean_backend.close()
        cold_backend, cold = sharded_analyze(EPPEngine(circuit), tmp_path / "ck")
        assert cold_backend.checkpoint == str(tmp_path / "ck")
        assert cold_backend.stats["checkpointed_shards"] > 0
        cold_backend.close()
        warm_backend, warm = sharded_analyze(EPPEngine(circuit), tmp_path / "ck")
        assert warm_backend.stats["checkpoint_shards"] > 0
        assert not warm_backend.pool_started
        warm_backend.close()
        for site in sites:
            assert clean[site].p_sensitized == cold[site].p_sensitized
            assert clean[site].p_sensitized == warm[site].p_sensitized


# --------------------------------------------------------------------------
# The kill-9 restart pin (nightly): SIGKILL mid-sweep, resume, identical.
# --------------------------------------------------------------------------

_CRASH_SCRIPT = """
import sys
from repro.core.epp import EPPEngine
from repro.core.epp_shard import ShardedEPPEngine
from repro.netlist.generate import generate_iscas
from repro.testing.faults import KillAfterShards

engine = EPPEngine(generate_iscas("s953"))
ids = [engine.compiled.index[s] for s in engine.default_sites()]
backend = ShardedEPPEngine(
    engine.compiled, engine._sp, jobs=2, min_process_work=0,
    checkpoint=sys.argv[1],
)
# SIGKILL this process the instant the 3rd shard record is durable on
# disk -- after the journal write, before the merge.  No cleanup runs.
backend._checkpoint_on_store = KillAfterShards(3)
backend.pack_sites(ids)
raise SystemExit("unreachable: the kill hook must have fired")
"""


def _pids_running(marker: str) -> set[int]:
    """Pids (other than ours) whose cmdline contains ``marker``."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if marker.encode() in cmdline:
            found.add(int(entry))
    return found


@pytest.mark.slow
class TestKillNineRestart:
    def test_checkpoint_kill9_restart_recovers_bit_identical(self, tmp_path):
        ck = tmp_path / "ck"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        # DEVNULL, not pipes: the SIGKILLed host's forked pool workers
        # inherit any pipe and would keep it open past the host's death.
        proc = subprocess.Popen(
            [sys.executable, "-c", _CRASH_SCRIPT, str(ck)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            returncode = proc.wait(timeout=300)
        finally:
            if proc.poll() is None:  # pragma: no cover - hung host
                proc.kill()
                proc.wait()
        # The host died by SIGKILL at the seeded point, not cleanly.
        assert returncode == -signal.SIGKILL
        journaled = list(ck.glob("shard_*.shard"))
        assert len(journaled) >= 3  # the journal outlived the process

        # kill -9 reparents the host's pool workers to init, where they
        # block forever on their now-ownerless call queue — exactly the
        # abandoned-process shape a real power-cut leaves on a shared
        # host.  Reap them (their cmdline carries this test's unique
        # checkpoint path) so that no process outlives the test.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            orphans = _pids_running(str(ck))
            if not orphans:
                break
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            time.sleep(0.25)
        assert not _pids_running(str(ck))

        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine.compiled.index[s] for s in engine.default_sites()]
        clean = engine.vector_backend().pack_sites(ids)
        resumed = ShardedEPPEngine(
            engine.compiled, engine._sp, jobs=2, min_process_work=0,
            checkpoint=ck,
        )
        packed = resumed.pack_sites(ids)
        # >= 1 shard served from the journal (here: every journaled one).
        assert resumed.stats["checkpoint_shards"] >= 3
        resumed.close()
        assert all(np.array_equal(a, b) for a, b in zip(clean, packed))
        # No crash residue: the journal directory holds no temp files.
        assert not list(ck.rglob("*.tmp"))
