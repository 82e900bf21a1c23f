"""The output contract pinned in ``tests/golden/outputs.json``.

Every function here recomputes one group of entries from the program as
it stands; ``tests/test_golden_outputs.py`` compares them with the file,
and ``tools/regen_golden.py`` rewrites the file from them.  An entry is a
sha256 hex digest or a short list of text rows, keyed by a name that
says what produced it:

* ``analyze <c> csv`` / ``stdout`` / ``top10`` — ``repro analyze <c>
  --top 10 --csv PATH`` run in-process: the CSV bytes, the stdout with
  its ``wrote PATH`` line removed, and the table's rows as text (so a
  failure shows which rows moved);
* ``packed <c> <array>`` — dtype, shape and bytes of each array the
  packed query returns for the default sites,
  ``engine.vector_backend().pack_sites(ids)``;
* ``netlist <profile>`` — ``write_bench`` text of each ISCAS'89 profile;
* ``served s953 <n>`` — the ``protocol.encode`` line of each response of
  a served chain (one ``analyze``, ten seeded ``harden`` edits, one
  ``replace_gate``) with ``served_s`` dropped;
* ``sharded s9234 fresh|resumed ...`` — ``analyze s9234 --jobs 2
  --checkpoint DIR``, then again after deleting a seeded half of the
  shard files.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import platform
import random
import tempfile
from pathlib import Path

import numpy as np

from repro import cli
from repro.core.epp import EPPEngine
from repro.netlist.bench import write_bench
from repro.netlist.gate_types import GateType
from repro.netlist.generate import ISCAS89_PROFILES, generate_iscas

GOLDEN_PATH = Path(__file__).parent / "golden" / "outputs.json"

#: Circuits whose ``analyze`` output and packed arrays are pinned.
CLI_CIRCUITS = ("s27", "s953", "s1423", "c1908", "s9234")

#: ISCAS'89 profiles up to s9234 run in tier-1; the larger ones (each
#: takes seconds to generate) are ``@slow``.
TIER1_PROFILES = tuple(
    name for name, profile in ISCAS89_PROFILES.items()
    if profile.n_gates <= ISCAS89_PROFILES["s9234"].n_gates
)
SLOW_PROFILES = tuple(
    name for name in ISCAS89_PROFILES if name not in TIER1_PROFILES
)

SERVED_CIRCUIT = "s953"
SERVED_SEED = 21
SHARDED_CIRCUIT = "s9234"
SHARDED_SEED = 7


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def array_digest(array: np.ndarray) -> str:
    return f"{array.dtype.str}{list(array.shape)}:{sha256(array.tobytes())}"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _analyze_entries(prefix: str, argv: list[str], csv_path: Path) -> dict:
    stdout = _run_cli(argv + ["--top", "10", "--csv", str(csv_path)])
    lines = [
        line for line in stdout.splitlines(keepends=True)
        if line != f"wrote {csv_path}\n"
    ]
    return {
        f"{prefix} csv": sha256(csv_path.read_bytes()),
        f"{prefix} stdout": sha256("".join(lines)),
        # Line 0 is the title, line 1 the column header.
        f"{prefix} top10": [line.rstrip("\n") for line in lines[2:12]],
    }


def analyze_entries(circuit: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return _analyze_entries(
            f"analyze {circuit}", ["analyze", circuit], Path(tmp) / "out.csv"
        )


#: The arrays of a ``pack_sites`` tuple, in tuple order.
PACKED_ARRAYS = ("p_sensitized", "cone_sizes", "counts", "sink_pos", "values")


def packed_entries(circuit: str) -> dict:
    engine = EPPEngine(cli.resolve_circuit(circuit))
    ids = [engine.compiled.index[name] for name in engine.default_sites()]
    packed = engine.vector_backend().pack_sites(ids)
    return {
        f"packed {circuit} {name}": array_digest(np.asarray(array))
        for name, array in zip(PACKED_ARRAYS, packed, strict=True)
    }


def netlist_entries(profiles) -> dict:
    return {
        f"netlist {name}": sha256(write_bench(generate_iscas(name)))
        for name in profiles
    }


def served_chain(circuit: str = SERVED_CIRCUIT, seed: int = SERVED_SEED):
    """The requests of the pinned served chain: one ``analyze``, ten
    seeded ``harden`` edits, then one ``replace_gate`` that swaps a
    2-input NAND for an AND."""
    netlist = cli.resolve_circuit(circuit)
    sites = EPPEngine(netlist).default_sites()
    rng = random.Random(seed)
    requests = [{"op": "analyze", "circuit": circuit, "fit": True, "top": 10}]
    for _ in range(10):
        edit = ["harden", rng.choice(sites), rng.choice([2.0, 4.0, 10.0])]
        requests.append({
            "op": "analyze_delta", "circuit": circuit, "fit": True, "top": 10,
            "edits": [edit],
        })
    nands = [
        site for site in sites
        if netlist.node(site).gate_type is GateType.NAND
        and len(netlist.node(site).fanin) == 2
    ]
    requests.append({
        "op": "analyze_delta", "circuit": circuit, "fit": True, "top": 10,
        "edits": [["replace_gate", rng.choice(nands), "and"]],
    })
    return requests


def served_responses(requests, tmp_dir) -> list[dict]:
    """Each request's response from an in-process service, in order."""
    from repro.server import AnalysisService

    async def main():
        service = AnalysisService(Path(tmp_dir) / "golden.sock")
        await service.start()
        try:
            return [
                await service._respond(json.dumps(request).encode() + b"\n")
                for request in requests
            ]
        finally:
            await service.drain()

    return asyncio.run(main())


def served_entries() -> dict:
    from repro.server.protocol import encode

    with tempfile.TemporaryDirectory() as tmp:
        responses = served_responses(served_chain(), tmp)
    entries = {}
    for n, response in enumerate(responses):
        if not response.get("ok"):
            raise RuntimeError(f"served request {n} failed: {response['error']}")
        line = encode({k: v for k, v in response.items() if k != "served_s"})
        entries[f"served {SERVED_CIRCUIT} {n}"] = sha256(line)
    return entries


def sharded_entries() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal"
        argv = ["analyze", SHARDED_CIRCUIT, "--jobs", "2", "--checkpoint", str(journal)]
        csv_path = Path(tmp) / "out.csv"
        entries = _analyze_entries(f"sharded {SHARDED_CIRCUIT} fresh", argv, csv_path)
        shards = sorted(path.name for path in journal.glob("*.shard"))
        if len(shards) < 2:
            raise RuntimeError(f"the sharded run journaled {len(shards)} shard(s)")
        for name in random.Random(SHARDED_SEED).sample(shards, len(shards) // 2):
            (journal / name).unlink()
        csv_path.unlink()
        entries.update(
            _analyze_entries(f"sharded {SHARDED_CIRCUIT} resumed", argv, csv_path)
        )
    return entries


#: Group name -> (function computing its entries, runs in tier-1).
GROUPS = {
    **{f"analyze {c}": (lambda c=c: analyze_entries(c), True) for c in CLI_CIRCUITS},
    **{f"packed {c}": (lambda c=c: packed_entries(c), True) for c in CLI_CIRCUITS},
    "netlist tier-1": (lambda: netlist_entries(TIER1_PROFILES), True),
    "netlist large": (lambda: netlist_entries(SLOW_PROFILES), False),
    f"served {SERVED_CIRCUIT}": (served_entries, True),
    f"sharded {SHARDED_CIRCUIT}": (sharded_entries, False),
}


def compute_all() -> dict:
    entries = {}
    for compute, _ in GROUPS.values():
        entries.update(compute())
    return entries


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def first_difference(recorded: dict, computed: dict) -> str | None:
    """A message naming the first recorded entry ``computed`` does not
    reproduce, or ``None`` when every one matches."""
    for key, value in recorded.items():
        if computed.get(key) == value:
            continue
        if key not in computed:
            return f"entry {key!r} was not recomputed"
        lines = [f"entry {key!r} differs"]
        if isinstance(value, list):
            for row, (old, new) in enumerate(zip(value, computed[key])):
                if old != new:
                    lines.append(f"  row {row}: recorded {old!r}")
                    lines.append(f"  row {row}: computed {new!r}")
            if len(value) != len(computed[key]):
                lines.append(f"  {len(value)} rows recorded, {len(computed[key])} computed")
        else:
            lines.append(f"  recorded {value}")
            lines.append(f"  computed {computed[key]}")
        return "\n".join(lines)
    extra = sorted(set(computed) - set(recorded))
    if extra:
        return f"entries {extra} are computed but not recorded"
    return None
