"""The speed probe: a fixed workload that says how fast the op core runs.

Run by the benchmark as a helper process pinned to the op core.  After
start-up it prints ``ready``; then, for each line it reads on standard
input, it runs the workload once and prints ``done``.  The benchmark times
each request with the same steal-corrected clock as the ops.

The workload mixes what an op does: interpreted Python (dicts, lists,
integer arithmetic, a sort), NumPy bit operations on a cache-resident
array, and NumPy streaming over an array far larger than the caches.  It
never changes, so its time moves only with the core's speed.
"""

from __future__ import annotations

import sys

import numpy as np

PY_STEPS = 150_000
SMALL_REPS = 200
BIG_REPS = 2


def _arrays():
    rng = np.random.default_rng(20240521)
    small = rng.integers(0, 2**63, size=(64, 1024), dtype=np.uint64)  # 512 KB
    big = rng.integers(0, 2**63, size=(64, 32768), dtype=np.uint64)  # 16 MB
    rows = rng.integers(0, 64, size=64)
    return small, big, rows


def _bits(array, rows, reps: int) -> int:
    one = np.uint64(1)
    for _ in range(reps):
        folded = np.bitwise_or.reduce(array[rows] & array ^ (array >> one), axis=0)
    return int(folded[0])


def workload(small, big, rows) -> int:
    acc = 0
    table: dict[int, int] = {}
    items = []
    for step in range(PY_STEPS):
        acc += step * 3 % 7
        table[step & 1023] = acc
        items.append(acc & 255)
    items.sort()
    return acc + items[-1] + _bits(small, rows, SMALL_REPS) + _bits(big, rows, BIG_REPS)


def main() -> int:
    arrays = _arrays()
    for _ in range(2):
        workload(*arrays)
    print("ready", flush=True)
    for _ in sys.stdin:
        workload(*arrays)
        print("done", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
