"""Pinned processes, steal-corrected timing and the per-run host record.

On a shared virtual machine the hypervisor can take a vCPU away for part
of an op ("steal"), and that share moves from run to run.  Every process
the benchmark starts is pinned to one core, and an op's time is its wall
time minus the steal ``/proc/stat`` records for that core over the op.
Raw wall time and steal are kept beside it.

Other tenants also slow the core while it runs, by up to 4x for minutes
at a time, and no steal is recorded for that.  A speed probe on the op
core (``probe.py``) is read before and after every timed interval, and
the interval's net time is scaled to the speed at which the probe takes
:data:`PROBE_REF_S`.
"""

from __future__ import annotations

import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
PROBE = Path(__file__).resolve().with_name("probe.py")
#: The reference probe time.  It is set so that scaled times read as net
#: times on an uncontended core of the 2-vCPU Xeon VM the benchmark was
#: tuned on.
PROBE_REF_S = 0.060
_STEAL_FIELD = 7  # user nice system idle iowait irq softirq steal


class OpTimeout(Exception):
    """A process the benchmark started did not finish in time."""


def cpu_fields() -> dict[int, list[int]]:
    """Per-core ``/proc/stat`` counters, in clock ticks."""
    fields = {}
    with open("/proc/stat") as handle:
        for line in handle:
            name, _, rest = line.partition(" ")
            if name.startswith("cpu") and name[3:].isdigit():
                fields[int(name[3:])] = [int(value) for value in rest.split()]
    return fields


def steal_ticks(core: int) -> int:
    return cpu_fields()[core][_STEAL_FIELD]


@dataclass
class Sample:
    """One timed interval: raw wall time, the op core's steal over it, and
    the factor that scales its net time to the reference core speed."""

    raw_s: float
    steal_s: float
    scale: float = 1.0

    @property
    def net_s(self) -> float:
        return max(self.raw_s - self.steal_s, 0.0)

    @property
    def scaled_s(self) -> float:
        return self.net_s * self.scale


class CoreClock:
    """Measures intervals on one core, steal subtracted."""

    def __init__(self, core: int):
        self.core = core

    def start(self) -> tuple[float, int]:
        return time.perf_counter(), steal_ticks(self.core)

    def stop(self, started: tuple[float, int]) -> Sample:
        wall0, steal0 = started
        steal1 = steal_ticks(self.core)
        raw = time.perf_counter() - wall0
        return Sample(raw, (steal1 - steal0) * TICK_S)


def choose_cores() -> tuple[int, int]:
    """(benchmark core, op core): the op gets the last allowed core and
    the benchmark's own process the first; one core serves both."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def spawn(cmd, core: int, env: dict, stdout, stderr, cwd=None,
          stdin=subprocess.DEVNULL) -> subprocess.Popen:
    """Start ``cmd`` pinned to ``core`` in a process group of its own
    (its children inherit the pin and the group)."""
    return subprocess.Popen(
        cmd,
        env=env,
        cwd=cwd,
        stdin=stdin,
        stdout=stdout,
        stderr=stderr,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {core}),
    )


class SpeedProbe:
    """The speed probe's helper process, pinned to the op core."""

    def __init__(self, clock: CoreClock, env: dict, stderr):
        self.clock = clock
        self.proc = spawn([sys.executable, str(PROBE)], clock.core, env,
                          subprocess.PIPE, stderr, stdin=subprocess.PIPE)
        try:
            self._expect(b"ready")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.readings: list[float] = []

    def _expect(self, word: bytes) -> None:
        line = self.proc.stdout.readline()
        if line.strip() != word:
            raise RuntimeError(f"speed probe answered {line!r}, expected {word!r}")

    def read(self) -> float:
        """One run of the probe's workload: its net time in seconds."""
        started = self.clock.start()
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        self._expect(b"done")
        seconds = self.clock.stop(started).net_s
        self.readings.append(seconds)
        return seconds


def reference_scale(before_s: float, after_s: float) -> float:
    """The factor that scales an interval between two probe readings to
    the reference core speed."""
    return 2.0 * PROBE_REF_S / (before_s + after_s)


def become_subreaper() -> bool:
    """Adopt orphaned descendants (a finished op's helper processes), so
    :func:`reap_group` can wait for them instead of leaving them to init."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def reap_group(pgid: int, grace: float = 10.0) -> None:
    """Wait until every process of group ``pgid`` that this process can
    reap has ended; SIGKILL the group if some outlive ``grace`` seconds."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            if os.waitid(os.P_PGID, pgid, os.WEXITED | os.WNOHANG) is not None:
                continue
        except ChildProcessError:
            return
        if not killed and time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            killed = True
        time.sleep(0.005)


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc``; returns (exit code, peak RSS in MB).

    The peak is ``ru_maxrss`` from ``wait4``: the largest of the process
    and the descendants it reaped, e.g. a sharded run's pool workers.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
        proc.wait()
        raise OpTimeout(f"{proc.args!r} still running after {timeout:.0f} s")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def stop_server(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM (the server drains and exits 0), then wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise OpTimeout(f"server {proc.pid} ignored SIGTERM") from None


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


class HostRecord:
    """What a disagreeing run needs to be traced to the host or the code."""

    def __init__(self, seed: int, bench_core: int, op_core: int):
        import numpy

        self.started = time.time()
        self._fields0 = cpu_fields()
        self._load0 = os.getloadavg()
        self.record = {
            "seed": seed,
            "nproc": os.cpu_count(),
            "allowed_cores": sorted(os.sched_getaffinity(0)),
            "bench_core": bench_core,
            "op_core": op_core,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel": platform.release(),
            "affinity": {},
        }

    def note_affinity(self, kind: str, pid: int) -> None:
        """Record the affinity a started process actually runs with."""
        try:
            cores = sorted(os.sched_getaffinity(pid))
        except OSError:  # already exited
            return
        self.record["affinity"].setdefault(kind, cores)

    def finish(self) -> dict:
        fields1 = cpu_fields()
        steal = {}
        for core, after in fields1.items():
            before = self._fields0.get(core)
            if before is None:
                continue
            total = sum(after[:8]) - sum(before[:8])
            stolen = after[_STEAL_FIELD] - before[_STEAL_FIELD]
            steal[core] = round(100.0 * stolen / total, 3) if total else 0.0
        self.record["steal_pct_by_core"] = steal
        self.record["loadavg_start"] = self._load0
        self.record["loadavg_end"] = os.getloadavg()
        self.record["elapsed_s"] = round(time.time() - self.started, 3)
        return self.record


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``share``
    of ``values`` at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]
