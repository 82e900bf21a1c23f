"""Exception hierarchy shared by every repro subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Subsystems raise the most specific subclass that applies; the
messages always name the offending circuit object (node, net, file) because
netlist debugging without names is hopeless.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a circuit (bad arity, duplicate node, cycle...)."""


class ParseError(NetlistError):
    """Malformed ``.bench`` (or other netlist format) input.

    Attributes
    ----------
    line_number:
        1-based line where the problem was found, or ``None`` if unknown.
    """

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ValidationError(NetlistError):
    """A circuit failed structural validation.

    Carries the full list of individual problems so tools can report them
    all at once instead of one per run.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        summary = "; ".join(self.problems[:5])
        extra = len(self.problems) - 5
        if extra > 0:
            summary += f"; ... and {extra} more"
        super().__init__(f"{len(self.problems)} validation problem(s): {summary}")


class SimulationError(ReproError):
    """Logic/fault simulation was asked to do something inconsistent."""


class ProbabilityError(ReproError):
    """Signal-probability computation failure (bad inputs, no convergence...)."""


class AnalysisError(ReproError):
    """EPP / SER analysis failure (unknown node, missing SP, bad model...)."""


class ResilienceError(AnalysisError):
    """Base class for sharded-analysis fault-tolerance failures.

    Every subclass carries enough structure to act on programmatically —
    the shard's site ids, how many attempts were made, and (when known)
    the worker pid — instead of a raw traceback pickled across the
    process boundary.  ``site_ids`` is truncated to the first few ids in
    the message but kept complete on the attribute.
    """

    def __init__(
        self,
        message: str,
        site_ids: tuple[int, ...] = (),
        attempts: int = 0,
        worker_pid: int | None = None,
    ):
        self.site_ids = tuple(int(site_id) for site_id in site_ids)
        self.attempts = int(attempts)
        self.worker_pid = worker_pid
        details = []
        if self.site_ids:
            head = ", ".join(str(s) for s in self.site_ids[:4])
            extra = len(self.site_ids) - 4
            sites = f"[{head}{f', ... +{extra}' if extra > 0 else ''}]"
            details.append(f"shard sites {sites}")
        if self.attempts:
            details.append(f"attempt {self.attempts}")
        if self.worker_pid is not None:
            details.append(f"worker pid {self.worker_pid}")
        if details:
            message = f"{message} ({'; '.join(details)})"
        super().__init__(message)


class WorkerCrashError(ResilienceError):
    """A sharded-analysis worker process died mid-shard.

    Recorded against every shard in flight when the worker pool breaks
    — a killed/OOMed worker, a hard crash in a native kernel, an
    ``os._exit`` — or is found broken at submission; once the shard's
    ``retries`` are spent it is the ``__cause__`` of the
    :class:`RetryBudgetExceededError` the sharded driver raises.
    """


class ShardTimeoutError(ResilienceError):
    """A shard (or a pool barrier) exceeded its deadline.

    Covers the per-shard ``shard_timeout``, the global analysis
    ``deadline``, and the hard timeouts on the pool barriers
    (:meth:`~repro.core.epp_shard.ShardedEPPEngine.warm` /
    :meth:`~repro.core.epp_shard.ShardedEPPEngine.worker_stats`), which
    previously could block forever on a wedged worker.

    ``timeout`` is the budget (seconds) that was exceeded.
    """

    def __init__(
        self,
        message: str,
        site_ids: tuple[int, ...] = (),
        attempts: int = 0,
        worker_pid: int | None = None,
        timeout: float | None = None,
    ):
        self.timeout = timeout
        if timeout is not None:
            message = f"{message} after {timeout:g}s"
        super().__init__(message, site_ids, attempts, worker_pid)


class RetryBudgetExceededError(ResilienceError):
    """A shard failed on every attempt its retry budget allowed.

    ``__cause__`` carries the final attempt's error; ``attempts`` counts
    every submission (first try included), so ``retries=0`` raises this
    on the first failure.  The driver never falls back by itself; the
    analysis service re-runs the request on the vector backend.
    """


class CheckpointError(AnalysisError):
    """A sweep checkpoint directory could not be used as configured.

    Raised for *setup* problems only — an unwritable/unmakeable
    ``checkpoint`` directory, or a path that exists but is not a
    directory.  Corrupt or stale checkpoint *contents* are never an
    error: they are quarantined (or discarded) and the affected shards
    simply re-sweep, so a damaged checkpoint can cost time, not
    correctness.
    """


class ConfigError(ReproError):
    """Invalid model or experiment configuration values."""


class AnalysisConfigError(ConfigError, AnalysisError):
    """Invalid analysis execution options (:mod:`repro.core.config`).

    The unified knob layer rejects unknown names, bad values and
    conflicting combinations at :class:`~repro.core.config.AnalysisConfig`
    construction time.  Deliberately a subclass of *both*
    :class:`ConfigError` (these are configuration mistakes — the CLI and
    the server map them to terminal, caller-fixable errors) and
    :class:`AnalysisError` (the historical type every analysis boundary
    raised for the same mistakes), so code catching either keeps working.
    """


class ServerError(ReproError):
    """Base class for analysis-service failures (:mod:`repro.server`).

    Every subclass carries ``retriable`` — whether a client that retries
    the same request (after ``retry_after`` seconds, when given) can
    expect it to succeed — so the wire-protocol error taxonomy is
    decided where the error is raised, not reverse-engineered from
    messages.  Library errors that are *not* ``ServerError`` map through
    :func:`repro.server.protocol.error_info` instead (resilience errors
    are retriable, config/netlist/analysis errors are terminal).
    """

    #: Whether retrying the identical request can succeed.
    retriable: bool = False

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class QueueFullError(ServerError):
    """The service shed this request: the admission queue (or the
    client's in-flight cap) is at capacity.

    ``retry_after`` is the server's estimate of when capacity frees up —
    the load-shedding contract: the work was *not* started.
    """

    retriable = True


class DeadlineExceededError(ServerError):
    """The request's end-to-end deadline expired before a result.

    Terminal for *this* request by construction — the caller already
    gave up — though a client may of course submit a fresh request with
    a larger budget.  Raised at the service's admission, queue-dequeue,
    plan-build and merge boundaries; inside a sharded sweep the same
    budget travels as the ``deadline`` knob and surfaces as
    :class:`ShardTimeoutError`, which the service translates back.
    """

    retriable = False


class ServiceUnavailableError(ServerError):
    """The service is draining (SIGTERM received) or already closed.

    Retriable against a *replacement* instance: in-flight requests are
    finished during a drain, queued-but-unstarted ones get this.
    """

    retriable = True


class ConnectionLostError(ServiceUnavailableError):
    """The client's connection to the service dropped mid-request.

    Raised by :class:`~repro.server.client.ServeClient` when the socket
    closes without a reply — the restarted-server shape.  A subclass of
    :class:`ServiceUnavailableError` so existing ``except`` clauses and
    the wire taxonomy keep working; the client's auto-retry treats it as
    a transport failure and reconnects before retrying.
    """

    retriable = True
