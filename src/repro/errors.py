"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: graph-structure errors, BSP runtime errors, and benchmark errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Base class for graph-structure errors."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex id was referenced that is not present in the graph."""

    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that is not present in the graph."""

    def __init__(self, u, v):
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class EdgeListFormatError(GraphError, ValueError):
    """An edge-list line could not be parsed.

    Carries the 1-based line number and the offending text so a bad
    file is diagnosable without re-reading it.
    """

    def __init__(self, lineno, line, reason):
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


class DuplicateEdgeError(GraphError, ValueError):
    """An edge appeared twice where the caller required each once.

    The mutable :class:`~repro.graph.graph.Graph` resolves duplicates
    by updating in place; the strict edge-list readers and the
    streamed CSR snapshot builder — whose row layout is frozen at
    first sight of each edge — refuse them instead.
    """

    def __init__(self, u, v, lineno=None):
        where = f" (line {lineno})" if lineno is not None else ""
        super().__init__(
            f"duplicate edge ({u!r}, {v!r}){where}"
        )
        self.u = u
        self.v = v
        self.lineno = lineno


class SnapshotError(GraphError):
    """A CSR snapshot could not be built, written, or opened."""


class SnapshotCorruptionError(SnapshotError):
    """An on-disk CSR snapshot failed its integrity checks.

    Raised when the manifest is missing or undecodable, a section is
    truncated, or a CRC-32 does not match — mirroring
    :class:`CheckpointCorruptionError`: low-level decoding failures
    never escape as raw tracebacks.
    """


class NotATreeError(GraphError, ValueError):
    """An operation requiring a tree was invoked on a non-tree graph."""


class DisconnectedGraphError(GraphError, ValueError):
    """An operation requiring a connected graph got a disconnected one."""


class BSPError(ReproError):
    """Base class for errors raised by the BSP runtime."""


class SuperstepLimitExceeded(BSPError, RuntimeError):
    """A vertex program failed to halt within the configured bound.

    The engine refuses to run forever: every run carries a superstep
    budget, and exceeding it indicates either a non-terminating program
    or a budget chosen too small for the input.
    """

    def __init__(self, limit, program_name=""):
        name = f" ({program_name})" if program_name else ""
        super().__init__(
            f"vertex program{name} did not halt within {limit} supersteps"
        )
        self.limit = limit


class MessageToUnknownVertexError(BSPError, KeyError):
    """A message was addressed to a vertex id that does not exist."""

    def __init__(self, target):
        super().__init__(f"message sent to unknown vertex {target!r}")
        self.target = target


class WorkerCrashError(BSPError, RuntimeError):
    """A (simulated) worker failed at a superstep barrier.

    Raised by the fault injector when a :class:`~repro.bsp.faults.
    CrashFault` fires.  The engine catches it, rolls back to the last
    checkpoint and replays; it escapes to the caller only when no
    recovery machinery is configured.
    """

    def __init__(self, worker, superstep):
        super().__init__(
            f"worker {worker} crashed at superstep {superstep}"
        )
        self.worker = worker
        self.superstep = superstep


class CheckpointError(BSPError, RuntimeError):
    """Checkpointing was misconfigured or a restore was impossible.

    Raised for a non-positive ``checkpoint_interval``, for a restore
    attempted when no checkpoint has been written, and for durable
    stores that cannot be opened (missing manifest, unsupported
    format version, nothing intact to resume from).
    """


class CheckpointCorruptionError(CheckpointError):
    """A durable checkpoint file or manifest failed integrity checks.

    Raised when a payload is truncated, fails its CRC-32 checksum, or
    cannot be decoded — and no older intact checkpoint exists to fall
    back to.  The durable loader converts every low-level decoding
    failure into this type, so corruption never surfaces as a raw
    pickle traceback.
    """


class FingerprintMismatchError(CheckpointError):
    """A durable checkpoint directory belongs to a different run
    configuration.

    The manifest records a fingerprint of the (graph, program,
    engine-config) tuple that wrote it; resuming — or starting a
    fresh run — against a directory whose fingerprint differs raises
    this instead of silently mixing incompatible state.
    """

    def __init__(self, expected, found, directory):
        super().__init__(
            f"checkpoint directory {directory!r} was written by a "
            f"different run configuration (manifest fingerprint "
            f"{found!r}, this run {expected!r}); resume with the "
            "original graph/program/engine settings or point at a "
            "clean directory"
        )
        self.expected = expected
        self.found = found
        self.directory = directory


class RecoveryExhaustedError(BSPError, RuntimeError):
    """Recovery retries were exhausted without completing the run.

    A run under fault injection retries each crashed superstep up to
    ``repro.bsp.loop.MAX_RECOVERY_ATTEMPTS`` times (with
    exponential-backoff cost accounting); a fault plan that keeps
    crashing past the budget raises this instead of looping forever.
    """

    def __init__(self, superstep, attempts):
        super().__init__(
            f"recovery exhausted after {attempts} attempts at "
            f"superstep {superstep}"
        )
        self.superstep = superstep
        self.attempts = attempts


class SpillError(BSPError):
    """The spill tier could not write or reload a lane.

    Raised when writing a lane under ``memory_budget`` fails (a full
    disk under ``spill_dir``, for one) and when a spilled record no
    longer reads back whole.  The low-level error is chained as the
    cause; the run's spill files are removed before it propagates.
    """


class BenchmarkError(ReproError):
    """Base class for errors raised by the benchmark core."""


class UnknownWorkloadError(BenchmarkError, KeyError):
    """A workload name was requested that is not registered."""

    def __init__(self, name, known):
        super().__init__(
            f"unknown workload {name!r}; known workloads: {sorted(known)}"
        )
        self.name = name
