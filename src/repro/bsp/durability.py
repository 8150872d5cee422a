"""Durable on-disk checkpoints and cross-process resume.

In-memory checkpoints die with the coordinator: a SIGKILL of the run
loses all work.  This module persists each checkpoint to disk behind
the :class:`~repro.bsp.checkpoint.CheckpointStore` interface so a run
can be resumed in a *fresh interpreter*, byte-identical to the
uninterrupted run — the operational half of the paper's
fault-tolerance story: recovery cost, not steady-state speed, decides
whether a long iterative job is usable (Ammar & Özsu treat
fault-handling behavior as a first-class differentiator).

On-disk format (version 3)
--------------------------
A checkpoint directory holds one JSON manifest plus one binary record
per retained checkpoint::

    MANIFEST.json       # format version, run id, config fingerprint,
                        # write counters, per-checkpoint index entries
    ckpt-000001.bin     # pickled {"format_version", "superstep",
    ckpt-000002.bin     #          "checkpoint", "context"}
    ...

A record's :class:`~repro.bsp.checkpoint.Checkpoint` is columns plus,
only when the run's topology is no longer the baseline the engine
froze at construction, a ``TopologySnapshot`` of its own.  A record of
an unmutated run therefore holds no edge, owner or worker-list data
and does not grow with the edge count: the resuming engine re-derives
the baseline from the graph it is handed, and the fingerprint (below)
guarantees that graph lays the columns out identically.  Nor does a
record name the plane that wrote it: the oracle's directory resumes
on the dense plane and the reverse.  An older directory (version 1:
edge-map copies; 2: the plane in records and fingerprint) is refused,
resuming or not, with a ``CheckpointError`` naming the version.

Every write is atomic: the bytes go to a temp file in the same
directory, are flushed and ``fsync``'d, and only then renamed over the
final name (``os.replace``), so a crash mid-write can never leave a
half-written checkpoint under a valid name.  A write the filesystem
refuses (disk full, quota) raises a ``CheckpointError`` naming the
file and leaves no temp file; the manifest is rewritten before older
generations are pruned, so it names only records that are on disk and
the run resumes from the previous generation.  The manifest records
each record's byte length and CRC-32; on load both are verified
*before* unpickling, and any record that fails — truncated,
bit-flipped, undecodable — is skipped in favor of the newest older
intact checkpoint.  Only when every retained generation is damaged
does the store raise :class:`~repro.errors.CheckpointCorruptionError`;
raw pickle tracebacks never escape.

Config fingerprint
------------------
The manifest carries a fingerprint of everything that shapes the
deterministic execution: the graph structure, the program's class and
constructor state, worker count, seed, checkpoint interval, recovery
budget, recovery mode, BPPA tracking, the combiner/partitioner/
cost-model configuration, and the fault plan.
It is **order-sensitive, because execution is**: besides the sorted
structure digest (:func:`graph_signature`) it folds in a CRC of the
baseline — vertex ids in ``states`` order, edge rows in iteration
order with weights.  Vertex order is what a record's columns align to
and adjacency order is the send order, so a graph with the same
content in another insertion order is another run.  Resuming against
a directory whose fingerprint differs raises
:class:`~repro.errors.FingerprintMismatchError` instead of silently
mixing incompatible state.  Three knobs are deliberately *excluded*:

* the backend and the plane (``use_fast_path``) — serial, oracle and
  process-parallel execution are byte-identical by contract, so a run
  checkpointed under one may resume under another;
* the parallel backend's ``transport`` — shared-memory segment or pipe
  message, the rank-ordered merge sees the same columns (the kwarg is
  consumed by ``ParallelPregelEngine`` and never reaches the
  fingerprint), so a run resumes under either;
* ``max_supersteps`` — it is a guard, not semantics; the canonical
  reason to resume is "the run was killed, give it more budget".

Resume context
--------------
A :class:`~repro.bsp.checkpoint.Checkpoint` rewinds a *live* engine;
a fresh process additionally needs the run-scoped state that rollback
never restores because the crashed process still had it: the
:class:`~repro.metrics.stats.RunStats` so far, the aggregate history,
execution/crash counters, per-superstep checkpoint costs, the
confined-recovery logs, the program's mutable attributes, and the
fault injector's RNG stream.  :func:`build_run_context` captures it at
every durable write; :func:`resume_engine` adopts it before the
standard :func:`~repro.bsp.checkpoint.restore_checkpoint` runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import uuid
import zlib
from typing import Any, List, Optional, Tuple

from repro.bsp.checkpoint import CheckpointStore, restore_checkpoint
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    FingerprintMismatchError,
)

#: Version of the on-disk layout; bumped on incompatible changes.
FORMAT_VERSION = 3

MANIFEST_NAME = "MANIFEST.json"
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


# ---------------------------------------------------------------------
# Atomic file writes
# ---------------------------------------------------------------------


def _fsync_directory(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    A crash at any point leaves either the old content or the new
    content under ``path`` — never a prefix of the new bytes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".part"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    _fsync_directory(directory)


# ---------------------------------------------------------------------
# Config fingerprint
# ---------------------------------------------------------------------


def _object_signature(obj: Any) -> str:
    """A stable textual identity for a configured helper object:
    class identity plus sorted constructor state."""
    if obj is None:
        return "none"
    cls = type(obj)
    state = getattr(obj, "__dict__", None) or {}
    inner = ",".join(
        f"{key}={state[key]!r}" for key in sorted(state)
    )
    return f"{cls.__module__}.{cls.__qualname__}({inner})"


def graph_signature(graph) -> str:
    """Structure digest of a graph: counts plus a CRC-32 over the
    canonically-sorted vertex and edge descriptions."""
    # One CRC per sorted list: the chained CRC-32 of the pieces is the
    # CRC-32 of their concatenation.
    crc = 0
    for descriptions in (
        [f"v:{v!r}" for v in graph.vertices()],
        [
            f"e:{u!r}->{v!r}:{d.weight!r}:{d.label!r}"
            for u, v, d in graph.edges(data=True)
        ],
    ):
        descriptions.sort()
        crc = zlib.crc32("".join(descriptions).encode("utf-8"), crc)
    return (
        f"graph(n={graph.num_vertices},m={graph.num_edges},"
        f"directed={graph.directed},crc={crc & 0xFFFFFFFF:08x})"
    )


def config_fingerprint(
    graph,
    program,
    *,
    num_workers: int,
    seed: Optional[int],
    checkpoint_interval: Optional[int],
    max_recovery_attempts: int,
    confined_recovery: bool,
    track_bppa: bool,
    combiner,
    partitioner,
    cost_model,
    fault_plan,
    baseline=None,
) -> str:
    """Fingerprint the (graph, program, engine-config) tuple.

    Everything that shapes deterministic execution is folded in; the
    backend and plane, the transport and ``max_supersteps`` are
    deliberately excluded (see the module docstring).  ``baseline`` is
    the engine's frozen ``TopologySnapshot``: its CRC pins the vertex
    and adjacency order a record's columns are aligned to.  Uses
    SHA-256 over canonical ``repr`` strings, so the result is
    independent of ``PYTHONHASHSEED``.
    """
    parts = [
        f"format={FORMAT_VERSION}",
        graph_signature(graph),
        f"order={zlib.crc32(repr(baseline).encode('utf-8')):08x}",
        f"program={_object_signature(program)}",
        f"program_name={getattr(program, 'name', '')!r}",
        f"num_workers={num_workers}",
        f"seed={seed!r}",
        f"checkpoint_interval={checkpoint_interval!r}",
        f"max_recovery_attempts={max_recovery_attempts!r}",
        f"confined_recovery={bool(confined_recovery)!r}",
        f"track_bppa={bool(track_bppa)!r}",
        f"combiner={_object_signature(combiner)}",
        f"partitioner={_object_signature(partitioner)}",
        f"cost_model={cost_model!r}",
        f"fault_plan={fault_plan!r}",
    ]
    digest = hashlib.sha256("|".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------
# The durable store
# ---------------------------------------------------------------------


class DurableCheckpointStore(CheckpointStore):
    """A :class:`CheckpointStore` whose checkpoints also live on disk.

    ``latest`` still serves in-process rollback with zero
    deserialization; :meth:`persist` additionally writes each
    checkpoint (plus its resume context) as an atomic, checksummed
    record, and ``keep`` generations are retained so corruption of the
    newest record can fall back to an older intact one.

    Open with ``resume=False`` to start a directory fresh (an existing
    manifest must carry the same format version and fingerprint), or
    ``resume=True`` to load the newest intact checkpoint, after which
    :meth:`resume_state` hands the engine its ``(checkpoint,
    context)`` pair.
    """

    durable = True

    def __init__(
        self,
        directory: str,
        *,
        fingerprint: str,
        resume: bool = False,
        keep: int = 3,
        run_id: Optional[str] = None,
    ):
        super().__init__()
        if keep < 2:
            raise ValueError(
                f"keep must be >= 2 for corruption fallback, got {keep}"
            )
        self.directory = os.path.abspath(directory)
        self.fingerprint = fingerprint
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)
        self._resume_record: Optional[Tuple[Any, Optional[dict]]] = None
        if resume:
            manifest = self._read_manifest()
            self._check_compatible(manifest)
            checkpoint, context = self._load_latest_intact(manifest)
            self._manifest = manifest
            self._seq = max(
                entry["seq"] for entry in manifest["checkpoints"]
            )
            self.latest = checkpoint
            self.written = int(manifest.get("total_written", 0))
            self.total_size = int(manifest.get("total_atoms", 0))
            self._resume_record = (checkpoint, context)
        else:
            existing = self._try_read_manifest()
            if existing is not None:
                self._check_compatible(existing)
            self._seq = 0
            self._remove_stale_records()
            self._write_manifest(
                {
                    "format_version": FORMAT_VERSION,
                    "run_id": run_id or uuid.uuid4().hex,
                    "fingerprint": fingerprint,
                    "total_written": 0,
                    "total_atoms": 0,
                    "checkpoints": [],
                }
            )

    # -- writing ----------------------------------------------------

    def persist(self, checkpoint, context: Optional[dict] = None):
        """Write ``checkpoint`` (+ resume ``context``) durably — after
        :meth:`save` and all checkpoint accounting, so the context is
        the uninterrupted run's state at this boundary exactly."""
        record = {
            "format_version": FORMAT_VERSION,
            "superstep": checkpoint.superstep,
            "checkpoint": checkpoint,
            "context": context,
        }
        try:
            blob = pickle.dumps(record, _PICKLE_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                "checkpoint is not durable: state failed to pickle "
                f"({exc!r}); use picklable vertex values and program "
                "attributes with checkpoint_dir"
            ) from exc
        seq = self._seq + 1
        filename = f"ckpt-{seq:06d}.bin"
        self._write(filename, blob)
        entries = self._manifest["checkpoints"] + [
            {
                "seq": seq,
                "superstep": checkpoint.superstep,
                "file": filename,
                "length": len(blob),
                "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
                "atoms": checkpoint.size,
            }
        ]
        # The manifest first, the pruning after: whatever fails, the
        # manifest on disk names only records that are on disk.
        try:
            self._write_manifest(
                dict(
                    self._manifest,
                    checkpoints=entries[-self.keep:],
                    total_written=self.written,
                    total_atoms=self.total_size,
                )
            )
        except CheckpointError:
            _unlink(os.path.join(self.directory, filename))
            raise
        self._seq = seq
        for stale in entries[:-self.keep]:
            _unlink(os.path.join(self.directory, stale["file"]))

    def _write(self, name: str, data: bytes) -> None:
        """:func:`atomic_write` into the directory; resource exhaustion
        (disk full, quota) is a typed error naming the file."""
        path = os.path.join(self.directory, name)
        try:
            atomic_write(path, data)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write {path!r} ({exc}); every checkpoint the "
                "manifest names is still intact and resumable"
            ) from exc

    def _write_manifest(self, manifest: dict) -> None:
        """Write ``manifest`` and, once it is on disk, adopt it."""
        payload = json.dumps(manifest, indent=2, sort_keys=True)
        self._write(MANIFEST_NAME, payload.encode("utf-8"))
        self._manifest = manifest

    def _remove_stale_records(self) -> None:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.startswith("ckpt-") and name.endswith(".bin"):
                _unlink(os.path.join(self.directory, name))

    # -- reading ----------------------------------------------------

    def resume_state(self) -> Optional[Tuple[Any, Optional[dict]]]:
        """The ``(checkpoint, context)`` loaded at open time, or None
        when the store was opened fresh."""
        return self._resume_record

    def _try_read_manifest(self) -> Optional[dict]:
        """The manifest, or None when there is none worth keeping."""
        try:
            return self._read_manifest()
        except CheckpointError:
            return None

    def _read_manifest(self) -> dict:
        path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.exists(path):
            raise CheckpointError(
                f"cannot resume: no checkpoint manifest at {path!r}"
            )
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except OSError as exc:
            raise CheckpointCorruptionError(
                f"cannot resume: manifest unreadable ({exc})"
            ) from exc
        except ValueError as exc:
            raise CheckpointCorruptionError(
                f"cannot resume: manifest at {path!r} is not valid "
                f"JSON ({exc})"
            ) from exc
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("checkpoints"), list
        ):
            raise CheckpointCorruptionError(
                f"cannot resume: manifest at {path!r} has an "
                "unexpected shape"
            )
        return manifest

    def _check_compatible(self, manifest: dict) -> None:
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{self.directory!r} holds checkpoint format version "
                f"{version!r}; this build reads and writes version "
                f"{FORMAT_VERSION} only (resume with the build that "
                "wrote it, or point at a clean directory)"
            )
        found = manifest.get("fingerprint")
        if self.fingerprint is not None and found != self.fingerprint:
            raise FingerprintMismatchError(
                self.fingerprint, found, self.directory
            )

    def _load_latest_intact(self, manifest: dict):
        entries = sorted(
            manifest["checkpoints"],
            key=lambda entry: entry.get("seq", 0),
            reverse=True,
        )
        if not entries:
            raise CheckpointError(
                f"cannot resume: manifest at {self.directory!r} "
                "lists no checkpoints (the run died before its first "
                "durable write)"
            )
        failures: List[str] = []
        for entry in entries:
            try:
                record = self._read_record(entry)
            except CheckpointCorruptionError as exc:
                failures.append(str(exc))
                continue
            return record["checkpoint"], record.get("context")
        raise CheckpointCorruptionError(
            "cannot resume: every retained checkpoint is corrupt: "
            + "; ".join(failures)
        )

    def _read_record(self, entry: dict) -> dict:
        name = entry.get("file", "<missing>")
        path = os.path.join(self.directory, name)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CheckpointCorruptionError(
                f"{name}: unreadable ({exc})"
            ) from exc
        if len(blob) != entry.get("length"):
            raise CheckpointCorruptionError(
                f"{name}: truncated ({len(blob)} bytes, manifest "
                f"says {entry.get('length')})"
            )
        if zlib.crc32(blob) & 0xFFFFFFFF != entry.get("crc32"):
            raise CheckpointCorruptionError(
                f"{name}: CRC-32 checksum mismatch"
            )
        try:
            record = pickle.loads(blob)
        except Exception as exc:
            raise CheckpointCorruptionError(
                f"{name}: payload undecodable ({exc!r})"
            ) from exc
        if (
            not isinstance(record, dict)
            or "checkpoint" not in record
            or record.get("format_version") != FORMAT_VERSION
        ):
            raise CheckpointCorruptionError(
                f"{name}: record has an unexpected shape"
            )
        return record


def open_durable_store(
    directory: str, fingerprint: str, resume
) -> DurableCheckpointStore:
    """Open ``directory`` for an engine run.

    ``resume`` is False (start fresh), True (must resume — any open
    failure propagates as a typed :class:`CheckpointError`), or
    ``"auto"`` (resume when an intact checkpoint exists, otherwise
    start fresh).  A fingerprint mismatch always raises: ``"auto"``
    must never silently discard another configuration's checkpoints.
    """
    if resume:
        try:
            return DurableCheckpointStore(
                directory, fingerprint=fingerprint, resume=True
            )
        except FingerprintMismatchError:
            raise
        except CheckpointError:
            if resume != "auto":
                raise
    return DurableCheckpointStore(
        directory, fingerprint=fingerprint, resume=False
    )


# ---------------------------------------------------------------------
# Resume context: run-scoped state beyond the Checkpoint itself
# ---------------------------------------------------------------------


def build_run_context(engine, stats) -> dict:
    """Capture the run-scoped state a fresh interpreter needs to
    continue from this superstep boundary.

    The :class:`Checkpoint` already carries the engine state that
    rollback restores; this adds everything an in-process rollback
    keeps implicitly: the accumulated stats, aggregate history,
    execution/crash counters, checkpoint-cost ledger, the
    confined-recovery logs, the program's mutable attributes, and the
    fault injector's RNG stream and crash budget.
    """
    store = engine._store
    injector = engine._injector
    return {
        "stats": stats,
        "aggregate_history": list(engine._aggregate_history),
        "exec_counts": dict(engine._exec_counts),
        "crash_counts": dict(engine._loop.crash_counts),
        "ckpt_costs": dict(store.ckpt_costs),
        "message_log": {
            superstep: {
                vid: list(msgs) for vid, msgs in log.items()
            }
            for superstep, log in store.message_log.items()
        },
        "wake_log": dict(store.wake_log),
        "program_state": dict(
            getattr(engine._program, "__dict__", {})
        ),
        "injector": None
        if injector is None
        else injector.snapshot_state(),
    }


def _rebuild_stats(stats):
    """Reconstruct an unpickled :class:`RunStats` natively.

    The determinism oracle compares ``pickle.dumps(stats)`` bytes, and
    pickle memoizes strings by *identity*: a natively built stats
    object shares interned attribute-name strings across its dicts,
    while an unpickled one carries fresh string objects, so the same
    values serialize to different bytes.  Rebuilding every dataclass
    through its constructor restores the native interning, making the
    resumed run's stats byte-identical to the uninterrupted run's.
    """
    clean = dataclasses.replace(
        stats,
        cost_model=dataclasses.replace(stats.cost_model),
        supersteps=[
            dataclasses.replace(entry) for entry in stats.supersteps
        ],
    )
    clean.wall = None
    clean.peak_rss_bytes = None
    return clean


def resume_engine(engine, checkpoint, context: dict):
    """Adopt a durable ``(checkpoint, context)`` pair into a freshly
    constructed engine; returns ``(start_superstep, stats)``.

    The run-scoped context is installed first, then the standard
    :func:`restore_checkpoint` rewinds the engine state exactly as an
    in-process rollback would (with the ``Rollback`` trace event
    suppressed: resuming is a continuation, not a recovery).
    """
    stats = _rebuild_stats(context["stats"])
    store = engine._store
    engine._aggregate_history = list(context["aggregate_history"])
    engine._exec_counts.clear()
    engine._exec_counts.update(context["exec_counts"])
    engine._loop.crash_counts = dict(context["crash_counts"])
    store.ckpt_costs = dict(context["ckpt_costs"])
    store.message_log = {
        superstep: {vid: list(msgs) for vid, msgs in log.items()}
        for superstep, log in context["message_log"].items()
    }
    store.wake_log = dict(context["wake_log"])
    program_state = context.get("program_state")
    if program_state is not None and hasattr(
        engine._program, "__dict__"
    ):
        engine._program.__dict__.clear()
        engine._program.__dict__.update(program_state)
    injector_state = context.get("injector")
    if injector_state is not None and engine._injector is not None:
        engine._injector.restore_state(injector_state)
    trace, engine._trace = engine._trace, None
    try:
        restore_checkpoint(engine, checkpoint)
    finally:
        engine._trace = trace
    return checkpoint.superstep, stats
