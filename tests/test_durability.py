"""Durable checkpoints and cross-process resume.

Three layers of coverage:

* the :class:`DurableCheckpointStore` itself — atomic write
  round-trips, retention pruning, counter continuity;
* the corruption matrix — truncated records, bit-flipped records,
  missing/garbage manifests, version and fingerprint mismatches all
  surface as *typed* checkpoint errors (never a raw pickle traceback),
  and single-record damage falls back to the newest older intact
  generation;
* engine-level resume — an interrupted run resumed from disk must be
  byte-identical (values, pickled stats, aggregate history, BPPA) to
  the uninterrupted run, including under an active fault plan whose
  injector RNG must continue mid-stream;
* resource exhaustion — a write the filesystem refuses is a typed
  error that leaves the directory resumable;
* the columnar record — no topology data in a record of an unmutated
  run, a topology-carrying record after a mutation, a fingerprint
  that pins vertex and adjacency order, and (version 3) nothing about
  the execution plane: the oracle's directory resumes on the dense
  plane and the reverse.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import subprocess
import sys
import zlib

import pytest

import repro.bsp.durability as durability
from repro.algorithms.pagerank import PageRank
from repro.bsp import SumCombiner, VertexProgram
from repro.bsp.checkpoint import EngineSnapshot
from repro.bsp.durability import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    DurableCheckpointStore,
    atomic_write,
    config_fingerprint,
    graph_signature,
    open_durable_store,
)
from repro.bsp.engine import PregelEngine, run_program
from repro.bsp.faults import chaos_plan
from repro.core.chaos import (
    bitflip_file,
    canonical_result,
    result_digest,
    truncate_file,
)
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    FingerprintMismatchError,
    SuperstepLimitExceeded,
)
from repro.graph import Graph
from repro.graph.generators import erdos_renyi_graph

GRAPH = erdos_renyi_graph(30, 0.15, seed=7, directed=True)

FP = "0123456789abcdef"


def _store(directory, **kwargs) -> DurableCheckpointStore:
    kwargs.setdefault("fingerprint", FP)
    return DurableCheckpointStore(str(directory), **kwargs)


def _fill(store: DurableCheckpointStore, count: int) -> None:
    for i in range(count):
        snap = store.save(
            EngineSnapshot(superstep=i, payload={"step": i})
        )
        store.persist(snap, {"marker": i})


def _ckpt_files(directory) -> list:
    return sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("ckpt-")
    )


class TestDurableStore:
    def test_round_trip(self, tmp_path):
        store = _store(tmp_path)
        _fill(store, 2)
        resumed = _store(tmp_path, resume=True)
        ckpt, context = resumed.resume_state()
        assert ckpt.superstep == 1
        assert ckpt.payload == {"step": 1}
        assert context == {"marker": 1}
        # Write-side accounting continues where the run left off.
        assert resumed.written == store.written
        assert resumed.total_size == store.total_size

    def test_retention_prunes_beyond_keep(self, tmp_path):
        store = _store(tmp_path, keep=3)
        _fill(store, 5)
        assert len(_ckpt_files(tmp_path)) == 3
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text()
        )
        supersteps = [
            entry["superstep"] for entry in manifest["checkpoints"]
        ]
        assert supersteps == [2, 3, 4]

    def test_keep_must_allow_fallback(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            _store(tmp_path, keep=1)

    def test_fresh_open_wipes_stale_records(self, tmp_path):
        _fill(_store(tmp_path), 3)
        store = _store(tmp_path)  # same fingerprint, fresh run
        assert _ckpt_files(tmp_path) == []
        assert store.resume_state() is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        atomic_write(str(tmp_path / "blob"), b"payload")
        assert (tmp_path / "blob").read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["blob"]


class TestCorruptionMatrix:
    def test_truncated_latest_falls_back(self, tmp_path):
        _fill(_store(tmp_path), 3)
        truncate_file(str(tmp_path / _ckpt_files(tmp_path)[-1]))
        resumed = _store(tmp_path, resume=True)
        ckpt, context = resumed.resume_state()
        assert ckpt.superstep == 1  # newest intact generation
        assert context == {"marker": 1}

    def test_bitflipped_latest_falls_back(self, tmp_path):
        _fill(_store(tmp_path), 3)
        bitflip_file(str(tmp_path / _ckpt_files(tmp_path)[-1]))
        resumed = _store(tmp_path, resume=True)
        ckpt, _ = resumed.resume_state()
        assert ckpt.superstep == 1

    def test_all_generations_corrupt_is_typed(self, tmp_path):
        _fill(_store(tmp_path), 3)
        for name in _ckpt_files(tmp_path):
            truncate_file(str(tmp_path / name), drop_bytes=4)
        with pytest.raises(
            CheckpointCorruptionError, match="every retained"
        ):
            _store(tmp_path, resume=True)

    def test_missing_record_file_falls_back(self, tmp_path):
        _fill(_store(tmp_path), 3)
        os.unlink(tmp_path / _ckpt_files(tmp_path)[-1])
        resumed = _store(tmp_path, resume=True)
        ckpt, _ = resumed.resume_state()
        assert ckpt.superstep == 1

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            _store(tmp_path, resume=True)

    def test_garbage_manifest_is_typed(self, tmp_path):
        _fill(_store(tmp_path), 2)
        (tmp_path / MANIFEST_NAME).write_bytes(b"{not json")
        with pytest.raises(
            CheckpointCorruptionError, match="not valid JSON"
        ):
            _store(tmp_path, resume=True)

    def test_manifest_wrong_shape_is_typed(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('["list"]')
        with pytest.raises(
            CheckpointCorruptionError, match="unexpected shape"
        ):
            _store(tmp_path, resume=True)

    def test_version_mismatch(self, tmp_path):
        _fill(_store(tmp_path), 2)
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text()
        )
        manifest["format_version"] = FORMAT_VERSION + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointError, match="format version"
        ):
            _store(tmp_path, resume=True)

    @pytest.mark.parametrize("resume", [True, False, "auto"])
    def test_version_1_directory_is_refused_by_name(
        self, tmp_path, resume
    ):
        _fill(_store(tmp_path), 2)
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text()
        )
        manifest["format_version"] = 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointError, match="format version 1;"
        ) as info:
            open_durable_store(str(tmp_path), FP, resume)
        assert not isinstance(info.value, FingerprintMismatchError)
        # Refused, not wiped.
        assert len(_ckpt_files(tmp_path)) == 2

    @pytest.mark.parametrize("resume", [True, False, "auto"])
    def test_version_2_directory_is_refused_by_name(
        self, tmp_path, resume
    ):
        # Version 2 records carried ``fast_active`` and fingerprinted
        # ``use_fast_path``: typed refusal, never an unpickling
        # traceback or a fingerprint mismatch.
        assert FORMAT_VERSION == 3
        _fill(_store(tmp_path), 2)
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text()
        )
        manifest["format_version"] = 2
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointError, match="format version 2;"
        ) as info:
            open_durable_store(str(tmp_path), "another-fp", resume)
        assert not isinstance(info.value, FingerprintMismatchError)
        assert len(_ckpt_files(tmp_path)) == 2

    def test_empty_manifest_never_ran(self, tmp_path):
        _store(tmp_path)  # fresh open writes an empty manifest
        with pytest.raises(
            CheckpointError, match="lists no checkpoints"
        ):
            _store(tmp_path, resume=True)

    def test_fingerprint_mismatch_on_resume(self, tmp_path):
        _fill(_store(tmp_path), 2)
        with pytest.raises(FingerprintMismatchError) as info:
            _store(tmp_path, fingerprint="feedfacefeedface", resume=True)
        assert info.value.expected == "feedfacefeedface"
        assert info.value.found == FP

    def test_fingerprint_mismatch_on_fresh_open(self, tmp_path):
        # Starting "fresh" must never silently clobber another
        # configuration's checkpoints.
        _fill(_store(tmp_path), 2)
        with pytest.raises(FingerprintMismatchError):
            _store(tmp_path, fingerprint="feedfacefeedface")

    def test_open_auto_falls_back_to_fresh(self, tmp_path):
        store = open_durable_store(str(tmp_path), FP, "auto")
        assert store.resume_state() is None
        _fill(store, 2)
        again = open_durable_store(str(tmp_path), FP, "auto")
        ckpt, _ = again.resume_state()
        assert ckpt.superstep == 1

    def test_open_strict_resume_propagates(self, tmp_path):
        with pytest.raises(CheckpointError):
            open_durable_store(str(tmp_path), FP, True)

    def test_auto_never_ignores_fingerprint(self, tmp_path):
        _fill(_store(tmp_path), 2)
        with pytest.raises(FingerprintMismatchError):
            open_durable_store(
                str(tmp_path), "feedfacefeedface", "auto"
            )


class _CountingPageRank(PageRank):
    """PageRank with mutable program state (a master-compute counter)
    that resume must restore into the fresh program instance."""

    name = "counting-pagerank"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.master_calls = 0

    def master_compute(self, master) -> None:
        self.master_calls += 1
        super().master_compute(master)


class _UnpicklableProgram(PageRank):
    name = "unpicklable"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.hook = lambda value: value


class TestEngineResume:
    def _engine(self, program, **kwargs):
        kwargs.setdefault("num_workers", 3)
        kwargs.setdefault("seed", 11)
        kwargs.setdefault("checkpoint_interval", 2)
        return PregelEngine(GRAPH, program, **kwargs)

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        directory = str(tmp_path / "ck")
        base = self._engine(
            _CountingPageRank(num_supersteps=8), track_bppa=True
        )
        baseline = base.run()
        with pytest.raises(SuperstepLimitExceeded):
            self._engine(
                _CountingPageRank(num_supersteps=8),
                track_bppa=True,
                checkpoint_dir=directory,
                max_supersteps=5,
            ).run()
        resumed_program = _CountingPageRank(num_supersteps=8)
        engine = self._engine(
            resumed_program,
            track_bppa=True,
            checkpoint_dir=directory,
            resume=True,
        )
        resumed = engine.run()
        assert canonical_result(resumed) == canonical_result(
            baseline
        )
        assert pickle.dumps(resumed.bppa) == pickle.dumps(
            baseline.bppa
        )
        # Mutable program state continued, not restarted.
        assert (
            resumed_program.master_calls
            == base._program.master_calls
        )

    @pytest.mark.parametrize(
        "writer,resumer",
        [(False, True), (True, False)],
        ids=["oracle-to-dense", "dense-to-oracle"],
    )
    def test_resume_crosses_execution_planes(
        self, tmp_path, writer, resumer
    ):
        # A record says nothing about the plane that wrote it and the
        # fingerprint does not either: both engines are the same run.
        directory = str(tmp_path / "ck")
        baseline = self._engine(
            PageRank(num_supersteps=8), track_bppa=True
        ).run()
        with pytest.raises(SuperstepLimitExceeded):
            self._engine(
                PageRank(num_supersteps=8),
                track_bppa=True,
                checkpoint_dir=directory,
                max_supersteps=5,
                use_fast_path=writer,
            ).run()
        engine = self._engine(
            PageRank(num_supersteps=8),
            track_bppa=True,
            checkpoint_dir=directory,
            resume=True,
            use_fast_path=resumer,
        )
        assert engine.fast_path is resumer
        resumed = engine.run()
        assert engine.fast_path is resumer
        assert result_digest(resumed) == result_digest(baseline)
        assert canonical_result(resumed) == canonical_result(
            baseline
        )

    def test_resume_with_corrupt_latest_still_identical(
        self, tmp_path
    ):
        directory = tmp_path / "ck"
        baseline = self._engine(PageRank(num_supersteps=8)).run()
        with pytest.raises(SuperstepLimitExceeded):
            self._engine(
                PageRank(num_supersteps=8),
                checkpoint_dir=str(directory),
                max_supersteps=6,
            ).run()
        names = _ckpt_files(directory)
        assert len(names) >= 2
        bitflip_file(str(directory / names[-1]))
        resumed = self._engine(
            PageRank(num_supersteps=8),
            checkpoint_dir=str(directory),
            resume=True,
        ).run()
        assert canonical_result(resumed) == canonical_result(
            baseline
        )

    def test_faulted_run_resumes_byte_identical(self, tmp_path):
        # The injector's RNG stream and crash budget must continue
        # mid-run, not restart from the plan seed.
        directory = str(tmp_path / "ck")
        plan = chaos_plan(crash_superstep=3, seed=5)
        baseline = self._engine(
            PageRank(num_supersteps=10), fault_plan=plan
        ).run()
        with pytest.raises(SuperstepLimitExceeded):
            self._engine(
                PageRank(num_supersteps=10),
                fault_plan=chaos_plan(crash_superstep=3, seed=5),
                checkpoint_dir=directory,
                max_supersteps=7,
            ).run()
        resumed = self._engine(
            PageRank(num_supersteps=10),
            fault_plan=chaos_plan(crash_superstep=3, seed=5),
            checkpoint_dir=directory,
            resume=True,
        ).run()
        assert canonical_result(resumed) == canonical_result(
            baseline
        )

    def test_fingerprint_guards_engine_resume(self, tmp_path):
        directory = str(tmp_path / "ck")
        with pytest.raises(SuperstepLimitExceeded):
            self._engine(
                PageRank(num_supersteps=8),
                checkpoint_dir=directory,
                max_supersteps=5,
            ).run()
        with pytest.raises(FingerprintMismatchError):
            self._engine(
                PageRank(num_supersteps=8),
                seed=12,  # different run configuration
                checkpoint_dir=directory,
                resume=True,
            )

    def test_resume_auto_covers_both_phases(self, tmp_path):
        directory = str(tmp_path / "ck")
        baseline = self._engine(PageRank(num_supersteps=8)).run()
        with pytest.raises(SuperstepLimitExceeded):
            self._engine(
                PageRank(num_supersteps=8),
                checkpoint_dir=directory,
                resume="auto",  # empty directory: starts fresh
                max_supersteps=5,
            ).run()
        resumed = self._engine(
            PageRank(num_supersteps=8),
            checkpoint_dir=directory,
            resume="auto",  # checkpoints present: resumes
        ).run()
        assert canonical_result(resumed) == canonical_result(
            baseline
        )

    def test_unpicklable_state_is_a_typed_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="not durable"):
            self._engine(
                _UnpicklableProgram(num_supersteps=6),
                checkpoint_dir=str(tmp_path / "ck"),
            ).run()

    def test_run_program_passes_durability_kwargs(self, tmp_path):
        directory = str(tmp_path / "ck")
        baseline = run_program(
            GRAPH,
            PageRank(num_supersteps=6),
            num_workers=3,
            seed=1,
            checkpoint_interval=2,
        )
        with pytest.raises(SuperstepLimitExceeded):
            run_program(
                GRAPH,
                PageRank(num_supersteps=6),
                num_workers=3,
                seed=1,
                checkpoint_interval=2,
                checkpoint_dir=directory,
                max_supersteps=4,
            )
        resumed = run_program(
            GRAPH,
            PageRank(num_supersteps=6),
            num_workers=3,
            seed=1,
            checkpoint_interval=2,
            checkpoint_dir=directory,
            resume=True,
        )
        assert canonical_result(resumed) == canonical_result(
            baseline
        )


# ---------------------------------------------------------------------
# Resource exhaustion: never a raw OSError, always resumable
# ---------------------------------------------------------------------


def _fail_nth_write(monkeypatch, op, nth):
    """From now on the ``nth`` :func:`atomic_write` fails inside
    ``op`` (``"write"``, ``"fsync"`` or ``"replace"``) with ENOSPC."""
    state = {"writes": 0, "armed": False}
    real_atomic_write = durability.atomic_write

    def counting(path, data):
        state["writes"] += 1
        state["armed"] = state["writes"] == nth
        try:
            return real_atomic_write(path, data)
        finally:
            state["armed"] = False

    def full(*_args, **_kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def guarded(real):
        def call(*args, **kwargs):
            if state["armed"]:
                full()
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(durability, "atomic_write", counting)
    if op == "write":
        real_fdopen = os.fdopen

        def fdopen(*args, **kwargs):
            handle = real_fdopen(*args, **kwargs)
            if state["armed"]:
                handle.write = full
            return handle

        monkeypatch.setattr(durability.os, "fdopen", fdopen)
    else:
        monkeypatch.setattr(
            durability.os, op, guarded(getattr(os, op))
        )


def _assert_directory_is_sound(directory):
    """No temp file left, and every record the manifest names is on
    disk with the recorded length and CRC."""
    names = os.listdir(directory)
    assert [n for n in names if n.startswith(".tmp-")] == []
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    for entry in manifest["checkpoints"]:
        blob = (directory / entry["file"]).read_bytes()
        assert len(blob) == entry["length"]
        assert zlib.crc32(blob) & 0xFFFFFFFF == entry["crc32"]
    return manifest


class TestResourceExhaustion:
    def _engine(self, **kwargs):
        return PregelEngine(
            GRAPH,
            PageRank(num_supersteps=8),
            num_workers=3,
            seed=11,
            checkpoint_interval=2,
            **kwargs,
        )

    # A fresh engine's writes: the empty manifest, then (record,
    # manifest) per checkpoint — 6 is the third record, 7 the
    # manifest that would have named it.
    @pytest.mark.parametrize(
        "nth,named", [(6, "ckpt-000003.bin"), (7, MANIFEST_NAME)]
    )
    @pytest.mark.parametrize("op", ["write", "fsync", "replace"])
    def test_full_disk_is_typed_and_resumable(
        self, tmp_path, monkeypatch, op, nth, named
    ):
        directory = tmp_path / "ck"
        baseline = self._engine().run()
        with monkeypatch.context() as patch:
            _fail_nth_write(patch, op, nth)
            with pytest.raises(CheckpointError) as info:
                self._engine(checkpoint_dir=str(directory)).run()
        assert not isinstance(info.value, CheckpointCorruptionError)
        assert isinstance(info.value.__cause__, OSError)
        assert named in str(info.value)
        manifest = _assert_directory_is_sound(directory)
        assert [e["seq"] for e in manifest["checkpoints"]] == [1, 2]
        assert _ckpt_files(directory) == [
            "ckpt-000001.bin",
            "ckpt-000002.bin",
        ]
        # The previous generation (superstep 2) carries the run on.
        resumed = self._engine(
            checkpoint_dir=str(directory), resume=True
        ).run()
        assert canonical_result(resumed) == canonical_result(baseline)

    def test_full_disk_after_retention_keeps_named_records(
        self, tmp_path, monkeypatch
    ):
        # With keep=3 the fourth checkpoint prunes the first; a
        # failure of its manifest write must not have pruned yet.
        store = _store(tmp_path)
        _fill(store, 3)
        _fail_nth_write(monkeypatch, "replace", 2)
        snap = store.save(EngineSnapshot(superstep=3, payload={}))
        with pytest.raises(CheckpointError, match=MANIFEST_NAME):
            store.persist(snap, {"marker": 3})
        manifest = _assert_directory_is_sound(tmp_path)
        assert [e["seq"] for e in manifest["checkpoints"]] == [1, 2, 3]
        ckpt, context = _store(tmp_path, resume=True).resume_state()
        assert (ckpt.superstep, context) == (2, {"marker": 2})

    def test_fresh_open_on_a_full_disk_is_typed(
        self, tmp_path, monkeypatch
    ):
        _fail_nth_write(monkeypatch, "fsync", 1)
        with pytest.raises(CheckpointError, match=MANIFEST_NAME):
            _store(tmp_path)
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------
# The version-2 record: columns over a fingerprint-pinned baseline
# ---------------------------------------------------------------------


def _ring_with_chords(n, chords):
    """``n`` vertices on a ring plus ``chords`` extra edges per
    vertex: same ``n``, edge count linear in ``chords``."""
    graph = Graph()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
        for j in range(chords):
            graph.add_edge(i, (i + 2 + 3 * j) % n)
    return graph


def _directory_bytes(directory) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


class _PruneThenCount(VertexProgram):
    """Deletes its largest out-edge in place in superstep 1, then
    keeps sending its out-degree around: every checkpoint after the
    deletion must carry its own topology."""

    name = "prune-then-count"

    def compute(self, v, msgs, ctx):
        v.value = (v.value or 0) + sum(msgs)
        if ctx.superstep == 1 and v.out_edges:
            del v.out_edges[max(v.out_edges)]
        if ctx.superstep < 7:
            for target in list(v.out_edges):
                ctx.send(target, len(v.out_edges))
        else:
            v.vote_to_halt()


def _mutation_phase(directory, phase):
    """Runs in a fresh interpreter (see the test below); prints the
    result digest, or ``limit`` when the run was cut short."""
    kwargs = dict(num_workers=3, seed=5, checkpoint_interval=2)
    if phase != "baseline":
        kwargs["checkpoint_dir"] = directory
    if phase == "interrupted":
        kwargs["max_supersteps"] = 5
    if phase == "resumed":
        kwargs["resume"] = True
    try:
        result = run_program(GRAPH, _PruneThenCount(), **kwargs)
    except SuperstepLimitExceeded:
        print("limit")
    else:
        print(result_digest(result))


def _fresh_interpreter(directory, phase) -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from tests.test_durability import "
            "_mutation_phase; _mutation_phase(*sys.argv[1:])",
            str(directory),
            phase,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestColumnarRecord:
    def _run(self, graph, directory):
        return run_program(
            graph,
            PageRank(num_supersteps=6),
            num_workers=3,
            combiner=SumCombiner(),
            checkpoint_interval=2,
            checkpoint_dir=str(directory),
        )

    def test_record_does_not_grow_with_edge_count(self, tmp_path):
        sparse, dense = _ring_with_chords(300, 1), _ring_with_chords(300, 7)
        assert dense.num_vertices == sparse.num_vertices
        assert dense.num_edges == 4 * sparse.num_edges
        for name, graph in (("sparse", sparse), ("dense", dense)):
            result = self._run(graph, tmp_path / name)
            assert result.stats.checkpoints_written == 4
        sizes = {
            name: [
                os.path.getsize(tmp_path / name / record)
                for record in _ckpt_files(tmp_path / name)
            ]
            for name in ("sparse", "dense")
        }
        for small, large in zip(sizes["sparse"], sizes["dense"]):
            assert large <= 1.1 * small, sizes
        # Nothing else in the directory (the resume context inside
        # the records, the manifest) scales with edges either.
        assert _directory_bytes(tmp_path / "dense") <= 1.1 * (
            _directory_bytes(tmp_path / "sparse")
        )
        # And the records hold no topology at all.
        for name in ("sparse", "dense"):
            ckpt, _ = DurableCheckpointStore(
                str(tmp_path / name), fingerprint=None, resume=True
            ).resume_state()
            assert ckpt.topology is None

    def test_mutated_run_resumes_in_a_fresh_interpreter(self, tmp_path):
        directory = tmp_path / "ck"
        assert _fresh_interpreter(directory, "interrupted") == "limit"
        ckpt, _ = DurableCheckpointStore(
            str(directory), fingerprint=None, resume=True
        ).resume_state()
        assert ckpt.superstep == 4
        assert ckpt.topology is not None  # the deletion is on disk
        assert _fresh_interpreter(directory, "resumed") == (
            _fresh_interpreter(directory, "baseline")
        )

    def test_insertion_order_is_part_of_the_fingerprint(self, tmp_path):
        edges = list(GRAPH.edges())
        vertices = list(GRAPH.vertices())

        def rebuilt(vertex_order, edge_order):
            graph = Graph(directed=True)
            for v in vertex_order:
                graph.add_vertex(v)
            for u, v in edge_order:
                graph.add_edge(u, v)
            return graph

        def engine(graph, **kwargs):
            return PregelEngine(
                graph,
                PageRank(num_supersteps=8),
                num_workers=3,
                checkpoint_interval=2,
                checkpoint_dir=str(tmp_path / "ck"),
                **kwargs,
            )

        with pytest.raises(SuperstepLimitExceeded):
            engine(rebuilt(vertices, edges), max_supersteps=5).run()
        for permuted in (
            rebuilt(vertices[::-1], edges),  # column alignment
            rebuilt(vertices, edges[::-1]),  # send order
        ):
            # Same content: the sorted structure digest cannot tell.
            assert graph_signature(permuted) == graph_signature(GRAPH)
            with pytest.raises(FingerprintMismatchError):
                engine(permuted, resume=True)
        # The same insertion order is the same run.
        resumed = engine(rebuilt(vertices, edges), resume=True).run()
        assert resumed.num_supersteps == 9


class TestFingerprint:
    def _fingerprint(self, **overrides):
        kwargs = dict(
            num_workers=3,
            seed=11,
            checkpoint_interval=2,
            max_recovery_attempts=2,
            confined_recovery=False,
            track_bppa=False,
            combiner=None,
            partitioner=None,
            cost_model=None,
            fault_plan=None,
        )
        graph = overrides.pop("graph", GRAPH)
        program = overrides.pop(
            "program", PageRank(num_supersteps=8)
        )
        kwargs.update(overrides)
        return config_fingerprint(graph, program, **kwargs)

    def test_stable_for_equal_configs(self):
        assert self._fingerprint() == self._fingerprint()

    def test_sensitive_to_graph_program_and_knobs(self):
        base = self._fingerprint()
        other_graph = erdos_renyi_graph(
            31, 0.15, seed=7, directed=True
        )
        assert self._fingerprint(graph=other_graph) != base
        assert (
            self._fingerprint(program=PageRank(num_supersteps=9))
            != base
        )
        assert self._fingerprint(num_workers=4) != base
        assert self._fingerprint(seed=12) != base
        assert (
            self._fingerprint(fault_plan=chaos_plan(seed=1)) != base
        )

    def test_graph_signature_values_are_pinned(self):
        # Literal values computed by the per-description CRC loop this
        # function replaced: one joined CRC per list is the same CRC.
        directed = Graph(directed=True)
        directed.add_vertex("a", label="root")
        directed.add_edge("a", "b", weight=2.5, label="x")
        directed.add_edge("b", "c", weight=1.0)
        directed.add_edge("c", "a", weight=-0.5, label=("t", 1))
        directed.add_edge("a", "a", weight=3)
        directed.add_vertex(7)
        assert graph_signature(directed) == (
            "graph(n=4,m=4,directed=True,crc=3cfea744)"
        )
        undirected = Graph()
        undirected.add_edge(1, 2, weight=0.25, label="l12")
        undirected.add_edge(2, 3)
        undirected.add_edge(3, 1, weight=4.0, label=None)
        undirected.add_edge(3, 3, weight=9.0, label="loop")
        undirected.add_edge("s", 2, weight=1.5)
        undirected.add_vertex((0, 1), label="iso")
        assert graph_signature(undirected) == (
            "graph(n=5,m=5,directed=False,crc=8c8b73cc)"
        )
        # Each undirected edge is still described exactly once.
        assert len(list(undirected.edges())) == undirected.num_edges
