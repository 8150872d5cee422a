"""Unit tests for the process-parallel execution backend.

`tests/test_differential_fuzz.py` sweeps the backend across a matrix
of workloads; this file pins the *mechanisms* — backend selection,
pool lifecycle, real-process crash recovery, the automatic
degradations to serial execution (RNG draws, topology mutations,
unpicklable programs, ``parallel_safe=False``), the spawn start
method, and the ``RunStats.wall`` measurement contract.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.algorithms.coloring_mis import LubyMISColoring
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.bsp import (
    MinCombiner,
    PregelEngine,
    SumCombiner,
    crash_plan,
    create_engine,
)
from repro.bsp.engine import (
    BACKENDS,
    get_default_backend,
    set_default_backend,
)
from repro.bsp.parallel import ParallelPregelEngine, default_start_method
from repro.bsp.program import VertexProgram
from repro.core.chaos import in_rank_process
from repro.graph import erdos_renyi_graph
from repro.trace import Handoff, TraceRecorder
from tests.test_chaos import _repro_segments


def _graph(directed=True, seed=3):
    return erdos_renyi_graph(40, 0.12, seed=seed, directed=directed)


def canonical(result):
    """Sharing-independent byte digest (see test_differential_fuzz)."""
    return (
        [
            (repr(k), pickle.dumps(v))
            for k, v in sorted(
                result.values.items(), key=lambda kv: repr(kv[0])
            )
        ],
        pickle.dumps(result.stats),
        [pickle.dumps(h) for h in result.aggregate_history],
    )


def _pagerank_pair(**parallel_kwargs):
    """Run PageRank serially and on the parallel backend; return
    (serial_result, parallel_engine, parallel_result)."""
    graph = _graph()
    common = dict(num_workers=parallel_kwargs.pop("num_workers", 4),
                  combiner=SumCombiner(), seed=0)
    serial = PregelEngine(
        graph, PageRank(num_supersteps=8), **common
    ).run()
    engine = ParallelPregelEngine(
        graph, PageRank(num_supersteps=8), **common, **parallel_kwargs
    )
    return serial, engine, engine.run()


# -- backend selection ----------------------------------------------


def test_backend_name_attributes():
    assert PregelEngine.backend_name == "serial"
    assert ParallelPregelEngine.backend_name == "parallel"
    assert set(BACKENDS) == {"serial", "parallel"}


def test_create_engine_dispatch():
    graph = _graph()
    assert isinstance(
        create_engine(graph, PageRank(), backend="serial"), PregelEngine
    )
    engine = create_engine(graph, PageRank(), backend="parallel")
    assert isinstance(engine, ParallelPregelEngine)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        create_engine(_graph(), PageRank(), backend="threads")
    with pytest.raises(ValueError, match="unknown backend"):
        set_default_backend("threads")


def test_default_backend_round_trip():
    assert get_default_backend() == "serial"
    try:
        set_default_backend("parallel")
        assert get_default_backend() == "parallel"
        engine = create_engine(_graph(), PageRank())
        assert engine.backend_name == "parallel"
    finally:
        set_default_backend("serial")
    assert get_default_backend() == "serial"


# -- byte identity and pool lifecycle -------------------------------


def test_parallel_byte_identical_to_serial():
    serial, engine, parallel = _pagerank_pair()
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_disabled_reason is None
    assert engine.parallel_supersteps == serial.stats.num_supersteps
    # run() tears the pool down in its finally block.
    assert not engine.parallel_active


@pytest.mark.parametrize("workers", [1, 7])
def test_degenerate_and_uneven_worker_counts(workers):
    serial, engine, parallel = _pagerank_pair(num_workers=workers)
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_supersteps > 0


def test_spawn_start_method():
    # ``spawn`` re-imports modules in the children instead of
    # inheriting the parent image: the portable (and macOS/Windows
    # default) start method must work from a pytest process.
    serial, engine, parallel = _pagerank_pair(
        num_workers=2, mp_start_method="spawn"
    )
    assert engine.parallel_disabled_reason is None
    assert engine.parallel_supersteps == serial.stats.num_supersteps
    assert canonical(parallel) == canonical(serial)


def test_default_start_method_is_registered():
    assert default_start_method() in multiprocessing.get_all_start_methods()


def test_scripts_are_spawn_safe():
    # Under the spawn start method children re-import ``__main__``;
    # an unguarded script would recursively re-launch itself from
    # every worker process.  Every runnable script in benchmarks/ and
    # examples/ must therefore guard its entry point.
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    unguarded = []
    for folder in ("benchmarks", "examples"):
        for path in sorted((root / folder).glob("*.py")):
            if path.name in ("__init__.py", "conftest.py"):
                continue
            if '__name__ == "__main__"' not in path.read_text():
                unguarded.append(str(path.relative_to(root)))
    assert not unguarded, (
        f"scripts without a __main__ guard (spawn-unsafe): {unguarded}"
    )


# -- crash recovery with real processes -----------------------------


def test_crash_kills_and_respawns_worker_process():
    graph = _graph()
    kwargs = dict(
        num_workers=4,
        combiner=MinCombiner(),
        seed=0,
        checkpoint_interval=2,
    )
    serial = PregelEngine(
        graph,
        SingleSourceShortestPaths(0),
        fault_plan=crash_plan(superstep=3, worker=1, seed=9),
        **kwargs,
    ).run()
    engine = ParallelPregelEngine(
        graph,
        SingleSourceShortestPaths(0),
        fault_plan=crash_plan(superstep=3, worker=1, seed=9),
        **kwargs,
    )
    parallel = engine.run()
    assert canonical(parallel) == canonical(serial)
    assert parallel.stats.recovery_attempts >= 1
    # Crash at superstep 3 with a checkpoint at 2: superstep 2 is
    # genuinely re-executed after the rollback.
    assert parallel.stats.supersteps_replayed > 0
    # Recovery must have kept the pool engaged: the rolled-back
    # supersteps re-execute on (respawned) processes, so the pool ran
    # strictly more compute passes than the run has supersteps.
    assert engine.parallel_disabled_reason is None
    assert engine.parallel_supersteps > serial.stats.num_supersteps


# -- automatic degradation to the serial path -----------------------


class _RngDrawing(VertexProgram):
    """Draws from the shared RNG stream without declaring it."""

    name = "rng-drawing"

    def initial_value(self, vertex_id, graph):
        return 0.0

    def compute(self, vertex, messages, ctx):
        vertex.value = ctx.random.random()
        vertex.vote_to_halt()


def test_rng_draw_detected_and_handed_to_serial():
    graph = _graph()
    serial = PregelEngine(
        graph, _RngDrawing(), num_workers=4, seed=0
    ).run()
    engine = ParallelPregelEngine(
        graph, _RngDrawing(), num_workers=4, seed=0
    )
    parallel = engine.run()
    # The drawing superstep is discarded and re-run serially, so the
    # values (one shared-stream draw per vertex, in serial order) are
    # still byte-identical.
    assert canonical(parallel) == canonical(serial)
    assert (
        engine.parallel_disabled_reason
        == "program drew from the shared RNG stream"
    )
    assert engine.parallel_supersteps == 0


class _EdgeAdder(VertexProgram):
    """Mutates topology mid-run: superstep 0 adds reverse edges,
    then two more rounds count neighbours over the new topology."""

    name = "edge-adder"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, vertex, messages, ctx):
        if ctx.superstep == 0:
            for target in vertex.out_edges:
                ctx.add_edge(target, vertex.id)
        if ctx.superstep < 3:
            ctx.send_to_neighbors(vertex, 1)
        vertex.value += sum(messages)
        vertex.vote_to_halt()


def test_topology_mutation_hands_off_to_serial():
    graph = _graph()
    serial = PregelEngine(
        graph, _EdgeAdder(), num_workers=4, seed=0
    ).run()
    engine = ParallelPregelEngine(
        graph, _EdgeAdder(), num_workers=4, seed=0, memory_budget=1
    )
    fabric = engine._fabric
    spilled_at_mutation = []
    reindex = fabric.reindex

    def recording_reindex(*args):
        spilled_at_mutation.append(fabric.spilled_lanes)
        reindex(*args)

    fabric.reindex = recording_reindex
    parallel = engine.run()
    assert canonical(parallel) == canonical(serial)
    # The pool is the only thing retired: the hand-off is parallel ->
    # serial, never dense -> reference.  The run ends on the plane it
    # started on, no superstep reports the reference tier, and the
    # budget keeps applying after the mutation.
    assert (
        engine.parallel_disabled_reason
        == "topology mutation re-indexed the dense plane"
    )
    assert engine.fast_path is True
    assert "reference" not in {
        w.kernel_tier for w in parallel.stats.wall
    }
    assert len(spilled_at_mutation) == 1
    assert fabric.spilled_lanes > spilled_at_mutation[0] > 0
    # Superstep 0 (where the mutation was requested) still ran on the
    # pool; the re-index happens when the log is applied.
    assert engine.parallel_supersteps >= 1


class _EdgeEditor(VertexProgram):
    """Edits ``out_edges`` in place: a rank's edit never reaches the
    coordinator's topology, so the pool must say so and step aside."""

    name = "edge-editor"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, vertex, messages, ctx):
        if ctx.superstep == 1 and vertex.out_edges:
            del vertex.out_edges[next(iter(vertex.out_edges))]
        vertex.value += sum(messages)
        if ctx.superstep < 3:
            ctx.send_to_neighbors(vertex, 1)
        else:
            vertex.vote_to_halt()


def test_in_place_edge_edit_hands_off_to_serial():
    graph = _graph()
    kwargs = dict(num_workers=4, seed=0, checkpoint_interval=2)
    serial = PregelEngine(graph, _EdgeEditor(), **kwargs).run()
    engine = ParallelPregelEngine(graph, _EdgeEditor(), **kwargs)
    parallel = engine.run()
    # Including the checkpoint taken after the edit: its size is the
    # edited topology's on both backends.
    assert canonical(parallel) == canonical(serial)
    assert (
        engine.parallel_disabled_reason
        == "program edited out_edges in place"
    )
    assert engine.parallel_supersteps == 1  # superstep 0 only


def test_parallel_unsafe_program_disabled_up_front():
    graph = _graph(directed=False)
    serial = PregelEngine(
        graph, LubyMISColoring(), num_workers=4, seed=0
    ).run()
    engine = ParallelPregelEngine(
        graph, LubyMISColoring(), num_workers=4, seed=0
    )
    parallel = engine.run()
    assert canonical(parallel) == canonical(serial)
    assert (
        engine.parallel_disabled_reason
        == "program declares parallel_safe=False"
    )
    assert engine.parallel_supersteps == 0
    assert not engine.parallel_active


def test_reference_path_request_disables_pool():
    engine = ParallelPregelEngine(
        _graph(), PageRank(num_supersteps=3), num_workers=2,
        use_fast_path=False, seed=0,
    )
    assert engine.parallel_disabled_reason is not None
    result = engine.run()
    assert engine.parallel_supersteps == 0
    serial = PregelEngine(
        _graph(), PageRank(num_supersteps=3), num_workers=2,
        use_fast_path=False, seed=0,
    ).run()
    assert canonical(result) == canonical(serial)


class _Unpicklable(VertexProgram):
    """Carries a closure, so it cannot ship to worker processes."""

    name = "unpicklable"

    def __init__(self):
        self._fn = lambda x: x + 1  # noqa: E731 - deliberately local

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, vertex, messages, ctx):
        vertex.value = self._fn(vertex.value)
        vertex.vote_to_halt()


def test_unpicklable_program_degrades_to_serial():
    graph = _graph()
    serial = PregelEngine(
        graph, _Unpicklable(), num_workers=4, seed=0
    ).run()
    engine = ParallelPregelEngine(
        graph, _Unpicklable(), num_workers=4, seed=0
    )
    parallel = engine.run()
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_disabled_reason.startswith(
        "program not picklable"
    )
    assert engine.parallel_supersteps == 0


class _DiesUnpickling(PageRank):
    """Kills its rank while the init payload is being unpickled — what
    an address-space cap at pool start looks like from outside.  In
    the coordinator and on the serial path it is plain PageRank."""

    def __setstate__(self, state):
        if in_rank_process():
            os._exit(1)
        self.__dict__.update(state)


def test_pool_startup_failure_degrades_to_serial_and_says_so():
    graph = _graph()
    common = dict(num_workers=4, combiner=SumCombiner(), seed=0)
    serial = PregelEngine(
        graph, _DiesUnpickling(num_supersteps=8), **common
    ).run()
    segments = _repro_segments()
    recorder = TraceRecorder()
    engine = ParallelPregelEngine(
        graph, _DiesUnpickling(num_supersteps=8),
        transport="columnar", trace=recorder, **common,
    )
    parallel = engine.run()
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_supersteps == 0
    assert engine.parallel_disabled_reason.startswith(
        "pool startup failed"
    )
    assert [
        (e.from_path, e.to_path, e.reason)
        for e in recorder.events()
        if isinstance(e, Handoff)
    ] == [("parallel", "serial", engine.parallel_disabled_reason)]
    # Nothing of the half-started pool is left behind.
    assert not engine.parallel_active
    assert not [
        p.name
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-bsp-worker-")
    ]
    assert _repro_segments() == segments


# -- wall-clock measurement contract --------------------------------


def test_runstats_wall_recorded_but_outside_contract():
    serial, engine, parallel = _pagerank_pair()
    for stats in (serial.stats, parallel.stats):
        assert stats.wall is not None
        assert len(stats.wall) == stats.num_supersteps
        for wall in stats.wall:
            assert len(wall.compute_seconds) == 4
            assert len(wall.barrier_seconds) == 4
            assert wall.wall_imbalance >= 1.0
    # The serial backends run workers sequentially: no barrier wait.
    assert all(
        b == 0.0 for w in serial.stats.wall for b in w.barrier_seconds
    )
    assert parallel.stats.wall_seconds > 0.0
    # Measured seconds differ between backends, yet the stats compare
    # equal and pickle to the same bytes: wall is outside the
    # determinism contract.
    assert serial.stats.wall != parallel.stats.wall
    assert serial.stats == parallel.stats
    assert pickle.dumps(serial.stats) == pickle.dumps(parallel.stats)
    clone = pickle.loads(pickle.dumps(serial.stats))
    assert clone.wall is None
    assert clone == serial.stats
