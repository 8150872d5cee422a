"""Out-of-core runtime tests: the message-spill tier, the memory
budget semantics, peak-RSS observability, and the parallel backend's
snapshot shipping mode.

The invariant everywhere is the repo's byte-identity contract: a
budgeted (spilling) run, a snapshot-backed run, and a snapshot-shipped
parallel run must produce exactly the bytes of the unbudgeted
in-memory serial run — values, ``RunStats``, aggregate history — with
the out-of-core machinery observable only through fabric counters and
the informational peak-RSS fields.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.algorithms.bfs_tree import BFSTree
from repro.algorithms.pagerank import PageRank
from repro.bsp import (
    MinCombiner,
    PregelEngine,
    SumCombiner,
    crash_plan,
)
from repro.bsp.parallel import ParallelPregelEngine
from repro.core.report import format_trace_report
from repro.graph import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.snapshot import CsrSnapshot
from repro.metrics.stats import peak_rss_bytes
from repro.trace.events import Barrier
from repro.trace.recorder import TraceRecorder

GRAPH = barabasi_albert_graph(120, 3, seed=31)


def digest(result):
    return pickle.dumps(
        (
            sorted(result.values.items()),
            result.stats,
            result.aggregate_history,
        )
    )


def run(graph, program, **kwargs):
    engine = PregelEngine(
        graph, program, num_workers=3, track_bppa=False, **kwargs
    )
    return engine, engine.run()


class TestBudgetSemantics:
    def test_budget_validated(self):
        with pytest.raises(ValueError):
            PregelEngine(
                GRAPH, PageRank(num_supersteps=2), memory_budget=0
            )

    @pytest.mark.parametrize(
        "name,make_program,combiner",
        [
            # Both spill record shapes (combining / plain mailbox),
            # each with a typed payload column (numeric messages,
            # "-col") and a plain-list one (tuple messages the codec
            # rejects, "-obj").
            (
                "comb-col",
                lambda: PageRank(num_supersteps=6),
                SumCombiner,
            ),
            (
                "plain-col",
                lambda: PageRank(num_supersteps=6),
                None,
            ),
            ("comb-obj", lambda: BFSTree(0), MinCombiner),
            ("plain-obj", lambda: BFSTree(0), None),
        ],
    )
    def test_spilling_is_byte_identical(
        self, name, make_program, combiner
    ):
        kwargs = {}
        if combiner is not None:
            kwargs["combiner"] = combiner()
        _, base = run(GRAPH, make_program(), **kwargs)
        engine, budgeted = run(
            GRAPH, make_program(), memory_budget=1, **kwargs
        )
        assert digest(budgeted) == digest(base), name
        assert engine._fabric.spilled_lanes > 0, name
        assert engine._fabric.spilled_bytes > 0, name

    def test_spill_counters_stay_off_run_stats(self):
        engine, result = run(
            GRAPH,
            PageRank(num_supersteps=4),
            combiner=SumCombiner(),
            memory_budget=1,
        )
        # Budgeted and unbudgeted stats must stay comparable, so the
        # spill observables live on the fabric only.
        assert not hasattr(result.stats, "spilled_lanes")
        assert engine._fabric.spilled_lanes > 0

    def test_explicit_spill_dir_is_emptied(self, tmp_path):
        spill_dir = str(tmp_path / "spill")
        engine, _ = run(
            GRAPH,
            PageRank(num_supersteps=4),
            combiner=SumCombiner(),
            memory_budget=1,
            spill_dir=spill_dir,
        )
        assert engine._fabric.spilled_lanes > 0
        # Every spilled lane was consumed at delivery; nothing
        # lingers after the run.
        assert os.listdir(spill_dir) == []

    def test_generous_budget_never_spills(self):
        engine, budgeted = run(
            GRAPH,
            PageRank(num_supersteps=4),
            combiner=SumCombiner(),
            memory_budget=1 << 30,
        )
        _, base = run(
            GRAPH, PageRank(num_supersteps=4), combiner=SumCombiner()
        )
        assert engine._fabric.spilled_lanes == 0
        assert digest(budgeted) == digest(base)


class TestPeakRss:
    def test_helper_reports_bytes(self):
        peak = peak_rss_bytes()
        if peak is None:
            pytest.skip("resource module unavailable")
        assert isinstance(peak, int)
        # Any interpreter is comfortably past 1 MiB.
        assert peak > 1 << 20

    def test_recorded_on_stats_and_wall(self):
        _, result = run(GRAPH, PageRank(num_supersteps=3))
        if peak_rss_bytes() is None:
            assert result.stats.peak_rss_bytes is None
            return
        assert result.stats.peak_rss_bytes > 0
        assert all(
            w.peak_rss_bytes and w.peak_rss_bytes > 0
            for w in result.stats.wall
        )

    def test_informational_not_part_of_equality_or_pickle(self):
        _, a = run(GRAPH, PageRank(num_supersteps=3))
        _, b = run(GRAPH, PageRank(num_supersteps=3))
        assert a.stats == b.stats
        clone = pickle.loads(pickle.dumps(a.stats))
        assert clone.peak_rss_bytes is None
        assert clone == a.stats

    def test_trace_carries_memory_report(self):
        trace = TraceRecorder()
        run(GRAPH, PageRank(num_supersteps=3), trace=trace)
        barriers = [
            e for e in trace.events() if isinstance(e, Barrier)
        ]
        assert barriers
        if peak_rss_bytes() is None:
            return
        assert all(e.peak_rss_bytes > 0 for e in barriers)
        report = format_trace_report(trace.events())
        assert "== memory (last run) ==" in report
        assert "peak_rss_mib" in report

    def test_modeled_equality_ignores_rss(self):
        a = Barrier(superstep=0, h=1.0, delivered=2)
        b = Barrier(
            superstep=0, h=1.0, delivered=2, peak_rss_bytes=123
        )
        assert a.modeled_key() == b.modeled_key()


class TestParallelSnapshotMode:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        directory = str(tmp_path / "snap")
        CsrSnapshot.from_graph(GRAPH).save(directory)
        snap = CsrSnapshot.open(directory)
        yield snap
        snap.close()

    def _parallel(self, graph, program, **kwargs):
        engine = ParallelPregelEngine(
            graph, program, num_workers=3, track_bppa=False, **kwargs
        )
        return engine, engine.run()

    def test_ships_path_not_topology(self, snapshot):
        _, base = run(
            GRAPH, PageRank(num_supersteps=6), combiner=SumCombiner()
        )
        engine, result = self._parallel(
            snapshot,
            PageRank(num_supersteps=6),
            combiner=SumCombiner(),
        )
        assert engine._ship_snapshot
        assert engine.parallel_disabled_reason is None
        assert engine.parallel_supersteps > 0
        assert digest(result) == digest(base)

    def test_crash_recovery_respawns_from_snapshot(self, snapshot):
        kwargs = dict(
            combiner=SumCombiner(),
            fault_plan=crash_plan(superstep=2, worker=1, seed=9),
            checkpoint_interval=2,
        )
        _, base = run(GRAPH, PageRank(num_supersteps=6), **kwargs)
        kwargs["fault_plan"] = crash_plan(
            superstep=2, worker=1, seed=9
        )
        engine, result = self._parallel(
            snapshot, PageRank(num_supersteps=6), **kwargs
        )
        assert engine._ship_snapshot
        assert engine.parallel_disabled_reason is None
        assert digest(result) == digest(base)

    # The coordinator accounts and spills the record each rank
    # replied with: both mailbox layouts, with and without a segment.
    @pytest.mark.parametrize(
        "combiner", [SumCombiner, None], ids=["sum", "plain"]
    )
    @pytest.mark.parametrize(
        "transport",
        [
            pytest.param("columnar", id="shm"),
            pytest.param("pickle", id="pipe"),
        ],
    )
    def test_budgeted_parallel_spills_and_matches(
        self, snapshot, transport, combiner
    ):
        make_combiner = combiner or (lambda: None)
        _, base = run(
            GRAPH, PageRank(num_supersteps=6), combiner=make_combiner()
        )
        serial, _ = run(
            GRAPH,
            PageRank(num_supersteps=6),
            combiner=make_combiner(),
            memory_budget=1,
        )
        engine, result = self._parallel(
            snapshot,
            PageRank(num_supersteps=6),
            combiner=make_combiner(),
            memory_budget=1,
            transport=transport,
        )
        assert engine._ship_snapshot
        assert engine.parallel_supersteps > 0
        assert engine.transport_tier == transport
        assert engine._fabric.spilled_lanes > 0
        assert (
            engine._fabric.spilled_lanes,
            engine._fabric.spilled_bytes,
        ) == (
            serial._fabric.spilled_lanes,
            serial._fabric.spilled_bytes,
        )
        assert digest(result) == digest(base)

    def test_in_ram_snapshot_falls_back_to_pickled_payload(self):
        snap = CsrSnapshot.from_graph(GRAPH)
        assert snap.path is None
        _, base = run(
            GRAPH, PageRank(num_supersteps=4), combiner=SumCombiner()
        )
        engine, result = self._parallel(
            snap, PageRank(num_supersteps=4), combiner=SumCombiner()
        )
        assert not engine._ship_snapshot
        assert engine.parallel_disabled_reason is None
        assert digest(result) == digest(base)


def test_serial_snapshot_with_string_ids(tmp_path):
    """Snapshot-backed + budgeted runs on non-integer vertex ids (the
    dense CSR compile must fall back or translate correctly)."""
    base_graph = erdos_renyi_graph(40, 0.15, seed=41)
    g = type(base_graph)(directed=False)
    for v in base_graph.vertices():
        g.add_vertex(f"n{v}")
    for u, v, e in base_graph.edges(data=True):
        g.add_edge(f"n{u}", f"n{v}", weight=e.weight)
    directory = str(tmp_path / "snap")
    CsrSnapshot.from_graph(g).save(directory)
    snap = CsrSnapshot.open(directory)
    _, base = run(g, PageRank(num_supersteps=5), combiner=SumCombiner())
    _, snapped = run(
        snap, PageRank(num_supersteps=5), combiner=SumCombiner()
    )
    engine, budgeted = run(
        snap,
        PageRank(num_supersteps=5),
        combiner=SumCombiner(),
        memory_budget=1,
    )
    assert digest(snapped) == digest(base)
    assert digest(budgeted) == digest(base)
    assert engine._fabric.spilled_lanes > 0
    snap.close()
