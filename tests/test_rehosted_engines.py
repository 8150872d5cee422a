"""The re-hosted engines (GAS / block / async) on the shared runtime.

These tests pin the payoff of the layering refactor: every engine
hosted on :class:`~repro.bsp.loop.SuperstepLoop` gets the same trace
lifecycle (so :func:`~repro.trace.recorder.stats_from_events`
reconciles its trace with its ``RunStats``), the same checkpoint /
rollback protocol, and a result type satisfying the common
:class:`~repro.bsp.result.RunResult` protocol.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.block_programs import BlockHashMin
from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.gas_programs import HashMinGAS, SsspGAS
from repro.algorithms.pagerank import PageRank
from repro.bsp import (
    AsyncEngine,
    BlockEngine,
    GASEngine,
    PregelEngine,
    RunResult,
    create_engine,
    crash_plan,
    drop_plan,
)
from repro.graph import Graph, erdos_renyi_graph
from repro.trace.events import Rollback
from repro.trace.recorder import TraceRecorder, stats_from_events


@pytest.fixture
def graph():
    return erdos_renyi_graph(32, 0.14, seed=11)


def run_gas(graph, **kwargs):
    return GASEngine(
        graph, HashMinGAS(), num_workers=4, **kwargs
    ).run()


def run_block(graph, **kwargs):
    return BlockEngine(
        graph, BlockHashMin(), num_blocks=4, **kwargs
    ).run()


def run_async(graph, **kwargs):
    return AsyncEngine(graph, SsspGAS(source=0), **kwargs).run()


def run_pregel(graph, **kwargs):
    return PregelEngine(
        graph, HashMinComponents(), num_workers=4, **kwargs
    ).run()


RUNNERS = [
    ("gas", run_gas),
    ("block", run_block),
    ("async", run_async),
]
RUNNER_IDS = [r[0] for r in RUNNERS]
ENGINES = [("pregel", run_pregel), *RUNNERS]
ENGINE_IDS = [e[0] for e in ENGINES]


class TestTraceReconciliation:
    @pytest.mark.parametrize("kind,runner", RUNNERS, ids=RUNNER_IDS)
    def test_stats_from_events_match_run_stats(
        self, graph, kind, runner
    ):
        recorder = TraceRecorder()
        result = runner(graph, trace=recorder)
        recon = stats_from_events(recorder)
        assert pickle.dumps(recon) == pickle.dumps(
            result.stats.supersteps
        ), kind

    @pytest.mark.parametrize("kind,runner", RUNNERS, ids=RUNNER_IDS)
    def test_reconciles_under_crash_and_rollback(
        self, graph, kind, runner
    ):
        recorder = TraceRecorder()
        result = runner(
            graph,
            trace=recorder,
            checkpoint_interval=2,
            fault_plan=crash_plan(superstep=1, worker=0),
        )
        kinds = {e.kind for e in recorder.events()}
        assert "rollback" in kinds, kind
        assert "checkpoint_write" in kinds, kind
        assert "fault_injected" in kinds, kind
        recon = stats_from_events(recorder)
        assert pickle.dumps(recon) == pickle.dumps(
            result.stats.supersteps
        ), kind
        # The replayed superstep appears twice in the raw stream but
        # once in the committed reconstruction, marked executions=2.
        assert [s for s in recon if s.executions > 1], kind
        rollbacks = [
            e for e in recorder.events() if isinstance(e, Rollback)
        ]
        assert rollbacks and all(
            r.restored_vertices > 0 for r in rollbacks
        ), kind

    def test_gas_drop_plan_traces_network_faults(self, graph):
        recorder = TraceRecorder()
        result = run_gas(
            graph,
            trace=recorder,
            fault_plan=drop_plan(rate=0.3, seed=5),
        )
        injected = [
            e
            for e in recorder.events()
            if e.kind == "fault_injected"
        ]
        assert injected
        assert result.stats.retransmitted_messages == sum(
            e.retransmitted for e in injected
        )


class TestCrashRecovery:
    def test_async_crash_recovers_to_clean_counters(self, graph):
        clean = run_async(graph)
        assert clean.converged
        faulted = run_async(
            graph,
            checkpoint_interval=2,
            fault_plan=crash_plan(superstep=1, worker=0),
        )
        assert faulted.values == clean.values
        assert faulted.updates == clean.updates
        assert faulted.edge_reads == clean.edge_reads
        assert faulted.signals == clean.signals
        assert faulted.converged
        assert faulted.stats.recovery_attempts >= 1
        assert faulted.stats.checkpoints_written >= 1

    @pytest.mark.parametrize("engine", [GASEngine, AsyncEngine])
    def test_ids_that_hash_by_identity_survive_a_rollback(
        self, graph, engine
    ):
        # A rollback must hand back the very vertex ids, not copies
        # of them: a copy of an id that hashes by identity is a
        # different key, so the next lookup would miss.
        class Opaque:
            pass

        ids = {v: Opaque() for v in graph.vertices()}
        opaque = Graph()
        for v in graph.vertices():
            opaque.add_vertex(ids[v])
        for u, v in graph.edges():
            opaque.add_edge(ids[u], ids[v])
        clean = engine(graph, SsspGAS(source=0)).run()
        faulted = engine(
            opaque,
            SsspGAS(source=ids[0]),
            checkpoint_interval=2,
            fault_plan=crash_plan(superstep=1, worker=0),
        ).run()
        assert faulted.stats.recovery_attempts == 1
        assert faulted.values == {
            ids[v]: value for v, value in clean.values.items()
        }

    @pytest.mark.parametrize("kind,runner", RUNNERS, ids=RUNNER_IDS)
    def test_checkpoint_accounting(self, graph, kind, runner):
        result = runner(graph, checkpoint_interval=1)
        stats = result.stats
        assert stats.checkpoints_written >= 1, kind
        assert stats.checkpoint_cost > 0.0, kind
        # Per-superstep checkpoint charges land on the entries that
        # wrote them and sum to the run-level total.
        assert sum(
            s.checkpoint_cost for s in stats.supersteps
        ) == pytest.approx(stats.checkpoint_cost), kind


class TestFaultToleranceKeywords:
    @pytest.mark.parametrize(
        "argument,value", [("checkpoint_interval", 0)]
    )
    @pytest.mark.parametrize("kind,runner", ENGINES, ids=ENGINE_IDS)
    def test_rejected_with_a_value_error_naming_it(
        self, graph, kind, runner, argument, value
    ):
        # Checked once, where the loop is built, for every engine.
        with pytest.raises(ValueError, match=argument):
            runner(graph, **{argument: value})


#: Per engine, with ``checkpoint_interval=2`` and worker 0 crashing at
#: superstep 1: ``(checkpoints_written, checkpoint_cost, replay_cost,
#: backoff_cost, supersteps_replayed, recovery_attempts)`` and the
#: per-entry ``(executions, checkpoint_cost)`` column.
EXACT_RECOVERY = {
    "pregel": (
        (3, 66.4, 90.0, 1.0, 1, 1),
        [(2, 16.6), (1, 0.0), (1, 28.700000000000003), (1, 0.0),
         (1, 21.1)],
    ),
    "gas": (
        (3, 26.800000000000004, 48.0, 1.0, 1, 1),
        [(2, 9.8), (1, 0.0), (1, 9.4), (1, 0.0),
         (1, 7.6000000000000005)],
    ),
    "block": (
        (2, 24.4, 27.0, 1.0, 1, 1),
        [(2, 3.9000000000000004), (1, 0.0), (1, 20.5), (1, 0.0)],
    ),
    "async": (
        (2, 24.0, 166.0, 1.0, 1, 1),
        [(2, 13.9), (1, 0.0), (1, 10.100000000000001), (1, 0.0)],
    ),
}


class TestExactRecoveryAccounting:
    """The recovery ledgers of every engine, to the last bit.

    The expected numbers were copied from a run of the code as it was
    before the superstep lifecycle, checkpoint accounting and rollback
    discard moved into ``SuperstepLoop`` (when each engine kept its
    own copy), not from a run of the loop: they pin that the moved
    accounting is the old accounting.
    """

    @pytest.mark.parametrize("kind,runner", ENGINES, ids=ENGINE_IDS)
    def test_matches_the_pinned_ledgers(self, graph, kind, runner):
        stats = runner(
            graph,
            checkpoint_interval=2,
            fault_plan=crash_plan(superstep=1, worker=0),
        ).stats
        totals, column = EXACT_RECOVERY[kind]
        assert (
            stats.checkpoints_written,
            stats.checkpoint_cost,
            stats.replay_cost,
            stats.backoff_cost,
            stats.supersteps_replayed,
            stats.recovery_attempts,
        ) == totals
        assert [
            (s.executions, s.checkpoint_cost) for s in stats.supersteps
        ] == column


class TestRunResultProtocol:
    def test_all_engine_results_share_the_protocol(self, graph):
        pregel = PregelEngine(graph, PageRank(num_supersteps=3)).run()
        results = {
            "pregel": pregel,
            "gas": run_gas(graph),
            "block": run_block(graph),
            "async": run_async(graph),
        }
        for kind, result in results.items():
            assert isinstance(result, RunResult), kind
            assert result.values, kind
            assert result.stats is not None, kind
            assert (
                result.num_supersteps
                == result.stats.num_supersteps
            ), kind
            assert result.num_supersteps > 0, kind


def _checkpointed_pregel(backend):
    # A checkpoint charges the values and the inbox it snapshots, so
    # its cost tells a run from one begun at the last run's end state.
    return lambda g: create_engine(
        g, HashMinComponents(), backend=backend, num_workers=4,
        checkpoint_interval=2,
    )


REBUILDERS = [
    ("pregel", lambda g: PregelEngine(g, HashMinComponents(), num_workers=4)),
    ("pregel-ckpt-serial", _checkpointed_pregel("serial")),
    ("pregel-ckpt-parallel", _checkpointed_pregel("parallel")),
    ("gas", lambda g: GASEngine(g, HashMinGAS(), num_workers=4)),
    ("block", lambda g: BlockEngine(g, BlockHashMin(), num_blocks=4)),
    ("async", lambda g: AsyncEngine(g, SsspGAS(source=0))),
]


class TestRunIsRepeatable:
    """A second ``run()`` of one engine starts from the initial values,
    the initial active/halted state and fresh loop ledgers, so it
    repeats the first run exactly."""

    @pytest.mark.parametrize(
        "kind,build", REBUILDERS, ids=[r[0] for r in REBUILDERS]
    )
    def test_a_second_run_repeats_the_first(self, kind, build):
        engine = build(erdos_renyi_graph(32, 0.14, seed=1))
        first = engine.run()
        second = engine.run()
        assert second.values == first.values, kind
        assert pickle.dumps(second.stats) == pickle.dumps(first.stats), kind
