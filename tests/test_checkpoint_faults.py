"""Unit tests for the checkpoint and fault-injection primitives."""

import dataclasses
import pickle

import pytest

import repro.bsp.engine as engine_module
from repro.bsp import PregelEngine, VertexProgram
from repro.bsp.checkpoint import (
    CheckpointStore,
    TopologySnapshot,
    cow_copy,
    restore_checkpoint,
    take_checkpoint,
)
from repro.bsp.combiner import resolve_combiner
from repro.bsp.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    crash_plan,
)
from repro.errors import CheckpointError, WorkerCrashError
from repro.graph import erdos_renyi_graph, path_graph
from repro.metrics.bppa import state_atoms
from tests.conftest import WORKLOADS


class TestCowCopy:
    def test_immutable_leaves_are_shared(self):
        for value in (None, True, 7, 2.5, "abc", b"xy", frozenset({1})):
            assert cow_copy(value) is value

    def test_tuple_of_immutables_is_shared(self):
        value = (1, "two", 3.0, (4, 5))
        assert cow_copy(value) is value

    def test_tuple_holding_mutable_is_copied(self):
        value = (1, [2, 3])
        copied = cow_copy(value)
        assert copied == value and copied is not value
        copied[1].append(4)
        assert value[1] == [2, 3]

    def test_mutable_containers_are_independent(self):
        value = {"a": [1, 2], "b": {"c": {3}}}
        copied = cow_copy(value)
        assert copied == value
        value["a"].append(99)
        value["b"]["c"].add(99)
        assert copied == {"a": [1, 2], "b": {"c": {3}}}

    def test_unknown_objects_fall_back_to_deepcopy(self):
        class Box:
            def __init__(self, items):
                self.items = items

        box = Box([1, 2])
        copied = cow_copy(box)
        assert copied is not box
        box.items.append(3)
        assert copied.items == [1, 2]


class Accumulate(VertexProgram):
    """Counts supersteps in each vertex; runs until superstep 3."""

    name = "accumulate"

    def compute(self, v, msgs, ctx):
        v.value = (v.value or 0) + 1
        if ctx.superstep < 3:
            ctx.send(v.id, "tick")
        else:
            v.vote_to_halt()


class TestCheckpointRoundTrip:
    def test_snapshot_is_isolated_from_live_mutation(self):
        engine = PregelEngine(path_graph(6), Accumulate(), num_workers=2)
        ckpt = take_checkpoint(engine, 0)
        assert ckpt.superstep == 0
        assert ckpt.size > 0
        # Mutate live state after the snapshot...
        for state in engine._states.values():
            state.value = "corrupted"
            state.halted = True
            state.out_edges.clear()
        engine.rng.random()
        # ...and the restore must bring everything back.
        restore_checkpoint(engine, ckpt)
        for vid, state in engine._states.items():
            assert state.value is None
            assert not state.halted
        result = engine.run()
        assert all(v == 4 for v in result.values.values())

    def test_restore_preserves_undirected_edge_aliasing(self):
        engine = PregelEngine(path_graph(4), Accumulate())
        ckpt = take_checkpoint(engine, 0)
        restore_checkpoint(engine, ckpt)
        for state in engine._states.values():
            assert state.in_edges is state.out_edges

    def test_unconfigured_engine_takes_self_contained_checkpoints(
        self,
    ):
        # No interval, no crash plan, no checkpoint_dir: no baseline
        # was frozen, so a checkpoint taken by hand carries its own
        # topology and restores from it.
        engine = PregelEngine(path_graph(6), Accumulate(), num_workers=2)
        assert engine._store.baseline is None
        ckpt = take_checkpoint(engine, 0)
        assert isinstance(ckpt.topology, TopologySnapshot)
        edges = {v: dict(s.out_edges) for v, s in engine._states.items()}
        for state in engine._states.values():
            state.out_edges.clear()
        restore_checkpoint(engine, ckpt)
        restore_checkpoint(engine, ckpt)  # a snapshot restores repeatedly
        assert {
            v: s.out_edges for v, s in engine._states.items()
        } == edges
        assert all(v == 4 for v in engine.run().values.values())

    def test_shared_baseline_is_isolated_from_live_mutation(self):
        engine = PregelEngine(
            path_graph(6),
            Accumulate(),
            num_workers=2,
            checkpoint_interval=2,
        )
        ckpt = take_checkpoint(engine, 0)
        assert ckpt.topology is None  # the store's verified baseline
        edges = {v: dict(s.out_edges) for v, s in engine._states.items()}
        for state in engine._states.values():
            state.out_edges.clear()
        # The live maps no longer are the baseline...
        assert take_checkpoint(engine, 0).topology is not None
        # ...but the baseline still is what it froze.
        restore_checkpoint(engine, ckpt)
        assert {
            v: s.out_edges for v, s in engine._states.items()
        } == edges
        for state in engine._states.values():
            assert state.in_edges is state.out_edges
        assert take_checkpoint(engine, 0).topology is None

    def test_baseline_sharing_checkpoint_needs_an_engine_with_one(self):
        configured = PregelEngine(
            path_graph(4), Accumulate(), checkpoint_interval=2
        )
        shared = take_checkpoint(configured, 0)
        unconfigured = PregelEngine(path_graph(4), Accumulate())
        with pytest.raises(CheckpointError, match="baseline"):
            restore_checkpoint(unconfigured, shared)

    def test_store_counts_writes(self):
        engine = PregelEngine(path_graph(4), Accumulate())
        store = CheckpointStore()
        store.save(take_checkpoint(engine, 0))
        store.save(take_checkpoint(engine, 2))
        assert store.written == 2
        assert store.latest.superstep == 2
        assert store.total_size >= 2 * store.latest.size

    def test_empty_store_refuses_restore(self):
        store = CheckpointStore()
        with pytest.raises(CheckpointError):
            store.require_latest()


# ---------------------------------------------------------------------
# Verified baseline sharing: a checkpoint shares the frozen topology
# only while the live topology verifiably still is it.
# ---------------------------------------------------------------------


class EdgeTouch(VertexProgram):
    """Streams ``(sender, row position, weight)`` along every out-edge
    — so values record adjacency *order* and weights, not just
    membership — and, in superstep ``at``, changes its first out-edge
    in the way ``mode`` names."""

    name = "edge-touch"

    def __init__(self, mode, at, until=7):
        self.mode = mode
        self.at = at
        self.until = until

    def compute(self, v, msgs, ctx):
        v.value = (v.value or ()) + (tuple(msgs),)
        if ctx.superstep == self.at and v.out_edges:
            first = next(iter(v.out_edges))
            if self.mode == "mutation":
                ctx.remove_edge(v.id, first)
            elif self.mode == "del":
                del v.out_edges[first]
            elif self.mode == "reweight":
                v.out_edges[first] = 2.5
            elif self.mode == "reorder":
                # Same keys, same weights: only iteration order moves.
                v.out_edges[first] = v.out_edges.pop(first)
        if ctx.superstep >= self.until:
            v.vote_to_halt()
            return
        for position, (target, weight) in enumerate(
            list(v.out_edges.items())
        ):
            ctx.send(target, (v.id, position, weight))


TOUCH_GRAPHS = [
    ("undirected", erdos_renyi_graph(24, 0.2, seed=3)),
    ("directed", erdos_renyi_graph(24, 0.15, seed=4, directed=True)),
]


def _run_touch(monkeypatch, graph, mode, at, fast, crash_at=None):
    """One EdgeTouch run; returns the result and, per checkpoint
    written, ``(superstep, topology is None)``."""
    shared = []

    def recording(engine, superstep):
        ckpt = take_checkpoint(engine, superstep)
        shared.append((superstep, ckpt.topology is None))
        return ckpt

    monkeypatch.setattr(engine_module, "take_checkpoint", recording)
    result = PregelEngine(
        graph,
        EdgeTouch(mode, at),
        num_workers=3,
        use_fast_path=fast,
        checkpoint_interval=2,
        fault_plan=None
        if crash_at is None
        else crash_plan(superstep=crash_at, worker=1),
    ).run()
    return result, shared


def _committed(stats):
    """The modeled books a rollback must reproduce: every committed
    superstep (bar its execution count) and the checkpoint ledger."""
    return (
        [dataclasses.replace(e, executions=1) for e in stats.supersteps],
        stats.checkpoints_written,
        stats.checkpoint_cost,
    )


class TestVerifiedBaselineSharing:
    @pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
    @pytest.mark.parametrize(
        "graph", [g for _, g in TOUCH_GRAPHS], ids=[n for n, _ in TOUCH_GRAPHS]
    )
    def test_untouched_topology_is_always_shared(
        self, monkeypatch, graph, fast
    ):
        _, shared = _run_touch(monkeypatch, graph, "none", 3, fast)
        assert shared == [(0, True), (2, True), (4, True), (6, True)]

    @pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
    @pytest.mark.parametrize(
        "graph", [g for _, g in TOUCH_GRAPHS], ids=[n for n, _ in TOUCH_GRAPHS]
    )
    # (3, 5): rollback restores a checkpoint that carries its own
    # topology.  (2, 3): rollback restores the shared baseline after
    # the live maps were changed, and replays the change.
    @pytest.mark.parametrize("at,crash_at", [(3, 5), (2, 3)])
    @pytest.mark.parametrize(
        "mode", ["mutation", "del", "reweight", "reorder"]
    )
    def test_any_edge_change_ends_sharing_and_rollback_is_exact(
        self, monkeypatch, graph, fast, at, crash_at, mode
    ):
        clean, shared = _run_touch(monkeypatch, graph, mode, at, fast)
        # Checkpoints precede their superstep's compute: the ones up
        # to and including ``at`` saw the untouched topology.
        assert shared == [(s, s <= at) for s in (0, 2, 4, 6)]
        crashed, crashed_shared = _run_touch(
            monkeypatch, graph, mode, at, fast, crash_at
        )
        assert crashed.stats.recovery_attempts == 1
        assert dict(crashed_shared) == dict(shared)
        assert pickle.dumps(crashed.values) == pickle.dumps(clean.values)
        assert crashed.aggregate_history == clean.aggregate_history
        assert _committed(crashed.stats) == _committed(clean.stats)
        assert crashed.bppa == clean.bppa
        # The change is visible in the answer at all (the oracle
        # above is not vacuous).
        untouched, _ = _run_touch(monkeypatch, graph, "none", at, fast)
        assert untouched.values != clean.values

    @pytest.mark.parametrize(
        "mode", ["none", "mutation", "del", "reweight", "reorder"]
    )
    def test_paths_agree_under_rollback(self, monkeypatch, mode):
        graph = TOUCH_GRAPHS[1][1]
        ref, _ = _run_touch(monkeypatch, graph, mode, 3, False, 5)
        fast, _ = _run_touch(monkeypatch, graph, mode, 3, True, 5)
        assert pickle.dumps(fast.values) == pickle.dumps(ref.values)
        assert fast.stats == ref.stats
        assert pickle.dumps(fast.stats) == pickle.dumps(ref.stats)
        assert fast.aggregate_history == ref.aggregate_history


def _parent_formula_size(engine) -> int:
    """``Checkpoint.size`` as the per-vertex-snapshot layout measured
    it, over live state: one atom per vertex, plus value, edge, inbox
    and aggregator atoms."""
    atoms = 0
    for state in engine._states.values():
        atoms += 1 + state_atoms(state.value) + len(state.out_edges)
        if state.in_edges is not state.out_edges:
            atoms += len(state.in_edges)
    for _, msgs in engine._inbox_snapshot_items():
        atoms += sum(state_atoms(m) or 1 for m in msgs)
    return atoms + state_atoms(engine._agg_finalized)


@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
@pytest.mark.parametrize("use_combiner", [True, False], ids=["comb", "nocomb"])
@pytest.mark.parametrize(
    "wl_name,graph,make_program,natural",
    WORKLOADS,
    ids=[w[0] for w in WORKLOADS],
)
def test_checkpoint_size_matches_the_per_vertex_formula(
    monkeypatch, wl_name, graph, make_program, natural, use_combiner, fast
):
    checked = []

    def checking(engine, superstep):
        expected = _parent_formula_size(engine)
        ckpt = take_checkpoint(engine, superstep)
        assert ckpt.size == expected, (wl_name, superstep)
        checked.append(superstep)
        return ckpt

    monkeypatch.setattr(engine_module, "take_checkpoint", checking)
    result = PregelEngine(
        graph,
        make_program(),
        num_workers=4,
        combiner=resolve_combiner(natural) if use_combiner else None,
        use_fast_path=fast,
        checkpoint_interval=2,
    ).run()
    # Superstep 0 and every second one after it, to the end.
    assert checked == list(range(0, result.num_supersteps, 2))
    assert len(checked) >= 2


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=1.0)

    def test_crash_validation(self):
        with pytest.raises(ValueError):
            CrashFault(superstep=-1)
        with pytest.raises(ValueError):
            CrashFault(superstep=0, times=0)

    def test_crash_list_normalized_to_tuple(self):
        plan = FaultPlan(crashes=[CrashFault(1)])
        assert isinstance(plan.crashes, tuple)
        assert plan.has_crashes

    def test_describe_names_every_fault(self):
        plan = FaultPlan(
            seed=5,
            crashes=(CrashFault(2, worker=1, times=3),),
            drop_rate=0.1,
            duplicate_rate=0.2,
            delay_rate=0.3,
            name="everything",
        )
        text = plan.describe()
        assert "everything" in text
        assert "crash(w1@s2x3)" in text
        assert "drop=0.1" in text
        assert "dup=0.2" in text
        assert "delay=0.3" in text
        assert "seed=5" in text

    def test_no_faults_describe(self):
        assert "no faults" in FaultPlan().describe()


class TestFaultInjector:
    def test_crash_fires_exactly_times(self):
        injector = FaultInjector(
            crash_plan(superstep=2, worker=1, times=2)
        )
        injector.begin_superstep(0)  # nothing
        with pytest.raises(WorkerCrashError) as err:
            injector.begin_superstep(2)
        assert err.value.worker == 1
        assert err.value.superstep == 2
        assert injector.pending_crashes(2) == 1
        with pytest.raises(WorkerCrashError):
            injector.begin_superstep(2)
        injector.begin_superstep(2)  # budget exhausted: no raise
        assert injector.pending_crashes(2) == 0

    def test_crash_worker_wraps_around_num_workers(self):
        injector = FaultInjector(
            crash_plan(superstep=1, worker=7), num_workers=4
        )
        with pytest.raises(WorkerCrashError) as err:
            injector.begin_superstep(1)
        assert err.value.worker == 3

    def test_network_faults_deterministic_per_seed(self):
        def trace(seed):
            injector = FaultInjector(
                FaultPlan(
                    seed=seed,
                    drop_rate=0.3,
                    duplicate_rate=0.3,
                    delay_rate=0.3,
                )
            )
            return [
                (f.retransmitted, f.duplicated, f.delayed)
                for f in (
                    injector.network_faults(50) for _ in range(5)
                )
            ]

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)

    def test_no_rates_means_no_draws(self):
        injector = FaultInjector(FaultPlan())
        faults = injector.network_faults(1000)
        assert (
            faults.retransmitted,
            faults.duplicated,
            faults.delayed,
        ) == (0, 0, 0)
        assert not faults.stalled
