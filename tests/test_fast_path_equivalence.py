"""Execution-path equivalence: the dense fast path vs the reference
dict path.

The dense-index fast path (slot mailboxes, send-time combining) is a
pure performance optimization: for every workload, combiner mode and
fault plan it must produce **byte-identical** results to the reference
dict-mailbox path — same values, same :class:`RunStats` (both the
logical and the post-combining network books), same BPPA observation,
same aggregate history.  The reference path is the oracle; this suite
is the contract.

Also here: the regression tests for the two satellite fixes that rode
along with the fast path — worker ``vertex_ids`` compaction on vertex
removal, and the per-superstep message-ledger balance.
"""

import pickle

import pytest

from repro.bsp import (
    PregelEngine,
    VertexProgram,
    crash_plan,
    drop_plan,
    run_program,
)
from repro.bsp.combiner import resolve_combiner
from repro.graph import erdos_renyi_graph, path_graph
from tests.conftest import WORKLOADS, EdgeTouch

# ---------------------------------------------------------------------
# The equivalence matrix: every workload x combiner mode x fault mode.
# ---------------------------------------------------------------------

COMBINER_MODES = [
    ("nocomb", False),
    ("natural", True),  # the workload's natural Min/Sum combiner
]

FAULT_MODES = [
    ("clean", None),
    ("crash", lambda: crash_plan(superstep=2, worker=1, seed=9)),
    ("msg-drop", lambda: drop_plan(rate=0.25, seed=9)),
]


def canonical(values) -> bytes:
    """Byte representation for exact-equality comparison."""
    return pickle.dumps(
        sorted(values.items(), key=lambda kv: repr(kv[0]))
    )


def run_path(graph, make_program, combiner_name, make_plan, fast):
    """Run one workload on one execution path; return (engine, result)."""
    kwargs = dict(num_workers=4, track_bppa=True, use_fast_path=fast)
    if combiner_name is not None:
        kwargs["combiner"] = resolve_combiner(combiner_name)
    if make_plan is not None:
        kwargs["checkpoint_interval"] = 2
        kwargs["fault_plan"] = make_plan()
    engine = PregelEngine(graph, make_program(), **kwargs)
    return engine, engine.run()


def assert_identical(ref, fast):
    """The full byte-identity contract between two results."""
    assert fast.values == ref.values
    assert canonical(fast.values) == canonical(ref.values)
    assert fast.stats == ref.stats
    assert fast.bppa == ref.bppa
    assert fast.aggregate_history == ref.aggregate_history


@pytest.mark.parametrize(
    "wl_name,graph,make_program,natural",
    WORKLOADS,
    ids=[w[0] for w in WORKLOADS],
)
@pytest.mark.parametrize(
    "comb_name,use_combiner",
    COMBINER_MODES,
    ids=[c[0] for c in COMBINER_MODES],
)
@pytest.mark.parametrize(
    "fault_name,make_plan", FAULT_MODES, ids=[f[0] for f in FAULT_MODES]
)
def test_fast_path_is_byte_identical(
    wl_name,
    graph,
    make_program,
    natural,
    comb_name,
    use_combiner,
    fault_name,
    make_plan,
):
    combiner_name = natural if use_combiner else None
    ref_engine, ref = run_path(
        graph, make_program, combiner_name, make_plan, fast=False
    )
    fast_engine, fast = run_path(
        graph, make_program, combiner_name, make_plan, fast=True
    )
    assert_identical(ref, fast)
    # One plane per run: each engine ends on the plane it was built
    # on -- including across crash rollbacks.
    assert fast_engine.fast_path is True
    assert ref_engine.fast_path is False
    # Tier honesty in the wall profile: the reference run never
    # leaves the reference kernel, and the fast run's supersteps all
    # report a fast-path tier (dense, or vectorized where a program's
    # registered kernel auto-engaged on a clean run).
    assert {w.kernel_tier for w in ref.stats.wall} == {"reference"}
    fast_tiers = {w.kernel_tier for w in fast.stats.wall}
    assert fast_tiers <= {"dense", "vectorized"}, fast_tiers
    if make_plan is not None:
        # Fault-injected runs stay per-vertex throughout.
        assert fast_tiers == {"dense"}


# ---------------------------------------------------------------------
# Topology mutations: the dense plane re-indexes in place at the
# barrier, stays engaged, and still matches the oracle byte for byte.
# ---------------------------------------------------------------------


class MutateMidRun(VertexProgram):
    """Removes a vertex (with in-flight messages to it), adds another,
    then runs a few gossip rounds over the surviving topology."""

    name = "mutate-mid-run"

    def compute(self, v, msgs, ctx):
        if ctx.superstep == 0:
            v.value = 0
            ctx.send_to_neighbors(v, 1)
            if v.id == 0:
                ctx.send(3, "doomed")  # dropped at delivery
                ctx.remove_vertex(3)
                ctx.add_vertex("late", value=0)
                ctx.add_edge(0, "late")
                ctx.add_edge("late", 0)
        elif ctx.superstep < 4:
            v.value += sum(m for m in msgs if m != "doomed")
            ctx.send_to_neighbors(v, 1)
            ctx.aggregate("total", v.value)
        else:
            v.vote_to_halt()

    def aggregators(self):
        from repro.bsp import SumAggregator

        return {"total": SumAggregator()}


def assert_stayed_dense(engine, result):
    assert engine.fast_path is True
    tiers = {w.kernel_tier for w in result.stats.wall}
    assert "reference" not in tiers, tiers


def test_mutation_stays_on_dense_plane_and_still_matches():
    g = erdos_renyi_graph(24, 0.2, seed=13)
    ref_engine, ref = run_path(
        g, MutateMidRun, None, None, fast=False
    )
    fast_engine, fast = run_path(
        g, MutateMidRun, None, None, fast=True
    )
    assert_identical(ref, fast)
    assert ref_engine.fast_path is False
    assert_stayed_dense(fast_engine, fast)  # re-indexed, not handed off
    assert 3 not in fast.values
    assert "late" in fast.values


def test_mutation_reindex_matches_under_message_faults():
    g = erdos_renyi_graph(24, 0.2, seed=13)
    make_plan = lambda: drop_plan(rate=0.25, seed=9)
    _, ref = run_path(g, MutateMidRun, None, make_plan, fast=False)
    fast_engine, fast = run_path(
        g, MutateMidRun, None, make_plan, fast=True
    )
    assert_identical(ref, fast)
    assert_stayed_dense(fast_engine, fast)


class MutateAtTwo(VertexProgram):
    """PageRank-shaped traffic with one barrier mutation requested at
    superstep 2 -- the scenario of the issue that deleted the
    hand-off: under a budget the spill tier used to stop applying
    there."""

    name = "mutate-at-two"

    def compute(self, v, msgs, ctx):
        if ctx.superstep == 0:
            v.value = 1.0
        else:
            v.value = 0.15 + 0.85 * sum(msgs)
        if ctx.superstep == 2 and v.id == 0:
            ctx.remove_vertex(1)
            ctx.add_vertex("late", value=1.0)
            ctx.add_edge(0, "late")
        if ctx.superstep < 6:
            if v.out_edges:
                ctx.send_to_neighbors(v, v.value / len(v.out_edges))
        else:
            v.vote_to_halt()


def test_budgeted_run_keeps_spilling_after_a_mutation():
    g = erdos_renyi_graph(200, 0.1, seed=1)
    oracle = PregelEngine(
        g, MutateAtTwo(), num_workers=2, use_fast_path=False
    ).run()
    engine = PregelEngine(
        g, MutateAtTwo(), num_workers=2, memory_budget=64
    )
    fabric = engine._fabric
    spilled_after = []
    deliver = fabric.deliver_fast

    def recording_deliver(superstep, mutated):
        delivered = deliver(superstep, mutated)
        spilled_after.append(fabric.spilled_lanes)
        return delivered

    fabric.deliver_fast = recording_deliver
    result = engine.run()
    assert_identical(oracle, result)
    assert_stayed_dense(engine, result)
    assert {w.kernel_tier for w in result.stats.wall} == {"dense"}
    # The mutation applied at the barrier of superstep 2; the spill
    # tier keeps charging lanes on every sending superstep after it.
    assert spilled_after[2] > 0
    assert spilled_after[3] > spilled_after[2]
    assert spilled_after[5] > spilled_after[3]


# ---------------------------------------------------------------------
# In-place edge edits: the lane's full-neighbour shortcut must never
# read a compiled row the program has edited.
# ---------------------------------------------------------------------


def test_send_to_neighbors_after_in_place_edge_edit():
    # The ROADMAP "Fix first" repro: every vertex deletes its first
    # out-edge at superstep 0, then fans out for three supersteps.
    # The dense lane kept sending along the deleted edges: 12210
    # messages against the oracle's 11610.
    g = erdos_renyi_graph(200, 0.1, seed=1)
    totals = {}
    results = {}
    for fast in (False, True):
        engine = PregelEngine(
            g, EdgeTouch(), num_workers=2, use_fast_path=fast
        )
        results[fast] = engine.run()
        totals[fast] = results[fast].stats.total_messages
        assert engine.fast_path is fast
    assert totals == {False: 11610, True: 11610}
    assert_identical(results[False], results[True])


@pytest.mark.parametrize("combiner_name", [None, "sum"])
def test_rewired_row_of_equal_length_is_not_trusted(combiner_name):
    # Delete one target and add another: the row keeps its length,
    # the compiled row is stale all the same.
    g = erdos_renyi_graph(60, 0.1, seed=3)
    make = lambda: EdgeTouch(rounds=5, prune_at=None, rewire_at=1)
    _, ref = run_path(g, make, combiner_name, None, fast=False)
    engine, fast = run_path(g, make, combiner_name, None, fast=True)
    assert_identical(ref, fast)
    assert_stayed_dense(engine, fast)


# ---------------------------------------------------------------------
# Fast-path configuration surface.
# ---------------------------------------------------------------------


def test_fast_path_with_confined_recovery_constructs_and_runs():
    g = erdos_renyi_graph(24, 0.2, seed=13)
    kwargs = dict(
        num_workers=4,
        confined_recovery=True,
        checkpoint_interval=2,
    )
    make_plan = lambda: crash_plan(superstep=3, worker=2, seed=1)
    oracle = PregelEngine(
        g, WORKLOADS[0][2](), use_fast_path=False,
        fault_plan=make_plan(), **kwargs,
    ).run()
    engine = PregelEngine(
        g, WORKLOADS[0][2](), use_fast_path=True,
        fault_plan=make_plan(), **kwargs,
    )
    result = engine.run()
    assert_identical(oracle, result)
    assert_stayed_dense(engine, result)
    assert result.stats.recovery_attempts == 1
    # Confined: only the crashed partition's supersteps since the
    # checkpoint were replayed, nothing was discarded.
    assert result.stats.supersteps_replayed == 1


def test_confined_recovery_defaults_to_dense_plane():
    g = path_graph(4)
    engine = PregelEngine(g, MutateMidRun(), confined_recovery=True)
    assert engine.fast_path is True


def test_fast_path_is_the_default():
    g = path_graph(4)
    engine = PregelEngine(g, MutateMidRun())
    assert engine.fast_path is True


# ---------------------------------------------------------------------
# Satellite regression: worker vertex lists are compacted on removal.
# ---------------------------------------------------------------------


class RemoveOdds(VertexProgram):
    """Superstep 0 removes every odd vertex; then one gossip round."""

    def compute(self, v, msgs, ctx):
        if ctx.superstep == 0:
            if v.id % 2 == 1:
                ctx.remove_vertex(v.id)
            else:
                ctx.send(v.id, "tick")
        else:
            v.value = "kept"
            v.vote_to_halt()


def test_vertex_removal_compacts_worker_lists():
    g = path_graph(20)
    engine = PregelEngine(g, RemoveOdds(), num_workers=3)
    result = engine.run()
    assert set(result.values) == set(range(0, 20, 2))
    # Regression: removed vertices used to linger in the workers'
    # vertex_ids lists (skipped each superstep but never reclaimed).
    assert sum(
        len(w.vertex_ids) for w in engine._workers
    ) == len(engine._states)
    assert set(engine._owner) == set(engine._states)


# ---------------------------------------------------------------------
# Satellite regression: the message ledger balances on both paths.
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "wl_name,graph,make_program,natural",
    WORKLOADS,
    ids=[w[0] for w in WORKLOADS],
)
@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
def test_ledger_balances_with_combiner(
    wl_name, graph, make_program, natural, fast
):
    engine, result = run_path(
        graph, make_program, natural, None, fast=fast
    )
    assert result.stats.ledger_balanced()


def test_ledger_pins_combining_split():
    # PageRank on a connected-ish graph with a Sum combiner: every
    # logical send is received, and combining strictly reduces the
    # network count below the logical count (many vertices share a
    # destination worker).
    graph = WORKLOADS[0][1]
    _, result = run_path(
        graph, WORKLOADS[0][2], "sum", None, fast=True
    )
    stats = result.stats
    assert stats.ledger_balanced()
    busy = [
        s
        for s in stats.supersteps
        if s.total_messages > 0
    ]
    assert busy, "PageRank sent no messages?"
    for s in busy:
        ledger = s.ledger()
        assert ledger["sent_logical"] == ledger["received_logical"]
        assert ledger["sent_network"] == ledger["received_network"]
        assert ledger["sent_remote"] <= ledger["sent_logical"]
    assert stats.total_network_messages < stats.total_messages


@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
def test_ledger_balances_when_mutation_drops_messages(fast):
    # Messages to a vertex removed in the same superstep are dropped
    # at delivery with their send charges reversed -- the books must
    # still balance (and on the fast path this exercises the
    # removed-destination reversal in the dense deliver).
    g = erdos_renyi_graph(24, 0.2, seed=13)
    engine, result = run_path(g, MutateMidRun, None, None, fast=fast)
    assert result.stats.ledger_balanced()


@pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
def test_ledger_balances_under_faults(fast):
    # Retransmitted/duplicated traffic is accounted in the recovery
    # books (RunStats counters), never in the per-superstep ledger.
    graph = WORKLOADS[0][1]
    engine, result = run_path(
        graph,
        WORKLOADS[0][2],
        "sum",
        lambda: drop_plan(rate=0.25, seed=9),
        fast=fast,
    )
    assert result.stats.ledger_balanced()
    assert result.stats.retransmitted_messages > 0
