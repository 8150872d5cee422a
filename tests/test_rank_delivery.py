"""Ranks deliver their own mail.

On the process-parallel backend each rank splits its outbound lane
record by owning rank; the coordinator charges delivery from two
scalars per destination rank, holds the sub-records and forwards them
with the next step, and each rank merges its own inbox.  The
coordinator runs the serial flush and delivery itself only when it
must read or change the inbox (a checkpoint is due, a memory budget
is configured, a mutation applied, the pool hands off to serial).  A
fault plan is not among them.

Every test holds a parallel run byte-identical to the serial engine:
values, pickled ``RunStats``, aggregate history and the BPPA
observation.  ``REPRO_FUZZ_WORKERS`` narrows the rank counts.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.algorithms.pagerank import PageRank
from repro.bsp import (
    MaxAggregator,
    MinCombiner,
    PregelEngine,
    SumAggregator,
    SumCombiner,
    create_engine,
)
from repro.bsp.faults import FaultPlan, chaos_plan, crash_plan
from repro.bsp.fabric import MessageFabric
from repro.bsp.parallel import ParallelPregelEngine
from repro.bsp.program import VertexProgram
from repro.core.chaos import RankKiller
from repro.graph import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.partition import HashPartitioner, RangePartitioner
from tests.test_differential_fuzz import MutateMidRun
from tests.test_parallel_backend import _RngDrawing

_env = os.environ.get("REPRO_FUZZ_WORKERS")
RANKS = [int(w) for w in _env.split(",")] if _env else [1, 2, 3, 4]


def canonical(result):
    """Values entry by entry (sharing-independent), the pickled stats
    (wall seconds excluded by ``RunStats``), the BPPA observation and
    the aggregate history."""
    return (
        [
            (repr(k), pickle.dumps(v))
            for k, v in sorted(
                result.values.items(), key=lambda kv: repr(kv[0])
            )
        ],
        pickle.dumps(result.stats),
        pickle.dumps(result.bppa),
        [pickle.dumps(h) for h in result.aggregate_history],
    )


class Chatter(VertexProgram):
    """Per-vertex traffic whose values record arrival order, two
    aggregators (a sum of ints and a max), and vertices that halt on
    a schedule of their own, so some destinations hear from one rank
    and some from several.  Odd supersteps send ints (typed columns),
    even ones tuples (columns that ride the pipe as lists)."""

    name = "chatter"

    def aggregators(self):
        return {"heard": SumAggregator(), "top": MaxAggregator()}

    def initial_value(self, vertex_id, graph):
        return ()

    def compute(self, v, msgs, ctx):
        v.value = v.value + tuple(msgs)
        ctx.aggregate("heard", len(msgs))
        ctx.aggregate("top", len(v.value))
        if ctx.superstep < 5 and (v.id + ctx.superstep) % 3:
            msg = v.id * 7 + ctx.superstep
            ctx.send_to_neighbors(v, msg if ctx.superstep % 2 else (msg,))
        else:
            v.vote_to_halt()


def _graph():
    return barabasi_albert_graph(150, 3, seed=5)


def _partitioner(kind, graph, ranks):
    if kind == "range":
        return RangePartitioner(graph, ranks)
    return HashPartitioner(ranks)  # int ids: round-robin


def _pair(graph, make_program, **kwargs):
    """(serial result, parallel engine, parallel result)."""
    serial = PregelEngine(graph, make_program(), **kwargs).run()
    engine = ParallelPregelEngine(graph, make_program(), **kwargs)
    return serial, engine, engine.run()


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("partitioner", ["range", "interleaved"])
@pytest.mark.parametrize(
    "program,combiner",
    [
        ("pagerank", SumCombiner),
        ("pagerank", None),
        ("chatter", MinCombiner),
        ("chatter", None),
    ],
)
def test_serial_and_parallel_are_byte_identical(
    ranks, partitioner, program, combiner
):
    graph = _graph()
    make = {
        "pagerank": lambda: PageRank(num_supersteps=6),
        "chatter": Chatter,
    }[program]
    serial, engine, parallel = _pair(
        graph, make, num_workers=ranks,
        partitioner=_partitioner(partitioner, graph, ranks),
        combiner=combiner() if combiner else None, seed=0,
    )
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_disabled_reason is None
    assert engine.parallel_supersteps == serial.stats.num_supersteps


# -- each trigger of coordinator delivery ---------------------------


def _record_checkpoints(engine):
    saved = []
    store = engine._loop.policy.store
    save = store.save

    def recording(checkpoint):
        saved.append(pickle.dumps(checkpoint))
        return save(checkpoint)

    store.save = recording
    return saved


@pytest.mark.parametrize("ranks", RANKS)
def test_a_due_checkpoint_records_the_serial_inbox(ranks):
    graph = _graph()
    kwargs = dict(
        num_workers=ranks, combiner=SumCombiner(), seed=0,
        checkpoint_interval=3,
    )
    serial_engine = PregelEngine(graph, PageRank(num_supersteps=8), **kwargs)
    serial_saved = _record_checkpoints(serial_engine)
    serial = serial_engine.run()
    engine = ParallelPregelEngine(graph, PageRank(num_supersteps=8), **kwargs)
    saved = _record_checkpoints(engine)
    assert canonical(engine.run()) == canonical(serial)
    assert len(saved) == 3 and saved == serial_saved
    assert engine.parallel_supersteps == serial.stats.num_supersteps


def test_a_killed_rank_gets_the_same_held_mail_again(tmp_path):
    graph = _graph()
    serial, engine, parallel = _pair(
        graph,
        lambda: RankKiller(
            flag_path=str(tmp_path / "kill.flag"), kill_superstep=3,
            num_supersteps=6,
        ),
        num_workers=2, combiner=SumCombiner(), seed=0,
    )
    assert canonical(parallel) == canonical(serial)
    assert engine.rank_restarts == 1
    assert engine.parallel_disabled_reason is None


class _LateDraw(VertexProgram):
    """Gossips, then draws from the shared RNG stream at superstep 3:
    the pool hands off while it holds superstep 2's mail."""

    name = "late-draw"

    def initial_value(self, vertex_id, graph):
        return 0.0

    def compute(self, v, msgs, ctx):
        v.value += sum(msgs)
        if ctx.superstep == 3:
            v.value += ctx.random.random()
        if ctx.superstep < 5:
            ctx.send_to_neighbors(v, 1.0)
        else:
            v.vote_to_halt()


@pytest.mark.parametrize("combiner", [SumCombiner, None])
def test_an_rng_handoff_delivers_the_held_mail(combiner):
    graph = _graph()
    serial, engine, parallel = _pair(
        graph, _LateDraw, num_workers=2,
        combiner=combiner() if combiner else None, seed=0,
    )
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_disabled_reason == (
        "program drew from the shared RNG stream"
    )
    assert engine.parallel_supersteps == 3


def test_an_rng_draw_at_superstep_zero_still_hands_off():
    graph = _graph()
    serial, engine, parallel = _pair(
        graph, _RngDrawing, num_workers=2, seed=0
    )
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_supersteps == 0


def test_a_barrier_mutation_is_delivered_by_the_coordinator():
    graph = erdos_renyi_graph(40, 0.12, seed=3, directed=True)
    serial, engine, parallel = _pair(
        graph, MutateMidRun, num_workers=2, seed=0
    )
    assert canonical(parallel) == canonical(serial)
    assert engine.parallel_disabled_reason == (
        "topology mutation re-indexed the dense plane"
    )


def test_a_spill_budget_is_accounted_by_the_coordinator():
    graph = _graph()
    serial, engine, parallel = _pair(
        graph, lambda: PageRank(num_supersteps=6), num_workers=2,
        combiner=SumCombiner(), seed=0, memory_budget=512,
    )
    assert canonical(parallel) == canonical(serial)
    assert engine._fabric.spilled_lanes > 0
    assert engine.parallel_supersteps == serial.stats.num_supersteps


# -- who delivers ---------------------------------------------------


def _calls_by_superstep(monkeypatch, engine, names):
    """Record the coordinator superstep of every call to the named
    ``MessageFabric`` methods."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(MessageFabric, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name].append(engine._ctx.superstep)
            return _original(self, *args)

        monkeypatch.setattr(MessageFabric, name, counting)
    return calls


PATH = ("deliver_fast", "rank_inbound", "flush_worker_sends")


def test_the_coordinator_delivers_nothing_after_superstep_zero(monkeypatch):
    graph = barabasi_albert_graph(400, 4, seed=1)
    engine = create_engine(
        graph, PageRank(num_supersteps=10), backend="parallel",
        num_workers=2, combiner=SumCombiner(), track_bppa=False,
    )
    calls = _calls_by_superstep(monkeypatch, engine, PATH)
    result = engine.run()
    assert engine.parallel_supersteps == result.stats.num_supersteps == 11
    assert calls == {
        "deliver_fast": [], "rank_inbound": [0], "flush_worker_sends": [],
    }


def test_with_checkpoints_it_delivers_before_each_one(monkeypatch):
    graph = barabasi_albert_graph(400, 4, seed=1)
    engine = create_engine(
        graph, PageRank(num_supersteps=10), backend="parallel",
        num_workers=2, combiner=SumCombiner(), track_bppa=False,
        checkpoint_interval=3,
    )
    calls = _calls_by_superstep(monkeypatch, engine, PATH)
    engine.run()
    # Checkpoints at 0, 3, 6 and 9: the barriers before the last three
    # put the inbox where the checkpoint reads it.
    assert calls["deliver_fast"] == [2, 5, 8]
    assert calls["rank_inbound"] == [0, 3, 6, 9]
    assert calls["flush_worker_sends"] == [2, 2, 5, 5, 8, 8]


@pytest.mark.parametrize(
    "make_program,combiner,kwargs",
    [
        (Chatter, MinCombiner, dict(
            num_workers=3,
            fault_plan=FaultPlan(drop_rate=0.2, duplicate_rate=0.1, seed=4),
        )),
        (lambda: PageRank(num_supersteps=12), SumCombiner, dict(
            num_workers=2, checkpoint_interval=4,
            fault_plan=chaos_plan(crash_superstep=6, seed=4),
        )),
    ],
    ids=["message-faults", "chaos-checkpointed"],
)
def test_a_fault_plan_leaves_delivery_to_the_ranks(
    monkeypatch, make_program, combiner, kwargs
):
    """The commit draws the network faults from the delivered count,
    so the coordinator delivers only before a checkpoint."""
    graph = _graph()
    kwargs = dict(kwargs, combiner=combiner(), seed=0)
    serial = PregelEngine(graph, make_program(), **kwargs).run()
    engine = ParallelPregelEngine(graph, make_program(), **kwargs)
    saved = _record_checkpoints(engine)
    calls = _calls_by_superstep(monkeypatch, engine, PATH)
    parallel = engine.run()
    assert canonical(parallel) == canonical(serial)
    assert parallel.stats.retransmitted_messages > 0
    assert engine.parallel_disabled_reason is None
    checkpoints = [pickle.loads(blob).superstep for blob in saved]
    assert calls["deliver_fast"] == [s - 1 for s in checkpoints if s]


def test_a_rollback_drops_the_held_mail(monkeypatch):
    """A crash after a rank-delivered barrier: the coordinator holds
    that barrier's records, and the full rollback must discard them
    (the restored inbox replaces them)."""
    graph = _graph()
    kwargs = dict(
        num_workers=2, combiner=SumCombiner(), seed=0,
        fault_plan=crash_plan(superstep=5),
    )
    serial = PregelEngine(graph, PageRank(num_supersteps=8), **kwargs).run()
    engine = ParallelPregelEngine(graph, PageRank(num_supersteps=8), **kwargs)
    held_at_crash = []
    rollback = engine._rollback

    def spying(crash, superstep, stats, ckpt):
        held_at_crash.append(engine._fabric.held is not None)
        return rollback(crash, superstep, stats, ckpt)

    monkeypatch.setattr(engine, "_rollback", spying)
    parallel = engine.run()
    assert held_at_crash == [True]
    assert canonical(parallel) == canonical(serial)
    assert parallel.stats.supersteps_replayed == 5
    assert engine.parallel_disabled_reason is None
