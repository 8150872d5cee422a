"""A planned scatter's record and a per-vertex pass's mail reach the
inbox through one merge.

A vectorized kernel that scatters through its compiled plan writes no
mail: it emits its lane's ``LaneRecord`` payload column, and
``MessageFabric.deliver_fast`` hands it to the same ``MailMerge`` as
the records a per-vertex pass detaches.  The merge lays out a set of
at least ``fabric.LAY_OUT_AT`` payloads, or of the shape it saw at
the previous barrier, and caches that layout by shape; a plan fixes
its records' shape when it compiles, so a planned run lays out once
per dense index.  The graphs here send fewer, so the vectorized runs
lower ``LAY_OUT_AT`` to 1 (:func:`laid_out`) and every barrier with
mail takes the layout, while the per-vertex runs they are held to
(``tests.conftest.dense_pass()``) merge their first barrier directly.
Held here barrier by barrier: after every delivery, the inbox columns
(``fabric.inbox_columns()``) and every worker's ledger of the two
runs are equal — PageRank and degree, with and without a sum
combiner, over 1 to 7 workers; a run resumed from a durable
checkpoint; a ``memory_budget`` run that spills records; and a
barrier mutation, whose merge drops the removed vertex's mail.  Two
poisoned controls reorder the widest destination's messages, one in
the layout and one in the direct merge; the oracle differential must
catch each on its own.  Degree's constant scatter compiles the plan's
count stage alone: a spy on the place stage (``kernels._place_stage``)
fails any degree run that reaches it, serial and on the pool.

The tests keep the ids they had when the per-vertex pass sent
through n-length slots and delivery scanned them ("the slot scan").
``REPRO_FUZZ_WORKERS`` narrows the worker counts.
"""

from __future__ import annotations

import os
import pickle
from unittest import mock

import pytest

from repro.algorithms.degree import DegreeCentrality
from repro.algorithms.pagerank import PageRank
from repro.bsp import PregelEngine, SumCombiner, create_engine, fabric, kernels
from repro.bsp.fabric import MailMerge
from repro.bsp.parallel import default_start_method as parallel_start_method
from repro.graph import barabasi_albert_graph
from tests.conftest import assert_held_to_oracle, dense_pass, oracle_result
from tests.test_differential_fuzz import canonical

_env = os.environ.get("REPRO_FUZZ_WORKERS")
WORKERS = [int(w) for w in _env.split(",")] if _env else [1, 2, 3, 4, 7]
#: The place-stage spy's worker counts: 1, 4 and 7, as narrowed.
SPY_WORKERS = [w for w in WORKERS if w in (1, 4, 7)] or WORKERS

PROGRAMS = {
    "pagerank": lambda: PageRank(num_supersteps=6),
    "degree": DegreeCentrality,
}


@pytest.fixture(scope="module")
def graph():
    # Hubs above the plan's _GROUP_MAX contributors at one worker.
    return barabasi_albert_graph(400, 4, seed=3)


def laid_out():
    """Within it, every record set with mail is laid out."""
    return mock.patch.object(fabric, "LAY_OUT_AT", 1)


def _ledger(worker):
    return (
        worker.work, worker.sent_logical, worker.sent_remote,
        worker.sent_network, worker.received_logical,
        worker.received_network,
    )


def _run(graph, program, workers, combiner, bind=None, **kwargs):
    """``(result, barriers, compiled, tiers)``: per delivery, the
    superstep, the count delivered, the pickled inbox columns and every
    worker's ledger; the supersteps whose barrier laid its shape out;
    the kernel tiers the run used.  ``bind`` sees the engine
    before it runs."""
    engine = PregelEngine(
        graph, program, num_workers=workers, seed=0,
        combiner=SumCombiner() if combiner else None, **kwargs,
    )
    if bind is not None:
        bind(engine)
    fabric = engine._fabric
    deliver = fabric.deliver_fast
    barriers, compiled = [], []

    def recording(mutated):
        superstep = engine._ctx.superstep
        layout, mail = fabric.merge._layout, any(fabric.parts)
        delivered = deliver(mutated)
        if mail and fabric.merge._layout is not layout:
            compiled.append(superstep)
        barriers.append((
            superstep, delivered, pickle.dumps(fabric.inbox_columns()),
            [_ledger(worker) for worker in fabric.workers],
        ))
        return delivered

    fabric.deliver_fast = recording
    result = engine.run()
    tiers = {wall.kernel_tier for wall in result.stats.wall}
    return result, barriers, compiled, tiers


def _assert_same_barriers(vectorized, dense):
    (got, got_barriers, _, tiers), (want, want_barriers, _, dense_tiers) = (
        vectorized, dense,
    )
    assert "vectorized" in tiers and dense_tiers == {"dense"}
    assert [b[0] for b in got_barriers] == [b[0] for b in want_barriers]
    for mine, theirs in zip(got_barriers, want_barriers):
        assert mine == theirs, f"barrier after superstep {mine[0]}"
    assert canonical(got) == canonical(want)


@pytest.mark.parametrize("combiner", [True, False], ids=["sum", "none"])
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_planned_barriers_match_the_slot_scan(graph, name, workers, combiner):
    with laid_out():
        vectorized = _run(graph, PROGRAMS[name](), workers, combiner)
    with dense_pass():
        dense = _run(graph, PROGRAMS[name](), workers, combiner)
    _assert_same_barriers(vectorized, dense)
    # Both lay out at their first barrier; PageRank reuses the layout.
    assert vectorized[2] == [0]


@pytest.mark.parametrize("workers", WORKERS)
def test_a_restored_run_recompiles_its_layout(graph, workers, tmp_path):
    """Resumed from its last durable checkpoint (superstep 6), the run
    re-indexes, compiles plans and layout again and delivers through
    them — barrier for barrier as the resumed per-vertex pass does."""
    def resumed(directory):
        kwargs = dict(checkpoint_interval=3, checkpoint_dir=directory)
        _run(graph, PageRank(num_supersteps=8), workers, True, **kwargs)
        return _run(
            graph, PageRank(num_supersteps=8), workers, True,
            resume=True, **kwargs,
        )

    with laid_out():
        vectorized = resumed(str(tmp_path / "vectorized"))
    with dense_pass():
        dense = resumed(str(tmp_path / "dense"))
    _assert_same_barriers(vectorized, dense)
    assert vectorized[1][0][0] == 6 and vectorized[2] == [6]


@pytest.mark.parametrize("combiner", [True, False], ids=["sum", "none"])
@pytest.mark.parametrize("workers", WORKERS)
def test_spilled_records_deliver_as_the_slots_do(graph, workers, combiner):
    budget = dict(memory_budget=2048)
    with laid_out():
        vectorized = _run(
            graph, PageRank(num_supersteps=4), workers, combiner, **budget
        )
    with dense_pass():
        dense = _run(
            graph, PageRank(num_supersteps=4), workers, combiner, **budget
        )
    _assert_same_barriers(vectorized, dense)
    # A reloaded record has its plan's shape: the layout holds.
    assert vectorized[2] == [0]


class _Pruning(PageRank):
    """PageRank whose master removes one vertex after superstep 2."""

    name = "pruning-pagerank"

    def __init__(self, victim):
        super().__init__(num_supersteps=5)
        self.victim = victim
        self.ctx = None  # the engine's compute context, set below

    def master_compute(self, master):
        if master.superstep == 2:
            self.ctx.remove_vertex(self.victim)


@pytest.mark.parametrize("workers", WORKERS)
def test_a_mutation_falls_back_to_the_slot_scan(
    graph, workers, monkeypatch
):
    """The mutating barrier drops the removed vertex's entries from
    the records and reverses its senders' charges, a shape of its own
    that is laid out; the re-indexed plane plans again and lays out
    once more."""
    def run():
        program = _Pruning(victim=5)
        return _run(
            graph, program, workers, True,
            bind=lambda engine: setattr(program, "ctx", engine._ctx),
        )

    monkeypatch.setitem(
        kernels._VECTOR_KERNELS, _Pruning, kernels.PageRankKernel
    )
    with laid_out():
        vectorized = run()
    with dense_pass():
        dense = run()
    _assert_same_barriers(vectorized, dense)
    assert vectorized[2] == [0, 2, 3]
    assert 5 not in vectorized[0].values


def _reversing_merge(merge, poisoned):
    def reversing(self, parts):
        boxes, layout = merge(self, parts)
        box = max(boxes, key=len, default=())
        if len(set(box)) > 1:
            box.reverse()
            poisoned.append(len(box))
        return boxes, layout
    return reversing


def _swapping_lay_out(lay_out, poisoned):
    def swapping(self, parts):
        layout = lay_out(self, parts)
        spans = zip(layout.starts, layout.starts[1:])
        lo, hi = max(spans, key=lambda span: span[1] - span[0])
        if hi - lo > 1:
            gather = layout.gather
            gather[lo], gather[hi - 1] = gather[hi - 1], gather[lo]
            poisoned.append(hi - lo)
        return layout
    return swapping


def _assert_poison_is_caught(graph, monkeypatch, path, poison):
    def run():
        return PregelEngine(
            graph, PageRank(num_supersteps=6), num_workers=4, seed=0,
        ).run()

    oracle = oracle_result(graph, PageRank(num_supersteps=6), num_workers=4)
    assert_held_to_oracle(run(), oracle)  # sound before the poison
    poisoned = []
    monkeypatch.setattr(
        MailMerge, path, poison(getattr(MailMerge, path), poisoned)
    )
    with pytest.raises(AssertionError):
        assert_held_to_oracle(run(), oracle)
    assert poisoned


def test_poisoned_control_swapped_layout_entries_are_caught(
    graph, monkeypatch
):
    """Every set laid out, swap the first and the last message of the
    widest destination in the layout, the direct merge left sound:
    its messages arrive out of worker order, and the oracle
    differential must notice."""
    monkeypatch.setattr(fabric, "LAY_OUT_AT", 1)
    _assert_poison_is_caught(
        graph, monkeypatch, "_lay_out", _swapping_lay_out
    )


def test_poisoned_control_reversed_direct_merge_entries_are_caught(
    graph, monkeypatch
):
    """Reverse the widest destination's messages in the direct merge,
    the layout left sound: at the default ``LAY_OUT_AT`` PageRank's
    first barrier here is merged directly (its later ones replay a
    layout), and only a reversal reliably moves that one float sum —
    its first two messages swapped sum the same."""
    _assert_poison_is_caught(graph, monkeypatch, "_merge", _reversing_merge)


@pytest.mark.parametrize("at", [0, 1])
def test_the_size_of_a_record_set_picks_its_path(graph, at, monkeypatch):
    """A set of ``LAY_OUT_AT`` payloads or more is laid out at first
    sight and its layout cached; one payload fewer and it is merged
    directly (and laid out only when its shape comes back)."""
    engine = PregelEngine(
        graph, PageRank(num_supersteps=2), num_workers=3, seed=0,
    )
    fabric_ = engine._fabric
    deliver = fabric_.deliver_fast
    first = []

    def recording(mutated):
        if engine._ctx.superstep == 0:
            size = sum(len(part[1].payloads) for part in fabric_.parts if part)
            monkeypatch.setattr(fabric, "LAY_OUT_AT", size + at)
            delivered = deliver(mutated)
            first.append((size, fabric_.merge._layout))
            return delivered
        return deliver(mutated)

    fabric_.deliver_fast = recording
    engine.run()
    [(size, laid)] = first
    assert size > 0
    if at:
        assert laid is None
    else:
        assert laid is not None and laid.starts[-1] == size


def test_a_rerun_lays_out_again_only_after_a_mutation(graph, monkeypatch):
    """A second run of the vectorized pruning PageRank starts from the
    frozen topology again (vertex 5 back, then removed again), so it
    repeats the first; a second run that nothing re-indexed keeps the
    dense index it had."""
    monkeypatch.setitem(
        kernels._VECTOR_KERNELS, _Pruning, kernels.PageRankKernel
    )
    program = _Pruning(victim=5)
    engine = PregelEngine(graph, program, num_workers=3, seed=0)
    program.ctx = engine._ctx
    first, second = engine.run(), engine.run()
    assert {wall.kernel_tier for wall in first.stats.wall} == {"vectorized"}
    assert 5 not in first.values and second.values == first.values
    assert pickle.dumps(second.stats) == pickle.dumps(first.stats)

    engine = PregelEngine(graph, PageRank(num_supersteps=3), num_workers=3)
    first = engine.run()
    dense = engine._fabric.dense
    assert engine.run().values == first.values
    assert engine._fabric.dense is dense


def _forbid_place_stage(monkeypatch):
    """Fail wherever the place stage runs: in this process and in the
    pool's ranks, which fork with the patch in place.  Returns the
    calls this process saw."""
    reached = []

    def place_stage(*args):
        reached.append(args)
        raise AssertionError("the place stage ran")

    monkeypatch.setattr(kernels, "_place_stage", place_stage)
    return reached


@pytest.mark.parametrize("combiner", [True, False], ids=["sum", "none"])
@pytest.mark.parametrize("workers", SPY_WORKERS)
@pytest.mark.parametrize("backend", ["serial", "parallel"])
def test_degree_never_runs_the_place_stage(
    graph, backend, workers, combiner, monkeypatch
):
    """Both supersteps vectorized, held to the oracle and, byte for
    byte, to the per-vertex pass (values, pickled ``RunStats``, BPPA)
    — with the place stage forbidden.  On the pool every superstep
    ran on the ranks, none restarted."""
    if backend == "parallel" and parallel_start_method() != "fork":
        pytest.skip("spawned ranks do not inherit the spy")

    def engine():
        return create_engine(
            graph, DegreeCentrality(), backend=backend, num_workers=workers,
            combiner=SumCombiner() if combiner else None, track_bppa=True,
            seed=0,
        )

    oracle = oracle_result(
        graph, DegreeCentrality(), num_workers=workers,
        combiner=SumCombiner() if combiner else None,
    )
    with dense_pass():
        dense = engine().run()
    reached = _forbid_place_stage(monkeypatch)
    spied = engine()
    result = spied.run()
    assert not reached
    assert [wall.kernel_tier for wall in result.stats.wall] == (
        ["vectorized"] * 2
    )
    assert_held_to_oracle(result, oracle)
    assert canonical(result) == canonical(dense)
    if backend == "parallel":
        assert spied.parallel_disabled_reason is None
        assert spied.rank_restarts == 0
        assert spied.parallel_supersteps == result.stats.num_supersteps


def test_the_place_stage_spy_is_live(graph, monkeypatch):
    """PageRank's shares depend on the sender: it reaches the spied
    place stage, which fails the run."""
    reached = _forbid_place_stage(monkeypatch)
    engine = PregelEngine(graph, PageRank(num_supersteps=2), num_workers=4)
    with pytest.raises(AssertionError, match="the place stage ran"):
        engine.run()
    assert reached
