"""A planned scatter emits its lane record; the barrier delivers it
through a layout compiled with the plans.

A vectorized kernel that scatters through its compiled plan writes no
accumulator slot: it emits its lane's ``LaneRecord`` payload column,
and ``MessageFabric.deliver_fast`` puts every entry where the
``DeliveryLayout`` (compiled once per dense index, beside the plans)
says the slot scan would have.  Held here barrier by barrier: after
every delivery, the inbox columns (``fabric.inbox_columns()``) and
every worker's ledger of a vectorized run equal those of the same run
on the per-vertex pass (``tests.conftest.dense_pass()``), whose sends
go through the slots — PageRank and degree, with and without a sum
combiner, over 1 to 7 workers; a run resumed from a durable
checkpoint; a ``memory_budget`` run that spills records; and a
barrier mutation, where the records fall back to the slot scan.  A
poisoned control swaps two lanes' entries for one destination in the
compiled layout; the oracle differential must catch it.

``REPRO_FUZZ_WORKERS`` narrows the worker counts.
"""

from __future__ import annotations

import operator
import os
import pickle
from itertools import accumulate

import pytest

from repro.algorithms.degree import DegreeCentrality
from repro.algorithms.pagerank import PageRank
from repro.bsp import PregelEngine, SumCombiner, kernels
from repro.bsp.fabric import MessageFabric
from repro.graph import barabasi_albert_graph
from tests.conftest import assert_held_to_oracle, dense_pass, oracle_result
from tests.test_differential_fuzz import canonical

_env = os.environ.get("REPRO_FUZZ_WORKERS")
WORKERS = [int(w) for w in _env.split(",")] if _env else [1, 2, 3, 4, 7]

PROGRAMS = {
    "pagerank": lambda: PageRank(num_supersteps=6),
    "degree": DegreeCentrality,
}
#: The supersteps whose delivery must take the planned path.
PLANNED = {"pagerank": list(range(6)), "degree": [0]}


@pytest.fixture(scope="module")
def graph():
    # Hubs above the plan's _GROUP_MAX contributors at one worker.
    return barabasi_albert_graph(400, 4, seed=3)


def _ledger(worker):
    return (
        worker.work, worker.sent_logical, worker.sent_remote,
        worker.sent_network, worker.received_logical,
        worker.received_network,
    )


def _run(graph, program, workers, combiner, bind=None, **kwargs):
    """``(result, barriers, planned)``: per delivery, the superstep,
    the count delivered, the pickled inbox columns and every worker's
    ledger; the supersteps delivered through the layout.  ``bind``
    sees the engine before it runs."""
    engine = PregelEngine(
        graph, program, num_workers=workers, seed=0,
        combiner=SumCombiner() if combiner else None, **kwargs,
    )
    if bind is not None:
        bind(engine)
    fabric = engine._fabric
    deliver, through_layout = fabric.deliver_fast, fabric._deliver_planned
    barriers, planned = [], []

    def recording(superstep, mutated):
        delivered = deliver(superstep, mutated)
        barriers.append((
            superstep, delivered, pickle.dumps(fabric.inbox_columns()),
            [_ledger(worker) for worker in fabric.workers],
        ))
        return delivered

    def counting(records):
        planned.append(engine._ctx.superstep)
        return through_layout(records)

    fabric.deliver_fast, fabric._deliver_planned = recording, counting
    return engine.run(), barriers, planned


def _assert_same_barriers(vectorized, dense):
    (got, got_barriers, planned), (want, want_barriers, slots) = (
        vectorized, dense,
    )
    assert not slots  # the per-vertex pass sends through the slots
    assert [b[0] for b in got_barriers] == [b[0] for b in want_barriers]
    for mine, theirs in zip(got_barriers, want_barriers):
        assert mine == theirs, f"barrier after superstep {mine[0]}"
    assert canonical(got) == canonical(want)


@pytest.mark.parametrize("combiner", [True, False], ids=["sum", "none"])
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_planned_barriers_match_the_slot_scan(graph, name, workers, combiner):
    vectorized = _run(graph, PROGRAMS[name](), workers, combiner)
    with dense_pass():
        dense = _run(graph, PROGRAMS[name](), workers, combiner)
    _assert_same_barriers(vectorized, dense)
    assert vectorized[2] == PLANNED[name]


@pytest.mark.parametrize("workers", WORKERS)
def test_a_restored_run_recompiles_its_layout(graph, workers, tmp_path):
    """Resumed from its last durable checkpoint (superstep 6), the run
    re-indexes, compiles plans and layout again and delivers through
    them — barrier for barrier as the resumed slot scan does."""
    def resumed(directory):
        kwargs = dict(checkpoint_interval=3, checkpoint_dir=directory)
        _run(graph, PageRank(num_supersteps=8), workers, True, **kwargs)
        return _run(
            graph, PageRank(num_supersteps=8), workers, True,
            resume=True, **kwargs,
        )

    vectorized = resumed(str(tmp_path / "vectorized"))
    with dense_pass():
        dense = resumed(str(tmp_path / "dense"))
    _assert_same_barriers(vectorized, dense)
    assert vectorized[1][0][0] == 6 and vectorized[2] == [6, 7]


@pytest.mark.parametrize("combiner", [True, False], ids=["sum", "none"])
@pytest.mark.parametrize("workers", WORKERS)
def test_spilled_records_deliver_as_the_slots_do(graph, workers, combiner):
    budget = dict(memory_budget=2048)
    vectorized = _run(
        graph, PageRank(num_supersteps=4), workers, combiner, **budget
    )
    with dense_pass():
        dense = _run(
            graph, PageRank(num_supersteps=4), workers, combiner, **budget
        )
    _assert_same_barriers(vectorized, dense)
    assert vectorized[2] == [0, 1, 2, 3]


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
    """The mutating barrier adopts the records into the slots, whose
    scan drops the removed vertex's mail and reverses its senders'
    charges; the re-indexed plane plans and lays out again."""
    def run():
        program = _Pruning(victim=5)
        return _run(
            graph, program, workers, True,
            bind=lambda engine: setattr(program, "ctx", engine._ctx),
        )

    monkeypatch.setitem(
        kernels._VECTOR_KERNELS, _Pruning, kernels.PageRankKernel
    )
    vectorized = run()
    with dense_pass():
        dense = run()
    _assert_same_barriers(vectorized, dense)
    assert vectorized[2] == [0, 1, 3, 4]
    assert 5 not in vectorized[0].values


def test_poisoned_control_swapped_layout_entries_are_caught(
    graph, monkeypatch
):
    """Swap the first and the last of four lanes' first entries for the
    hub all four send to: its messages arrive out of worker order, and
    the oracle differential must notice."""
    def run():
        return PregelEngine(
            graph, PageRank(num_supersteps=6), num_workers=4, seed=0,
        ).run()

    oracle = oracle_result(graph, PageRank(num_supersteps=6), num_workers=4)
    assert_held_to_oracle(run(), oracle)  # sound before the poison
    compile_layout = MessageFabric.plan_delivery
    poisoned = []

    def swapping(self, plans):
        compile_layout(self, plans)
        layout = self.layout
        entry = [  # destination -> its first entry in the lane's record
            dict(zip(slots, accumulate(counts, initial=0)))
            for slots, counts in (plan.shape() for plan in plans)
        ]
        width = dict(zip(layout.dirty, map(
            operator.sub, layout.starts[1:], layout.starts
        )))
        hub = max(
            (d for d in layout.dirty if all(d in e for e in entry)),
            key=width.__getitem__,
        )
        first, last = layout.scatter[0], layout.scatter[-1]
        i, j = entry[0][hub], entry[-1][hub]
        first[i], last[j] = last[j], first[i]
        poisoned.append(hub)

    monkeypatch.setattr(MessageFabric, "plan_delivery", swapping)
    with pytest.raises(AssertionError):
        assert_held_to_oracle(run(), oracle)
    assert poisoned
