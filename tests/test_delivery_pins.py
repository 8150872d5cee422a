"""Pins the order in which a barrier delivers its mail.

Delivery puts a superstep's destinations in first-touch order (each
worker's first sends, deduplicated across workers in worker order)
and a destination's messages in worker order.  Values cannot see the
first of the two orders, so the oracle differential does not hold it:
it shows in the inbox columns a checkpoint snapshots, and in the fault
draws, one per destination in that order, which ``RunStats`` counts.

For each case the run's every checkpoint contributes its superstep and
its pickled inbox columns (ids, message counts, messages); the run
adds its pickled ``RunStats`` (wall seconds excluded by ``RunStats``),
its values and its aggregate history.  The lines are hashed and
compared with the committed digests below.  Serial and parallel runs
of a case must both give its one digest.  The cases cross SSSP on a
grid (tuple ids), HashMin and PageRank with 1, 2, 4 and 7 workers and
with and without a combiner, every one checkpointing every second
superstep (so a pool run also forwards held mail between
checkpoints); and, at 3 workers, a network-fault plan, confined
recovery after a crash, a spilling ``memory_budget`` and barrier
mutations.

The digests were recorded before delivery became one merge over lane
records; they must not be edited to make a change pass.  A poisoned
control swaps two destinations in the merged first-touch order, which
leaves every value as it was; the pins must catch it.
``REPRO_FUZZ_WORKERS`` narrows the worker counts of the first matrix.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from itertools import accumulate

import pytest

from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.bsp import MinCombiner, SumCombiner, create_engine
from repro.bsp.fabric import MailMerge
from repro.bsp.faults import FaultPlan, crash_plan
from repro.graph import barabasi_albert_graph, erdos_renyi_graph, grid_graph
from tests.test_differential_fuzz import MutateMidRun

_env = os.environ.get("REPRO_FUZZ_WORKERS")
_ALL_WORKERS = [1, 2, 4, 7]
WORKERS = (
    [w for w in _ALL_WORKERS if str(w) in _env.split(",")]
    if _env else _ALL_WORKERS
)

#: name -> (graph, program factory, natural combiner)
PROGRAMS = {
    "sssp": (
        grid_graph(6, 7),
        lambda: SingleSourceShortestPaths((0, 0)),
        MinCombiner,
    ),
    "hashmin": (
        erdos_renyi_graph(48, 0.07, seed=4),
        HashMinComponents,
        MinCombiner,
    ),
    "pagerank": (
        barabasi_albert_graph(60, 3, seed=2),
        lambda: PageRank(num_supersteps=5),
        SumCombiner,
    ),
}

#: name -> (program, engine keywords) of the 3-worker special runs.
SPECIALS = {
    "faults": ("hashmin", dict(fault_plan=FaultPlan(
        drop_rate=0.2, duplicate_rate=0.1, delay_rate=0.1, seed=4,
    ))),
    "confined": ("sssp", dict(
        fault_plan=crash_plan(superstep=5, worker=1),
        confined_recovery=True,
    )),
    "spill": ("pagerank", dict(memory_budget=256)),
    "mutation": ("mutation", {}),
}


def _graph_program(name):
    if name == "mutation":
        graph = erdos_renyi_graph(40, 0.12, seed=3, directed=True)
        return graph, MutateMidRun, SumCombiner
    return PROGRAMS[name]


def run_digest(name, workers, combined, backend, **kwargs):
    """The first 16 hex digits of the SHA-256 over one run's
    checkpoint inboxes, ``RunStats``, values and aggregate history."""
    graph, make, combiner = _graph_program(name)
    engine = create_engine(
        graph, make(), backend=backend, num_workers=workers, seed=0,
        combiner=combiner() if combined else None,
        checkpoint_interval=2, **kwargs,
    )
    lines = []
    store = engine._loop.policy.store
    save = store.save

    def recording(checkpoint):
        lines.append(pickle.dumps((
            checkpoint.superstep, list(checkpoint.inbox_ids),
            list(checkpoint.inbox_lens), list(checkpoint.inbox_msgs),
        ), 4))
        return save(checkpoint)

    store.save = recording
    result = engine.run()
    lines.append(pickle.dumps(result.stats, 4))
    lines.append(pickle.dumps(sorted(
        (repr(k), v) for k, v in result.values.items()
    ), 4))
    lines.append(pickle.dumps(result.aggregate_history, 4))
    digest = hashlib.sha256()
    for line in lines:
        digest.update(hashlib.sha256(line).digest())
    return digest.hexdigest()[:16]


PINNED = {
    "sssp-w1-comb": "585e6bc960db9ca9",
    "sssp-w1-plain": "ddadd991f7c4453f",
    "sssp-w2-comb": "899ed6ee1cc6a6c1",
    "sssp-w2-plain": "899ed6ee1cc6a6c1",
    "sssp-w4-comb": "6d0a86675497b0a7",
    "sssp-w4-plain": "6d0a86675497b0a7",
    "sssp-w7-comb": "380a09283cff00fb",
    "sssp-w7-plain": "62e0a07d6079a1af",
    "hashmin-w1-comb": "3118ae73017e26be",
    "hashmin-w1-plain": "adae33e3224822b6",
    "hashmin-w2-comb": "748f83763794111c",
    "hashmin-w2-plain": "8f23affa859ab251",
    "hashmin-w4-comb": "f013116fdf2623ab",
    "hashmin-w4-plain": "3e1bf354fa1ed593",
    "hashmin-w7-comb": "403eafa9cdcfc524",
    "hashmin-w7-plain": "44d4fb9c8958050a",
    "pagerank-w1-comb": "44cbafca64935978",
    "pagerank-w1-plain": "477c0f9f5ea8ae90",
    "pagerank-w2-comb": "1b332f6c10fb744d",
    "pagerank-w2-plain": "11ee97bc156f7831",
    "pagerank-w4-comb": "ca432baadb3cdba2",
    "pagerank-w4-plain": "73f9b82778deaa6e",
    "pagerank-w7-comb": "4589c0f852d56954",
    "pagerank-w7-plain": "053a3e18dfa870b8",
    "faults-w3-comb": "027d99e56d27ea7e",
    "faults-w3-plain": "183055e4335c25c8",
    "confined-w3-comb": "67d76a99822c186e",
    "confined-w3-plain": "f98b84c95cfc4684",
    "spill-w3-comb": "ced2f2a8633490a7",
    "spill-w3-plain": "db1c1765358141cb",
    "mutation-w3-comb": "e01453899781bb56",
    "mutation-w3-plain": "0cbf4ed589bf322d",
}

MATRIX = [
    (f"{name}-w{workers}-{'comb' if combined else 'plain'}",
     name, workers, combined, {})
    for name in PROGRAMS
    for workers in WORKERS
    for combined in (True, False)
] + [
    (f"{special}-w3-{'comb' if combined else 'plain'}",
     name, 3, combined, kwargs)
    for special, (name, kwargs) in SPECIALS.items()
    for combined in (True, False)
]


@pytest.mark.parametrize("backend", ["serial", "parallel"])
@pytest.mark.parametrize(
    "case,name,workers,combined,kwargs", MATRIX, ids=[m[0] for m in MATRIX]
)
def test_delivery_order_is_pinned(
    case, name, workers, combined, kwargs, backend
):
    got = run_digest(name, workers, combined, backend, **kwargs)
    assert got == PINNED.get(case), (
        f"{case} [{backend}]: checkpoint inboxes, RunStats, values or "
        f"aggregate history no longer match the pinned run; got {got}"
    )


def test_poisoned_control_swapped_first_touch_order_is_caught(monkeypatch):
    """Swap the first two destinations of every merged inbox, each
    with its mail: every value stays (HashMin's labels do not depend
    on the order destinations are delivered in), so the oracle cannot
    see it, but the checkpoints' inbox columns move and the pins must
    catch it."""
    fill = MailMerge.fill

    def swapping(self, parts, lane):
        layout = fill(self, parts, lane)
        if len(layout.positions) < 2:
            return layout
        positions, widths = list(layout.positions), list(layout.widths)
        lo, mid, hi = layout.starts[:3]
        msgs = lane.in_msgs
        msgs[lo:hi] = msgs[mid:hi] + msgs[lo:mid]
        positions[:2], widths[:2] = positions[1::-1], widths[1::-1]
        starts = list(accumulate(widths, initial=0))
        for pos, start, width in zip(positions[:2], starts, widths):
            lane.in_start[pos], lane.in_count[pos] = start, width
        return layout._replace(
            positions=positions, starts=starts, widths=widths
        )

    def values():
        graph, make, combiner = PROGRAMS["hashmin"]
        return create_engine(
            graph, make(), num_workers=4, combiner=combiner(), seed=0
        ).run().values

    clean = values()
    monkeypatch.setattr(MailMerge, "fill", swapping)
    assert values() == clean
    assert run_digest("hashmin", 4, True, "serial") != PINNED[
        "hashmin-w4-comb"
    ]
