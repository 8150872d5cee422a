"""A finished run is freed by reference counting.

Ownership in ``repro.bsp`` is one-way: the compute context, the
message fabric and its lanes are handed what they read (the store,
the graph, the rng, an aggregate sink, the injector, the send
binding) and hold no pointer back to their engine or a bound method
of themselves.  Pinned here, without a clock:

* **lifetime**: with the cyclic collector disabled, the engine — a
  serial one or a parallel coordinator, with or without durable
  checkpoints — is gone as soon as its last reference drops, and a
  ``DEBUG_SAVEALL`` collection afterwards finds nothing (a reference
  cycle would leave the whole run, vertex states included, to a full
  collection);
* **no full collection**: one run on a held 20000-vertex
  Barabási–Albert graph triggers no generation-2 collection (the
  dense adjacency and the scatter plans are columns, so the run
  allocates no container per vertex or per destination to promote);
* **columns**: the GC-tracked objects reachable from a fabric's
  adjacency and compiled plans are bounded by a constant plus the
  plans' groups and fat destinations — never one per vertex.

``REPRO_FUZZ_WORKERS`` narrows the pool's worker counts, as in the
differential fuzz matrix.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
import weakref

import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.bsp import create_engine, crash_plan, kernels, parallel
from repro.bsp.combiner import SumCombiner
from repro.graph import barabasi_albert_graph
from tests.test_columnar_inbox import _tracked_reachable

WORKER_COUNTS = [2]
_env = os.environ.get("REPRO_FUZZ_WORKERS")
if _env:
    WORKER_COUNTS = [int(w) for w in _env.split(",") if w.strip()]

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(scope="module")
def ba_graph():
    return barabasi_albert_graph(2000, 8, seed=1)


#: ``(id, program factory, engine keywords)``: the plain run of the
#: claim, and the paths that rebuild lanes or rebind sends mid-run.
CASES = [
    ("pagerank", lambda: PageRank(num_supersteps=10),
     {"combiner": SumCombiner()}),
    ("wcc", WeaklyConnectedComponents, {}),
    ("rollback", lambda: PageRank(num_supersteps=6), {
        "checkpoint_interval": 2,
        "fault_plan": crash_plan(superstep=3, worker=1, seed=1),
    }),
    ("spill", lambda: PageRank(num_supersteps=4),
     {"combiner": SumCombiner(), "memory_budget": 4096}),
]


def _leftovers(graph, backend, make, num_workers, kwargs):
    """Run once with the collector off; return whether the engine
    outlived its last reference and what a saving collection finds."""
    gc.collect()
    gc.disable()
    try:
        engine = create_engine(
            graph, make(), backend=backend, num_workers=num_workers,
            **kwargs,
        )
        result = engine.run()
        ref = weakref.ref(engine)
        del engine, result
        alive = ref() is not None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return alive, garbage


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_serial_engine_is_freed_by_refcount(ba_graph, case):
    _name, make, kwargs = case
    assert _leftovers(ba_graph, "serial", make, 2, kwargs) == (False, 0)


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_parallel_coordinator_is_freed_by_refcount(
    ba_graph, case, num_workers
):
    _name, make, kwargs = case
    assert _leftovers(
        ba_graph, "parallel", make, num_workers, kwargs
    ) == (False, 0)


@pytest.mark.parametrize("backend", ["serial", "parallel"])
def test_durable_run_is_freed_by_refcount(ba_graph, tmp_path, backend):
    # Every durable write rewrites the manifest: its encoding must
    # leave no cycle behind either.
    kwargs = {
        "combiner": SumCombiner(),
        "checkpoint_interval": 2,
        "checkpoint_dir": str(tmp_path / "ck"),
    }
    assert _leftovers(
        ba_graph, backend, lambda: PageRank(num_supersteps=10), 2, kwargs
    ) == (False, 0)
    assert len(os.listdir(tmp_path / "ck")) == 4  # manifest + 3 kept


_FULL_COLLECTIONS = textwrap.dedent(
    """
    import gc
    from repro.algorithms import DegreeCentrality, PageRank
    from repro.bsp import SumCombiner, create_engine
    from repro.graph import barabasi_albert_graph

    graph = barabasi_albert_graph(20000, 8, 1)
    gens = []

    def count(phase, info):
        if phase == "start":
            gens.append(info["generation"])

    for make, workers in (
        (DegreeCentrality, 4),
        (lambda: PageRank(num_supersteps=10), 2),
    ):
        gc.collect()
        gens.clear()
        gc.callbacks.append(count)
        create_engine(
            graph, make(), combiner=SumCombiner(), num_workers=workers,
            track_bppa=False,
        ).run()
        gc.callbacks.remove(count)
        print(gens.count(2))
    """
)


def test_a_run_triggers_no_full_collection():
    out = subprocess.run(
        [sys.executable, "-c", _FULL_COLLECTIONS],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout.split()
    assert out == ["0", "0"], out


def _plan_bound(plans) -> int:
    """A constant plus two objects per fat destination and, per
    group, its tuples and two per contributor column (a getter and
    its argument tuple)."""
    bound = 16
    for plan in plans:
        bound += 4 + 2 * len(plan.m_get)
        bound += sum(3 + 2 * count for count, _d, _g in plan.groups)
    return bound


def test_adjacency_and_plans_hold_no_container_per_vertex(ba_graph):
    # A coordinator (never run: no pool) compiles the serial plans and
    # ships its ranks their slices.
    engine = create_engine(
        ba_graph, PageRank(num_supersteps=3), backend="parallel",
        combiner=SumCombiner(), num_workers=2, track_bppa=False,
    )
    plans = kernels._serial_plans(engine)
    assert plans is not None
    in_plans = _tracked_reachable(plans)
    assert in_plans <= _plan_bound(plans), in_plans
    # The adjacency adds its tuple, three arrays and a set: one list
    # per vertex would add 2000.
    adjacency = engine._fabric.adjacency
    assert _tracked_reachable([adjacency, *plans]) - in_plans <= 5
    # A rank's slice of the same columns, as its init ships it.
    for rank in range(2):
        part = parallel._PartitionRuntime(rank, engine._init_payload(rank))
        lane = part.lane
        columns = [lane.out_start, lane.out_dst, lane.remote_out,
                   lane.dangling]
        assert _tracked_reachable(columns) <= 4
        assert _tracked_reachable([part._plan]) <= _plan_bound([part._plan])
