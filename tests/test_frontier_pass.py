"""The frontier-proportional dense pass: same bytes, less work.

``dense_compute_pass`` walks a lane's frontier — the positions that
hold mail (``lane.arrivals``) or were left un-halted (``lane.awake``)
— instead of its whole range.  Two things are pinned here:

* **equivalence**: a program whose per-vertex behaviour is drawn from
  a seed (:class:`tests.conftest.FrontierScript`: lingering without
  mail, halting, re-waking by message, ``activate_all``, a vertex born
  by barrier mutation, an in-place edge edit) gives the oracle's
  values, ``RunStats``, BPPA rows (their order *is* the visit order),
  aggregate history and canonical bytes on every dense host, under
  every fault plan — and a poisoned pass that forgets ``awake`` is
  caught;
* **work**: counted, never timed.  SSSP on a path and on a grid visits
  O(active) positions per superstep, and a dense frontier (per-vertex
  PageRank) takes the range scan without building a frontier at all.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.bsp import create_engine, kernels
from repro.bsp.combiner import MinCombiner, SumCombiner
from repro.bsp.fabric import LaneRecord
from repro.bsp.parallel import _PartitionRuntime
from repro.errors import BSPError
from repro.graph import erdos_renyi_graph, grid_graph, path_graph
from repro.graph.snapshot import CsrSnapshot
from tests.conftest import FrontierScript
from tests.test_differential_fuzz import (
    FAULT_MODES,
    WORKER_COUNTS,
    _assert_same_runs,
    _run_case,
)

#: The oracle, the serial dense plane, the same under a one-byte
#: budget on a memory-mapped snapshot, and the pool on both transports.
BACKENDS = ["reference", "fast", "snapshot", "parallel-shm", "parallel"]


def _script_case(seed):
    """A graph and a :class:`FrontierScript` factory, both drawn from
    ``seed`` (stable across runs, platforms and hash salts)."""
    rnd = random.Random(f"frontier-{seed}")
    n, p = rnd.randrange(24, 56), round(rnd.uniform(0.05, 0.12), 3)
    graph_seed, directed = rnd.randrange(10**6), rnd.random() < 0.3
    script = dict(
        seed=seed,
        horizon=rnd.randrange(7, 11),
        actor=rnd.randrange(n),
        # After the crash plans' supersteps (2 and 3), so the pool is
        # still alive to be killed, reloaded and confined-replayed.
        wake_at=rnd.choice([None, 4, 5]),
        grow_at=rnd.choice([None, 4, 5, 6]),
        edit_at=rnd.choice([None, 5, 6, 7]),
    )
    graph = erdos_renyi_graph(n, p, seed=graph_seed, directed=directed)
    repro = (
        f"reproduce: erdos_renyi_graph(n={n}, p={p}, seed={graph_seed}, "
        f"directed={directed}); FrontierScript(**{script})"
    )
    return graph, (lambda: FrontierScript(**script)), repro


def _assert_frontier_equivalence(
    seed, workers, combiner, make_plan, confined, backends, snap_dir
):
    graph, make_program, repro = _script_case(seed)
    repro += f"; workers={workers}, combiner={combiner}"
    recipe = {"use_combiner": combiner is not None}
    snap = None
    if "snapshot" in backends:
        CsrSnapshot.from_graph(graph).save(snap_dir)
        snap = CsrSnapshot.open(snap_dir)
    results = {}
    for backend in backends:
        # _run_case asserts the plane: fast_path is True from
        # construction to the end of the run on all but the oracle.
        _engine, results[backend] = _run_case(
            snap if backend == "snapshot" else graph,
            make_program, combiner, recipe, backend, workers,
            make_plan, confined,
        )
    _assert_same_runs(results, repro)
    for backend in backends[1:]:
        tiers = {w.kernel_tier for w in results[backend].stats.wall}
        assert tiers == {"dense"}, f"{backend} {tiers}; {repro}"
    return results["reference"]


@pytest.mark.parametrize(
    "fault_name,make_plan,confined",
    FAULT_MODES,
    ids=[f[0] for f in FAULT_MODES],
)
@pytest.mark.parametrize("combiner", [None, "min", "sum"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_frontier_matrix(
    workers, combiner, fault_name, make_plan, confined, tmp_path
):
    ref = _assert_frontier_equivalence(
        f"{workers}-{combiner}-{fault_name}", workers, combiner,
        make_plan, confined, BACKENDS, str(tmp_path / "snap"),
    )
    if "crash" in fault_name:
        assert ref.stats.recovery_attempts == 1


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 10**6),
    workers=st.sampled_from([1, 2, 4, 7]),
    combiner=st.sampled_from([None, "min", "sum"]),
)
def test_frontier_equals_oracle_on_drawn_scripts(seed, workers, combiner):
    _assert_frontier_equivalence(
        seed, workers, combiner, None, False,
        ["reference", "fast"], None,
    )


def test_poisoned_control_forgotten_awake_is_caught(monkeypatch):
    """The harness must notice a pass that visits the arrivals only:
    a vertex lingering un-halted without mail would never run."""
    sound = kernels.dense_compute_pass

    def forgetful(host, lane, wake_all):
        if lane.awake is not None:
            lane.awake = []
        return sound(host, lane, wake_all)

    args = (7, 2, "sum", None, False, ["reference", "fast"], None)
    _assert_frontier_equivalence(*args)  # sound before the poison
    monkeypatch.setattr(kernels, "dense_compute_pass", forgetful)
    with pytest.raises((AssertionError, BSPError)):
        _assert_frontier_equivalence(*args)


# ---------------------------------------------------------------------
# Work counted, not timed
# ---------------------------------------------------------------------


class CountingList(list):
    """A list that counts its reads by position."""

    gets = 0

    def __getitem__(self, index):
        self.gets += 1
        return list.__getitem__(self, index)


sparse_graphs = pytest.mark.parametrize(
    "make_graph,source",
    [(lambda: path_graph(400), 0), (lambda: grid_graph(20, 20), (0, 0))],
    ids=["path-400", "grid-20x20"],
)


@pytest.mark.parametrize("workers", [1, 4])
@sparse_graphs
def test_sssp_visits_the_frontier_on_the_serial_host(
    make_graph, source, workers
):
    graph = make_graph()
    engine = create_engine(
        graph, SingleSourceShortestPaths(source),
        combiner=MinCombiner(), num_workers=workers, track_bppa=False,
    )
    fabric = engine._fabric
    states = CountingList(fabric.dense_states)
    in_slots = fabric.in_slots = CountingList(fabric.in_slots)
    for lane in fabric.lanes:
        lane.states, lane.in_slots = states, in_slots
    result = engine.run()
    n = graph.num_vertices
    active = sum(e.active_vertices for e in result.stats.supersteps)
    assert result.stats.num_supersteps > n ** 0.5
    # One slot read per position visited; one more state read per
    # executed vertex when the pass lists who is still awake.  The
    # range scan this replaces read n of each, every superstep.
    assert in_slots.gets <= n + active
    assert states.gets <= n + 2 * active
    assert {w.kernel_tier for w in result.stats.wall} == {"dense"}


@pytest.mark.parametrize("workers", [1, 4])
@sparse_graphs
def test_sssp_visits_the_frontier_on_a_pool_rank(
    make_graph, source, workers
):
    """The ranks of a pool, stepped in-process: rank 0's lane is the
    one counted, the others only route its mail."""
    graph = make_graph()
    program = SingleSourceShortestPaths(source)
    engine = create_engine(
        graph, program, backend="parallel", combiner=MinCombiner(),
        num_workers=workers, track_bppa=False,
    )
    parts = [
        _PartitionRuntime(rank, engine._init_payload(rank))
        for rank in range(workers)
    ]
    lane = parts[0].lane
    lane.states = CountingList(lane.states)
    lane.in_slots = CountingList(lane.in_slots)
    owner_of = lane.owner_of
    mail = {}
    superstep = active = 0
    while superstep == 0 or mail:
        inbound = [([], []) for _ in parts]
        for slot, messages in mail.items():
            slots, buckets = inbound[owner_of[slot]]
            slots.append(slot)
            buckets.append(messages)
        mail = defaultdict(list)
        for rank, part in enumerate(parts):
            scalars, columns = part.step(
                superstep, superstep == 0, {},
                LaneRecord.from_buckets(*inbound[rank]), None, None,
            )
            assert scalars["kernel_tier"] == "dense"
            if rank == 0:
                active += scalars["active"]
            # One combined message per (rank, destination) slot.
            for slot, message in zip(
                columns["touched"], columns["payloads"]
            ):
                mail[slot].append(message)
        superstep += 1
    oracle = create_engine(
        graph, program, combiner=MinCombiner(), num_workers=workers,
        use_fast_path=False,
    ).run()
    assert superstep == oracle.stats.num_supersteps
    for part in parts:
        for state in part.states:
            assert state.value == oracle.values[state.id]
    span = lane.stop - lane.start
    assert lane.in_slots.gets <= span + active
    # As on the serial host, plus the rank's isolation check
    # (``row_holds``) over the vertices it executed.
    assert lane.states.gets <= span + 3 * active


def test_dense_frontier_takes_the_range_scan(monkeypatch):
    """Per-vertex PageRank: every vertex awake and mailed.  The pass
    must scan the range and pay for no frontier — no arrivals shared
    out, no sort, no union, no list of who stayed awake — which is
    what keeps it at the parent's cost."""
    sorts = []

    def spying_sorted(iterable, **kwargs):
        sorts.append(1)
        return sorted(iterable, **kwargs)

    monkeypatch.setattr(kernels, "sorted", spying_sorted, raising=False)
    graph = erdos_renyi_graph(60, 0.2, seed=3)
    engine = create_engine(
        graph, PageRank(num_supersteps=6), combiner=SumCombiner(),
        num_workers=2, use_vectorized=False, track_bppa=False,
    )
    fabric = engine._fabric
    in_slots = fabric.in_slots = CountingList(fabric.in_slots)
    for lane in fabric.lanes:
        lane.in_slots = in_slots
    result = engine.run()
    supersteps = result.stats.num_supersteps
    assert supersteps == 7
    assert all(
        e.active_vertices == graph.num_vertices
        for e in result.stats.supersteps
    )
    assert in_slots.gets == graph.num_vertices * supersteps
    assert sorts == []
    assert all(lane.arrivals == () for lane in fabric.lanes)
    # The spy is live: a sparse run on the same engine class sorts.
    create_engine(
        path_graph(30), SingleSourceShortestPaths(0), num_workers=2,
    ).run()
    assert sorts
