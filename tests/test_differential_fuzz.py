"""Differential fuzzing: four engine paths against a test-side oracle.

For a deterministic matrix of seeded random graphs x workloads x
worker counts x fault plans, every case runs on four engine paths —
the dense fast path (no vectorized kernel registered), the dense fast
path with the vectorized kernel tier engaged, the dense fast path against
a memory-mapped :class:`CsrSnapshot` under a 1-byte message budget
(every lane spills to disk and replays at delivery), and the
process-parallel backend — and all four must be **byte-identical**: same
values (compared per entry through pickle, so identity sharing inside
one backend cannot mask or fake a difference), same ``RunStats``
ledgers, same BPPA observation, same aggregate history.

The fifth path, ``"reference"``, is the oracle: :mod:`tests.oracle`,
a Pregel interpreter that counts work, messages and the BPPA factors
itself and shares no code with the engine.  A clean run's ledger,
BPPA observation, aggregate history and values must equal it.  The
oracle runs fault-free, so a faulted run must match it by the
fault-masking contract — values, committed ledger, BPPA observation
and aggregate history — while its recovery accounting is held to the
``fast`` path's (``docs/architecture.md``, "Oracle").  So a
counting bug shared by every engine path — in ``Worker``'s counters,
``superstep_profile``, ``BppaTracker`` or ``apply_mutations`` — is
caught: the poisoned controls below each plant one.

The matrix is "fuzz" in the sense that every case's graph shape,
seed, combiner use and fault plan are derived from a per-case RNG —
but the derivation is deterministic, so a failure reproduces by
re-running the test id.  Every assertion message carries the full
recipe (graph generator arguments and seeds included) so a failure
can also be replayed standalone.

Worker counts include 1 (degenerate pool), 2, 4 and 7 (uneven
partitions: 7 does not divide the vertex counts).  CI's worker-count
matrix narrows the sweep via ``REPRO_FUZZ_WORKERS`` (comma-separated
counts); unset runs all of them.

The second matrix below crosses what used to leave the dense plane —
barrier mutations (:class:`MutateMidRun`), in-place edge edits
(:class:`EdgeTouch`) and crash rollback, plus the frontier
transitions of :class:`FrontierScript` — with every worker count,
both combiner modes and every fault plan.  A poisoned control skips
the barrier re-index and must be caught.  Beyond the fixed matrix, a
hypothesis-driven test draws trees, disconnected unions,
string-relabelled ids and float edge weights, and shrinks a failure
to a printed generator recipe.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.algorithms.bfs_tree import BFSTree
from repro.algorithms.block_programs import BlockHashMin
from repro.algorithms.degree import DegreeCentrality
from repro.algorithms.gas_programs import HashMinGAS
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.bsp import (
    AsyncEngine,
    BlockEngine,
    GASEngine,
    SumAggregator,
    VertexProgram,
    create_engine,
    crash_plan,
    drop_plan,
)
from repro.bsp import engine as engine_module
from repro.bsp import loop as loop_module
from repro.bsp import program as program_module
from repro.bsp.combiner import resolve_combiner
from repro.bsp.fabric import MessageFabric
from repro.bsp.kernels import _GROUP_MAX
from repro.errors import BSPError
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_graph,
    random_tree,
    random_weighted_graph,
)
from repro.graph.snapshot import CsrSnapshot
from repro.metrics.bppa import BppaTracker
from repro.trace import TraceRecorder, modeled_events
from tests.conftest import (
    WORKLOADS,
    EdgeTouch,
    FrontierScript,
    as_pregel_result,
    assert_held_to_oracle,
    dense_pass,
    oracle_result,
)

WORKER_COUNTS = [1, 2, 4, 7]
_env = os.environ.get("REPRO_FUZZ_WORKERS")
if _env:
    WORKER_COUNTS = [int(w) for w in _env.split(",") if w.strip()]

#: ``(name, make_plan)``.
FAULT_MODES = [
    ("clean", None),
    ("crash", lambda: crash_plan(superstep=2, worker=1, seed=9)),
    ("msg-drop", lambda: drop_plan(rate=0.25, seed=9)),
]

#: "reference" is the oracle (:mod:`tests.oracle`), which runs no
#: engine, writes no trace and ignores the fault plan.
#: "fast" runs with no vectorized kernel registered
#: (:func:`tests.conftest.dense_pass`) so the per-vertex dense pass
#: stays covered on every recipe; "fast+vectorized" runs the kernel
#: tier for programs that register one (the per-vertex pass for the
#: rest, proving the silent fallback is harmless).
#: "snapshot" re-runs the dense fast path against a saved-and-mmap'd
#: ``CsrSnapshot`` of the same graph under ``memory_budget=1``, so
#: every buffered message lane spills to disk and replays at delivery
#: — covering the out-of-core storage *and* spill tiers in one path.
#: "parallel" runs the process pool, every column on the rank pipe.
BACKENDS = ["reference", "fast", "fast+vectorized", "snapshot", "parallel"]

#: The shared workload table plus degree centrality, so all four
#: programs with a registered kernel cross every path here.
FUZZ_WORKLOADS = WORKLOADS + [
    ("degree", WORKLOADS[0][1], lambda: DegreeCentrality(), "sum"),
]

#: Workloads whose program class registers a vectorized kernel —
#: their clean fast+vectorized and pool runs must actually leave the
#: dense tier (``sssp``'s sparse frontier and ``bfs-tree`` register
#: none).
VECTORIZED_WORKLOADS = {"pagerank", "wcc", "hashmin", "degree"}


def _case_recipe(wl_name: str, workers: int, fault_name: str) -> dict:
    """Derive one case's graph/combiner recipe deterministically from
    its coordinates (stable across runs and platforms)."""
    rnd = random.Random(f"fuzz-{wl_name}-{workers}-{fault_name}")
    return {
        "n": rnd.randrange(24, 56),
        "p": round(rnd.uniform(0.06, 0.18), 3),
        "graph_seed": rnd.randrange(10**6),
        "directed": rnd.random() < 0.3,
        "use_combiner": rnd.random() < 0.5,
    }


def _run_case(graph, make_program, natural, recipe, backend, workers,
              make_plan, trace=None):
    """One case on one backend: ``(engine, result)``, where the
    ``"reference"`` backend has no engine (``None``)."""
    combiner = resolve_combiner(natural) if recipe["use_combiner"] else None
    if backend == "reference":
        return None, oracle_result(
            graph, make_program(), num_workers=workers, combiner=combiner
        )
    kwargs = dict(
        num_workers=workers, track_bppa=True, seed=0, trace=trace,
        combiner=combiner,
    )
    if make_plan is not None:
        kwargs["checkpoint_interval"] = 2
        kwargs["fault_plan"] = make_plan()
    if backend == "snapshot":
        kwargs["memory_budget"] = 1
    pinned = backend in ("fast", "snapshot")
    with dense_pass() if pinned else contextlib.nullcontext():
        engine = create_engine(
            graph, make_program(),
            backend="parallel" if backend == "parallel" else "serial",
            **kwargs,
        )
        return engine, engine.run()


def canonical(result):
    """Byte-exact, sharing-independent digest of a run.

    ``values`` are pickled entry by entry: pickling the whole dict
    would let memoized back-references (two entries sharing one
    object) produce different bytes for equal values depending on
    which backend materialized them.
    """
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


def _assert_same_runs(results, repro, faulted=False):
    """Every engine path's result equals the ``"fast"`` one — values,
    ``RunStats``, BPPA observation, aggregate history, canonical bytes
    — every ledger balances (not just matches), and ``"fast"`` is held
    to the oracle (``"reference"``) by :func:`assert_held_to_oracle`."""
    ref = results["fast"]
    ref_canon = canonical(ref)
    oracle = results["reference"]
    assert oracle.stats.ledger_balanced(), f"oracle; {repro}"
    assert_held_to_oracle(ref, oracle, faulted, f"fast; {repro}")
    for backend, got in results.items():
        if backend == "reference":
            continue
        assert got.values == ref.values, f"{backend} values; {repro}"
        assert got.stats == ref.stats, f"{backend} stats; {repro}"
        assert got.bppa == ref.bppa, f"{backend} bppa; {repro}"
        assert got.aggregate_history == ref.aggregate_history, (
            f"{backend} aggregate history; {repro}"
        )
        assert canonical(got) == ref_canon, (
            f"{backend} canonical bytes; {repro}"
        )
        assert got.stats.ledger_balanced(), f"{backend}; {repro}"


@pytest.mark.parametrize(
    "fault_name,make_plan",
    FAULT_MODES,
    ids=[f[0] for f in FAULT_MODES],
)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize(
    "wl_name,_graph,make_program,natural",
    FUZZ_WORKLOADS,
    ids=[w[0] for w in FUZZ_WORKLOADS],
)
def test_differential_fuzz(
    wl_name, _graph, make_program, natural, workers, fault_name,
    make_plan, tmp_path,
):
    _fuzz_case(
        wl_name, make_program, natural, workers, fault_name, make_plan,
        str(tmp_path / "snap"),
    )


def _fuzz_case(
    wl_name, make_program, natural, workers, fault_name, make_plan,
    snap_dir,
):
    recipe = _case_recipe(wl_name, workers, fault_name)
    repro = (
        f"reproduce: erdos_renyi_graph(n={recipe['n']}, "
        f"p={recipe['p']}, seed={recipe['graph_seed']}, "
        f"directed={recipe['directed']}); workload={wl_name}, "
        f"num_workers={workers}, fault={fault_name}, "
        f"combiner={'natural' if recipe['use_combiner'] else 'none'}, "
        f"engine seed=0"
    )
    graph = erdos_renyi_graph(
        recipe["n"],
        recipe["p"],
        seed=recipe["graph_seed"],
        directed=recipe["directed"],
    )
    _assert_every_path_agrees(
        graph, wl_name, make_program, natural, recipe, workers,
        make_plan, snap_dir, repro,
    )


def _assert_every_path_agrees(
    graph, wl_name, make_program, natural, recipe, workers, make_plan,
    snap_dir, repro,
):
    """Run one case on every backend of ``BACKENDS``, hold the engine
    paths to each other and to the oracle, plus the tier, spill and
    pool honesty checks."""
    CsrSnapshot.from_graph(graph).save(snap_dir)
    snap = CsrSnapshot.open(snap_dir)
    results = {}
    engines = {}
    for backend in BACKENDS:
        engines[backend], results[backend] = _run_case(
            snap if backend == "snapshot" else graph,
            make_program, natural, recipe, backend, workers,
            make_plan,
        )
    ref = results["reference"]
    _assert_same_runs(results, repro, make_plan is not None)
    # Kernel-tier honesty: the pinned-off fast path must never leave
    # the dense pass, while the vectorized path and the pool ranks
    # (which run the same registered kernels) must actually use the
    # array kernels on runs of registered programs, faulted or not (a
    # fault plan selects no tier).
    fast_tiers = {
        w.kernel_tier for w in results["fast"].stats.wall
    }
    assert "vectorized" not in fast_tiers, f"fast; {repro}"
    for backend in ("fast+vectorized", "parallel"):
        vec_tiers = {
            w.kernel_tier for w in results[backend].stats.wall
        }
        if wl_name in VECTORIZED_WORKLOADS:
            assert "vectorized" in vec_tiers, (
                f"{backend} never left the dense tier; {repro}"
            )
    # Spill honesty: under a 1-byte budget every non-empty lane
    # spills, so any case that sent messages must have hit the disk
    # tier (the snapshot path must not pass the comparison by never
    # exercising the spill machinery).
    total_sent = sum(
        sum(e.sent_logical) for e in ref.stats.supersteps
    )
    snap_fabric = engines["snapshot"]._fabric
    if total_sent > 0:
        assert snap_fabric.spilled_lanes > 0, f"snapshot; {repro}"
        assert snap_fabric.spilled_bytes > 0, f"snapshot; {repro}"
    # The canonical workloads never mutate topology or draw RNG, so
    # the pool must have run every superstep (the parallel runs must
    # not silently degrade to serial and pass the comparison that
    # way).
    par = engines["parallel"]
    assert par.parallel_disabled_reason is None, f"parallel; {repro}"
    # >= because crash plans re-execute rolled-back supersteps on the
    # pool too.
    assert par.parallel_supersteps >= ref.stats.num_supersteps, (
        f"parallel; {repro}"
    )


# ---------------------------------------------------------------------
# The two graph shapes the benchmark runs, beyond Erdős–Rényi: a
# Barabási–Albert graph (hubs above ``_GROUP_MAX`` in-edges, so many
# lanes per destination and the scatter plan's per-hub fold) and a
# grid (tuple vertex ids, so every keyed order and the min-label
# kernels' non-numeric key).
# ---------------------------------------------------------------------

def _shape_case(shape: str, wl_name: str, workers: int):
    """``(graph, source, use_combiner, recipe text)`` drawn from the
    case's coordinates (stable across runs and platforms)."""
    rnd = random.Random(f"shape-{shape}-{wl_name}-{workers}")
    use_combiner = rnd.random() < 0.5
    if shape == "ba":
        n, k = rnd.randrange(500, 700), rnd.randrange(5, 8)
        seed = rnd.randrange(10**6)
        graph = barabasi_albert_graph(n, k, seed=seed)
        text = f"barabasi_albert_graph(n={n}, k={k}, seed={seed})"
        return graph, 0, use_combiner, text
    rows, cols = rnd.randrange(5, 10), rnd.randrange(6, 12)
    text = f"grid_graph({rows}, {cols})"
    return grid_graph(rows, cols), (0, 0), use_combiner, text


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize(
    "wl_name,_graph,make_program,natural",
    FUZZ_WORKLOADS,
    ids=[w[0] for w in FUZZ_WORKLOADS],
)
@pytest.mark.parametrize("shape", ["ba", "grid"])
def test_differential_shapes(
    shape, wl_name, _graph, make_program, natural, workers, tmp_path
):
    graph, source, use_combiner, recipe_text = _shape_case(
        shape, wl_name, workers
    )
    if wl_name == "sssp":
        make_program = lambda: SingleSourceShortestPaths(source)
    elif wl_name == "bfs-tree":
        make_program = lambda: BFSTree(source)
    recipe = {"use_combiner": use_combiner}
    repro = (
        f"reproduce: {recipe_text}; workload={wl_name}, source={source!r}, "
        f"num_workers={workers}, fault=clean, "
        f"combiner={'natural' if recipe['use_combiner'] else 'none'}, "
        f"engine seed=0"
    )
    if shape == "ba":
        assert max(map(graph.total_degree, graph.vertices())) > _GROUP_MAX
    _assert_every_path_agrees(
        graph, wl_name, make_program, natural, recipe, workers, None,
        str(tmp_path / "snap"), repro,
    )


# ---------------------------------------------------------------------
# What used to leave the dense plane: barrier mutations, in-place edge
# edits, crash rollback.  Oracle / dense / spilling snapshot /
# process pool, every worker count, with and without a combiner, under
# every fault plan.
# ---------------------------------------------------------------------


class MutateMidRun(VertexProgram):
    """Every barrier mutation kind, with traffic in flight.

    Superstep 1: vertex 0 sends to vertex 3 and removes it (the
    message is dropped at delivery, its charges reversed), adds a
    vertex and edges to and from it, removes one of its own edges,
    rewires another (removed and added back with a new weight in one
    barrier: Pregel's order, removals first, keeps it, moved last)
    and requests an edge from a vertex that does not exist (ignored).
    Superstep 3: vertex 2 gets a dangling edge — its row cannot
    compile, so it sends by target list — removed again at 4.  All
    vertices gossip throughout, over whatever the topology is.
    """

    name = "mutate-mid-run"

    def aggregators(self):
        return {"total": SumAggregator()}

    def compute(self, v, msgs, ctx):
        step = ctx.superstep
        v.value = sum(msgs) if step == 0 else v.value + sum(msgs)
        ctx.aggregate("total", v.value)
        if step == 1 and v.id == 0:
            ctx.send(3, 1000)
            ctx.remove_vertex(3)
            ctx.add_vertex("late", value=0)
            ctx.add_edge(0, "late")
            ctx.add_edge("late", 0)
            ctx.add_edge("nobody", 0)
            if v.out_edges:
                ctx.remove_edge(0, next(iter(v.out_edges)))
            kept = [t for t in v.out_edges if t != 3]
            if len(kept) > 1:
                ctx.remove_edge(0, kept[1])
                ctx.add_edge(0, kept[1], 2.0)
        if step == 3 and v.id == 1:
            ctx.add_edge(2, "nowhere")
        if step == 4 and v.id == 2:
            ctx.remove_edge(2, "nowhere")
            ctx.send_to([t for t in v.out_edges if t != "nowhere"], 1)
        elif step < 6:
            ctx.send_to_neighbors(v, 1)
        else:
            v.vote_to_halt()


#: ``(name, make_program, why the pool stepped aside)``.
PLANE_CORPUS = [
    (
        "mutate-mid-run",
        MutateMidRun,
        "topology mutation re-indexed the dense plane",
    ),
    (
        "edge-touch",
        lambda: EdgeTouch(rounds=5, rewire_at=2),
        "program edited out_edges in place",
    ),
    # Every way into and out of a lane's frontier (lingering awake,
    # halting, re-waking, wake-all, a vertex born at the barrier of
    # superstep 2, an edge edit) — tests/test_frontier_pass.py crosses
    # it with a min combiner as well.
    (
        "frontier-script",
        lambda: FrontierScript(
            seed=5, horizon=8, actor=1, wake_at=5, grow_at=2, edit_at=4
        ),
        "topology mutation re-indexed the dense plane",
    ),
]

PLANE_BACKENDS = ["reference", "fast", "snapshot", "parallel"]

#: Checkpoints at 0, 2, 4 and a crash at 3, so the full rollback
#: restores the topology the superstep-1 barrier mutated, onto the
#: dense plane, and re-executes superstep 2.
PLANE_FAULT_MODES = [
    ("clean", None),
    ("crash", lambda: crash_plan(superstep=3, worker=1, seed=9)),
    ("msg-drop", lambda: drop_plan(rate=0.25, seed=9)),
]


def _assert_planes_agree(
    graph, make_program, use_combiner, workers, make_plan, snap_dir,
    repro,
):
    """Run one corpus case on every backend of ``PLANE_BACKENDS``:
    the engine paths agree on values, ``RunStats`` (recovery
    accounting included), BPPA observation, aggregate history,
    canonical bytes and the modeled trace, and are held to the
    oracle.  Returns ``(engines, results)``."""
    CsrSnapshot.from_graph(graph).save(snap_dir)
    snap = CsrSnapshot.open(snap_dir)
    recipe = {"use_combiner": use_combiner}
    engines, results, traces = {}, {}, {}
    for backend in PLANE_BACKENDS:
        traces[backend] = TraceRecorder()
        engines[backend], results[backend] = _run_case(
            snap if backend == "snapshot" else graph,
            make_program, "sum", recipe, backend, workers,
            make_plan, traces[backend],
        )
    _assert_same_runs(results, repro, make_plan is not None)
    for backend in PLANE_BACKENDS[2:]:
        assert modeled_events(traces[backend]) == modeled_events(
            traces["fast"]
        ), f"{backend} modeled trace; {repro}"
    return engines, results


@pytest.mark.parametrize(
    "fault_name,make_plan",
    PLANE_FAULT_MODES,
    ids=[f[0] for f in PLANE_FAULT_MODES],
)
@pytest.mark.parametrize(
    "use_combiner", [False, True], ids=["nocomb", "sum"]
)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize(
    "name,make_program,pool_reason",
    PLANE_CORPUS,
    ids=[c[0] for c in PLANE_CORPUS],
)
def test_plane_corpus(
    name, make_program, pool_reason, workers, use_combiner,
    fault_name, make_plan, tmp_path,
):
    rnd = random.Random(f"plane-{name}-{workers}-{fault_name}")
    n, p = rnd.randrange(24, 56), round(rnd.uniform(0.1, 0.2), 3)
    graph_seed, directed = rnd.randrange(10**6), rnd.random() < 0.3
    repro = (
        f"reproduce: erdos_renyi_graph(n={n}, p={p}, "
        f"seed={graph_seed}, directed={directed}); program={name}, "
        f"num_workers={workers}, fault={fault_name}, "
        f"combiner={'sum' if use_combiner else 'none'}, engine seed=0"
    )
    graph = erdos_renyi_graph(n, p, seed=graph_seed, directed=directed)
    engines, results = _assert_planes_agree(
        graph, make_program, use_combiner, workers, make_plan,
        str(tmp_path / "snap"), repro,
    )
    ref = results["reference"]
    if "crash" in fault_name:
        fast = results["fast"].stats
        assert fast.recovery_attempts == 1, repro
        assert fast.supersteps_replayed == 1, repro
    # The budget kept applying to the end of the run: under one byte
    # every sending lane of every superstep spills.
    sending = sum(
        1
        for entry in ref.stats.supersteps
        for sent in entry.sent_logical
        if sent
    )
    assert engines["snapshot"]._fabric.spilled_lanes >= sending, repro
    # The pool says exactly why it stepped aside, and ran until then.
    pool = engines["parallel"]
    assert pool.parallel_disabled_reason == pool_reason, repro
    if name == "mutate-mid-run":
        assert pool.parallel_supersteps >= 2, repro
        for result in results.values():
            assert 3 not in result.values and "late" in result.values


def test_poisoned_control_skipped_reindex_is_caught(
    tmp_path, monkeypatch
):
    """The harness must notice a dense plane that keeps its stale
    index across a mutating barrier."""
    graph = erdos_renyi_graph(30, 0.15, seed=4)
    args = (
        graph, MutateMidRun, False, 2, None,
        str(tmp_path / "snap"), "poisoned control",
    )
    _assert_planes_agree(*args)  # sound before the poison
    reindex = MessageFabric.reindex

    def skip_barrier_reindex(self, inbox=None):
        if inbox is not None:  # checkpoint restores still re-index
            reindex(self, inbox)

    monkeypatch.setattr(MessageFabric, "reindex", skip_barrier_reindex)
    with pytest.raises((AssertionError, BSPError)):
        _assert_planes_agree(*args)


# ---------------------------------------------------------------------
# Poisoned controls the engine paths cannot catch among themselves:
# each plants a counting bug in code every engine path shares, so only
# the oracle, which shares none of it, can tell.
# ---------------------------------------------------------------------


def _caught_by_the_oracle(check):
    """Run ``check``; it must fail on the fast path's comparison with
    the oracle (the engine paths, sharing the poison, agree)."""
    with pytest.raises(AssertionError) as info:
        check()
    assert str(info.value).startswith(
        ("values; fast;", "value bytes; fast;", "ledger; fast;",
         "stats; fast;", "bppa; fast;", "aggregate history; fast;")
    ), str(info.value)


def _clean_case(tmp_path, name="pagerank"):
    """The clean four-worker recipe of fuzz workload ``name``."""
    _, _graph, make_program, natural = next(
        w for w in FUZZ_WORKLOADS if w[0] == name
    )
    return lambda: _fuzz_case(
        name, make_program, natural, 4, "clean", None,
        str(tmp_path / "snap"),
    )


def test_poisoned_control_swapped_remote_counts_are_caught(
    tmp_path, monkeypatch
):
    """``superstep_profile`` freezes worker 0's remote sends under
    worker 1 and the reverse."""
    case = _clean_case(tmp_path)
    case()  # sound before the poison
    profile = loop_module.superstep_profile

    def swapped(workers, *args, **kwargs):
        entry = profile(workers, *args, **kwargs)
        remote = entry.sent_remote
        remote[0], remote[1] = remote[1], remote[0]
        return entry

    monkeypatch.setattr(loop_module, "superstep_profile", swapped)
    _caught_by_the_oracle(case)


def test_poisoned_control_bppa_message_count_is_caught(
    tmp_path, monkeypatch
):
    """The tracker records every vertex as having sent one message
    more than it did."""
    case = _clean_case(tmp_path)
    case()
    record = BppaTracker.record_vertex

    def one_too_many(self, vertex_id, sent, *args):
        record(self, vertex_id, sent + 1, *args)

    monkeypatch.setattr(BppaTracker, "record_vertex", one_too_many)
    _caught_by_the_oracle(case)


def test_poisoned_control_p1_skips_dict_keys_is_caught(
    tmp_path, monkeypatch
):
    """The runtime's P1 rule counts a dict's values but not its keys.
    BFS-tree's value is a dict, so its storage factor shrinks; the
    oracle counts P1 with its own copy of the rule and must notice."""
    case = _clean_case(tmp_path, "bfs-tree")
    case()
    atoms = program_module.state_atoms

    def keys_dropped(value):
        if type(value) is dict:
            return sum(map(atoms, value.values()))
        return atoms(value)

    monkeypatch.setattr(program_module, "state_atoms", keys_dropped)
    _caught_by_the_oracle(case)


def test_poisoned_control_mutation_order_is_caught(tmp_path, monkeypatch):
    """``apply_mutations`` applies a barrier's edge removals after its
    edge additions, so :class:`MutateMidRun`'s rewired edge (removed
    and added back in one barrier) disappears instead of moving last."""
    graph = erdos_renyi_graph(30, 0.15, seed=4)
    args = (
        graph, MutateMidRun, False, 2, None,
        str(tmp_path / "snap"), "poisoned control",
    )
    _assert_planes_agree(*args)
    apply = engine_module.apply_mutations

    def removals_last(engine):
        log = engine._ctx._mutations
        removals = list(log.remove_edges)
        if not (removals and log.add_edges):
            return apply(engine)
        log.remove_edges.clear()
        removed = apply(engine)
        states = engine._store.states
        for u, v in removals:
            if u in states:
                states[u].out_edges.pop(v, None)
            if engine._graph.directed and v in states:
                states[v].in_edges.pop(u, None)
        return removed

    monkeypatch.setattr(engine_module, "apply_mutations", removals_last)
    _caught_by_the_oracle(lambda: _assert_planes_agree(*args))


#: The modules the oracle must not need: the engine's mailboxes,
#: compute loops, state store, counters, superstep loop, compute
#: context and BPPA tracker.
ENGINE_MODULES = [
    "repro.bsp.fabric", "repro.bsp.kernels", "repro.bsp.state",
    "repro.bsp.worker", "repro.bsp.loop", "repro.bsp.context",
    "repro.metrics.bppa",
]

#: Ten PageRank rounds against the bare program surface (no
#: ``repro.bsp`` base class or aggregator to import).
BARE_PAGERANK = '''
class Sum:
    def initial(self):
        return 0.0

    def reduce(self, current, value):
        return current + value


class PageRank:
    name = "bare-pagerank"

    def initial_value(self, vertex_id, graph):
        return 0.0

    def aggregators(self):
        return {"l1": Sum()}

    def master_compute(self, master):
        pass

    def state_size(self, vertex):
        return 1

    def compute(self, v, msgs, ctx):
        n = ctx.num_vertices
        if ctx.superstep == 0:
            rank = 1.0 / n
        else:
            rank = 0.15 / n + 0.85 * sum(msgs)
        ctx.aggregate("l1", abs(rank - v.value))
        v.value = rank
        if ctx.superstep >= 10:
            v.vote_to_halt()
        elif v.out_edges:
            ctx.send_to_neighbors(v, rank / len(v.out_edges))
'''


def test_oracle_runs_with_the_engine_modules_blocked():
    """A fresh interpreter that cannot import the engine's modules
    imports ``tests/oracle.py`` and runs PageRank with it; the engine
    then matches that run in full."""
    script = textwrap.dedent(f"""
        import pickle, sys
        for name in {ENGINE_MODULES!r}:
            sys.modules[name] = None
        from tests.oracle import run_oracle
        from repro.graph import erdos_renyi_graph
        {textwrap.indent(BARE_PAGERANK, " " * 8).strip()}
        run = run_oracle(
            erdos_renyi_graph(40, 0.1, seed=3), PageRank(), num_workers=3
        )
        loaded = sorted(
            name for name in sys.modules
            if name.startswith(("repro.bsp", "repro.metrics"))
            and sys.modules[name] is not None
        )
        assert loaded == [], loaded
        sys.stdout.buffer.write(pickle.dumps(run))
    """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    run = pickle.loads(done.stdout)
    namespace = {}
    exec(BARE_PAGERANK, namespace)
    result = create_engine(
        erdos_renyi_graph(40, 0.1, seed=3), namespace["PageRank"](),
        num_workers=3,
    ).run()
    assert run.ledger and len(run.ledger) == 11
    assert_held_to_oracle(result, as_pregel_result(run, 3))


# ---------------------------------------------------------------------
# Wider inputs, drawn: trees, disconnected unions, string ids and
# float edge weights.  A failure shrinks to the generator recipe.
# ---------------------------------------------------------------------


def _relabelled(graph, label, into=None):
    """``graph``'s vertices and weighted edges, ids mapped through
    ``label``, added to ``into`` (default: a new graph)."""
    out = into if into is not None else Graph(directed=graph.directed)
    for v in graph.vertices():
        out.add_vertex(label(v))
    for v in graph.vertices():
        for u in graph.neighbors(v):
            if graph.directed or label(v) <= label(u):
                out.add_edge(label(v), label(u), weight=graph.weight(v, u))
    return out


def _drawn_graph(shape, n, p, seed, directed):
    """``(graph, generator recipe)`` for one drawn shape."""
    if shape == "tree":
        return random_tree(n, seed=seed), f"random_tree({n}, seed={seed})"
    if shape == "weighted":
        text = (
            f"random_weighted_graph({n}, {p}, seed={seed}, "
            f"connected=False, distinct_weights=False)"
        )
        return random_weighted_graph(
            n, p, seed=seed, connected=False, distinct_weights=False
        ), text
    first = erdos_renyi_graph(n, p, seed=seed, directed=directed)
    if shape == "strings":
        text = (
            f"erdos_renyi_graph({n}, {p}, seed={seed}, "
            f"directed={directed}) relabelled v -> f'v{{v}}'"
        )
        return _relabelled(first, lambda v: f"v{v}"), text
    second = erdos_renyi_graph(n, p, seed=seed + 1, directed=directed)
    text = (
        f"erdos_renyi_graph({n}, {p}, seed={seed}, directed={directed})"
        f" + erdos_renyi_graph({n}, {p}, seed={seed + 1}, "
        f"directed={directed}) shifted by {n}"
    )
    return _relabelled(second, lambda v: v + n, _relabelled(first, int)), text


@settings(deadline=None, max_examples=50)
@given(
    shape=st.sampled_from(["tree", "disjoint", "strings", "weighted"]),
    n=st.integers(2, 40),
    p=st.sampled_from([0.05, 0.1, 0.2]),
    seed=st.integers(0, 10**6),
    directed=st.booleans(),
    workload=st.sampled_from([w[0] for w in WORKLOADS]),
    use_combiner=st.booleans(),
    workers=st.sampled_from([1, 2, 3, 4, 7]),
)
def test_oracle_equals_dense_on_drawn_graphs(
    shape, n, p, seed, directed, workload, use_combiner, workers
):
    graph, text = _drawn_graph(shape, n, p, seed, directed)
    source = next(iter(graph.vertices()))
    make_program = {
        name: make for name, _graph, make, _natural in WORKLOADS
    }[workload]
    if workload == "sssp":
        make_program = lambda: SingleSourceShortestPaths(source)
    elif workload == "bfs-tree":
        make_program = lambda: BFSTree(source)
    natural = dict((w[0], w[3]) for w in WORKLOADS)[workload]
    recipe = (
        f"reproduce: {text}; workload={workload}, source={source!r}, "
        f"num_workers={workers}, "
        f"combiner={natural if use_combiner else 'none'}"
    )
    note(recipe)
    results = {
        backend: _run_case(
            graph, make_program, natural, {"use_combiner": use_combiner},
            backend, workers, None,
        )[1]
        for backend in ("reference", "fast", "fast+vectorized")
    }
    _assert_same_runs(results, recipe)


# ---------------------------------------------------------------------
# The re-hosted engines (GAS / block / async) under the same fault plans: a
# faulted run must be byte-identical to the clean run (crash recovery
# replays to the same answer; reliable delivery masks message faults),
# and a repeated faulted run must be byte-identical to itself.
# ---------------------------------------------------------------------

REHOSTED_ENGINES = [
    (
        "gas",
        lambda graph, kwargs: GASEngine(
            graph, HashMinGAS(), num_workers=4, **kwargs
        ).run(),
    ),
    (
        "block",
        lambda graph, kwargs: BlockEngine(
            graph, BlockHashMin(), num_blocks=4, **kwargs
        ).run(),
    ),
    (
        "async",
        lambda graph, kwargs: AsyncEngine(
            graph, HashMinGAS(), **kwargs
        ).run(),
    ),
]

REHOSTED_FAULT_MODES = [
    ("clean", None),
    ("crash", lambda: crash_plan(superstep=1, worker=0, seed=9)),
    ("msg-drop", lambda: drop_plan(rate=0.25, seed=9)),
]


def _value_bytes(values):
    return [
        (repr(k), pickle.dumps(v))
        for k, v in sorted(values.items(), key=lambda kv: repr(kv[0]))
    ]


@pytest.mark.parametrize(
    "fault_name,make_plan",
    REHOSTED_FAULT_MODES,
    ids=[f[0] for f in REHOSTED_FAULT_MODES],
)
@pytest.mark.parametrize(
    "kind,runner",
    REHOSTED_ENGINES,
    ids=[e[0] for e in REHOSTED_ENGINES],
)
def test_rehosted_fault_determinism(kind, runner, fault_name, make_plan):
    graph = erdos_renyi_graph(36, 0.12, seed=7)
    clean = runner(graph, {})
    # The workload must be long enough for the superstep-1 crash and
    # the message-fault draws to actually strike.
    assert clean.stats.num_supersteps >= 2, kind

    def faulted_kwargs():
        if make_plan is None:
            return {}
        return {"checkpoint_interval": 2, "fault_plan": make_plan()}

    got = runner(graph, faulted_kwargs())
    assert _value_bytes(got.values) == _value_bytes(clean.values), (
        f"{kind}/{fault_name}: faulted values diverged from clean run"
    )
    assert got.converged == clean.converged
    if fault_name == "crash":
        assert got.stats.recovery_attempts >= 1
        assert got.stats.checkpoints_written >= 1
        assert got.stats.supersteps_replayed >= 1
    if fault_name == "msg-drop":
        # The async engine runs on one logical worker: no network
        # traffic by design, so nothing to drop.
        expect_drops = kind != "async"
        assert (got.stats.retransmitted_messages > 0) == expect_drops
    # Committed per-superstep compute/traffic columns match the clean
    # run entry for entry (replay re-executes byte-identically); only
    # the fault-tolerance annotations (checkpoint_cost, executions)
    # may differ.
    def modeled_columns(entries):
        return [
            (
                e.superstep,
                e.work,
                e.sent_logical,
                e.received_logical,
                e.sent_network,
                e.received_network,
                e.sent_remote,
                e.active_vertices,
            )
            for e in entries
        ]

    assert modeled_columns(got.stats.supersteps) == modeled_columns(
        clean.stats.supersteps
    )
    # And the whole faulted run is repeatable bit for bit.
    again = runner(graph, faulted_kwargs())
    assert _value_bytes(again.values) == _value_bytes(got.values)
    assert pickle.dumps(again.stats) == pickle.dumps(got.stats)
