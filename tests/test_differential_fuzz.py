"""Differential fuzzing across the six execution paths.

For a deterministic matrix of seeded random graphs x workloads x
worker counts x fault plans, every case runs six times — on the
reference dict path, the dense fast path (vectorization pinned off),
the dense fast path with the vectorized kernel tier engaged, the
dense fast path against a memory-mapped :class:`CsrSnapshot` under a
1-byte message budget (every lane spills to disk and replays at
delivery), and the process-parallel backend on each of its two
transports (shared-memory columnar and pickle) — and all six runs
must be **byte-identical**: same values
(compared per entry through pickle, so identity sharing inside one
backend cannot mask or fake a difference), same ``RunStats`` ledgers,
same BPPA observation, same aggregate history.

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

One plane per run: every engine of every case must end on the plane
it was built on, and the second matrix below crosses what used to
leave the dense plane — barrier mutations (:class:`MutateMidRun`),
in-place edge edits (:class:`EdgeTouch`) and confined recovery, plus
the frontier transitions of :class:`FrontierScript` — with
every worker count, both combiner modes and every fault plan, so that
"dense == oracle" compares two planes there too.  A poisoned control
skips the barrier re-index and must be caught.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.algorithms.block_programs import BlockHashMin
from repro.algorithms.degree import DegreeCentrality
from repro.algorithms.gas_programs import HashMinGAS
from repro.bsp import (
    BlockEngine,
    GASEngine,
    SumAggregator,
    VertexProgram,
    create_engine,
    crash_plan,
    drop_plan,
)
from repro.bsp.combiner import resolve_combiner
from repro.bsp.fabric import MessageFabric
from repro.errors import BSPError
from repro.graph import erdos_renyi_graph
from repro.graph.snapshot import CsrSnapshot
from repro.trace import TraceRecorder, modeled_events
from tests.conftest import WORKLOADS, EdgeTouch, FrontierScript

WORKER_COUNTS = [1, 2, 4, 7]
_env = os.environ.get("REPRO_FUZZ_WORKERS")
if _env:
    WORKER_COUNTS = [int(w) for w in _env.split(",") if w.strip()]

#: ``(name, make_plan, confined)``.  "confined-crash" recomputes only
#: the crashed partition from the delivery log (checkpoint at 2, crash
#: at 3: superstep 2 is replayed with its sends bound to the null
#: pair) — on the same plane as everything else.
FAULT_MODES = [
    ("clean", None, False),
    ("crash", lambda: crash_plan(superstep=2, worker=1, seed=9), False),
    ("msg-drop", lambda: drop_plan(rate=0.25, seed=9), False),
    (
        "confined-crash",
        lambda: crash_plan(superstep=3, worker=1, seed=9),
        True,
    ),
]

#: "fast" pins ``use_vectorized=False`` so the per-vertex dense pass
#: stays covered on every recipe; "fast+vectorized" requires the
#: kernel tier for programs that register one (and runs auto-engage
#: for the rest, proving the silent fallback is harmless).
#: "snapshot" re-runs the dense fast path against a saved-and-mmap'd
#: ``CsrSnapshot`` of the same graph under ``memory_budget=1``, so
#: every buffered message lane spills to disk and replays at delivery
#: — covering the out-of-core storage *and* spill tiers in one path.
#: "parallel" pins the pickle transport explicitly (the fallback
#: tier); "parallel-shm" is the shared-memory columnar transport.
BACKENDS = [
    "reference", "fast", "fast+vectorized", "snapshot",
    "parallel", "parallel-shm",
]

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
              make_plan, confined=False, trace=None):
    kwargs = dict(
        num_workers=workers, track_bppa=True, seed=0, trace=trace,
        confined_recovery=confined,
    )
    if recipe["use_combiner"]:
        kwargs["combiner"] = resolve_combiner(natural)
    if make_plan is not None:
        kwargs["checkpoint_interval"] = 2
        kwargs["fault_plan"] = make_plan()
    if backend == "reference":
        engine = create_engine(
            graph, make_program(), backend="serial",
            use_fast_path=False, **kwargs,
        )
    elif backend == "fast":
        engine = create_engine(
            graph, make_program(), backend="serial",
            use_fast_path=True, use_vectorized=False, **kwargs,
        )
    elif backend == "fast+vectorized":
        program = make_program()
        engine = create_engine(
            graph, program, backend="serial", use_fast_path=True,
            use_vectorized=True if program.vectorizable() else None,
            **kwargs,
        )
    elif backend == "snapshot":
        engine = create_engine(
            graph, make_program(), backend="serial",
            use_fast_path=True, use_vectorized=False,
            memory_budget=1, **kwargs,
        )
    else:
        transport = (
            "columnar" if backend == "parallel-shm" else "pickle"
        )
        engine = create_engine(
            graph, make_program(), backend="parallel",
            transport=transport, **kwargs,
        )
    plane = engine.fast_path
    assert plane is (backend != "reference")
    result = engine.run()
    # One plane per run, whatever the program did or the run suffered.
    assert engine.fast_path is plane, backend
    return engine, result


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


def _assert_same_runs(results, repro):
    """Every backend's result equals the ``"reference"`` one — values,
    ``RunStats``, BPPA observation, aggregate history, canonical bytes
    — and every ledger balances (not just matches)."""
    ref = results["reference"]
    ref_canon = canonical(ref)
    for backend, got in results.items():
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
    "fault_name,make_plan,confined",
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
    make_plan, confined, tmp_path,
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
    snap_dir = str(tmp_path / "snap")
    CsrSnapshot.from_graph(graph).save(snap_dir)
    snap = CsrSnapshot.open(snap_dir)
    results = {}
    engines = {}
    for backend in BACKENDS:
        engines[backend], results[backend] = _run_case(
            snap if backend == "snapshot" else graph,
            make_program, natural, recipe, backend, workers,
            make_plan, confined,
        )
    ref = results["reference"]
    _assert_same_runs(results, repro)
    # Kernel-tier honesty: the pinned-off fast path must never leave
    # the dense pass, while the vectorized path and the pool ranks
    # (which run the same registered kernels) must actually use the
    # array kernels on clean runs of registered programs — and must
    # stay per-vertex under a fault injector (the exactness proofs do
    # not cover replayed supersteps).
    fast_tiers = {
        w.kernel_tier for w in results["fast"].stats.wall
    }
    assert "vectorized" not in fast_tiers, f"fast; {repro}"
    assert {
        w.kernel_tier for w in ref.stats.wall
    } == {"reference"}, repro
    if confined and ref.stats.num_supersteps > 3:
        # The crash struck, and recovery stayed confined: the
        # checkpointed superstep was replayed, none was discarded.
        assert ref.stats.recovery_attempts == 1, repro
        assert ref.stats.supersteps_replayed == 1, repro
    for backend in ("fast+vectorized", "parallel", "parallel-shm"):
        vec_tiers = {
            w.kernel_tier for w in results[backend].stats.wall
        }
        if make_plan is not None:
            assert "vectorized" not in vec_tiers, (
                f"{backend} ran array kernels under a fault plan; "
                f"{repro}"
            )
        elif wl_name in VECTORIZED_WORKLOADS:
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
    for backend in ("parallel", "parallel-shm"):
        par = engines[backend]
        assert par.parallel_disabled_reason is None, (
            f"{backend}; {repro}"
        )
        # >= because crash plans re-execute rolled-back supersteps on
        # the pool too.
        assert par.parallel_supersteps >= ref.stats.num_supersteps, (
            f"{backend}; {repro}"
        )
    # The shm run must actually have used the columnar tier (per-
    # column spill for non-conforming data — e.g. BFS-tree's dict
    # values — is fine; losing shared memory outright is not).
    shm = engines["parallel-shm"]
    assert shm.transport_disabled_reason is None, repro
    assert shm.transport_tier == "columnar", repro
    # And the pickle run must not have paid for a segment it was told
    # not to create.
    assert engines["parallel"].transport_tier == "pickle", repro


# ---------------------------------------------------------------------
# What used to leave the dense plane: barrier mutations, in-place edge
# edits, confined recovery.  Oracle / dense / spilling snapshot /
# process pool, every worker count, with and without a combiner, under
# every fault plan.
# ---------------------------------------------------------------------


class MutateMidRun(VertexProgram):
    """Every barrier mutation kind, with traffic in flight.

    Superstep 1: vertex 0 sends to vertex 3 and removes it (the
    message is dropped at delivery, its charges reversed), adds a
    vertex and edges to and from it, removes one of its own edges and
    requests an edge from a vertex that does not exist (ignored).
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
    # it with both pool transports and a min combiner as well.
    (
        "frontier-script",
        lambda: FrontierScript(
            seed=5, horizon=8, actor=1, wake_at=5, grow_at=2, edit_at=4
        ),
        "topology mutation re-indexed the dense plane",
    ),
]

PLANE_BACKENDS = ["reference", "fast", "snapshot", "parallel-shm"]

#: Checkpoints at 0, 2, 4 and a crash at 3, so the full rollback
#: restores the topology the superstep-1 barrier mutated, onto the
#: dense plane, and re-executes superstep 2; the confined plan replays
#: it on the crashed partition only.
_crash_at_3 = lambda: crash_plan(superstep=3, worker=1, seed=9)
PLANE_FAULT_MODES = [
    ("clean", None, False),
    ("crash", _crash_at_3, False),
    ("msg-drop", lambda: drop_plan(rate=0.25, seed=9), False),
    ("confined-crash", _crash_at_3, True),
]


def _assert_planes_agree(
    graph, make_program, use_combiner, workers, make_plan, confined,
    snap_dir, repro,
):
    """Run one corpus case on every backend of ``PLANE_BACKENDS`` and
    hold each to the oracle: values, ``RunStats`` (recovery accounting
    included), BPPA observation, aggregate history, canonical bytes
    and the modeled trace.  Returns ``(engines, results)``."""
    CsrSnapshot.from_graph(graph).save(snap_dir)
    snap = CsrSnapshot.open(snap_dir)
    recipe = {"use_combiner": use_combiner}
    engines, results, traces = {}, {}, {}
    for backend in PLANE_BACKENDS:
        traces[backend] = TraceRecorder()
        engines[backend], results[backend] = _run_case(
            snap if backend == "snapshot" else graph,
            make_program, "sum", recipe, backend, workers,
            make_plan, confined, traces[backend],
        )
    _assert_same_runs(results, repro)
    for backend in PLANE_BACKENDS[1:]:
        assert modeled_events(traces[backend]) == modeled_events(
            traces["reference"]
        ), f"{backend} modeled trace; {repro}"
        assert "reference" not in {
            w.kernel_tier for w in results[backend].stats.wall
        }, f"{backend} ran a superstep on the dict path; {repro}"
    return engines, results


@pytest.mark.parametrize(
    "fault_name,make_plan,confined",
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
    fault_name, make_plan, confined, tmp_path,
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
        confined, str(tmp_path / "snap"), repro,
    )
    ref = results["reference"]
    if "crash" in fault_name:
        assert ref.stats.recovery_attempts == 1, repro
        assert ref.stats.supersteps_replayed == 1, repro
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
    pool = engines["parallel-shm"]
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
        graph, MutateMidRun, False, 2, None, False,
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
# The re-hosted engines (GAS / block) under the same fault plans: a
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
        assert got.stats.retransmitted_messages > 0
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
