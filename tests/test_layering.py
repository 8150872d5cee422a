"""Guards for the decomposed runtime layering.

The engine refactor split the monolith into a superstep loop, a
message fabric, a state store, and compute kernels
(``docs/architecture.md``).  These tests keep the decomposition
honest: the composition root must stay thin, the shared layers must
behave the same for every host, and the canonical ordering / owner
helpers must be the single source of partition semantics.
"""

from __future__ import annotations

import ast
import collections
import inspect
import pathlib
import re

import pytest

from repro.bsp import CheckpointPolicy, CheckpointStore, SuperstepLoop
from repro.bsp import checkpoint as checkpoint_module
from repro.bsp import state as state_module
from repro.bsp.checkpoint import EngineSnapshot
from repro.bsp.fabric import MessageFabric
from repro.errors import CheckpointError, SuperstepLimitExceeded
from repro.graph.partition import (
    HashPartitioner,
    build_owner_map,
    canonical_sort_key,
    owner_for,
)
from repro.metrics.cost_model import BSPCostModel
from repro.metrics.stats import RunStats

ENGINE_PY = (
    pathlib.Path(__file__).resolve().parents[1]
    / "src"
    / "repro"
    / "bsp"
    / "engine.py"
)

#: The composition root's size budget.  The pre-refactor monolith was
#: 1,605 lines; the loop/fabric/state/kernel layers now carry the
#: mechanism, and the engine must stay a thin composition of them.
#: Raised from 800 when the vectorized kernel tier landed: the kernel
#: machinery itself lives in kernels.py, but the engine gained the
#: ``use_vectorized`` parameter (validation + a long docstring entry)
#: and per-superstep tier bookkeeping.  Raised from 850 for the
#: out-of-core work: the spill tier and snapshot support live in
#: fabric.py / snapshot.py, but the engine grew the ``memory_budget``
#: / ``spill_dir`` parameters (validation + docstring) and the
#: per-superstep peak-RSS sample.  Lowered from 900 to the size at
#: which the plane became a construction-time fact: the mid-run
#: hand-off block, the path-forcing rules and six pass-through
#: forwarders are gone (863 lines before).
ENGINE_LINE_BUDGET = 822


def test_engine_module_stays_thin():
    lines = ENGINE_PY.read_text().count("\n")
    assert lines <= ENGINE_LINE_BUDGET, (
        f"src/repro/bsp/engine.py has grown to {lines} lines "
        f"(budget {ENGINE_LINE_BUDGET}).  New mechanism belongs in "
        "the runtime layers (loop.py / fabric.py / state.py / "
        "kernels.py), not in the composition root."
    )


BSP_ROOT = ENGINE_PY.parent

#: The dense compute plane is written once (``kernels.py`` loops and
#: kernels over a ``fabric.DenseLane``) and hosted twice (the serial
#: engine, a pool rank in ``parallel.py``); its data plane is written
#: once too — a detached lane is a ``fabric.LaneRecord`` for the rank
#: reply, the coordinator merge and the spill tier, and
#: ``shm_transport.py`` has one effect-set codec whether or not there
#: is a segment.  The budgets are the sizes at which that became
#: true; a fork of the loop, the send paths, a kernel, the lane
#: gather/write-back or the wire format would have to grow them.
#: (``parallel.py`` and ``fabric.py`` have since shrunk further: see
#: ``ONE_PLANE_LINE_BUDGETS`` below.)
KERNELS_LINE_BUDGET = 979
PARALLEL_LINE_BUDGET = 1441
SHM_TRANSPORT_LINE_BUDGET = 472
FABRIC_LINE_BUDGET = 1013


class TestDensePlaneIsNotForked:
    """Source audit pinning the un-forked state of the dense plane."""

    @pytest.mark.parametrize(
        "module,budget",
        [
            ("kernels.py", KERNELS_LINE_BUDGET),
            ("parallel.py", PARALLEL_LINE_BUDGET),
            ("shm_transport.py", SHM_TRANSPORT_LINE_BUDGET),
            ("fabric.py", FABRIC_LINE_BUDGET),
        ],
    )
    def test_line_budgets(self, module, budget):
        lines = (BSP_ROOT / module).read_text().count("\n")
        assert lines <= budget, (
            f"src/repro/bsp/{module} has grown to {lines} lines "
            f"(budget {budget}): a second copy of the compute loop, "
            "the send paths, a kernel, the lane gather/write-back or "
            "the wire format does not belong here."
        )

    def test_accumulator_slots_move_in_one_module(self):
        # Gather-and-clear and write-back of accumulator slots are
        # DenseLane.detach/adopt; the rank step, the coordinator merge
        # and the codec only pass LaneRecords along.
        slot_write = re.compile(r"\b(?:acc|cnt)\w*\[[^\]]*\]\s*=[^=]")
        for module in ("parallel.py", "shm_transport.py"):
            source = (BSP_ROOT / module).read_text()
            assert not slot_write.search(source), module
            assert '"okc"' not in source, module
        slot_clear = re.compile(r"\bacc\w*\[\w+\]\s*=\s*None")
        clearing = {
            path.name
            for path in BSP_ROOT.glob("*.py")
            if slot_clear.search(path.read_text())
        }
        assert clearing == {"fabric.py"}
        fabric = (BSP_ROOT / "fabric.py").read_text()
        assert len(re.findall(r"def detach\(", fabric)) == 1
        assert len(re.findall(r"def adopt\(", fabric)) == 1

    def test_vertex_compute_is_called_from_two_loops(self):
        # The reference loop and the dense lane loop; both hosts of
        # the dense plane call the latter.
        call = re.compile(r"\bcompute\(state, messages, ctx\)")
        assert len(call.findall((BSP_ROOT / "kernels.py").read_text())) == 2
        assert not call.search((BSP_ROOT / "parallel.py").read_text())

    def test_dense_sends_raise_from_one_module(self):
        raising = {
            path.name
            for path in BSP_ROOT.glob("*.py")
            if "raise MessageToUnknownVertexError" in path.read_text()
        }
        # fabric.py: the reference and the lane send paths; block.py:
        # the block engine's own mailbox.
        assert raising == {"fabric.py", "block.py"}

    def test_partition_runtime_owns_no_send_path(self):
        defined = re.findall(
            r"def (_?(?:enqueue|fanout)\w*)",
            (BSP_ROOT / "parallel.py").read_text(),
        )
        assert defined == []


SRC_ROOT = ENGINE_PY.parents[1]


def _src_files_matching(pattern: str) -> set:
    regex = re.compile(pattern)
    return {
        path.relative_to(SRC_ROOT).as_posix()
        for path in SRC_ROOT.rglob("*.py")
        if regex.search(path.read_text())
    }


#: The sizes at which the execution plane became a construction-time
#: fact: the hand-off block, the path-forcing rules, the
#: ``disengage``/``reset``/``_clear_dense`` trio, ``fast_active`` in
#: the checkpoint and the fingerprint, and the pool's two "onto the
#: reference path" branches are gone.  These are the live budgets of
#: the five modules (the parametrized budget tests above keep the
#: ceilings their ids were minted with); a second way to leave the
#: dense plane would have to grow them.
ONE_PLANE_LINE_BUDGETS = {
    "engine.py": ENGINE_LINE_BUDGET,
    "fabric.py": 1009,
    "parallel.py": 1440,
    "checkpoint.py": 398,
    "durability.py": 639,
}


class TestOnePlanePerRun:
    """Source audit: the execution plane is a construction-time fact,
    so nothing in ``src/`` can switch it mid-run."""

    @pytest.mark.parametrize("module", sorted(ONE_PLANE_LINE_BUDGETS))
    def test_sizes_after_the_path_switch_was_deleted(self, module):
        lines = (BSP_ROOT / module).read_text().count("\n")
        assert lines <= ONE_PLANE_LINE_BUDGETS[module], (module, lines)

    def test_fast_active_is_assigned_in_two_places(self):
        assignment = re.compile(r"\bfast_active\s*=[^=]")
        assert _src_files_matching(assignment.pattern) == {
            "bsp/fabric.py"
        }
        fabric = (BSP_ROOT / "fabric.py").read_text()
        owners = []
        for match in assignment.finditer(fabric):
            defs = re.findall(
                r"^    def (\w+)\(", fabric[: match.start()], re.M
            )
            owners.append(defs[-1])
        assert owners == ["__init__", "engage_fast_path"]

    def test_the_path_switch_is_gone(self):
        for name in (
            "disengage_fast_path",
            "reset_execution_path",
            "_clear_dense",
            "_compute_pass_reference",
            "_confined_replay",
            "_apply_mutations",
            "_fast_active",
            "_replaying",
        ):
            assert _src_files_matching(rf"\b{name}\b") == set(), name
        assert _src_files_matching(r"\.replaying\b") == set()
        checkpoint = (BSP_ROOT / "checkpoint.py").read_text()
        assert "fast_active" not in checkpoint
        assert "use_fast_path" not in (
            BSP_ROOT / "durability.py"
        ).read_text().split('"""', 2)[2]

    def test_oracle_send_paths_stay_inside_the_fabric(self):
        assert _src_files_matching(
            r"\b(?:enqueue|fanout)_reference\b"
        ) == {"bsp/fabric.py"}

    def test_confined_replay_has_one_implementation(self):
        assert _src_files_matching(r"def confined_replay\(") == {
            "bsp/state.py"
        }
        state = (BSP_ROOT / "state.py").read_text()
        assert state.count("def confined_replay(") == 1
        assert "fast_active" not in state

    def test_only_the_pool_hands_off(self):
        # ``class Handoff(TraceEvent)`` is the definition; the only
        # construction site is the parallel backend's pool shutdown.
        assert _src_files_matching(r"(?<!class )\bHandoff\(") == {
            "bsp/parallel.py"
        }


#: A checkpoint is columns over one verified topology baseline: one
#: layout in ``checkpoint.py``, one record format in
#: ``durability.py``.  The budgets are the sizes at which that became
#: true (361 and 613 lines before); a second layout kept beside this
#: one would have to grow them.
CHECKPOINT_LINE_BUDGET = 400
DURABILITY_LINE_BUDGET = 640


class TestCheckpointIsColumnsOverOneBaseline:
    @pytest.mark.parametrize(
        "module,budget",
        [
            ("checkpoint.py", CHECKPOINT_LINE_BUDGET),
            ("durability.py", DURABILITY_LINE_BUDGET),
        ],
    )
    def test_line_budgets(self, module, budget):
        lines = (BSP_ROOT / module).read_text().count("\n")
        assert lines <= budget, (
            f"src/repro/bsp/{module} has grown to {lines} lines "
            f"(budget {budget})."
        )

    def test_per_vertex_snapshot_objects_are_gone(self):
        holders = [
            path.relative_to(SRC_ROOT).as_posix()
            for path in sorted(SRC_ROOT.rglob("*.py"))
            if "VertexSnapshot" in path.read_text()
        ]
        assert holders == []

    def test_sharing_the_baseline_copies_no_edge_map(self):
        # Everything take_checkpoint runs while the baseline holds:
        # no dict copy, no per-vertex loop over an edge map.
        sharing_branch = [
            checkpoint_module.take_checkpoint,
            checkpoint_module.TopologySnapshot.holds,
            checkpoint_module._live_topology,
        ]
        for function in sharing_branch:
            source = inspect.getsource(function)
            assert "dict(" not in source, function.__qualname__
            assert "_edges.items()" not in source, function.__qualname__
        # The engine reaches it through one name (the benchmark's
        # span attaches there).
        engine_source = ENGINE_PY.read_text()
        assert engine_source.count("take_checkpoint(self, ") == 1


REPO_ROOT = SRC_ROOT.parents[1]


class TestOneBenchmark:
    """``bench/`` is the only harness that reports seconds;
    ``benchmarks/`` holds pytest-benchmark suites that assert the
    paper's claims on the modeled cost.  The script drivers and their
    committed ``BENCH_*.json`` artifacts are gone and stay gone."""

    def test_no_committed_bench_artifacts(self):
        assert sorted(REPO_ROOT.glob("BENCH_*.json")) == []

    def test_benchmarks_holds_pytest_benchmark_suites_only(self):
        for path in sorted((REPO_ROOT / "benchmarks").glob("*.py")):
            if path.name in ("__init__.py", "conftest.py"):
                continue
            source = path.read_text()
            assert any(
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("test_")
                and "benchmark" in [a.arg for a in node.args.args]
                for node in ast.walk(ast.parse(source))
            ), f"{path.name} takes the benchmark fixture nowhere"
            for marker in ("argparse", "perf_counter"):
                assert marker not in source, (path.name, marker)

    def test_every_mentioned_benchmark_path_exists(self):
        mention = re.compile(r"benchmarks/\w+\.py|BENCH_\w+\.json")
        readers = [
            REPO_ROOT / "README.md",
            REPO_ROOT / "DESIGN.md",
            REPO_ROOT / "EXPERIMENTS.md",
            REPO_ROOT / ".github" / "workflows" / "ci.yml",
            REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
            *sorted((REPO_ROOT / "docs").glob("*.md")),
            *sorted(SRC_ROOT.rglob("*.py")),
        ]
        dangling = {
            (reader.relative_to(REPO_ROOT).as_posix(), path)
            for reader in readers
            for path in mention.findall(reader.read_text())
            if not (REPO_ROOT / path).exists()
        }
        assert dangling == set()


def _attribute_writers(module: str, attribute: str) -> list:
    """``Class.function`` (or ``function``) of every assignment to
    ``<anything>.<attribute>`` in ``src/repro/bsp/<module>``, in
    source order, one entry per function."""
    writers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Assign) and any(
                isinstance(leaf, ast.Attribute) and leaf.attr == attribute
                for target in child.targets
                for leaf in ast.walk(target)
            ):
                if ".".join(scope) not in writers:
                    writers.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse((BSP_ROOT / module).read_text()), [])
    return writers


class TestFrontierIsResetWhereHaltedIsWritten:
    """``DenseLane.awake`` caches which vertices the last per-vertex
    pass left un-halted, so every write of ``halted`` from outside
    that pass must sit next to a reset.  Both sides are enumerated: a
    new outside writer has to be registered here, beside its reset."""

    #: ``(module, function)`` of every ``.halted = ...`` in the
    #: modules that hold vertex state at run time, with the reset
    #: that covers it.
    HALTED_WRITERS = {
        "kernels.py": [
            # the oracle's loop: no lanes
            "reference_compute_pass",
            # the pass that computes ``awake``
            "dense_compute_pass",
            # sets ``awake = []`` itself (lane_compute_pass resets
            # it before every whole-lane kernel; PageRank's final
            # phase halts through ``setattr`` under that reset)
            "DegreeKernel.run",
        ],
        "state.py": [
            # ends in ``fabric.restore_inbox``
            "confined_replay",
        ],
        "checkpoint.py": [
            # full restore: ``fabric.reindex`` builds fresh lanes;
            # confined restore: ``confined_replay`` above
            "_restored_states",
            "restore_partition",
        ],
        "parallel.py": [
            # a fresh lane
            "_PartitionRuntime.__init__",
            # both reset the lane they wrote
            "_PartitionRuntime.reload",
            "ParallelPregelEngine._apply_parallel_results",
        ],
    }

    AWAKE_WRITERS = {
        "fabric.py": ["DenseLane.__init__", "MessageFabric.restore_inbox"],
        "kernels.py": [
            "dense_compute_pass",
            "lane_compute_pass",
            "MinPropagationKernel.run",
            "DegreeKernel.run",
        ],
        "parallel.py": [
            "_PartitionRuntime.reload",
            "ParallelPregelEngine._apply_parallel_results",
        ],
    }

    @pytest.mark.parametrize("module", sorted(HALTED_WRITERS))
    def test_halted_writers_are_enumerated(self, module):
        assert _attribute_writers(module, "halted") == (
            self.HALTED_WRITERS[module]
        )

    def test_awake_is_assigned_where_listed(self):
        assert _src_files_matching(r"\.awake\b[^=\n]*=[^=]") == {
            f"bsp/{module}" for module in self.AWAKE_WRITERS
        }
        for module, writers in self.AWAKE_WRITERS.items():
            assert _attribute_writers(module, "awake") == writers

    def test_every_outside_writer_resets_the_frontier(self):
        # A rank and the coordinator reset the lane they wrote ...
        assert self.AWAKE_WRITERS["parallel.py"] == (
            self.HALTED_WRITERS["parallel.py"][1:]
        )
        # ... a confined replay ends in restore_inbox, which resets
        # every lane, and a full restore re-indexes into fresh ones.
        assert "lane.awake = None" in inspect.getsource(
            MessageFabric.restore_inbox
        )
        assert "fabric.restore_inbox(" in inspect.getsource(
            state_module.confined_replay
        )
        assert "_fabric.reindex(" in inspect.getsource(
            checkpoint_module.restore_checkpoint
        )

    def test_the_range_scan_exists_once(self):
        kernels = (BSP_ROOT / "kernels.py").read_text()
        assert kernels.count(
            "range(lane.start - base, lane.stop - base)"
        ) == 1
        # The gather kernels walk the arrivals, not a compressed
        # slice of the lane; PageRank's whole-lane gather still slices.
        assert "compress(" not in kernels
        assert kernels.count("in_slots[lo:hi]") == 1


#: Intentional uses of the *builtin* ``key=repr`` over vertex ids —
#: sites where only a deterministic total order matters, not numeric
#: order (``repr`` gives ``"10" < "2"``).  Each entry is
#: path-relative-to-``src/repro`` → expected occurrence count.
#: Changing any of these orderings would silently change pinned
#: seeded corpora or baseline traversal orders, so they stay on
#: ``repr`` deliberately; anything *new* must justify itself here or
#: use ``canonical_sort_key`` / ``repr_key`` instead (the ordering
#: bugs fixed in the partitioner suite were all of this shape).
BARE_KEY_REPR_WHITELIST = {
    # Seeded generator: child order is arbitrary but frozen — the
    # corpus shapes depend on it.
    "graph/trees.py": 1,
    # Sequential baselines: deterministic traversal order, compared
    # against their own goldens (never against slot order).
    "sequential/simulation.py": 1,
    "sequential/triangles.py": 1,
    "sequential/coloring.py": 2,
    "sequential/clustering.py": 1,
    # Deterministic-but-arbitrary tie-breaks (root pick, boundary
    # iteration, async scheduling order).
    "algorithms/block_programs.py": 1,
    "algorithms/bicc.py": 1,
    "bsp/gas.py": 1,
    "bsp/async_engine.py": 1,
}

#: Intentional *bare* ``sorted()`` / ``.sort()`` over vertex-id
#: collections (raises ``TypeError`` on mixed-type ids; fine where
#: the API documents homogeneous ids).
BARE_VERTEX_SORT_WHITELIST = {
    # ``sorted_neighbors``: documented "sorted by id" Euler-tour
    # helpers; the paper's construction assumes homogeneous ids.
    "graph/graph.py": 1,
    "graph/snapshot.py": 1,
    "bsp/vertex.py": 1,
    # Sorts the *repr strings* of vertex ids — always comparable.
    "bsp/durability.py": 1,
    # Kruskal baseline sorting (weight, canonical-key) tuples.
    "sequential/matching.py": 1,
}

#: ``key=repr`` not followed by an identifier char (so ``repr_key``
#: does not match) in argument position (so docstring mentions like
#: ````key=repr```` do not match).
_BARE_KEY_REPR = re.compile(r"key=repr[\s,)]")

#: ``sorted(``/``.sort()`` applied to something vertex-shaped with no
#: ``key=`` on the line.
_BARE_VERTEX_SORT = re.compile(
    r"(sorted\([^)]*(?:vertices\(\)|\bneighbors\(|out_edges|_adj\[)"
    r"|\.sort\(\))"
)


def _scan_ordering_sites(pattern: re.Pattern) -> dict:
    """Occurrences of ``pattern`` per source file, skipping comment
    and doctest lines."""
    found: collections.Counter = collections.Counter()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped.startswith("#") or ">>>" in stripped:
                continue
            if "key=" in stripped and pattern is _BARE_VERTEX_SORT:
                continue
            if pattern.search(stripped):
                found[rel] += 1
    return dict(found)


class TestOrderingAudit:
    """Every ordering site over vertex ids must either use the
    canonical helpers or be explicitly whitelisted as intentional."""

    def test_bare_key_repr_sites_are_whitelisted(self):
        found = _scan_ordering_sites(_BARE_KEY_REPR)
        assert found == BARE_KEY_REPR_WHITELIST, (
            "bare key=repr sites changed.  repr orders numbers "
            "lexicographically ('10' < '2'); use canonical_sort_key "
            "or repr_key unless only determinism matters — and then "
            "whitelist the site with a justification."
        )

    def test_bare_vertex_sorts_are_whitelisted(self):
        found = _scan_ordering_sites(_BARE_VERTEX_SORT)
        assert found == BARE_VERTEX_SORT_WHITELIST, (
            "bare sorted()/.sort() over vertex ids changed.  Mixed-"
            "type ids make bare sorts raise TypeError; pass "
            "key=canonical_sort_key unless the API documents "
            "homogeneous ids — and then whitelist the site."
        )


class TestCanonicalSortKey:
    def test_numbers_order_by_value_not_repr(self):
        # key=repr gives "10" < "2"; the canonical key must not.
        assert sorted([10, 2, 33, 1], key=canonical_sort_key) == [
            1,
            2,
            10,
            33,
        ]

    def test_mixed_types_group_by_rank(self):
        ordered = sorted(
            ["b", 10, None, 2, "a", (2, 1), (1, 9)],
            key=canonical_sort_key,
        )
        assert ordered == [None, 2, 10, "a", "b", (1, 9), (2, 1)]

    def test_bools_rank_with_numbers(self):
        assert sorted([1, False, 2, True], key=canonical_sort_key)[
            0
        ] is False

    def test_frozensets_order_by_sorted_elements(self):
        a = frozenset({3, 1})
        b = frozenset({2, 1})
        assert sorted([a, b], key=canonical_sort_key) == [b, a]

    def test_unknown_types_are_still_totally_ordered(self):
        class Odd:
            def __repr__(self):
                return "odd()"

        key = canonical_sort_key(Odd())
        assert key[0] == 9
        assert sorted(
            [Odd(), Odd()], key=canonical_sort_key
        )  # comparable


class TestOwnerHelpers:
    def test_owner_for_matches_modular_assignment(self):
        part = HashPartitioner(7)
        for v in range(40):
            assert owner_for(v, part, 7) == part(v) % 7

    def test_build_owner_map_covers_all_vertices(self):
        part = HashPartitioner(4)
        vertices = list(range(25))
        owner = build_owner_map(vertices, part, 4)
        assert set(owner) == set(vertices)
        assert all(0 <= o < 4 for o in owner.values())
        assert owner == {
            v: owner_for(v, part, 4) for v in vertices
        }


class TestCheckpointPolicy:
    def test_rejects_bad_interval(self):
        with pytest.raises(CheckpointError):
            CheckpointPolicy(0, None, CheckpointStore())

    def test_disabled_without_interval_or_crashes(self):
        policy = CheckpointPolicy(None, None, CheckpointStore())
        assert not policy.enabled
        assert not policy.due(0)

    def test_baseline_then_interval(self):
        store = CheckpointStore()
        policy = CheckpointPolicy(2, None, store)
        assert policy.enabled
        assert policy.due(0)  # the superstep-0 baseline
        store.save(EngineSnapshot(superstep=0, payload={"x": 1}))
        assert not policy.due(1)
        assert policy.due(2)


class _CountingHost:
    """Minimal SuperstepLoop host: runs ``target`` supersteps."""

    def __init__(self, target):
        self.target = target
        self.executed = 0

    def _execute_superstep(self, superstep, stats):
        self.executed += 1
        return self.executed >= self.target

    def _write_checkpoint(self, superstep, stats):
        raise AssertionError("no policy configured")


def _loop(max_supersteps, on_limit):
    return SuperstepLoop(
        max_supersteps=max_supersteps,
        program_name="layering-test",
        num_workers=1,
        cost_model=BSPCostModel(),
        on_limit=on_limit,
    )


class TestSuperstepLoop:
    def test_runs_to_completion(self):
        host = _CountingHost(target=3)
        stats = RunStats(num_workers=1)
        assert _loop(10, "raise").run(host, stats) is True
        assert host.executed == 3

    def test_on_limit_raise(self):
        host = _CountingHost(target=100)
        stats = RunStats(num_workers=1)
        with pytest.raises(SuperstepLimitExceeded):
            _loop(5, "raise").run(host, stats)

    def test_on_limit_stop_returns_false(self):
        host = _CountingHost(target=100)
        stats = RunStats(num_workers=1)
        assert _loop(5, "stop").run(host, stats) is False
        assert host.executed == 5

    def test_rejects_bad_recovery_budget(self):
        # 0 is legal (the first crash exhausts recovery); negatives
        # are configuration errors.
        with pytest.raises(ValueError):
            SuperstepLoop(
                max_supersteps=1,
                program_name="x",
                num_workers=1,
                cost_model=BSPCostModel(),
                max_recovery_attempts=-1,
            )
