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

from repro.bsp import (
    CheckpointPolicy,
    CheckpointStore,
    PregelEngine,
    SuperstepLoop,
)
from repro.bsp import checkpoint as checkpoint_module
from repro.bsp.checkpoint import EngineSnapshot
from repro.bsp.fabric import DenseLane, MessageFabric
from repro.errors import SuperstepLimitExceeded
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
#: forwarders are gone (863 lines before).  Lowered from 822 when the
#: superstep lifecycle, checkpoint accounting and rollback discard
#: moved into the loop.  Lowered from 709 when the dict-path oracle
#: left ``src/`` for tests/oracle.py, and from 665 when ownership
#: became one-way (the aggregate reductions moved into
#: ``aggregator.AggregateSink``, the send forwards went), and from 638
#: when ``use_vectorized`` and ``max_recovery_attempts`` stopped being
#: keywords, and from 614 when a checkpoint restore began to swap the
#: store's and the fabric's dicts itself (the engine's ``_states`` and
#: ``_owner`` setters went), and from 606 when confined recovery went
#: (a crash has one recovery path, full rollback).
ENGINE_LINE_BUDGET = 575


def test_engine_module_stays_thin():
    lines = ENGINE_PY.read_text().count("\n")
    assert lines <= ENGINE_LINE_BUDGET, (
        f"src/repro/bsp/engine.py has grown to {lines} lines "
        f"(budget {ENGINE_LINE_BUDGET}).  New mechanism belongs in "
        "the runtime layers (loop.py / fabric.py / state.py / "
        "kernels.py), not in the composition root."
    )


PARTITION_PY = ENGINE_PY.parents[1] / "graph" / "partition.py"

#: ``graph/partition.py`` holds the partitioners that have a caller
#: (``PARTITIONER_FAMILIES``).  Set from 1037 when label propagation
#: and the multilevel partitioner, which nothing called and which lost
#: to hash on measured wall time (``docs/partitioning.md``), left with
#: the two metric wrappers and the hub-split knobs.
PARTITION_LINE_BUDGET = 719


def test_partition_module_stays_small():
    lines = PARTITION_PY.read_text().count("\n")
    assert lines <= PARTITION_LINE_BUDGET, (
        f"src/repro/graph/partition.py has grown to {lines} lines "
        f"(budget {PARTITION_LINE_BUDGET}).  A new partitioner earns "
        "its place by a caller and a wall-time win over hash "
        "(docs/partitioning.md)."
    )


BSP_ROOT = ENGINE_PY.parent

#: One line budget for the whole ``repro.bsp`` package.  A deletion in
#: one module may pay for code in another; a simplicity PR lowers the
#: number.  The large modules keep the ceilings below as well.
#: Lowered from 8009 when the durable fingerprint stopped walking the
#: graph, from 8003 when the shared-memory segment left and the rank
#: pipe became the one transport, from 7518 when three test-only
#: options went and the GAS, block and async engines got one host, and
#: from 7424 when every lane's mail became a record and one merge,
#: and from 7297 when that merge's layout became the same merge run
#: over payload indices, and from 7294 when the checkpoint baseline
#: stopped copying the frozen topology's rows, and from 7292 when a
#: fault plan stopped choosing execution paths (one network-fault
#: draw at commit for every engine), and from 7234 when confined
#: recovery, its per-superstep message logs and its partial restore
#: went, and from 7019 when the fabric's dense index became the one
#: record of the partition (the owner map, the workers' id lists and
#: ranges and their checkpoint columns went).
REPRO_BSP_LINE_BUDGET = 6978

#: The dense compute plane is written once (``kernels.py`` loops and
#: kernels over a ``fabric.DenseLane``) and hosted twice (the serial
#: engine, a pool rank in ``parallel.py``); its data plane is written
#: once too — a detached lane is a ``fabric.LaneRecord`` for the rank
#: reply, the coordinator merge and the spill tier, and
#: ``columns.py`` types a column one way for all of them.  The budgets
#: are the sizes at which that became true; a fork of the send paths,
#: the lane gather/write-back or the wire format would have to grow
#: them.  Kernels and fabric were
#: lowered (from 989 and 1013) when the dict-path oracle's compute
#: loop, mailboxes and delivery left for tests/oracle.py; kernels and
#: parallel (from 944 and 1133) when the adjacency became columns and
#: the scatter plan a count-then-place compile.  Kernels fell (from
#: 933) and fabric rose (from 878) by more when a planned scatter
#: began to emit its lane record and the fabric to deliver it through
#: a layout compiled with the plans: the slot-writing scatters left
#: kernels.py, the layout compile and its delivery joined fabric.py.
#: All three fell (from 820, 1128 and 961) when the accumulator slots,
#: their scan, the planned-only layout and the rank's private merge
#: gave way to one mail record per lane and one merge; parallel and
#: fabric again (from 1027 and 901) when the merge's layout became
#: the merge itself run over payload indices and a rank's merge
#: stopped keeping ledger tallies.  The budget is part of each case's
#: name, so a file that shrinks leaves its budget where it stands:
#: fabric.py fell to 875 lines when the fabric's per-destination
#: fault draws went, and kernels and parallel by a line or two with
#: the tier's fault-plan decline and the pool's fault-plan delivery
#: trigger; fabric.py to 841 and parallel.py to 1022 when confined
#: recovery's null send pair, delivery log and delivery trigger went.
KERNELS_LINE_BUDGET = 797
PARALLEL_LINE_BUDGET = 1025
COLUMNS_LINE_BUDGET = 55
FABRIC_LINE_BUDGET = 900


def _bsp_lines() -> dict:
    return {
        path.name: path.read_text().count("\n")
        for path in sorted(BSP_ROOT.glob("*.py"))
    }


class TestDensePlaneIsNotForked:
    """Source audit pinning the un-forked state of the dense plane."""

    @pytest.mark.parametrize(
        "module,budget",
        [
            ("kernels.py", KERNELS_LINE_BUDGET),
            ("parallel.py", PARALLEL_LINE_BUDGET),
            ("columns.py", COLUMNS_LINE_BUDGET),
            ("fabric.py", FABRIC_LINE_BUDGET),
        ],
    )
    def test_line_budgets(self, module, budget):
        lines = (BSP_ROOT / module).read_text().count("\n")
        assert lines <= budget, (
            f"src/repro/bsp/{module} has grown to {lines} lines "
            f"(budget {budget}): a second copy of the send paths, "
            "the lane gather/write-back or the wire format does not "
            "belong here."
        )

    def test_one_mail_representation(self):
        # A lane's mail is its O(touched) dict until the pass detaches
        # it into a LaneRecord; no lane keeps n-length accumulator
        # slots to scan or adopt records back into.
        for name in ("acc", "cnt", "touched"):
            assert name not in DenseLane.__slots__, name
        for name in ("slots", "adopt"):
            assert not hasattr(DenseLane, name), name
        # One merge fills an inbox from records (MailMerge.fill), a
        # checkpoint's columns included; besides it only drain writes
        # the columns' contents.
        tree = ast.parse((BSP_ROOT / "fabric.py").read_text())
        write = re.compile(
            r"\bin_(?:start|count)\[[^\]]*\]\s*=[^=]"
            r"|repeat\([\w.]*\bin_(?:start|count)\)"
        )
        writers = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and write.search(ast.unparse(node))
        }
        assert writers == {"fill", "drain"}

    def test_vertex_compute_is_called_from_two_loops(self):
        # The dense lane loop, which both hosts of the dense plane
        # call, and the test-side oracle's, which shares no code with
        # it.
        call = re.compile(r"\bcompute\((?:state|vertex), messages, ctx\)")
        assert len(call.findall((BSP_ROOT / "kernels.py").read_text())) == 1
        assert not call.search((BSP_ROOT / "parallel.py").read_text())
        oracle = (REPO_ROOT / "tests" / "oracle.py").read_text()
        assert len(call.findall(oracle)) == 1

    def test_dense_sends_raise_from_one_module(self):
        raising = {
            path.name
            for path in BSP_ROOT.glob("*.py")
            if "raise MessageToUnknownVertexError" in path.read_text()
        }
        # fabric.py: the lane send paths; block.py: the block
        # engine's own mailbox.
        assert raising == {"fabric.py", "block.py"}

    def test_no_module_maps_shared_memory(self):
        # Columns cross the rank boundary in the pipe message: no
        # named kernel object outlives a process, so none needs
        # reaping.
        mapping = re.compile(
            r"^\s*(?:from|import)\s+multiprocessing\b.*"
            r"\b(?:shared_memory|resource_tracker)\b",
            re.MULTILINE,
        )
        importing = {
            path.name
            for path in BSP_ROOT.glob("*.py")
            if mapping.search(path.read_text())
        }
        assert importing == set()

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


class TestOnePlanePerRun:
    """Source audit: the execution plane is a construction-time fact,
    so nothing in ``src/`` can switch it mid-run."""

    # The modules that carried a ceiling of their own; their ids
    # are keyed by name only and check the one package budget.
    @pytest.mark.parametrize(
        "module",
        [
            "checkpoint.py", "durability.py", "engine.py", "fabric.py",
            "kernels.py", "parallel.py", "columns.py",
        ],
    )
    def test_sizes_after_the_path_switch_was_deleted(self, module):
        lines = _bsp_lines()
        total = sum(lines.values())
        assert total <= REPRO_BSP_LINE_BUDGET, (
            f"repro.bsp has grown to {total} lines (budget "
            f"{REPRO_BSP_LINE_BUDGET}; {module} holds {lines[module]}): "
            "a second copy of the compute loop, the send paths, a "
            "kernel, the lane gather/write-back, the wire format or a "
            "checkpoint layout does not belong here."
        )

    def test_the_path_switch_is_gone(self):
        # The dict plane left ``src/``: the oracle is test code
        # (tests/oracle.py), and nothing here can pick a plane.
        for name in (
            "disengage_fast_path",
            "reset_execution_path",
            "_clear_dense",
            "_compute_pass_reference",
            "_confined_replay",
            "_apply_mutations",
            "_fast_active",
            "_replaying",
            "use_fast_path",
            "reference_compute_pass",
            "enqueue_reference",
            "fanout_reference",
            "fast_active",
            "reset_outbox",
        ):
            assert _src_files_matching(rf"\b{name}\b") == set(), name
        assert _src_files_matching(r"\.replaying\b") == set()
        fabric = (BSP_ROOT / "fabric.py").read_text()
        assert "def deliver(" not in fabric
        assert not re.search(r"\.(?:inbox|outbox)\b", fabric)

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
#: one would have to grow them.  Durability was lowered from 640 when
#: the fingerprint began to hash the baseline's columns.
CHECKPOINT_LINE_BUDGET = 400
DURABILITY_LINE_BUDGET = 633


class TestCheckpointIsColumnsOverOneBaseline:
    """A checkpoint is columns over one verified topology baseline:
    one layout in ``checkpoint.py``, one record format in
    ``durability.py``."""

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
            checkpoint_module.Baseline.freeze,
            checkpoint_module.Baseline.holds,
            checkpoint_module.TopologySnapshot.capture,
        ]
        for function in sharing_branch:
            source = inspect.getsource(function)
            assert "dict(" not in source, function.__qualname__
            assert "_edges.items()" not in source, function.__qualname__
        # The engine reaches it through one name (the benchmark's
        # span attaches there).
        engine_source = ENGINE_PY.read_text()
        assert engine_source.count("take_checkpoint(self, ") == 1

    def test_the_fingerprint_reads_the_baseline_not_the_graph(self):
        # One pass over the frozen baseline's columns: no sorted walk
        # of the graph's edges, no rendering of the whole snapshot.
        assert _src_files_matching(r"\bgraph_signature\b") == set()
        durability = (BSP_ROOT / "durability.py").read_text()
        assert ".edges(" not in durability
        assert "repr(baseline" not in durability


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
            # the pass that computes ``awake``
            "dense_compute_pass",
            # sets ``awake = []`` itself (lane_compute_pass resets
            # it before every whole-lane kernel; PageRank's final
            # phase halts through ``setattr`` under that reset)
            "DegreeKernel.run",
        ],
        "state.py": [
            # ``PregelEngine.run`` follows it with ``restore_inbox``
            "StateStore.reset",
        ],
        "checkpoint.py": [
            # a restore: ``fabric.reindex`` builds fresh lanes
            "_restored_states",
        ],
        "parallel.py": [
            # a fresh lane (a rank is only ever re-initialised)
            "_PartitionRuntime.__init__",
            # resets the lane it wrote
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
        "parallel.py": ["ParallelPregelEngine._apply_parallel_results"],
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
        # The coordinator resets the lane it wrote ...
        assert self.AWAKE_WRITERS["parallel.py"] == (
            self.HALTED_WRITERS["parallel.py"][1:]
        )
        # ... and a restore re-indexes into fresh lanes.
        assert "lane.awake = None" in inspect.getsource(
            MessageFabric.restore_inbox
        )
        assert "_fabric.reindex(" in inspect.getsource(
            checkpoint_module.restore_checkpoint
        )
        # A run restarts the fabric, which resets the states and then
        # the inbox, which resets every lane.
        assert "_fabric.restart(" in inspect.getsource(PregelEngine.run)
        restart = inspect.getsource(MessageFabric.restart)
        assert restart.index("store.reset(") < restart.index(
            "self.restore_inbox("
        )

    def test_the_range_scan_exists_once(self):
        kernels = (BSP_ROOT / "kernels.py").read_text()
        assert kernels.count(
            "range(lane.start - base, lane.stop - base)"
        ) == 1
        # The gather kernels walk the arrivals, not a compressed
        # slice of the lane; PageRank's whole-lane gather still slices.
        assert "compress(" not in kernels
        assert kernels.count("in_count[lo:hi]") == 1


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
    "graph/snapshot.py": 1,
    "bsp/vertex.py": 1,
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
        with pytest.raises(ValueError, match="checkpoint_interval"):
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

    def _checkpoint(self, superstep):
        raise AssertionError("no checkpoint scheduled")


def _loop(max_supersteps, on_limit):
    return SuperstepLoop(
        max_supersteps=max_supersteps,
        program_name="layering-test",
        num_workers=1,
        cost_model=BSPCostModel(),
        on_limit=on_limit,
    )


class TestOneSuperstepLifecycle:
    """Opening, committing, checkpointing and rolling back a superstep
    are the loop's, for all four engines; a host supplies only its
    superstep body and its snapshot."""

    def test_lifecycle_helpers_are_called_only_from_the_loop(self):
        for name in (
            "emit_superstep_start",
            "emit_superstep_commit",
            "superstep_profile",
        ):
            assert _src_files_matching(rf"(?<!def )\b{name}\(") == {
                "bsp/loop.py"
            }, name

    def test_the_per_engine_copies_are_gone(self):
        for name in (
            "SnapshotRecovery",
            "_exec_counts",
            "_latest_checkpoint",
            "_superstep_stats",
        ):
            assert _src_files_matching(rf"\b{name}\b") == set(), name


class TestOneWayToStartARank:
    """A pool rank is started, respawned and resynced by one ``init``
    payload pickled from the coordinator's live partition, and its
    replies are collected by one poller."""

    def test_the_other_start_paths_are_gone(self):
        for name in (
            "_expand_snapshot_init",
            "_ship_snapshot",
            "snapshot_path",
            "_reload_payload",
            "_recv_ready",
        ):
            assert _src_files_matching(rf"\b{name}\b") == set(), name

    def test_supervision_is_not_a_keyword(self):
        from repro.bsp.parallel import ParallelPregelEngine

        params = inspect.signature(ParallelPregelEngine.__init__).parameters
        assert list(params) == [
            "self", "graph", "program", "args", "transport", "kwargs",
        ]
        for name in (
            "rank_stall_timeout",
            "rank_heartbeat_interval",
            "max_rank_restarts",
            "rank_restart_backoff",
        ):
            assert name not in params, name


#: Every engine constructor's parameters, and the loop's, in order.
#: A keyword that nothing outside ``tests/`` sets does not belong on
#: them: ``use_vectorized``, ``mp_start_method`` and
#: ``max_recovery_attempts`` went, and tests reach their paths through
#: seams instead (``tests.conftest.dense_pass``,
#: ``parallel.default_start_method``, ``loop.MAX_RECOVERY_ATTEMPTS``);
#: ``confined_recovery`` went with the recovery path it selected.
#: Adding a keyword means adding it here.
CONSTRUCTOR_PARAMETERS = {
    "PregelEngine": [
        "graph", "program", "num_workers", "partitioner", "combiner",
        "cost_model", "max_supersteps", "track_bppa", "seed",
        "checkpoint_interval", "fault_plan", "checkpoint_dir",
        "resume", "memory_budget", "spill_dir", "trace",
    ],
    "ParallelPregelEngine": [
        "graph", "program", "args", "transport", "kwargs",
    ],
    "GASEngine": [
        "graph", "program", "num_workers", "partitioner", "cost_model",
        "max_iterations", "checkpoint_interval", "fault_plan", "trace",
    ],
    "BlockEngine": [
        "graph", "program", "num_blocks", "partitioner", "cost_model",
        "max_supersteps", "checkpoint_interval", "fault_plan", "trace",
    ],
    "AsyncEngine": [
        "graph", "program", "max_updates", "cost_model",
        "checkpoint_interval", "fault_plan", "trace",
    ],
    "SuperstepLoop": [
        "max_supersteps", "program_name", "num_workers", "cost_model",
        "checkpoint_interval", "fault_plan", "trace", "on_limit",
    ],
}


class TestTheKeywordSurfaceIsPinned:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTOR_PARAMETERS))
    def test_constructor_parameters(self, name):
        import repro.bsp
        from repro.bsp import parallel

        cls = getattr(repro.bsp, name, None) or getattr(parallel, name)
        params = inspect.signature(cls.__init__).parameters
        assert list(params)[1:] == CONSTRUCTOR_PARAMETERS[name]

    def test_the_removed_options_are_gone(self):
        for name in (
            "use_vectorized", "mp_start_method", "vectorizable",
            "has_vectorized_kernel", "max_recovery_attempts",
            "confined_recovery",
        ):
            # The fingerprint hashes ``loop.MAX_RECOVERY_ATTEMPTS``
            # under the option's old name, and ``confined_recovery``
            # as the constant ``False``, so the pinned fingerprints do
            # not move; nothing names either as a parameter.
            pattern = rf"\b{name}\b(?!=\{{|=False\")"
            assert not _src_files_matching(pattern), name

    def test_the_paradigm_host_serves_every_engine_alike(self):
        from repro.bsp.loop import HostedEngine

        source = inspect.getsource(HostedEngine)
        assert "isinstance" not in source
        for name in ("GAS", "Block", "Async", "gas", "block", "async"):
            assert not re.search(rf"\b{name}", source), name


class TestOwnershipIsOneWay:
    """Only the engines hold an engine: the context, the fabric and
    the kernels are handed what they read, so a finished run is freed
    by reference counting (``tests/test_run_lifetime.py`` pins the
    outcome), and nothing in ``repro.bsp`` forces or dodges the
    collector instead."""

    def test_only_the_engines_hold_an_engine(self):
        assert _src_files_matching(r"self\._engine\s*=") <= {
            "bsp/engine.py", "bsp/parallel.py",
        }
        for module in ("context.py", "fabric.py", "kernels.py", "block.py"):
            source = (BSP_ROOT / module).read_text()
            assert not re.search(r"\b_engine\b", source), module

    def test_no_collector_calls_and_no_weak_back_pointers(self):
        for path in BSP_ROOT.glob("*.py"):
            source = path.read_text()
            assert not re.search(r"\bgc\.", source), path.name
            assert "weakref.proxy" not in source, path.name
            assert "WeakMethod" not in source, path.name
        # The one weak container: the atexit registry of live pools.
        assert _src_files_matching(r"\bweakref\.") == {"bsp/parallel.py"}

    def test_the_row_list_adjacency_is_gone(self):
        assert _src_files_matching(r"\bdense_out\b") == set()
        assert _src_files_matching(r"\brow_holds\b") == set()


#: The reads a ``Graph`` builder does not have: it is frozen once
#: (``Graph.freeze()``) and read as a ``CsrSnapshot``.
SNAPSHOT_READS = (
    "neighbors", "in_neighbors", "out_edge_items", "in_edge_items",
    "sorted_neighbors", "degree", "out_degree", "in_degree",
    "total_degree", "weight", "edge_label",
)


class TestGraphIsOnlyABuilder:
    """``Graph`` adds, removes and freezes; the frozen ``CsrSnapshot``
    is the one graph anything reads, engines included."""

    def test_the_builder_has_no_reads(self):
        from repro.graph import CsrSnapshot, Graph

        for name in SNAPSHOT_READS:
            assert not hasattr(Graph, name), name
            assert callable(getattr(CsrSnapshot, name)), name
        names = "|".join(SNAPSHOT_READS)
        defined = re.compile(rf"^    (def ({names})\(|({names}) = )", re.M)
        graph_modules = {
            path.relative_to(SRC_ROOT).as_posix()
            for path in (SRC_ROOT / "graph").glob("*.py")
            if defined.search(path.read_text())
        }
        assert graph_modules == {"graph/snapshot.py"}

    def test_hosted_engines_hold_a_snapshot(self):
        from repro.algorithms.block_programs import BlockHashMin
        from repro.algorithms.cc_hashmin import HashMinComponents
        from repro.algorithms.gas_programs import HashMinGAS, SsspGAS
        from repro.bsp import AsyncEngine, BlockEngine, GASEngine
        from repro.graph import CsrSnapshot, Graph

        builder = Graph()
        for v in range(6):
            builder.add_edge(v, (v + 1) % 6, weight=float(v + 1))
        for engine in (
            GASEngine(builder, HashMinGAS(), num_workers=2),
            BlockEngine(builder, BlockHashMin(), num_blocks=2),
            AsyncEngine(builder, SsspGAS(source=0)),
        ):
            assert type(engine._graph) is CsrSnapshot, type(engine)
        engine = PregelEngine(builder, HashMinComponents(), num_workers=2)
        assert type(engine._store.topology) is CsrSnapshot


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


def _unused_imports(source: str) -> list:
    """The names ``source`` imports (``__future__`` aside) and never
    reads, as ``(line, name)``."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in bound.items() if name not in read
    )


class TestEveryImportIsRead:
    """A module of ``src/repro`` reads every name it imports; package
    ``__init__`` modules re-export theirs, so they are not scanned."""

    def test_the_scan_sees_an_unread_import(self):
        source = "import math\nfrom typing import List, Tuple\nx: List = []\n"
        assert _unused_imports(source) == [(1, "math"), (2, "Tuple")]

    def test_no_module_imports_a_name_it_never_reads(self):
        unused = [
            f"{path.relative_to(SRC_ROOT).as_posix()}:{line}: {name}"
            for path in sorted(SRC_ROOT.rglob("*.py"))
            if path.name != "__init__.py"
            for line, name in _unused_imports(path.read_text())
        ]
        assert unused == []
