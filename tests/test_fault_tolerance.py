"""Fault injection, checkpointing, and recovery: the determinism
oracle and the recovery accounting.

The scientific invariant under test: **any run under any fault plan
that completes must produce byte-identical values to the fault-free
run**.  Worker crashes are survived by checkpoint rollback; message
drop/duplication/delay are masked by the reliable-delivery layer; all
of it shows up only in the cost accounting
(``RunStats.recovery_overhead``), never in the answers.
"""

import pickle

import pytest

from repro.algorithms.bfs_tree import BFSTree
from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.bsp import (
    CrashFault,
    FaultPlan,
    PregelEngine,
    VertexProgram,
    chaos_plan,
    crash_plan,
    drop_plan,
    duplicate_plan,
    run_program,
)
from repro.bsp import loop
from repro.errors import (
    CheckpointError,
    RecoveryExhaustedError,
)
from repro.graph import erdos_renyi_graph

# ---------------------------------------------------------------------
# The determinism oracle: >= 5 programs x >= 4 fault plans.
# ---------------------------------------------------------------------

UNDIRECTED = erdos_renyi_graph(50, 0.10, seed=2)
DIRECTED = erdos_renyi_graph(50, 0.08, seed=5, directed=True)

PROGRAMS = [
    ("pagerank", UNDIRECTED, lambda: PageRank(num_supersteps=12)),
    ("sssp", UNDIRECTED, lambda: SingleSourceShortestPaths(0)),
    ("wcc", DIRECTED, lambda: WeaklyConnectedComponents()),
    ("hashmin", UNDIRECTED, lambda: HashMinComponents()),
    ("bfs-tree", UNDIRECTED, lambda: BFSTree(0)),
]

PLANS = [
    ("worker-crash", lambda: crash_plan(superstep=2, worker=1, seed=9)),
    ("message-drop", lambda: drop_plan(rate=0.25, seed=9)),
    ("message-dup", lambda: duplicate_plan(rate=0.25, seed=9)),
    (
        "combined",
        lambda: chaos_plan(
            crash_superstep=1, drop=0.1, duplicate=0.1, delay=0.1, seed=9
        ),
    ),
    (
        "double-crash",
        lambda: FaultPlan(
            seed=9,
            crashes=(CrashFault(1, 0), CrashFault(3, 2)),
            name="double-crash",
        ),
    ),
]


def canonical(values) -> bytes:
    """Byte representation for exact-equality comparison."""
    return pickle.dumps(
        sorted(values.items(), key=lambda kv: repr(kv[0]))
    )


@pytest.mark.parametrize(
    "prog_name,graph,make_program",
    PROGRAMS,
    ids=[p[0] for p in PROGRAMS],
)
@pytest.mark.parametrize(
    "plan_name,make_plan", PLANS, ids=[p[0] for p in PLANS]
)
def test_determinism_oracle(
    prog_name, graph, make_program, plan_name, make_plan
):
    baseline = run_program(graph, make_program(), num_workers=4)
    faulted = run_program(
        graph,
        make_program(),
        num_workers=4,
        checkpoint_interval=2,
        fault_plan=make_plan(),
    )
    assert faulted.values == baseline.values
    assert canonical(faulted.values) == canonical(baseline.values)


def test_oracle_with_randomized_program():
    """RNG state is checkpointed: replayed supersteps redraw the same
    randomness, so even randomized programs recover exactly."""

    class NoisyScore(VertexProgram):
        name = "noisy-score"

        def compute(self, v, msgs, ctx):
            if ctx.superstep == 0:
                v.value = 0.0
            v.value += ctx.random.random()
            if ctx.superstep >= 5:
                v.vote_to_halt()

    g = erdos_renyi_graph(20, 0.2, seed=3)
    baseline = run_program(g, NoisyScore(), num_workers=3, seed=17)
    faulted = run_program(
        g,
        NoisyScore(),
        num_workers=3,
        seed=17,
        checkpoint_interval=2,
        fault_plan=crash_plan(superstep=3, seed=4),
    )
    assert canonical(faulted.values) == canonical(baseline.values)
    assert faulted.stats.supersteps_replayed > 0


def test_oracle_with_aggregators_and_master():
    """Aggregator state and history roll back with the checkpoint."""
    baseline = run_program(
        UNDIRECTED,
        PageRank(num_supersteps=10, tolerance=1e-6),
        num_workers=4,
    )
    faulted = run_program(
        UNDIRECTED,
        PageRank(num_supersteps=10, tolerance=1e-6),
        num_workers=4,
        checkpoint_interval=3,
        fault_plan=crash_plan(superstep=4, seed=2),
    )
    assert canonical(faulted.values) == canonical(baseline.values)
    assert faulted.aggregate_history == baseline.aggregate_history


def test_oracle_with_topology_mutation_falls_back_to_rollback():
    """A crash after a topology mutation rolls back past it: the
    rollback restores the checkpointed topology and the replay
    re-applies the mutation, to the fault-free values."""

    class DropAndCount(VertexProgram):
        name = "drop-and-count"

        def compute(self, v, msgs, ctx):
            if ctx.superstep == 0:
                v.value = 0
                if v.id == 0:
                    ctx.remove_edge(0, next(iter(v.out_edges), 0))
                ctx.send_to_neighbors(v, 1)
            elif ctx.superstep < 4:
                v.value += sum(msgs)
                ctx.send_to_neighbors(v, 1)
            else:
                v.value += sum(msgs)
                v.vote_to_halt()

    g = erdos_renyi_graph(25, 0.2, seed=8)
    baseline = run_program(g, DropAndCount(), num_workers=3)
    faulted = run_program(
        g,
        DropAndCount(),
        num_workers=3,
        checkpoint_interval=2,
        fault_plan=crash_plan(superstep=3, worker=1, seed=5),
    )
    assert canonical(faulted.values) == canonical(baseline.values)


# ---------------------------------------------------------------------
# Recovery accounting and bounded retries.
# ---------------------------------------------------------------------


class TestRecoveryAccounting:
    def _run(self, **kwargs):
        return run_program(
            UNDIRECTED,
            PageRank(num_supersteps=12),
            num_workers=4,
            **kwargs,
        )

    def test_clean_run_pays_nothing(self):
        stats = self._run().stats
        assert stats.checkpoints_written == 0
        assert stats.supersteps_replayed == 0
        assert stats.recovery_attempts == 0
        assert stats.recovery_overhead == 0.0
        assert stats.total_time == stats.bsp_time

    def test_checkpoint_only_run_pays_write_cost(self):
        clean = self._run()
        ckpt = self._run(checkpoint_interval=3)
        assert canonical(ckpt.values) == canonical(clean.values)
        stats = ckpt.stats
        assert stats.checkpoints_written >= 4
        assert stats.checkpoint_cost > 0
        assert stats.recovery_overhead > 0
        assert stats.supersteps_replayed == 0
        # The per-superstep stats mark exactly the write boundaries.
        flagged = [
            s.superstep
            for s in stats.supersteps
            if s.checkpoint_cost > 0
        ]
        assert flagged[0] == 0
        assert all(b - a >= 3 for a, b in zip(flagged, flagged[1:]))

    def test_crash_costs_replay_and_backoff(self):
        result = self._run(
            checkpoint_interval=4,
            fault_plan=crash_plan(superstep=7, seed=0),
        )
        stats = result.stats
        assert stats.recovery_attempts == 1
        assert stats.supersteps_replayed == 3  # rollback 7 -> 4
        assert stats.replay_cost > 0
        assert stats.backoff_cost == stats.cost_model.L  # 2**0
        assert stats.recovery_overhead > 0
        # The replayed supersteps report their execution count.
        executions = {
            s.superstep: s.executions for s in stats.supersteps
        }
        assert executions[5] == 2
        assert executions[2] == 1

    def test_backoff_grows_exponentially(self):
        result = self._run(
            checkpoint_interval=4,
            fault_plan=crash_plan(superstep=7, times=3, seed=0),
        )
        stats = result.stats
        assert stats.recovery_attempts == 3
        # 2**0 + 2**1 + 2**2 sync periods.
        assert stats.backoff_cost == 7 * stats.cost_model.L

    def test_retry_budget_exhaustion_raises(self):
        with pytest.raises(RecoveryExhaustedError) as err:
            self._run(
                checkpoint_interval=4,
                fault_plan=crash_plan(superstep=7, times=10, seed=0),
            )
        assert err.value.superstep == 7
        assert err.value.attempts == 4  # budget 3 + the fatal one

    def test_custom_retry_budget(self, monkeypatch):
        monkeypatch.setattr(loop, "MAX_RECOVERY_ATTEMPTS", 5)
        result = self._run(
            checkpoint_interval=4,
            fault_plan=crash_plan(superstep=7, times=5, seed=0),
        )
        assert result.stats.recovery_attempts == 5

    def test_message_fault_accounting(self):
        dropped = self._run(fault_plan=drop_plan(rate=0.2, seed=3))
        assert dropped.stats.retransmitted_messages > 0
        assert dropped.stats.duplicate_messages == 0
        assert dropped.stats.recovery_overhead > 0

        duped = self._run(
            fault_plan=duplicate_plan(rate=0.2, seed=3)
        )
        assert duped.stats.duplicate_messages > 0

        delayed = self._run(
            fault_plan=FaultPlan(seed=3, delay_rate=0.1, name="delay")
        )
        assert delayed.stats.delay_stalls > 0
        # A stall charges L per stalled superstep, nothing else.
        assert delayed.stats.recovery_cost == (
            delayed.stats.cost_model.L * delayed.stats.delay_stalls
        )

    def test_message_only_plan_needs_no_checkpoints(self):
        result = self._run(fault_plan=drop_plan(rate=0.1, seed=1))
        assert result.stats.checkpoints_written == 0

    def test_summary_reports_fault_fields(self):
        stats = self._run(
            checkpoint_interval=4,
            fault_plan=crash_plan(superstep=5, seed=0),
        ).stats
        summary = stats.summary()
        assert summary["checkpoints_written"] == stats.checkpoints_written
        assert summary["supersteps_replayed"] == stats.supersteps_replayed
        assert summary["recovery_overhead"] == stats.recovery_overhead
        assert summary["total_time"] == stats.total_time

    def test_same_plan_same_seed_is_reproducible(self):
        kwargs = dict(
            checkpoint_interval=3,
            fault_plan=chaos_plan(
                crash_superstep=2, drop=0.1, duplicate=0.1, seed=21
            ),
        )
        a = self._run(**kwargs)
        b = self._run(**kwargs)
        assert canonical(a.values) == canonical(b.values)
        assert a.stats.summary() == b.stats.summary()
        assert (
            a.stats.retransmitted_messages
            == b.stats.retransmitted_messages
        )

    def test_invalid_checkpoint_interval(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            PregelEngine(
                UNDIRECTED, PageRank(), checkpoint_interval=0
            )

    def test_zero_retry_budget_exhausts_on_first_crash(self, monkeypatch):
        # With a budget of 0 the first injected crash immediately
        # exhausts recovery.
        monkeypatch.setattr(loop, "MAX_RECOVERY_ATTEMPTS", 0)
        with pytest.raises(RecoveryExhaustedError):
            PregelEngine(
                UNDIRECTED,
                PageRank(num_supersteps=6),
                checkpoint_interval=2,
                fault_plan=crash_plan(superstep=2, seed=5),
            ).run()

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            PregelEngine(UNDIRECTED, PageRank(), resume=True)


class TestFaultSmoke:
    def test_cli_smoke_matrix(self):
        from repro.core.fault_smoke import (
            format_fault_smoke,
            run_fault_smoke,
        )

        results = run_fault_smoke(seed=1, scale=0.4)
        assert len(results) == 20  # 4 workloads x 5 plans
        assert all(r.deterministic for r in results)
        text = format_fault_smoke(results)
        assert "pagerank" in text and "chaos" in text

    def test_cli_faults_flag(self, capsys):
        from repro.cli import main

        assert main(["--faults", "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "fault-tolerance smoke" in out
        assert "byte-identical" in out

    def test_cli_faults_durable_then_resume(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "ck")
        argv = [
            "--faults",
            "--scale",
            "0.4",
            "--checkpoint-dir",
            directory,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Every faulted cell left a durable manifest behind...
        cells = list((tmp_path / "ck").iterdir())
        assert len(cells) == 20
        assert all((c / "MANIFEST.json").exists() for c in cells)
        # ...and a rerun resumes each cell from its final checkpoint,
        # still facing (and passing) the determinism oracle.
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_cli_faults_fingerprint_mismatch_exits_4(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        directory = str(tmp_path / "ck")
        argv = [
            "--faults",
            "--scale",
            "0.4",
            "--checkpoint-dir",
            directory,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # A different seed is a different run configuration: resume
        # must refuse with the documented exit code, not crash.
        assert main(argv + ["--seed", "9", "--resume"]) == 4
        err = capsys.readouterr().err
        assert "checkpoint error" in err

    def test_cli_durability_flags_require_faults(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--checkpoint-dir", "/tmp/nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--faults", "--resume"])
        assert exc.value.code == 2
