"""Chaos suite: real kills, real hangs, real resumes.

Everything here attacks the runtime with *operating-system* failures
rather than injected :class:`FaultPlan` events: rank processes are
SIGKILLed mid-superstep, wedged in infinite sleeps (optionally
ignoring SIGTERM, to force the supervisor's SIGKILL escalation), and
whole runs are killed in subprocesses and resumed from their durable
checkpoints in a fresh interpreter.  The invariant throughout is the
repo's determinism oracle: however the run was battered, a completed
(or resumed) run must be byte-identical to the clean serial run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.algorithms.pagerank import PageRank
from repro.bsp import parallel
from repro.bsp.engine import PregelEngine, run_program
from repro.bsp.parallel import (
    ParallelPregelEngine,
    _kill_leaked_pools,
)
from repro.bsp.shm_transport import SEG_PREFIX
from repro.core.chaos import (
    CoordinatorKiller,
    RankHanger,
    RankKiller,
    SlowRank,
    canonical_result,
    chaos_graph,
    result_digest,
)

GRAPH = chaos_graph()


def _serial(program, graph=GRAPH, **kwargs):
    kwargs.setdefault("num_workers", 4)
    kwargs.setdefault("seed", 0)
    return PregelEngine(graph, program, **kwargs).run()


def _parallel_engine(program, graph=GRAPH, **kwargs):
    kwargs.setdefault("num_workers", 4)
    kwargs.setdefault("seed", 0)
    return ParallelPregelEngine(graph, program, **kwargs)


@pytest.fixture(autouse=True)
def supervision(monkeypatch):
    """Set rank-supervision constants of :mod:`repro.bsp.parallel`
    for one test: ``supervision(MAX_RANK_RESTARTS=1)``.  Restarts back
    off 0.01s here instead of 0.05s."""

    def setting(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(parallel, name, value)

    setting(RANK_RESTART_BACKOFF=0.01)
    return setting


class TestRankSigkill:
    def test_killed_rank_restarts_pool_byte_identical(
        self, tmp_path
    ):
        flag = str(tmp_path / "kill-once")
        baseline = _serial(
            RankKiller(flag_path=flag, num_supersteps=8)
        )
        engine = _parallel_engine(
            RankKiller(flag_path=flag, num_supersteps=8)
        )
        result = engine.run()
        assert canonical_result(result) == canonical_result(
            baseline
        )
        assert engine.rank_restarts >= 1
        assert engine.rank_failures
        # The pool survived: the restart absorbed the kill without
        # degrading the run to serial.
        assert engine.parallel_disabled_reason is None
        assert engine.parallel_supersteps >= 1

    def test_unbounded_kills_exhaust_budget_and_degrade(
        self, supervision
    ):
        # flag_path=None kills a rank on *every* parallel attempt at
        # the target superstep, so the restart budget must run out
        # and the run must finish on the serial path — still
        # byte-identical, because nothing partial is ever applied.
        supervision(MAX_RANK_RESTARTS=1)
        baseline = _serial(
            RankKiller(flag_path=None, num_supersteps=8)
        )
        engine = _parallel_engine(
            RankKiller(flag_path=None, num_supersteps=8)
        )
        result = engine.run()
        assert canonical_result(result) == canonical_result(
            baseline
        )
        assert engine.rank_restarts == 2  # budget 1, then give up
        assert "restart budget" in engine.parallel_disabled_reason

    def test_zero_restart_budget_degrades_on_first_kill(
        self, tmp_path, supervision
    ):
        supervision(MAX_RANK_RESTARTS=0)
        flag = str(tmp_path / "kill-once")
        baseline = _serial(
            RankKiller(flag_path=flag, num_supersteps=6)
        )
        engine = _parallel_engine(
            RankKiller(flag_path=flag, num_supersteps=6)
        )
        result = engine.run()
        assert canonical_result(result) == canonical_result(
            baseline
        )
        assert engine.rank_restarts == 1
        assert "restart budget" in engine.parallel_disabled_reason


class TestHangDetection:
    @pytest.mark.parametrize("ignore_sigterm", [False, True])
    def test_hung_rank_detected_and_killed(
        self, tmp_path, ignore_sigterm, supervision
    ):
        supervision(RANK_STALL_TIMEOUT=1.0, RANK_HEARTBEAT_INTERVAL=0.1)
        flag = str(tmp_path / "hang-once")
        program_kwargs = dict(
            flag_path=flag,
            hang_superstep=2,
            ignore_sigterm=ignore_sigterm,
            num_supersteps=6,
        )
        baseline = _serial(RankHanger(**program_kwargs))
        engine = _parallel_engine(
            RankHanger(**program_kwargs), num_workers=2
        )
        result = engine.run()
        assert canonical_result(result) == canonical_result(
            _serial(RankHanger(**program_kwargs), num_workers=2)
        )
        del baseline
        assert engine.rank_restarts >= 1
        assert any(
            "stalled" in reason
            for _, _, reason in engine.rank_failures
        )
        assert engine.parallel_disabled_reason is None

    def test_slow_but_progressing_rank_is_never_killed(
        self, supervision
    ):
        # Progress heartbeats, not reply latency, drive the stall
        # deadline: each vertex takes ~3x the stall timeout's worth
        # of budget per superstep in aggregate, but the per-vertex
        # counter keeps advancing, so the supervisor must not kill.
        supervision(RANK_STALL_TIMEOUT=1.0, RANK_HEARTBEAT_INTERVAL=0.1)
        graph = chaos_graph(8)
        baseline = _serial(
            SlowRank(delay=0.3, num_supersteps=2),
            graph=graph,
            num_workers=2,
        )
        engine = _parallel_engine(
            SlowRank(delay=0.3, num_supersteps=2),
            graph=graph,
            num_workers=2,
        )
        result = engine.run()
        assert canonical_result(result) == canonical_result(
            baseline
        )
        assert engine.rank_restarts == 0
        assert engine.rank_failures == []
        assert engine.parallel_disabled_reason is None
        assert (
            engine.parallel_supersteps
            == result.stats.num_supersteps
        )


def _chaos_subprocess(*argv):
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS_KILL_AT", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.core.chaos", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestKillAndResume:
    """The PR's oracle: SIGKILL a whole run mid-flight, resume it in
    a fresh interpreter, and demand bytes identical to a run that was
    never interrupted."""

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_sigkilled_run_resumes_byte_identical(
        self, tmp_path, backend
    ):
        directory = str(tmp_path / "ck")
        killed = _chaos_subprocess(
            "--backend",
            backend,
            "--checkpoint-dir",
            directory,
            "--kill-at",
            "6",
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        resumed = _chaos_subprocess(
            "--backend",
            backend,
            "--checkpoint-dir",
            directory,
            "--resume",
        )
        assert resumed.returncode == 0, resumed.stderr
        digest_line = next(
            line
            for line in resumed.stdout.splitlines()
            if line.startswith("digest=")
        )
        # Uninterrupted serial baseline, computed in this process:
        # the subprocess digest must match it exactly, whatever
        # backend the killed/resumed halves ran on.
        baseline = run_program(
            chaos_graph(40, seed=3),
            CoordinatorKiller(num_supersteps=12),
            num_workers=4,
            seed=3,
            checkpoint_interval=2,
        )
        assert digest_line == f"digest={result_digest(baseline)}"

    def test_resume_without_checkpoints_fails_typed(self, tmp_path):
        result = _chaos_subprocess(
            "--checkpoint-dir",
            str(tmp_path / "empty"),
            "--resume",
        )
        assert result.returncode == 4
        assert "checkpoint error" in result.stderr


def _repro_segments():
    try:
        return {
            n for n in os.listdir("/dev/shm")
            if n.startswith(SEG_PREFIX)
        }
    except OSError:  # pragma: no cover - non-/dev/shm platform
        return set()


class TestSegmentHygiene:
    """The columnar transport's shared-memory segments must not
    survive any of the chaos suite's failure modes — a leaked segment
    is leaked RAM for the rest of the boot."""

    def test_rank_sigkill_and_pool_restart_leak_no_segments(
        self, tmp_path
    ):
        # The SIGKILLed rank never runs cleanup; the pool teardown and
        # restart must retire the old segment and the run must still
        # finish byte-identical on a fresh one.
        flag = str(tmp_path / "kill-once")
        before = _repro_segments()
        baseline = _serial(
            RankKiller(flag_path=flag, num_supersteps=8)
        )
        engine = _parallel_engine(
            RankKiller(flag_path=flag, num_supersteps=8),
            transport="columnar",
        )
        result = engine.run()
        assert canonical_result(result) == canonical_result(
            baseline
        )
        assert engine.rank_restarts >= 1
        assert engine.transport_disabled_reason is None
        assert engine.columnar_supersteps >= 1
        assert _repro_segments() == before

    def test_restart_budget_exhaustion_leaks_no_segments(
        self, supervision
    ):
        # Every pool generation gets its own segment; repeated kills
        # followed by permanent serial degradation must retire all of
        # them.
        supervision(MAX_RANK_RESTARTS=1)
        before = _repro_segments()
        engine = _parallel_engine(
            RankKiller(flag_path=None, num_supersteps=8),
            transport="columnar",
        )
        engine.run()
        assert engine.rank_restarts == 2
        assert _repro_segments() == before

    def test_coordinator_sigkill_then_resume_leaks_no_segments(
        self, tmp_path
    ):
        # The coordinator dies by SIGKILL, so its own unlink hooks
        # never run: the rank orphan watchdogs and the resume-time
        # dead-pid sweep must retire the segment between them, and
        # the resumed run must still match the uninterrupted digest.
        directory = str(tmp_path / "ck")
        before = _repro_segments()
        killed = _chaos_subprocess(
            "--backend",
            "parallel",
            "--checkpoint-dir",
            directory,
            "--kill-at",
            "6",
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        resumed = _chaos_subprocess(
            "--backend",
            "parallel",
            "--checkpoint-dir",
            directory,
            "--resume",
        )
        assert resumed.returncode == 0, resumed.stderr
        digest_line = next(
            line
            for line in resumed.stdout.splitlines()
            if line.startswith("digest=")
        )
        baseline = run_program(
            chaos_graph(40, seed=3),
            CoordinatorKiller(num_supersteps=12),
            num_workers=4,
            seed=3,
            checkpoint_interval=2,
        )
        assert digest_line == f"digest={result_digest(baseline)}"
        # Orphaned rank watchdogs may lag the subprocess exit by one
        # poll interval; the segments must drain, not merely shrink.
        deadline = time.monotonic() + 15
        while (
            _repro_segments() - before
            and time.monotonic() < deadline
        ):
            time.sleep(0.2)
        assert _repro_segments() - before == set()


class TestOrphanCleanup:
    def test_atexit_sweep_kills_leaked_pools(self):
        engine = _parallel_engine(
            PageRank(num_supersteps=3), num_workers=2
        )
        engine.run()  # compiles the dense fabric, then shuts down
        assert engine._links is None
        assert engine._start_pool()  # leak a live pool on purpose
        processes = [link.process for link in engine._links]
        assert all(p.is_alive() for p in processes)
        _kill_leaked_pools()
        assert engine._links is None
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()

    def test_worker_link_kill_escalates_past_sigterm(
        self, tmp_path, supervision
    ):
        # A rank wedged with SIGTERM ignored must still die: kill()
        # escalates to SIGKILL after the terminate grace period.
        supervision(RANK_STALL_TIMEOUT=0.5, RANK_HEARTBEAT_INTERVAL=0.1)
        flag = str(tmp_path / "hang-once")
        engine = _parallel_engine(
            RankHanger(
                flag_path=flag,
                hang_superstep=1,
                ignore_sigterm=True,
                num_supersteps=4,
            ),
            num_workers=2,
        )
        engine.run()
        # Whatever the path taken, no rank process may survive.
        assert engine._links is None
