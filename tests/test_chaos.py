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
from contextlib import suppress

import pytest

from repro.algorithms.pagerank import PageRank
from repro.bsp import parallel
from repro.bsp.engine import PregelEngine, run_program
from repro.bsp.parallel import (
    ParallelPregelEngine,
    _kill_leaked_pools,
)
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


def _chaos_subprocess(*argv, stderr=None, setup=None):
    """Run the chaos CLI; its output is captured, or its stderr goes
    to the ``stderr`` file (so that processes the run orphans cannot
    hold the capture pipe open).  ``setup`` is Python run in the CLI's
    interpreter before it starts."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS_KILL_AT", None)
    streams = (
        dict(capture_output=True) if stderr is None
        else dict(stdout=subprocess.DEVNULL, stderr=stderr)
    )
    command = ["-m", "repro.core.chaos"] if setup is None else [
        "-c",
        f"import sys; {setup}; from repro.core.chaos import main; "
        "sys.exit(main(sys.argv[1:]))",
    ]
    return subprocess.run(
        [sys.executable, *command, *argv],
        text=True,
        env=env,
        timeout=300,
        **streams,
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
        # The killed half's stderr goes to a file: a rank it orphans
        # must not hold a capture pipe (and so this test) open.
        with open(tmp_path / "killed.err", "w+") as err:
            killed = _chaos_subprocess(
                "--backend",
                backend,
                "--checkpoint-dir",
                directory,
                "--kill-at",
                "6",
                stderr=err,
            )
            err.seek(0)
            stderr = err.read()
        assert killed.returncode == -signal.SIGKILL, stderr
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


def _running(pid: int) -> bool:
    """True while ``pid`` names a process that has not exited (a
    zombie awaiting its reaper has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def _outliving(pids, wait: float = 15.0):
    """The ``pids`` still running after up to ``wait`` seconds."""
    deadline = time.monotonic() + wait
    alive = [pid for pid in pids if _running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [pid for pid in alive if _running(pid)]
    return alive


@pytest.fixture
def rank_pids(monkeypatch):
    """Every rank pid this test's pools start, respawns included."""
    pids = []
    start = parallel._WorkerLink.__init__

    def recording(self, mp_ctx, rank):
        start(self, mp_ctx, rank)
        pids.append(self.process.pid)

    monkeypatch.setattr(parallel._WorkerLink, "__init__", recording)
    return pids


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat"
)
class TestProcessHygiene:
    """No rank process may outlive any of the chaos suite's failure
    modes — an orphaned rank holds its partition's memory for as
    long as it lives."""

    def test_rank_sigkill_and_pool_restart_leave_no_rank_process(
        self, tmp_path, rank_pids
    ):
        # The SIGKILLed rank never runs cleanup; the pool teardown and
        # restart must reap it and its siblings, and the run must
        # still finish byte-identical on a fresh pool.
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
        assert engine.parallel_disabled_reason is None
        # Two pool generations of four ranks each.
        assert len(rank_pids) == 8
        assert _outliving(rank_pids, wait=0) == []

    def test_restart_budget_exhaustion_leaves_no_rank_process(
        self, supervision, rank_pids
    ):
        # Every pool generation is killed; permanent serial
        # degradation must leave none of them behind.
        supervision(MAX_RANK_RESTARTS=1)
        engine = _parallel_engine(
            RankKiller(flag_path=None, num_supersteps=8)
        )
        engine.run()
        assert engine.rank_restarts == 2
        assert len(rank_pids) == 8
        assert _outliving(rank_pids, wait=0) == []

    def test_a_dead_coordinator_gives_its_ranks_eof(self, tmp_path):
        # The heartbeat, and with it the orphan watchdog, is 60s in the
        # killed run, so only EOF on the rank pipes can end the ranks
        # in time: no rank may hold the coordinator's end of its own
        # pipe or of a sibling's open.
        with open(tmp_path / "killed.err", "w+") as err:
            killed = _chaos_subprocess(
                "--backend",
                "parallel",
                "--checkpoint-dir",
                str(tmp_path / "ck"),
                "--kill-at",
                "6",
                stderr=err,
                setup="from repro.bsp import parallel; "
                "parallel.RANK_HEARTBEAT_INTERVAL = 60.0",
            )
            err.seek(0)
            stderr = err.read()
        assert killed.returncode == -signal.SIGKILL, stderr
        listed = next(
            line for line in stderr.splitlines()
            if line.startswith("rank_pids=")
        )
        orphans = [int(pid) for pid in listed.split("=")[1].split(",")]
        assert len(orphans) == 4, listed
        outliving = _outliving(orphans, wait=5.0)
        for pid in outliving:  # a failing run must not leak them
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        assert outliving == []

    def test_coordinator_sigkill_orphans_exit_and_resume_matches(
        self, tmp_path
    ):
        # The coordinator dies by SIGKILL, so its own teardown never
        # runs: each rank's orphan watchdog must end its process, and
        # the resumed run must still match the uninterrupted digest.
        directory = str(tmp_path / "ck")
        with open(tmp_path / "killed.err", "w+") as err:
            killed = _chaos_subprocess(
                "--backend",
                "parallel",
                "--checkpoint-dir",
                directory,
                "--kill-at",
                "6",
                stderr=err,
            )
            err.seek(0)
            stderr = err.read()
        assert killed.returncode == -signal.SIGKILL, stderr
        listed = next(
            line for line in stderr.splitlines()
            if line.startswith("rank_pids=")
        )
        orphans = [int(pid) for pid in listed.split("=")[1].split(",")]
        assert len(orphans) == 4, listed
        # Watchdogs poll once per heartbeat interval (0.25s); the
        # ranks must all be gone, not merely fewer.
        outliving = _outliving(orphans)
        for pid in outliving:  # a failing run must not leak them
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        assert outliving == []
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
