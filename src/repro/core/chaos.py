"""Chaos programs and helpers for crash-testing the runtime.

Everything the chaos and durability suites (``tests/test_chaos.py``,
``tests/test_durability.py``) throw at the engine lives here,
importable by spawned worker processes and by the
``python -m repro.core.chaos`` subprocess runner:

* programs that SIGKILL their own rank process, hang a rank forever
  (optionally ignoring SIGTERM, to prove the supervisor's SIGKILL
  escalation), run slowly-but-honestly (to prove progress heartbeats
  prevent false kills), or SIGKILL the whole coordinator mid-run;
* once-only cross-process trigger flags, built on ``O_EXCL`` file
  creation so exactly one process (and one pool generation) fires a
  fault even across pool restarts and resumed runs;
* checkpoint-file corruption helpers (truncate, bit-flip) for the
  durability corruption matrix;
* a canonical result digest, stable across interpreters, that the
  kill-and-resume oracle compares between a resumed run and an
  uninterrupted one.

The chaos programs behave *exactly* like their base workload outside
the targeted process: :func:`in_rank_process` keys off the pool's
process naming, and the coordinator killer is armed by an environment
variable, so an unarmed run (or the serial baseline) is byte-for-byte
the plain workload — same constructor state, same config fingerprint,
same values.

Run one kill-and-resume cycle by hand::

    python -m repro.core.chaos --checkpoint-dir /tmp/ck --kill-at 6
    python -m repro.core.chaos --checkpoint-dir /tmp/ck --resume
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import pickle
import signal
import sys
import time
from typing import List, Optional

from repro.algorithms.pagerank import PageRank
from repro.bsp.engine import run_program
from repro.errors import CheckpointError, RecoveryExhaustedError
from repro.graph.generators import erdos_renyi_graph

#: Environment variable arming :class:`CoordinatorKiller`: the
#: superstep at which the whole process SIGKILLs itself.
KILL_AT_ENV = "REPRO_CHAOS_KILL_AT"


def in_rank_process() -> bool:
    """True inside a parallel-backend worker process (the pool names
    its processes ``repro-bsp-worker-<rank>``)."""
    return multiprocessing.current_process().name.startswith(
        "repro-bsp-worker-"
    )


def consume_flag(path: Optional[str]) -> bool:
    """Fire-once trigger shared across processes.

    Returns True for exactly one caller per ``path`` — ``O_EXCL``
    creation is atomic on every platform we run on — so a chaos fault
    fires once even when several rank processes (or a restarted pool)
    race for it.  ``path=None`` always fires (unconditional fault).
    """
    if path is None:
        return True
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def chaos_graph(n: int = 40, seed: int = 3):
    """The chaos suite's stock graph (directed, mildly sparse)."""
    return erdos_renyi_graph(n, 0.12, seed=seed, directed=True)


# ---------------------------------------------------------------------
# Chaos programs
# ---------------------------------------------------------------------


class RankKiller(PageRank):
    """PageRank whose compute SIGKILLs its own rank process once.

    Outside a rank process (serial baseline, coordinator) it is plain
    PageRank.  Inside the pool, the first rank to reach
    ``kill_superstep`` and win the flag dies instantly — a real
    ``SIGKILL``, no cleanup — which the supervisor must detect and
    absorb by restarting the pool.
    """

    name = "rank-killer"

    def __init__(
        self,
        flag_path: Optional[str] = None,
        kill_superstep: int = 2,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.flag_path = flag_path
        self.kill_superstep = kill_superstep

    def compute(self, vertex, messages, ctx) -> None:
        if (
            ctx.superstep == self.kill_superstep
            and in_rank_process()
            and consume_flag(self.flag_path)
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        super().compute(vertex, messages, ctx)


class RankHanger(PageRank):
    """PageRank whose compute wedges its rank process once.

    The hang is an honest stall: the heartbeat thread keeps sending,
    but the progress counter stops advancing, so the coordinator must
    declare the rank hung within
    :data:`~repro.bsp.parallel.RANK_STALL_TIMEOUT` and kill it.
    With ``ignore_sigterm`` the rank first installs ``SIG_IGN`` for
    SIGTERM, proving the supervisor's SIGKILL escalation.
    """

    name = "rank-hanger"

    def __init__(
        self,
        flag_path: Optional[str] = None,
        hang_superstep: int = 2,
        hang_seconds: float = 3600.0,
        ignore_sigterm: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.flag_path = flag_path
        self.hang_superstep = hang_superstep
        self.hang_seconds = hang_seconds
        self.ignore_sigterm = ignore_sigterm

    def compute(self, vertex, messages, ctx) -> None:
        if (
            ctx.superstep == self.hang_superstep
            and in_rank_process()
            and consume_flag(self.flag_path)
        ):
            if self.ignore_sigterm:
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(self.hang_seconds)
        super().compute(vertex, messages, ctx)


class SlowRank(PageRank):
    """PageRank that crawls inside rank processes.

    Every vertex costs ``delay`` seconds of wall time in the pool.  A
    supervisor keyed on raw reply latency would kill it; one keyed on
    progress must not, because the per-vertex counter keeps advancing.
    """

    name = "slow-rank"

    def __init__(self, delay: float = 0.3, **kwargs):
        super().__init__(**kwargs)
        self.delay = delay

    def compute(self, vertex, messages, ctx) -> None:
        if in_rank_process():
            time.sleep(self.delay)
        super().compute(vertex, messages, ctx)


class CoordinatorKiller(PageRank):
    """PageRank that SIGKILLs the *whole run* at a chosen superstep.

    Armed through the :data:`KILL_AT_ENV` environment variable rather
    than constructor state, so an unarmed instance has exactly the
    plain-PageRank constructor ``__dict__`` — the durable config
    fingerprint of the killed run, the resumed run, and the
    uninterrupted baseline all match.
    """

    name = "coordinator-killer"

    def master_compute(self, master) -> None:
        kill_at = os.environ.get(KILL_AT_ENV)
        if kill_at is not None and master.superstep == int(kill_at):
            # Name the ranks this kill orphans, so a caller can watch
            # their watchdogs take them down.
            ranks = [
                p.pid for p in multiprocessing.active_children()
                if p.name.startswith("repro-bsp-worker-")
            ]
            print(
                f"rank_pids={','.join(map(str, ranks))}",
                file=sys.stderr, flush=True,
            )
            os.kill(os.getpid(), signal.SIGKILL)
        super().master_compute(master)


# ---------------------------------------------------------------------
# Corruption helpers and the canonical digest
# ---------------------------------------------------------------------


def truncate_file(path: str, drop_bytes: int = 1) -> None:
    """Chop ``drop_bytes`` off the end of ``path`` (simulates a crash
    mid-write on a filesystem without the atomic-rename guarantee)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(0, size - drop_bytes))


def bitflip_file(path: str, offset: Optional[int] = None) -> None:
    """Flip one bit of ``path`` in place (simulates media rot).  The
    default offset lands mid-file, past any container header."""
    data = bytearray(open(path, "rb").read())
    if not data:
        return
    if offset is None:
        offset = len(data) // 2
    data[offset] ^= 0x40
    with open(path, "wb") as fh:
        fh.write(data)


def canonical_result(result):
    """The byte-identity oracle's view of a run: values keyed and
    sorted by ``repr``, the pickled stats, the pickled aggregate
    history entries (sharing-independent, interpreter-stable)."""
    return (
        [
            (repr(k), pickle.dumps(v))
            for k, v in sorted(
                result.values.items(), key=lambda kv: repr(kv[0])
            )
        ],
        pickle.dumps(result.stats),
        [pickle.dumps(h) for h in result.aggregate_history],
    )


def result_digest(result) -> str:
    """Hex digest of :func:`canonical_result`, comparable across
    processes (the kill-and-resume oracle's currency)."""
    return hashlib.sha256(
        pickle.dumps(canonical_result(result))
    ).hexdigest()


# ---------------------------------------------------------------------
# Subprocess runner (the kill-and-resume oracle's vehicle)
# ---------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.chaos",
        description=(
            "Run the chaos workload (PageRank on the stock chaos "
            "graph) with durable checkpoints; optionally SIGKILL the "
            "run at a superstep, or resume a killed one."
        ),
    )
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint-dir instead of starting fresh",
    )
    parser.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="S",
        help="SIGKILL the whole run at superstep S",
    )
    parser.add_argument(
        "--backend", choices=["serial", "parallel"], default="serial"
    )
    parser.add_argument("--n", type=int, default=40)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--supersteps", type=int, default=12)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--checkpoint-interval", type=int, default=2
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if args.kill_at is not None:
        os.environ[KILL_AT_ENV] = str(args.kill_at)
    graph = chaos_graph(args.n, seed=args.seed)
    program = CoordinatorKiller(num_supersteps=args.supersteps)
    try:
        result = run_program(
            graph,
            program,
            backend=args.backend,
            num_workers=args.workers,
            seed=args.seed,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    except RecoveryExhaustedError as exc:
        print(f"recovery exhausted: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    print(f"digest={result_digest(result)}")
    print(f"supersteps={result.stats.num_supersteps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
