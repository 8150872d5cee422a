"""The measuring child: one workload, one fresh interpreter.

``run.py`` launches this file with a JSON spec and reads one JSON
object from the last line of its standard output.  The child builds
(or opens) its input once, runs one discarded warm-up, then timed
repetitions with nothing of the benchmark's installed except the
fabric-constructor capture, then — when asked — one more repetition
with the span wrappers of ``spans.py`` installed.  One repetition is
one *operation*; every operation is judged (raised / wrong output /
requested path did not execute), including the warm-up and the traced
one, whose timings are not part of the end-to-end samples.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

import rss
import spans as spans_mod
from calibrate import HostSpeed
from workloads import (
    BY_NAME,
    PAGERANK_SUPERSTEPS,
    TABLE1_SCALE,
    Sizes,
    Workload,
)

import repro.bsp.engine as engine_module
from repro.algorithms import (
    DegreeCentrality,
    PageRank,
    SingleSourceShortestPaths,
)
from repro.bsp import MinCombiner, SumCombiner, create_engine
from repro.core.chaos import canonical_result, result_digest
from repro.graph import CsrSnapshot, barabasi_albert_graph, grid_graph

MAX_TIMED = 40
IMPORT_SAMPLES = 9
#: tests/test_property_algorithms.py::test_pagerank_equals_power_iteration
PAGERANK_ABS_TOL = 1e-12
#: Unpinned Table 1 seeds: the harness's verdicts are statistical, and
#: at this scale up to two rows sit on a decision boundary depending
#: on the seed (23 seeds scanned at scale 0.4, 40 at 0.5: never fewer
#: than 18 of 20 agree with the paper).  A run below this floor is
#: wrong, not unlucky.
TABLE1_MATCH_FLOOR = 17

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

_PROGRAMS = {
    "pagerank": lambda: PageRank(num_supersteps=PAGERANK_SUPERSTEPS),
    "sssp": lambda: SingleSourceShortestPaths((0, 0)),
    "degree": DegreeCentrality,
}
_COMBINERS = {"sum": SumCombiner, "min": MinCombiner, None: lambda: None}


@dataclass
class Operation:
    """What one repetition produced, apart from its result object."""

    kind: str  # "warmup" | "timed" | "traced" | "reference"
    #: Host-speed correction for this repetition's seconds (timed and
    #: traced repetitions; see calibrate.py).  Everything below is raw.
    speed: float = 1.0
    wall_s: float = 0.0
    setup_s: float = 0.0
    open_s: float = 0.0
    construct_s: float = 0.0
    run_s: float = 0.0
    messages: int = 0
    digest: Optional[str] = None
    values_digest: Optional[str] = None
    counters: Dict[str, Any] = field(default_factory=dict)
    reasons: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------
# Fabric capture
# ---------------------------------------------------------------------


class FabricCapture:
    """Remember every ``MessageFabric`` the engine module constructs.

    The spill counters live on the fabric and the engine exposes it
    only as a private attribute, so the public constructor name the
    engine calls is replaced by a function that records the instance.
    This is the one thing of the benchmark's that stays installed
    during timed repetitions: one extra call per engine construction,
    needed because *every* operation gets the path-executed check.
    """

    def __init__(self) -> None:
        self.latest = None
        # surface.check() vouched for the name before anything ran.
        original = self._original = engine_module.MessageFabric

        def construct(*args, **kwargs):
            self.latest = original(*args, **kwargs)
            return self.latest

        engine_module.MessageFabric = construct

    def restore(self) -> None:
        engine_module.MessageFabric = self._original


# ---------------------------------------------------------------------
# Engine workloads
# ---------------------------------------------------------------------


def _resolve_supersteps(expected, sizes: Sizes) -> int:
    if expected == "2*grid_side":
        return 2 * sizes.grid_side
    return int(expected)


def path_violations(
    wl: Workload, sizes: Sizes, engine, fabric, stats
) -> List[str]:
    """``degraded:<what>`` for everything the run did differently from
    what the workload requests.  A run that silently fell back is
    never ``ok`` (ROADMAP open item (b))."""
    expect = wl.expect
    steps = _resolve_supersteps(expect["supersteps"], sizes)
    out = []
    if stats.num_supersteps != steps:
        out.append(
            f"degraded:supersteps={stats.num_supersteps} (want {steps})"
        )
    tiers = Counter(w.kernel_tier for w in stats.wall or [])
    if set(tiers) != {expect["tier"]}:
        out.append(
            f"degraded:kernel_tier={dict(tiers)} "
            f"(want {expect['tier']} on every superstep)"
        )
    if expect["parallel"]:
        for attr in ("parallel_supersteps", "columnar_supersteps"):
            got = getattr(engine, attr, None)
            if got != steps:
                out.append(f"degraded:{attr}={got} (want {steps})")
        reason = getattr(engine, "parallel_disabled_reason", "absent")
        if reason is not None:
            out.append(f"degraded:parallel_disabled_reason={reason!r}")
        restarts = getattr(engine, "rank_restarts", None)
        if restarts != 0:
            out.append(f"degraded:rank_restarts={restarts} (want 0)")
    spilled = getattr(fabric, "spilled_lanes", None)
    if spilled is None:
        out.append("degraded:spilled_lanes unreadable")
    elif expect["spill"] and spilled == 0:
        out.append("degraded:spilled_lanes=0 (want > 0)")
    elif not expect["spill"] and spilled != 0:
        out.append(f"degraded:spilled_lanes={spilled} (want 0)")
    if stats.checkpoints_written != expect["checkpoints"]:
        out.append(
            f"degraded:checkpoints_written={stats.checkpoints_written} "
            f"(want {expect['checkpoints']})"
        )
    return out


def _compute_seconds(stats, parallel: bool) -> float:
    """Self-reported kernel seconds: the workers run one after
    another on the serial backend (sum), side by side on the pool
    (the slowest rank bounds the superstep)."""
    reduce = max if parallel else sum
    return sum(reduce(w.compute_seconds) for w in stats.wall or [])


def _dir_mib(path: str) -> float:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total / 2**20


class EngineRunner:
    """Runs operations of one engine workload on one input."""

    def __init__(self, wl: Workload, sizes: Sizes, spec: dict):
        self.wl = wl
        self.sizes = sizes
        self.scratch = spec["scratch"]
        self.snapshot_dir = (spec.get("snapshot") or {}).get("dir")
        self.capture = FabricCapture()
        self.source = None
        self.build_s = 0.0
        #: First operation's result object, kept for the oracle.
        self.kept_result = None
        self.kept_graph = None

    def build_input(self, seed: int) -> None:
        t0 = perf_counter()
        if self.wl.source == "ba":
            self.source = barabasi_albert_graph(
                self.sizes.ba_vertices, self.sizes.ba_attach, seed
            )
        elif self.wl.source == "grid":
            self.source = grid_graph(
                self.sizes.grid_side, self.sizes.grid_side
            )
        self.build_s = perf_counter() - t0

    def _kwargs(self, wl: Workload, checkpoint_dir: Optional[str]):
        fill = {
            "$spill_budget": self.sizes.spill_budget,
            "$checkpoint_dir": checkpoint_dir,
        }
        kwargs = {
            k: fill.get(v, v) if isinstance(v, str) else v
            for k, v in wl.engine_kwargs.items()
        }
        return dict(
            kwargs,
            combiner=_COMBINERS[wl.combiner](),
            track_bppa=False,
        )

    def run(
        self,
        kind: str,
        recorder: Optional[spans_mod.SpanRecorder] = None,
        wl: Optional[Workload] = None,
    ) -> Operation:
        """One operation of ``wl`` (default: this runner's workload;
        the serial reference run passes the baseline configuration).
        """
        wl = wl or self.wl
        op = Operation(kind)
        span = recorder.span if recorder else (lambda name: nullcontext())
        needs_dir = "$checkpoint_dir" in wl.engine_kwargs.values()
        checkpoint_dir = (
            tempfile.mkdtemp(prefix="ckpt_", dir=self.scratch)
            if needs_dir
            else None
        )
        kwargs = self._kwargs(wl, checkpoint_dir)
        program = _PROGRAMS[wl.program]()
        graph = self.source
        engine = result = None
        gc.collect()
        try:
            t0 = perf_counter()
            with span("op"):
                if self.wl.source == "ba-snapshot":
                    with span("graph.snapshot.open"):
                        graph = CsrSnapshot.open(self.snapshot_dir)
                t1 = perf_counter()
                with span("bsp.engine.construct"):
                    engine = create_engine(graph, program, **kwargs)
                t2 = perf_counter()
                with span("bsp.engine.run"):
                    result = engine.run()
                t3 = perf_counter()
        except Exception as exc:  # the operation failed; keep going
            op.reasons.append(f"error:{type(exc).__name__}: {exc}")
            return op
        finally:
            if checkpoint_dir is not None:
                op.counters["dir_mib"] = _dir_mib(checkpoint_dir)
                shutil.rmtree(checkpoint_dir, ignore_errors=True)

        stats = result.stats
        fabric = self.capture.latest
        op.wall_s = t3 - t0
        if self.wl.source == "ba-snapshot":
            op.open_s = t1 - t0
        op.construct_s = t2 - t1
        op.setup_s = t2 - t0
        op.run_s = t3 - t2
        op.messages = stats.total_messages
        op.digest = result_digest(result)
        op.values_digest = hashlib.sha256(
            pickle.dumps(canonical_result(result)[0])
        ).hexdigest()
        parallel = wl.expect["parallel"]
        walls = stats.wall or []
        tiers = Counter(w.kernel_tier for w in walls)
        op.counters.update(
            supersteps=stats.num_supersteps,
            compute_s=_compute_seconds(stats, parallel),
            barrier_wait_s=sum(sum(w.barrier_seconds) for w in walls),
            payload_kib=sum(w.total_payload_bytes for w in walls) / 1024,
            vectorized_supersteps=tiers.get("vectorized", 0),
            dense_supersteps=tiers.get("dense", 0),
            reference_supersteps=tiers.get("reference", 0),
            spilled_lanes=getattr(fabric, "spilled_lanes", None),
            spilled_mib=(getattr(fabric, "spilled_bytes", 0) or 0)
            / 2**20,
            parallel_supersteps=getattr(engine, "parallel_supersteps", 0),
            columnar_supersteps=getattr(engine, "columnar_supersteps", 0),
            rank_restarts=getattr(engine, "rank_restarts", 0),
            checkpoints=stats.checkpoints_written,
            reported_peak_rss_mib=(stats.peak_rss_bytes or 0) / 2**20,
        )
        op.reasons.extend(
            path_violations(wl, self.sizes, engine, fabric, stats)
        )
        if self.kept_result is None and wl is self.wl:
            self.kept_result = result
            self.kept_graph = graph
        return op

    # -- correctness ---------------------------------------------------

    def oracle(self) -> List[str]:
        """Check the kept result against an independent answer."""
        values = self.kept_result.values
        graph = self.kept_graph
        if self.wl.program == "sssp":
            bad = sum(
                1 for (r, c), d in values.items() if d != r + c
            )
            if bad or len(values) != self.sizes.grid_side**2:
                return [f"wrong:{bad} distances differ from r + c"]
        elif self.wl.program == "degree":
            bad = sum(
                1 for v, d in values.items() if d != graph.degree(v)
            )
            if bad or len(values) != graph.num_vertices:
                return [f"wrong:{bad} values differ from the degrees"]
        elif self.wl.program == "pagerank":
            from repro.sequential import pagerank as sequential_pagerank

            expected = sequential_pagerank(
                graph, num_iterations=PAGERANK_SUPERSTEPS
            )
            worst = max(
                abs(values[v] - rank) for v, rank in expected.items()
            )
            if worst > PAGERANK_ABS_TOL or len(values) != len(expected):
                return [
                    f"wrong:pagerank off by {worst:.3e} from the "
                    f"sequential power iteration"
                ]
        return []


def _timed_phase(run, spec: dict, host: HostSpeed):
    """One discarded warm-up, then timed repetitions until the time
    budget is used (never fewer than ``min_timed``), each bracketed by
    host-speed probes, with the peak-RSS region around it all."""
    method = rss.reset_peak()
    ops = [run("warmup")]
    started = perf_counter()
    host.probe()
    timed: List[Operation] = []
    while len(timed) < spec["min_timed"] or (
        perf_counter() - started < spec["seconds"]
        and len(timed) < MAX_TIMED
    ):
        op = run("timed")
        op.speed = host.correction()
        timed.append(op)
    ops.extend(timed)
    return ops, timed, rss.peak_mib(method), method


def _traced_phase(
    run, spec: dict, host: HostSpeed, targets, operation_id: int
):
    """One more repetition with the span wrappers installed; the
    originals are back before this returns.  Probed like a timed
    repetition so that ``trace.overhead_frac`` compares like with
    like; the spans themselves stay raw seconds."""
    recorder = spans_mod.SpanRecorder()
    recorder.op = operation_id
    host.probe()
    restore, unresolved = spans_mod.install(recorder, targets)
    try:
        op = run("traced", recorder)
    finally:
        restore()
    op.speed = host.correction()
    recorder.write(spec["span_file"])
    return op, recorder.spans, unresolved


def _first_result(ops: List[Operation]) -> Optional[Operation]:
    """The first operation that produced a result: the one the oracle
    judges and every other is held to."""
    return next((op for op in ops if op.digest is not None), None)


def _hold_to_first(ops: List[Operation], workload_wide: List[str]):
    """Every operation must reproduce the first result's digest, and
    inherits whatever the oracle found wrong with that result."""
    first = _first_result(ops)
    for op in ops:
        if op.digest is None:
            continue
        if op.digest != first.digest:
            op.reasons.append(
                "wrong:result differs from the first repetition"
            )
        op.reasons.extend(workload_wide)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _overhead_frac(traced: Operation, timed: List[Operation]) -> float:
    untraced = _median(op.wall_s * op.speed for op in timed)
    if not untraced:
        return 0.0
    return traced.wall_s * traced.speed / untraced - 1.0


#: Spans the benchmark itself opens around the calls into the program;
#: their self time is what no layer span accounts for.
_FRAME_SPANS = {"op", "bsp.engine.construct", "bsp.engine.run"}


def _unattributed(spans: List[dict], traced_wall: float) -> float:
    own = spans_mod.self_times(spans)
    layers = sum(
        own[s["id"]] for s in spans if s["name"] not in _FRAME_SPANS
    )
    return traced_wall - layers


def measure_engine(wl: Workload, sizes: Sizes, spec: dict) -> dict:
    runner = EngineRunner(wl, sizes, spec)
    runner.build_input(spec["seed"])
    host = HostSpeed()
    ops, timed, peak, method = _timed_phase(runner.run, spec, host)
    good = [op for op in timed if op.digest is not None]

    layer: Dict[str, Optional[float]] = {}
    nulls: Dict[str, str] = {}
    if spec["trace"]:
        traced, spans, unresolved = _traced_phase(
            runner.run, spec, host, spans_mod.ENGINE_TARGETS, len(ops)
        )
        ops.append(traced)
        layer.update(_traced_engine_metrics(spans, traced, good))
        for name in unresolved:
            # Span name + "_s" is the metric name, by construction of
            # spans.ENGINE_TARGETS.
            layer[name + "_s"] = None
            nulls[name + "_s"] = "trace target no longer exists"

    # Correctness: one oracle on the first result; the variants also
    # agree with a serial in-memory reference run on the same input.
    workload_wide: List[str] = []
    first = _first_result(ops)
    reference = None
    if first is not None:
        workload_wide.extend(runner.oracle())
    if first is not None and wl.same_as_reference:
        reference = runner.run("reference", wl=BY_NAME["pagerank-ba"])
        attr = wl.same_as_reference
        if reference.reasons:
            workload_wide.append(
                "wrong:serial reference run failed: "
                + "; ".join(reference.reasons)
            )
        elif getattr(reference, attr) != getattr(first, attr):
            workload_wide.append(
                f"wrong:{attr} differs from the serial in-memory run"
            )
    _hold_to_first(ops, workload_wide)
    runner.capture.restore()

    samples = {
        "wall_s": [op.wall_s * op.speed for op in good],
        "setup_s": [op.setup_s * op.speed for op in good],
        "msgs_per_s": [
            op.messages / (op.wall_s * op.speed) for op in good
        ],
    }
    layer.update(_untraced_engine_metrics(runner, good, reference, spec))
    layer.update(_host_metrics(host, good))
    return _report(
        wl, spec, sizes, ops, samples, peak, method, layer, nulls,
        digests={
            "digest": first and first.digest,
            "values_digest": first and first.values_digest,
        },
    )


def _host_metrics(
    host: HostSpeed, timed: List[Operation]
) -> Dict[str, float]:
    """What the correction did, so the raw numbers stay visible."""
    return {
        "host.wall_raw_s": _median(op.wall_s for op in timed),
        "host.speed_factor": _median(op.speed for op in timed),
        "host.probe_s": _median(host.probes),
    }


def _untraced_engine_metrics(
    runner: EngineRunner,
    timed: List[Operation],
    reference: Optional[Operation],
    spec: dict,
) -> Dict[str, Optional[float]]:
    """The ``U`` rows: medians over the timed repetitions for times,
    the last repetition for exact counts."""
    if not timed:
        return {}
    last = timed[-1].counters
    snapshot = spec.get("snapshot") or {}

    def med(key):
        return _median(op.counters[key] for op in timed)

    compute_s = med("compute_s")
    run_s = _median(op.run_s for op in timed)
    parallel = runner.wl.expect["parallel"]
    return {
        "graph.generators.build_s": snapshot.get(
            "generate_s", runner.build_s
        ),
        "graph.snapshot.build_s": snapshot.get("build_s", 0.0),
        "graph.snapshot.file_mib": snapshot.get("file_mib", 0.0),
        "graph.snapshot.open_s": _median(op.open_s for op in timed),
        "bsp.engine.construct_s": _median(
            op.construct_s for op in timed
        ),
        "bsp.engine.run_s": run_s,
        "bsp.kernels.compute_s": compute_s,
        "bsp.kernels.us_per_msg": compute_s
        / max(timed[-1].messages, 1)
        * 1e6,
        "bsp.kernels.vectorized_supersteps": last[
            "vectorized_supersteps"
        ],
        "bsp.kernels.dense_supersteps": last["dense_supersteps"],
        "bsp.kernels.reference_supersteps": last[
            "reference_supersteps"
        ],
        "bsp.fabric.spilled_lanes": last["spilled_lanes"],
        "bsp.fabric.spilled_mib": last["spilled_mib"],
        "bsp.loop.supersteps": last["supersteps"],
        "bsp.parallel.parallel_supersteps": last["parallel_supersteps"],
        "bsp.parallel.columnar_supersteps": last["columnar_supersteps"],
        "bsp.parallel.rank_restarts": last["rank_restarts"],
        "bsp.parallel.barrier_wait_s": med("barrier_wait_s"),
        "bsp.parallel.payload_kib": med("payload_kib"),
        "bsp.parallel.overhead_s": run_s - compute_s if parallel else 0.0,
        # One serial reference operation in the same child stands in
        # for wall_s(pagerank-ba): a single-workload invocation cannot
        # see another workload's median.
        "bsp.parallel.vs_serial_ratio": (
            _median(op.wall_s for op in timed) / reference.wall_s
            if parallel and reference and reference.wall_s
            else 0.0
        ),
        "bsp.durability.checkpoints": last["checkpoints"],
        "bsp.durability.dir_mib": last.get("dir_mib", 0.0),
        "metrics.stats.reported_peak_rss_mib": last[
            "reported_peak_rss_mib"
        ],
    }


def _traced_engine_metrics(
    spans: List[dict], traced: Operation, timed: List[Operation]
) -> Dict[str, Optional[float]]:
    """The ``T`` rows, all from the one traced repetition."""
    total = spans_mod.total_by_name(spans)

    def seconds(name):
        return total.get(name, 0.0)

    steps = traced.counters.get("supersteps") or 0
    inside_run = (
        seconds("bsp.kernels.pass")
        + seconds("bsp.fabric.deliver")
        + seconds("bsp.checkpoint.take")
        + seconds("bsp.durability.persist")
    )
    return {
        "bsp.state.build_s": seconds("bsp.state.build"),
        "bsp.fabric.engage_s": seconds("bsp.fabric.engage"),
        "graph.partition.dense_index_s": seconds(
            "graph.partition.dense_index"
        ),
        "bsp.kernels.pass_s": seconds("bsp.kernels.pass"),
        "bsp.fabric.deliver_s": seconds("bsp.fabric.deliver"),
        "bsp.fabric.flush_s": seconds("bsp.fabric.flush"),
        "bsp.fabric.account_s": seconds("bsp.fabric.account"),
        "bsp.engine.per_superstep_overhead_ms": (
            (seconds("bsp.engine.run") - inside_run) / steps * 1e3
            if steps
            else 0.0
        ),
        "bsp.shm_transport.coord_codec_s": seconds(
            "bsp.shm_transport.coord_codec"
        ),
        "bsp.checkpoint.take_s": seconds("bsp.checkpoint.take"),
        "bsp.durability.persist_s": seconds("bsp.durability.persist"),
        "trace.traced_wall_s": traced.wall_s,
        "trace.overhead_frac": _overhead_frac(traced, timed),
        "bsp.engine.unattributed_s": _unattributed(spans, traced.wall_s),
    }


# ---------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------


def _table1_fingerprint(rows) -> dict:
    return {
        "rows": [row.spec.row for row in rows],
        "more_work": "".join(
            "1" if row.result.more_work else "0" for row in rows
        ),
        "bppa": "".join(
            "1" if row.result.bppa.is_bppa else "0" for row in rows
        ),
        "messages": sum(
            m.vc_messages for row in rows for m in row.result.measurements
        ),
        "matching": sum(1 for row in rows if row.matches_paper),
    }


def _time_cli_import(samples: int, host: HostSpeed) -> List[float]:
    """Seconds a fresh interpreter needs before ``repro.cli`` is
    importable — what every ``repro-table1`` invocation pays first —
    corrected for host speed like the timed repetitions."""
    out = []
    host.probe()
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], check=True
        )
        elapsed = perf_counter() - t0
        out.append(elapsed * host.correction())
    return out


def _table1_pinned(scale: float, seed: int) -> Optional[dict]:
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        pinned = json.load(fh)["table1"]
    if pinned["scale"] != scale:
        return None
    return pinned["seeds"].get(str(seed))


def _table1_oracle(found: dict, scale: float, seed: int) -> List[str]:
    """The table has its twenty rows; for a pinned ``(scale, seed)``
    the verdict vectors and the message total are exactly the pinned
    ones, otherwise (full scale only — smoke sweeps are too short for
    the fits to mean anything) at least ``TABLE1_MATCH_FLOOR`` rows
    agree with the paper."""
    out = []
    if found["rows"] != list(range(1, 21)):
        out.append(f"wrong:table rows are {found['rows']} (want 1..20)")
    pinned = _table1_pinned(scale, seed)
    if pinned is not None:
        out.extend(
            f"wrong:{key}={found[key]} differs from expected.json "
            f"({pinned[key]})"
            for key in ("more_work", "bppa", "messages")
            if found[key] != pinned[key]
        )
    elif scale == TABLE1_SCALE and found["matching"] < TABLE1_MATCH_FLOOR:
        out.append(
            f"wrong:only {found['matching']} of 20 rows agree with the "
            f"paper (floor {TABLE1_MATCH_FLOOR})"
        )
    return out


def measure_table1(wl: Workload, sizes: Sizes, spec: dict) -> dict:
    from repro.core.table1 import build_table

    seed = spec["seed"]
    scale = sizes.table1_scale
    # Before anything is built, while this process is still small.
    host = HostSpeed()
    import_samples = _time_cli_import(
        3 if spec["smoke"] else IMPORT_SAMPLES, host
    )

    def run(kind, recorder=None) -> Operation:
        op = Operation(kind)
        span = recorder.span if recorder else (lambda name: nullcontext())
        gc.collect()
        try:
            t0 = perf_counter()
            with span("op"):
                rows = build_table(seed=seed, scale=scale)
            op.wall_s = perf_counter() - t0
        except Exception as exc:  # the operation failed; keep going
            op.reasons.append(f"error:{type(exc).__name__}: {exc}")
            return op
        op.counters = _table1_fingerprint(rows)
        op.messages = op.counters["messages"]
        op.digest = hashlib.sha256(
            json.dumps(op.counters, sort_keys=True).encode()
        ).hexdigest()
        return op

    ops, timed, peak, method = _timed_phase(run, spec, host)
    good = [op for op in timed if op.digest is not None]

    layer: Dict[str, Optional[float]] = {}
    nulls: Dict[str, str] = {}
    if spec["trace"]:
        traced, spans, unresolved = _traced_phase(
            run, spec, host, spans_mod.TABLE1_TARGETS, len(ops)
        )
        ops.append(traced)
        layer.update(_traced_table1_metrics(spans, traced, good))
        if unresolved:
            for name in _TABLE1_TRACED:
                layer[name] = None
                nulls[name] = "trace target no longer exists: " + ", ".join(
                    unresolved
                )

    first = _first_result(ops)
    _hold_to_first(
        ops,
        _table1_oracle(first.counters, scale, seed) if first else [],
    )
    samples = {
        "wall_s": [op.wall_s * op.speed for op in good],
        "setup_s": import_samples,
        "msgs_per_s": [
            op.messages / (op.wall_s * op.speed) for op in good
        ],
    }
    layer["core.table1.rows_matching"] = (
        first.counters["matching"] if first else None
    )
    layer.update(_host_metrics(host, good))
    return _report(
        wl, spec, sizes, ops, samples, peak, method, layer, nulls,
        digests={"digest": first and first.digest},
    )


_TABLE1_TRACED = (
    "core.table1.engine_s",
    "core.table1.engine_runs",
    "core.table1.outside_engine_s",
    "core.table1.slowest_row",
    "core.table1.slowest_row_s",
)


def _traced_table1_metrics(
    spans: List[dict], traced: Operation, timed: List[Operation]
) -> Dict[str, Optional[float]]:
    total = spans_mod.total_by_name(spans)
    counts = spans_mod.count_by_name(spans)
    engine_s = total.get("core.table1.engine_init", 0.0) + total.get(
        "core.table1.engine_run", 0.0
    )
    rows = [s for s in spans if s["name"] == "core.table1.row"]
    slowest = max(
        rows, key=lambda s: s["end"] - s["start"], default=None
    )
    return {
        "core.table1.engine_s": engine_s,
        "core.table1.engine_runs": counts.get(
            "core.table1.engine_run", 0
        ),
        "core.table1.outside_engine_s": traced.wall_s - engine_s,
        "core.table1.slowest_row": slowest["detail"] if slowest else 0,
        "core.table1.slowest_row_s": (
            slowest["end"] - slowest["start"] if slowest else 0.0
        ),
        "trace.traced_wall_s": traced.wall_s,
        "trace.overhead_frac": _overhead_frac(traced, timed),
        "bsp.engine.unattributed_s": _unattributed(spans, traced.wall_s),
    }


# ---------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------


def _report(
    wl, spec, sizes, ops, samples, peak, method, layer, nulls, digests
) -> dict:
    failed = [op for op in ops if op.reasons]
    end_to_end = {
        name: _median(values) for name, values in samples.items()
    }
    end_to_end["peak_rss_mib"] = peak
    end_to_end["failed_frac"] = len(failed) / len(ops)
    return {
        "workload": wl.name,
        "seed": spec["seed"],
        "smoke": spec["smoke"],
        "sizes": vars(sizes),
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [
            {"operation": i, "kind": op.kind, "reasons": op.reasons}
            for i, op in enumerate(ops)
            if op.reasons
        ],
        "timed_repetitions": len(samples["wall_s"]),
        "samples": samples,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "null_reasons": nulls,
        "rss_method": method,
        **digests,
    }


# ---------------------------------------------------------------------
# Prep child: the on-disk snapshot of G_ba
# ---------------------------------------------------------------------


def prep_snapshot(sizes: Sizes, spec: dict) -> dict:
    t0 = perf_counter()
    graph = barabasi_albert_graph(
        sizes.ba_vertices, sizes.ba_attach, spec["seed"]
    )
    t1 = perf_counter()
    CsrSnapshot.from_graph(graph).save(spec["snapshot_dir"])
    t2 = perf_counter()
    return {
        "dir": spec["snapshot_dir"],
        "generate_s": t1 - t0,
        "build_s": t2 - t1,
        "file_mib": _dir_mib(spec["snapshot_dir"]),
    }


def measure(spec: dict) -> dict:
    sizes = Sizes.smoke() if spec["smoke"] else Sizes.full()
    if spec.get("prep"):
        return prep_snapshot(sizes, spec)
    wl = BY_NAME[spec["workload"]]
    if wl.program == "table1":
        return measure_table1(wl, sizes, spec)
    return measure_engine(wl, sizes, spec)


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
