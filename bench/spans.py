"""Outside-in span recording for the traced repetition.

The benchmark may not edit the program, so layer boundaries are
observed by temporarily replacing public entry points with timing
wrappers.  ``install`` takes a declarative table of
``(owner, attribute, span name[, detail])`` rows, swaps each target
for a wrapper that records one span per call, and returns the
function that restores the originals; nothing here is active during
the timed repetitions.

A span is ``{"id", "op", "name", "start", "end", "parent"}`` (plus an
optional ``"detail"``), times in seconds on the ``perf_counter``
clock.  Spans nest by call order on one thread — the coordinator of
every engine in this repo is single-threaded; rank processes forked
while wrappers are installed record into their own copy of the list,
which dies with them, so rank-side time is deliberately out of scope.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# owner is "package.module" or "package.module:Class".
Target = Tuple[Any, ...]

#: Layer boundaries of one engine operation.  Module-level functions
#: are patched where the *caller* looks them up (the name as imported
#: by ``repro.bsp.engine`` / ``repro.bsp.fabric``), class attributes
#: on the class, so every caller is caught.
ENGINE_TARGETS: List[Target] = [
    ("repro.bsp.state:StateStore", "__init__", "bsp.state.build"),
    (
        "repro.bsp.fabric:MessageFabric",
        "engage_fast_path",
        "bsp.fabric.engage",
    ),
    (
        "repro.bsp.fabric",
        "build_dense_index",
        "graph.partition.dense_index",
    ),
    ("repro.bsp.engine", "fast_compute_pass", "bsp.kernels.pass"),
    ("repro.bsp.engine", "reference_compute_pass", "bsp.kernels.pass"),
    (
        "repro.bsp.fabric:MessageFabric",
        "deliver_fast",
        "bsp.fabric.deliver",
    ),
    ("repro.bsp.fabric:MessageFabric", "deliver", "bsp.fabric.deliver"),
    (
        "repro.bsp.fabric:MessageFabric",
        "flush_worker_sends",
        "bsp.fabric.flush",
    ),
    (
        "repro.bsp.fabric:MessageFabric",
        "account_lane",
        "bsp.fabric.account",
    ),
    (
        "repro.bsp.shm_transport",
        "encode_inbound",
        "bsp.shm_transport.coord_codec",
    ),
    (
        "repro.bsp.shm_transport",
        "decode_reply",
        "bsp.shm_transport.coord_codec",
    ),
    ("repro.bsp.engine", "take_checkpoint", "bsp.checkpoint.take"),
    (
        "repro.bsp.durability:DurableCheckpointStore",
        "persist",
        "bsp.durability.persist",
    ),
]

#: Table 1 builds hundreds of small engines; only the engine boundary
#: and the row boundary are recorded there, so the wrappers stay a
#: small share of the run.
TABLE1_TARGETS: List[Target] = [
    (
        "repro.core.table1",
        "run_row",
        "core.table1.row",
        lambda spec, *args, **kwargs: spec.row,
    ),
    (
        "repro.bsp.engine:PregelEngine",
        "__init__",
        "core.table1.engine_init",
    ),
    ("repro.bsp.engine:PregelEngine", "run", "core.table1.engine_run"),
]


class SpanRecorder:
    """In-memory span list with call-order nesting."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str, detail: Any = None):
        spans = self.spans
        stack = self._stack
        record = {
            "id": len(spans),
            "op": self.op,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": stack[-1] if stack else None,
        }
        if detail is not None:
            record["detail"] = detail
        spans.append(record)
        stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        detail: Optional[Callable] = None,
    ) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            with span(
                name, detail(*args, **kwargs) if detail else None
            ):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    holder = importlib.import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
    return holder


def install(
    recorder: SpanRecorder, targets: Iterable[Target]
) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every resolvable target; return ``(restore, unresolved)``.

    ``unresolved`` lists the span names with at least one target that
    no longer exists (renamed or removed by a later change): their
    metrics are reported as null, with a warning, and nothing else is
    affected.
    """
    originals = []
    unresolved: List[str] = []
    for owner, attribute, name, *rest in targets:
        try:
            holder = _resolve(owner)
            # vars(): wrap what the holder itself defines, and restore
            # exactly that (a class attribute stays a plain function).
            original = vars(holder)[attribute]
        except (ImportError, AttributeError, KeyError):
            unresolved.append(name)
            continue
        setattr(
            holder,
            attribute,
            recorder.wrap(original, name, rest[0] if rest else None),
        )
        originals.append((holder, attribute, original))

    def restore() -> None:
        for holder, attribute, original in reversed(originals):
            setattr(holder, attribute, original)

    return restore, unresolved


# ---------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------


def read(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover.
    Children of one span never overlap (single thread, call order),
    so the covered time is the sum of their durations."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def total_by_name(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span name -> summed duration of the *outermost* spans of that
    name (a span nested inside one of the same name is already
    counted by its ancestor)."""
    by_id = {s["id"]: s for s in spans}
    totals: Dict[str, float] = {}
    for s in spans:
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            totals[s["name"]] = (
                totals.get(s["name"], 0.0) + s["end"] - s["start"]
            )
    return totals


def count_by_name(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for s in spans:
        counts[s["name"]] = counts.get(s["name"], 0) + 1
    return counts
