"""Compute kernels: the per-superstep vertex-execution loops.

Bottom layer of the decomposed runtime (``docs/architecture.md``).
Two per-vertex loops live here:

* :func:`reference_compute_pass` — the dict-path oracle: vertices
  reached by id hash, inboxes popped from the fabric's dict mailbox;
* :func:`dense_compute_pass` — the dense plane, written against
  **one worker's lane** (:class:`~repro.bsp.fabric.DenseLane`):
  vertices reached by dense position, inboxes read from the lane's
  slot view, sends folded into the lane's accumulators.

Both visit vertices in identical order (worker index order, then the
worker's ``vertex_ids`` order — the dense ranges mirror it), apply
identical wake/halt transitions, charge identical work
(``1 + len(messages) + sent + charged``) and feed the BPPA tracker
identically, which is one third of the engine's byte-identity
contract (the fabric's send/delivery ordering and the loop's
event/recovery ordering are the other two).

One dense plane, two hosts
--------------------------

Everything on the dense path — :func:`dense_compute_pass` and every
vectorized kernel's ``run`` — executes one lane and is handed a
*host*: the object owning the lane's run-scoped collaborators
(``_program``, ``_ctx``, ``_tracker``, ``num_vertices``,
``_aggregate_many``).  There are exactly two hosts.  The serial
engine loops its workers' lanes in index order
(:func:`fast_compute_pass`); a pool rank of the parallel backend
(:mod:`repro.bsp.parallel`) runs its single lane
(:func:`lane_compute_pass`).  What differs between them is
bookkeeping only, kept at the two call sites: the engine folds
aggregate contributions and feeds the live tracker where a rank logs
both for the coordinator to replay, and the engine commits a lane's
touched destinations to ``out_dirty`` where a rank ships them.

Sparse supersteps
-----------------

A superstep costs its *active* vertices.  Only a vertex that holds
mail or was left un-halted can execute, so :func:`dense_compute_pass`
walks the lane's frontier — ``lane.arrivals ∪ lane.awake``, ascending,
which is the order the range scan would execute the same vertices in
— and scans ``[start, stop)`` only when that is not known to be
cheaper: on a wake-all superstep, when ``awake`` is ``None`` (fresh
or re-indexed lanes; after a whole-lane kernel, a rollback, a
confined replay or a rank reload rewrote ``halted``; after a pass
that ran every vertex, which does not stop to list who halted), or
when the frontier is as long as the range.  The gather kernels below
visit ``lane.arrivals`` the same way.  The other engines' loops (GAS,
block, async) live with their engines' state layouts.

The vectorized tier
-------------------

On top of the per-vertex loops sits an opt-in tier: whole-lane
**vectorized kernels** that execute one superstep of a *registered*
program as array-shaped passes over the lane's slot-mailbox view and
a scatter plan precompiled from its dense adjacency (an SpMV
transposed into per-destination gather lists, held in stdlib
``array`` lanes like the shm transport's columns; numpy, if
importable, accelerates elementwise steps only — never reductions).
Exact reproduction is the admission rule, not a goal: a kernel
registers for exactly one program class (``register_vectorized``) and
has three parts —

* ``applies(program, fabric, superstep, wake_all) -> phase | None``:
  a cheap, state-based proof that this superstep's semantics are
  expressible with the *identical* float operation sequence as the
  per-vertex loop (fixed summation order within a slot, left folds
  with no injected zero seed — which would flip ``-0.0`` — division
  by the same exactly-converted degree).  Always evaluated on the
  authoritative fabric (:func:`vector_phase`): the serial engine's
  own, or the coordinator's, which ships the verdict to every rank;
* ``compile(lane, program) -> plan | None``: the lane's topology
  compiled once (``None`` when it cannot be reproduced exactly, e.g.
  a dangling out-edge whose send must raise);
* ``run(host, lane, plan, phase)``: the lane's share of the superstep.

Every other superstep — fault-injected runs, wake-all phases,
unregistered programs, non-conforming topology — runs
:func:`dense_compute_pass`, mirroring the shm transport's per-column
placement (a mutation re-indexes the plane; plans recompile).  The tier
actually used is reported per superstep via ``engine._kernel_tier`` /
``Worker.kernel_tier`` (observability only — never part of the
byte-identity surface).
"""

from __future__ import annotations

import operator
import time
from array import array
from bisect import bisect_left
from collections import deque
from functools import partial, reduce
from itertools import repeat
from typing import Any, Dict, List, Tuple

try:
    import numpy as _np
except Exception:
    _np = None


def reference_compute_pass(engine, wake_all: bool) -> int:
    """One superstep's compute calls on the dict path; returns the
    active-vertex count."""
    program = engine._program
    ctx = engine._ctx
    tracker = engine._tracker
    fabric = engine._fabric
    inbox = fabric.inbox
    states = fabric.states
    active_count = 0
    for worker in fabric.workers:
        seg_start = time.perf_counter()
        for vid in worker.vertex_ids:
            state = states.get(vid)
            if state is None:
                continue
            messages = inbox.pop(vid, None)
            if messages:
                state.halted = False
            elif state.halted and not wake_all:
                continue
            elif wake_all:
                state.halted = False
            messages = messages or []
            active_count += 1
            ctx._begin_vertex(state)
            program.compute(state, messages, ctx)
            ops = 1 + len(messages) + ctx._sent + ctx._charged
            worker.work += ops
            if tracker is not None:
                tracker.record_vertex(
                    vid, ctx._sent, len(messages), ops,
                    program.state_size(state),
                )
        worker.wall_seconds = time.perf_counter() - seg_start
    return active_count


def dense_compute_pass(host, lane, wake_all: bool):
    """One worker's compute calls on the dense path.

    Identical visit order, wake/halt transitions, work accounting,
    and tracker feed as :func:`reference_compute_pass`; vertex state
    and mailboxes are reached by dense position in the lane instead
    of by hashing.  ``lane.cur`` tracks the executing vertex for the
    lane's full-neighbor fanout (and, on a pool rank, for the
    heartbeat's progress reading).  Returns the dense indices
    visited, in order, and leaves ``lane.awake`` for the next pass.
    Walks the lane's frontier, or its whole range when the frontier
    is not known to be smaller (module docstring).
    """
    program = host._program
    ctx = host._ctx
    tracker = host._tracker
    compute = program.compute
    state_size = program.state_size
    begin_vertex = ctx._begin_vertex
    states = lane.states
    in_slots = lane.in_slots
    base = lane.base
    worker = lane.worker
    work = worker.work
    executed: List[int] = []
    ran = executed.append
    awake = lane.awake
    span = lane.stop - lane.start
    if wake_all or awake is None or len(awake) + len(lane.arrivals) >= span:
        frontier = range(lane.start - base, lane.stop - base)
    else:  # both ascending; only a mix of the two needs merging
        frontier = sorted({*awake, *lane.arrivals}) if awake else lane.arrivals
    for pos in frontier:
        state = states[pos]
        messages = in_slots[pos]
        if messages:
            state.halted = False
        elif state.halted and not wake_all:
            continue
        else:
            if wake_all:
                state.halted = False
            messages = []
        lane.cur = pos
        ran(pos + base)
        begin_vertex(state)
        compute(state, messages, ctx)
        ops = 1 + len(messages) + ctx._sent + ctx._charged
        work += ops
        if tracker is not None:
            tracker.record_vertex(
                state.id, ctx._sent, len(messages), ops, state_size(state)
            )
    worker.work = work
    # After a pass that ran the whole range the next scan finds who
    # halted as cheaply as a filter here would: leave it unknown.
    lane.awake = None if len(executed) == span else [
        i - base for i in executed if not states[i - base].halted
    ]
    return executed


# --------------------------------------------------------------------------
# Vectorized kernel tier
# --------------------------------------------------------------------------

#: Exact program type -> kernel (``applies``/``compile``/``run``, see
#: the module docstring).  Keyed on the *exact* class (no subclass
#: lookup): a subclass may override ``compute`` and silently diverge
#: from the kernel's baked-in semantics, so it must re-register
#: explicitly to opt in.
_VECTOR_KERNELS: Dict[type, Any] = {}


def register_vectorized(program_cls, kernel) -> None:
    """Register the vectorized kernel for ``program_cls`` — used by
    the serial engine and the parallel backend's ranks alike."""
    _VECTOR_KERNELS[program_cls] = kernel


def has_vectorized_kernel(program_cls) -> bool:
    """True when a vectorized kernel is registered for the exact class."""
    return program_cls in _VECTOR_KERNELS


def vector_phase(engine, wake_all: bool):
    """The vectorized phase covering this superstep, or ``None`` for
    the per-vertex loop.

    Evaluated against the authoritative fabric state — the serial
    engine's own, or the coordinator's on the parallel backend, so
    every rank receives the same verdict.  Declines outright when the
    tier is disabled, a fault injector is present (the exactness
    proofs do not cover replayed supersteps) or the program's exact
    class has no kernel.
    """
    if engine._use_vectorized is False or engine._injector is not None:
        return None
    kernel = _VECTOR_KERNELS.get(type(engine._program))
    if kernel is None:
        return None
    return kernel.applies(
        engine._program, engine._fabric, engine._ctx.superstep, wake_all
    )


def compile_plan(program, lane):
    """Compile ``lane``'s plan for ``program``'s registered kernel;
    ``None`` when the lane's topology cannot be reproduced exactly
    (the lane then stays on :func:`dense_compute_pass`)."""
    return _VECTOR_KERNELS[type(program)].compile(lane, program)


def lane_compute_pass(host, lane, wake_all: bool, phase, plan):
    """One lane's share of a superstep, on the tier its plan allows.

    Returns ``(tier, executed, scattered)``: ``executed`` is the dense
    indices visited, in visit order; ``scattered`` is the scatter plan
    whose whole ``order`` was written into the lane's accumulators, or
    ``None`` when the sends went through ``lane.touched``.
    """
    if plan is None:
        return "dense", dense_compute_pass(host, lane, wake_all), None
    kernel = _VECTOR_KERNELS[type(host._program)]
    lane.awake = None  # unless the kernel keeps every vertex halted
    return ("vectorized", *kernel.run(host, lane, plan, phase))


def _segment_folder(combine):
    """Left fold with *no* initial value, matching send-time combining.

    The per-vertex path folds a destination's messages pairwise in
    arrival order (``acc = combine(acc, msg)``), seeded by the first
    message itself — never by a literal zero, which would turn
    ``-0.0`` into ``+0.0`` under sum-combining.  Kept as a module-level
    hook so the oracle-differential tests can swap in a deliberately
    re-associated fold and prove the harness catches it.
    """
    return partial(reduce, combine)


def _affine(totals, scale, shift):
    """``shift + scale * totals[i]`` elementwise — one IEEE-754
    multiply and one add per element under either implementation
    (both ops are commutative and round identically), so numpy may
    accelerate it when importable."""
    if _np is not None:
        return (
            _np.array(totals, dtype=_np.float64) * scale + shift
        ).tolist()
    return [shift + scale * t for t in totals]


def _elementwise_div(vals, degs):
    """``vals[i] / degs[i]`` elementwise — IEEE-754 double division is
    bit-identical whether performed by CPython or numpy, so this (and
    only this kind of elementwise, non-reducing step) may be
    accelerated when numpy is importable (``degs`` is an
    ``array('d')``: numpy views its buffer without a copy)."""
    if _np is not None:  # pragma: no cover
        np_degs = _np.frombuffer(degs, dtype=_np.float64)
        return (_np.array(vals, dtype=_np.float64) / np_degs).tolist()
    return list(map(operator.truediv, vals, degs))


_HALTED = operator.attrgetter("halted")
_VALUE = operator.attrgetter("value")
_SUB = operator.sub
_SETITEM = operator.setitem
#: ``getter(shares)`` as a mappable: C-level apply over a getter column.
_CALL_WITH = operator.methodcaller


def _drain(iterator):
    """Run a C-level ``map`` pipeline for its side effects (a
    zero-length deque consumes without buffering)."""
    deque(iterator, maxlen=0)


class _ScatterLane:
    """A precompiled scatter plan for one worker's dense range.

    Transposes the range's out-adjacency into per-destination gather
    lists over the range's *share values* (one value per sending
    vertex, in ascending vertex order — the exact order the per-vertex
    loop would enqueue).  Destinations with a single contributor are
    batched behind one flat ``itemgetter`` (``s_dst``/``s_get``).
    Destinations with 2..``_GROUP_MAX`` contributors are grouped by
    contributor count ``k`` and transposed once more into ``k``
    *contributor columns* (``groups``): column ``j`` holds every
    grouped destination's ``j``-th message position, so one whole
    group folds with ``k - 1`` flat C-level ``map(combine, ...)``
    passes — the same per-destination left fold, batched.  The rare
    fatter destinations keep their own getter and fold count
    (``m_dst``/``m_get``/``m_cnt``).  ``order`` is the first-touch
    destination order — identical to the lane's ``touched`` order
    the per-vertex pass would produce — and ``novel`` (see
    :func:`_link_commit_order`) is its cross-lane deduplication.
    Index lanes are stdlib ``array('q')`` / ``array('d')`` columns,
    same conventions as the shm transport.
    """

    __slots__ = (
        "n", "value_getter", "degs", "order", "novel",
        "s_dst", "s_get", "groups", "m_dst", "m_get", "m_cnt",
        "sent", "remote",
    )


#: Largest contributor count still transposed into columns; fatter
#: destinations (graph hubs) fold per destination, where the fold's
#: own cost amortizes over their many messages.
_GROUP_MAX = 64


def _column_getter(positions):
    """Flat C-level getter for one column of share positions (an
    ``itemgetter`` needs the slice form to stay a sequence when the
    column has a single entry)."""
    if len(positions) == 1:
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions)


def _compile_scatter_lane(lo, hi, dense_out, remote_out):
    """Compile the scatter plan for dense positions ``[lo, hi)``.

    ``dense_out``/``remote_out`` are indexed by those positions (a
    lane's ``dense idx - base``); destination indices in ``dense_out``
    rows are global dense indices.  Returns
    ``None`` when any vertex in range has a dangling out-edge
    (``dense_out`` row ``None``) — the per-vertex path must run so the
    send raises identically.
    """
    senders = []
    degs = array("d")
    buckets: Dict[int, list] = {}
    order: List[int] = []
    sent = 0
    remote = 0
    k = 0
    for i in range(lo, hi):
        nbrs = dense_out[i]
        if nbrs is None:
            return None
        if not nbrs:
            continue
        senders.append(i - lo)
        degs.append(float(len(nbrs)))
        for dst in nbrs:
            bucket = buckets.get(dst)
            if bucket is None:
                buckets[dst] = [k]
                order.append(dst)
            else:
                bucket.append(k)
        sent += len(nbrs)
        remote += remote_out[i]
        k += 1
    lane = _ScatterLane()
    lane.n = k
    lane.degs = degs
    if not k:
        lane.value_getter = None
    elif senders[-1] - senders[0] + 1 == k:
        lane.value_getter = operator.itemgetter(
            slice(senders[0], senders[-1] + 1)
        )
    else:
        lane.value_getter = operator.itemgetter(*senders)
    s_dst = array("q")
    s_pos: List[int] = []
    grouped: Dict[int, list] = {}
    m_dst = array("q")
    m_get = []
    m_cnt = array("q")
    for dst in order:
        positions = buckets[dst]
        count = len(positions)
        if count == 1:
            s_dst.append(dst)
            s_pos.append(positions[0])
        elif count <= _GROUP_MAX:
            grouped.setdefault(count, []).append((dst, positions))
        else:
            m_dst.append(dst)
            m_get.append(operator.itemgetter(*positions))
            m_cnt.append(count)
    lane.order = array("q", order)
    lane.s_dst = s_dst
    if s_pos:
        lane.s_get = _column_getter(s_pos)
    else:
        lane.s_get = None
    groups = []
    for count in sorted(grouped):
        members = grouped[count]
        dsts = array("q", [dst for dst, _ in members])
        getters = tuple(
            _column_getter([positions[j] for _, positions in members])
            for j in range(count)
        )
        groups.append((count, dsts, getters))
    lane.groups = tuple(groups)
    lane.m_dst = m_dst
    lane.m_get = tuple(m_get)
    lane.m_cnt = m_cnt
    lane.sent = sent
    lane.remote = remote
    return lane


def _group_fold(combine, getters, shares):
    """Fold one contributor-column group pairwise, column by column.

    Column ``j`` holds every grouped destination's ``j``-th message,
    so chaining ``map(combine, carry, column_j)`` left to right
    performs, for each destination, exactly the per-vertex path's
    ``acc = combine(acc, msg)`` sequence in arrival order — batched
    across the whole group at C level.  Module-level for the same
    reason as :func:`_segment_folder`: the oracle-differential tests
    swap in a deliberately re-associated version and prove the
    harness catches it.
    """
    columns = iter(getters)
    carry = next(columns)(shares)
    for getter in columns:
        carry = map(combine, carry, getter(shares))
    return carry


def _scatter_combined(lane, shares, acc, cnt, combine):
    """Write one lane's shares into a combining accumulator lane.

    Equivalent to the per-vertex ``enqueue_fast_combining`` sequence:
    each destination's messages folded pairwise in arrival order
    (never seeded with a literal zero, which would flip ``-0.0``),
    counts set to the contribution count.  Single-contributor
    destinations skip the fold entirely via one flat C-level
    ``itemgetter`` call; grouped destinations fold column-wise
    (:func:`_group_fold`); the fat leftovers fold per destination
    (:func:`_segment_folder`).
    """
    if lane.s_dst:
        _drain(map(_SETITEM, repeat(acc), lane.s_dst, lane.s_get(shares)))
        _drain(map(_SETITEM, repeat(cnt), lane.s_dst, repeat(1)))
    for count, dsts, getters in lane.groups:
        _drain(
            map(
                _SETITEM,
                repeat(acc),
                dsts,
                _group_fold(combine, getters, shares),
            )
        )
        _drain(map(_SETITEM, repeat(cnt), dsts, repeat(count)))
    if lane.m_dst:
        fold = _segment_folder(combine)
        apply_shares = _CALL_WITH("__call__", shares)
        _drain(
            map(
                _SETITEM,
                repeat(acc),
                lane.m_dst,
                map(fold, map(apply_shares, lane.m_get)),
            )
        )
        _drain(map(_SETITEM, repeat(cnt), lane.m_dst, lane.m_cnt))


def _scatter_lists(lane, shares, acc):
    """Write one lane's shares into a plain (non-combining) accumulator
    lane as *fresh* per-destination buckets in arrival order — delivery
    adopts the first occupied lane's bucket object, so lanes must never
    share list instances."""
    if lane.s_dst:
        # ``zip(column)`` wraps each value in a 1-tuple at C level, so
        # ``map(list, ...)`` materializes the fresh single-item buckets
        # without a per-value Python frame.
        _drain(
            map(
                _SETITEM,
                repeat(acc),
                lane.s_dst,
                map(list, zip(lane.s_get(shares))),
            )
        )
    for _count, dsts, getters in lane.groups:
        columns = [getter(shares) for getter in getters]
        _drain(
            map(_SETITEM, repeat(acc), dsts, map(list, zip(*columns)))
        )
    if lane.m_dst:
        apply_shares = _CALL_WITH("__call__", shares)
        _drain(
            map(
                _SETITEM,
                repeat(acc),
                lane.m_dst,
                map(list, map(apply_shares, lane.m_get)),
            )
        )


def _link_commit_order(lanes):
    """Precompute each lane's ``novel`` column: the destinations it is
    the *first* lane to touch, in first-touch order.

    When a kernel scatters through every lane in worker-index order
    (the only way the serial host runs them), extending ``out_dirty``
    with the lanes' ``novel`` columns reproduces exactly the
    stamp-dedup that ``flush_worker_sends`` performs over a lane's
    ``touched`` list — but the dedup is paid once at compile time
    instead of every superstep."""
    seen = set()
    for lane in lanes:
        novel = [dst for dst in lane.order if dst not in seen]
        seen.update(novel)
        lane.novel = array("q", novel)


def _scatter(plan, shares, lane) -> None:
    """Write ``shares`` through ``plan`` into ``lane``'s accumulators
    (combining or plain, as the lane is laid out)."""
    if lane.cnt is not None:
        _scatter_combined(plan, shares, lane.acc, lane.cnt, lane.combine)
    else:
        _scatter_lists(plan, shares, lane.acc)


def _compile_lane_scatter(lane, program):
    """``compile`` of the kernels that scatter along every out-edge."""
    base = lane.base
    return _compile_scatter_lane(
        lane.start - base, lane.stop - base,
        lane.dense_out, lane.remote_out,
    )


def fast_compute_pass(engine, wake_all: bool) -> int:
    """The serial host: one superstep of the dense fast path, lane by
    lane in worker-index order.

    Runs the program's vectorized kernel when :func:`vector_phase`
    proves it for *this* superstep and every lane compiled, the
    per-vertex :func:`dense_compute_pass` otherwise; records the tier
    used on the engine and its workers for trace observability.
    """
    fabric = engine._fabric
    phase = vector_phase(engine, wake_all)
    plans = _serial_plans(engine) if phase is not None else None
    if not wake_all and (
        phase == "gather" if plans
        else any(lane.awake is not None for lane in fabric.lanes)
    ):
        # Some lane may walk a frontier: each takes its contiguous share
        # of the occupied slots, ascending (``in_dirty`` keeps delivery order).
        ordered = sorted(fabric.in_dirty)
        for lane in fabric.lanes:
            lo = bisect_left(ordered, lane.start)
            lane.arrivals = ordered[lo:bisect_left(ordered, lane.stop)]
    fabric.stamp += 1
    active = 0
    for lane in fabric.lanes:
        seg_start = time.perf_counter()
        plan = plans[lane.index] if plans else None
        if plan is None:
            fabric.bind_lane(lane)
        tier, executed, scattered = lane_compute_pass(
            engine, lane, wake_all, phase, plan
        )
        if scattered is not None:
            # The plan's cross-lane dedup was paid at compile time.
            fabric.out_dirty.extend(scattered.novel)
            if fabric.memory_budget is not None:
                fabric.account_lane(lane.index, scattered.order)
        elif lane.touched:
            fabric.flush_worker_sends(lane)
        active += len(executed)
        lane.worker.kernel_tier = engine._kernel_tier = tier
        lane.worker.wall_seconds = time.perf_counter() - seg_start
    fabric.drain_inbox()
    return active


def _serial_plans(engine):
    """One compiled plan per lane of the engine's fabric, or ``None``
    when any lane declines — all or nothing, because the scatter
    plans' precomputed ``novel`` columns assume every earlier lane
    scattered its whole order.  Compiled once per dense index."""
    fabric = engine._fabric
    cache = engine._vector_kernel_cache
    if cache is not None and cache[0] is fabric.dense:
        return cache[1]
    plans = [compile_plan(engine._program, lane) for lane in fabric.lanes]
    if None in plans:
        plans = None
    else:
        _link_commit_order(
            [plan for plan in plans if type(plan) is _ScatterLane]
        )
    engine._vector_kernel_cache = (fabric.dense, plans)
    return plans


def _feed_tracker(tracker, program, seg_states, seg_slots, sends):
    """One tracker row per vertex of a whole-lane pass, in visit
    order: ``sends`` says whether the phase scattered along every
    out-edge, ``seg_slots`` (``None`` on a seed phase) what arrived."""
    state_size = program.state_size
    record = tracker.record_vertex
    for i, state in enumerate(seg_states):
        slot = seg_slots[i] if seg_slots is not None else None
        ln = len(slot) if slot else 0
        sent = len(state.out_edges) if sends else 0
        record(state.id, sent, ln, 1 + ln + sent + 0.0, state_size(state))


# -- PageRank ---------------------------------------------------------------


def _pagerank_phase(program, fabric, superstep, wake_all):
    """Which vectorized PageRank phase covers this superstep, if any.

    The program's ``compute`` has exactly three shapes, keyed on the
    superstep number: seed (rank ``1/n`` + scatter at superstep 0),
    steady (gather + aggregate + scatter), final (gather + aggregate +
    halt at ``num_supersteps``).  Anything off-script — a wake-all
    re-activation mid-run, a pre-halted vertex, supersteps past the
    program's horizon (possible after ``master_compute`` re-activates)
    — declines so the per-vertex loop reproduces it.
    """
    num = program.num_supersteps
    if superstep > num:
        return None
    states = fabric.dense_states
    if not states:
        return None
    if superstep == 0:
        if not wake_all or fabric.in_dirty:
            return None
    elif wake_all:
        return None
    if any(map(_HALTED, states)):
        return None
    return "seed" if superstep == 0 else ("final" if superstep == num else "steady")


class PageRankKernel:
    """Whole-lane PageRank pass over the slot mailboxes.

    Gather is ``sum(slot, 0.0)`` — the same left fold, seeded the same
    way, as the reference's ``total = 0.0; for m in messages: total +=
    m``.  The new rank is ``base + d * total`` with ``base`` computed
    by the reference's own expression ``(1.0 - damping) / n``, and
    shares divide by the int out-degree exactly converted to float —
    every float op bit-identical to the per-vertex loop.
    """

    applies = staticmethod(_pagerank_phase)
    compile = staticmethod(_compile_lane_scatter)

    @staticmethod
    def run(host, lane, plan, phase):
        program = host._program
        worker = lane.worker
        lo = lane.start - lane.base
        hi = lane.stop - lane.base
        seg_states = lane.states[lo:hi]
        n_seg = hi - lo
        n = host.num_vertices
        d = program.damping
        if phase == "seed":
            seg_slots = None
            total_msgs = 0
            new_vals = [1.0 / n] * n_seg
        else:
            seg_slots = lane.in_slots[lo:hi]
            total_msgs = sum(map(len, filter(None, seg_slots)))
            totals = [
                sum(slot, 0.0) if slot else 0.0 for slot in seg_slots
            ]
            new_vals = _affine(totals, d, (1.0 - d) / n)
            # L1 deltas aggregate in visit order, before assignment —
            # the reference aggregates against the *old* value.
            host._aggregate_many(
                "l1_change",
                map(abs, map(_SUB, new_vals, map(_VALUE, seg_states))),
            )
        _drain(map(setattr, seg_states, repeat("value"), new_vals))
        if phase == "final":
            _drain(
                map(setattr, seg_states, repeat("halted"), repeat(True))
            )
            sent = 0
            scattered = None
        else:
            sent = plan.sent
            if plan.n:
                shares = _elementwise_div(
                    plan.value_getter(new_vals), plan.degs
                )
                _scatter(plan, shares, lane)
            worker.sent_logical += sent
            worker.sent_remote += plan.remote
            scattered = plan
        worker.work += float(n_seg + total_msgs + sent)
        if host._tracker is not None:
            _feed_tracker(
                host._tracker, program, seg_states, seg_slots,
                phase != "final",
            )
        return range(lane.start, lane.stop), scattered


# -- Min-propagation (hashmin / WCC) ----------------------------------------


def _plain_numeric_ids(ids):
    """True when every vertex id is a plain (non-bool) int or float.

    The min-label programs' labels are always drawn from the vertex-id
    set, and ``repr_key`` orders plain numerics by value alone, so
    under this proof ``min(messages)`` and ``a < b`` reproduce the
    keyed comparisons exactly — ties, NaNs and mixed int/float
    included, because the key tuples' leading elements are then always
    equal and every tuple comparison reduces to the same underlying
    value comparison the plain operators perform."""
    return all(type(i) in (int, float) for i in ids)


def _gather_phase(program, fabric, superstep, wake_all):
    """``"gather"`` — the phase a host shares ``arrivals`` out for —
    past superstep 0 with no wake-all and *every* vertex halted: the
    per-vertex loop would visit exactly the vertices holding mail."""
    states = fabric.dense_states
    if superstep and not wake_all and states and all(map(_HALTED, states)):
        return "gather"
    return None


class MinPropagationKernel:
    """Steady-state min-label pass (WCC and hashmin): visit the lane's
    occupied slots in ascending order, take the min message under the
    program's total order, and scatter improved labels along peer
    lists precompiled to dense indices and remote counts, so the loop
    never rebuilds a set or hashes an id.  The inline scatter mirrors
    the lane's generic fanout (first-touch append, pairwise combining
    in arrival order).

    Superstep 0 (candidate gathering) stays on the per-vertex loop;
    halt flags stay ``True`` throughout because the reference's
    wake -> compute -> ``vote_to_halt`` round-trips every visited
    vertex back to halted.

    ``key`` is the program's total order over labels (dropped under
    the plain-numeric proof).  ``peers_of(state)`` is the program's
    own peer-set expression, evaluated once per vertex at compile;
    ``None`` means the program propagates along its out-edges, which
    is exactly the lane's compiled adjacency.  ``charge_peers``
    reproduces WCC's cost model, which charges the peer-set size on
    every visit; hashmin's compute term is message count only.
    """

    def __init__(self, key, peers_of=None, charge_peers=False):
        self._key = key
        self._peers_of = peers_of
        self._charge_peers = charge_peers

    applies = staticmethod(_gather_phase)

    def compile(self, lane, program):
        """``(key, peer_idx, peer_remote)`` over the lane's range, or
        ``None`` when a peer is unknown (dangling edge) — the
        per-vertex loop must run so the send raises identically."""
        lo = lane.start - lane.base
        hi = lane.stop - lane.base
        if self._peers_of is None:
            peer_idx = lane.dense_out[lo:hi]
            if any(row is None for row in peer_idx):
                return None
            peer_remote = lane.remote_out[lo:hi]
        else:
            idx_get = lane.idx_of.get
            owner_of = lane.owner_of
            src = lane.index
            peer_idx = []
            peer_remote = []
            for state in lane.states[lo:hi]:
                row = []
                remote = 0
                for peer in self._peers_of(state):
                    j = idx_get(peer)
                    if j is None:
                        return None
                    row.append(j)
                    if owner_of[j] != src:
                        remote += 1
                peer_idx.append(row)
                peer_remote.append(remote)
        key = None if _plain_numeric_ids(lane.idx_of) else self._key
        return key, peer_idx, peer_remote

    def run(self, host, lane, plan, phase):
        key, peer_idx, peer_remote = plan
        charge_peers = self._charge_peers
        tracker = host._tracker
        state_size = host._program.state_size
        worker = lane.worker
        acc = lane.acc
        cnt = lane.cnt
        combine = lane.combine
        touched = lane.touched
        base = lane.base
        lo = lane.start - base
        states = lane.states
        in_slots = lane.in_slots
        work = worker.work
        sent_total = 0
        remote_total = 0
        executed: List[int] = []
        lane.awake = []
        for pos in lane.arrivals:
            messages = in_slots[pos]
            state = states[pos]
            ln = len(messages)
            i = pos - lo
            peers = peer_idx[i]
            n_peers = len(peers)
            if key is None:
                incoming = min(messages)
                improved = incoming < state.value
            else:
                incoming = min(messages, key=key)
                improved = key(incoming) < key(state.value)
            if improved:
                state.value = incoming
                if cnt is not None:
                    for dst in peers:
                        c = cnt[dst]
                        if c:
                            acc[dst] = combine(acc[dst], incoming)
                            cnt[dst] = c + 1
                        else:
                            acc[dst] = incoming
                            cnt[dst] = 1
                            touched.append(dst)
                else:
                    for dst in peers:
                        bucket = acc[dst]
                        if bucket is None:
                            acc[dst] = [incoming]
                            touched.append(dst)
                        else:
                            bucket.append(incoming)
                sent = n_peers
                sent_total += n_peers
                remote_total += peer_remote[i]
            else:
                sent = 0
            executed.append(pos + base)
            if charge_peers:
                ops = 1 + ln + sent + (0.0 + n_peers + ln)
            else:
                ops = 1 + ln + sent + (0.0 + ln)
            work += ops
            if tracker is not None:
                tracker.record_vertex(
                    state.id, sent, ln, ops, state_size(state)
                )
        worker.work = work
        worker.sent_logical += sent_total
        worker.sent_remote += remote_total
        return executed, None


# -- Degree centrality ------------------------------------------------------


class DegreeKernel:
    """Degree-style workload: a seed superstep scattering a constant
    ``1.0`` along the precompiled plan, then pure gather supersteps
    (``value += sum(slot, 0.0)``) over the occupied slots with every
    vertex staying halted."""

    @staticmethod
    def applies(program, fabric, superstep, wake_all):
        if superstep:
            return _gather_phase(program, fabric, superstep, wake_all)
        states = fabric.dense_states
        if not states or not wake_all or fabric.in_dirty:
            return None
        return None if any(map(_HALTED, states)) else "seed"

    compile = staticmethod(_compile_lane_scatter)

    @staticmethod
    def run(host, lane, plan, phase):
        program = host._program
        tracker = host._tracker
        worker = lane.worker
        base = lane.base
        states = lane.states
        lane.awake = []
        if phase == "seed":
            seg_states = states[lane.start - base:lane.stop - base]
            for state in seg_states:
                state.value = 0.0
                state.halted = True
            if plan.n:
                _scatter(plan, [1.0] * plan.n, lane)
            worker.sent_logical += plan.sent
            worker.sent_remote += plan.remote
            worker.work += float(len(seg_states) + plan.sent)
            if tracker is not None:
                _feed_tracker(tracker, program, seg_states, None, True)
            return range(lane.start, lane.stop), plan
        state_size = program.state_size
        in_slots = lane.in_slots
        work = worker.work
        executed: List[int] = []
        for pos in lane.arrivals:
            messages = in_slots[pos]
            state = states[pos]
            ln = len(messages)
            state.value = state.value + sum(messages, 0.0)
            executed.append(pos + base)
            ops = 1 + ln + 0.0
            work += ops
            if tracker is not None:
                tracker.record_vertex(
                    state.id, 0, ln, ops, state_size(state)
                )
        worker.work = work
        return executed, None
