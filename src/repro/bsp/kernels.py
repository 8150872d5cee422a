"""Compute kernels: the per-superstep vertex-execution loops.

Bottom layer of the decomposed runtime (``docs/architecture.md``).
The per-vertex loop lives here: :func:`dense_compute_pass`, written
against **one worker's lane** (:class:`~repro.bsp.fabric.DenseLane`):
vertices reached by dense position, messages sliced out of the lane's
inbox columns, sends folded into the lane's mail.

It visits vertices in Pregel's order (worker index order, then the
worker's ``vertex_ids`` order — the dense ranges mirror it), applies
the wake/halt transitions, charges work ``1 + len(messages) + sent +
charged`` per compute call and feeds the BPPA tracker — the counts
the differential suites hold to their oracle, an interpreter that
shares none of this code (``docs/architecture.md``, "Oracle").

One dense plane, two hosts
--------------------------

Everything on the dense path — :func:`dense_compute_pass` and every
vectorized kernel's ``run`` — executes one lane and is handed a
*host*: the object owning the lane's run-scoped collaborators
(``_program``, ``_ctx``, ``_tracker``, ``num_vertices``,
``_agg_sink``).  There are exactly two hosts.  The serial engine
loops its workers' lanes in index order (:func:`fast_compute_pass`);
a pool rank of the parallel backend (:mod:`repro.bsp.parallel`) runs
its single lane (:func:`lane_compute_pass`).  What differs between
them is bookkeeping only, kept at the two call sites: the engine
folds aggregate contributions where a rank logs them for the
coordinator, and hands a lane's record to its fabric's barrier where
a rank ships it grouped by owning rank.

Sparse supersteps
-----------------

A superstep costs its *active* vertices.  Only a vertex that holds
mail or was left un-halted can execute, so :func:`dense_compute_pass`
walks the lane's frontier — ``lane.arrivals ∪ lane.awake``, ascending,
the range scan's order — and scans ``[start, stop)`` only when that
is not known to be cheaper: on a wake-all superstep, when ``awake``
is ``None`` (fresh or re-indexed lanes; after a whole-lane kernel, a
rollback, a confined replay or a rank reload rewrote ``halted``;
after a pass that ran every vertex), or when the frontier is as long
as the range.  The gather kernels below visit ``lane.arrivals`` the
same way.  The GAS, block and async loops live with their engines.

The vectorized tier
-------------------

On top of the per-vertex loops sit whole-lane **vectorized kernels**:
one superstep of a *registered* program as array-shaped passes over
the lane's inbox columns and a scatter plan compiled from its dense
adjacency (stdlib ``array`` columns, no numpy) in up to two stages.
The count stage tallies each destination's messages in first-touch
order, all a constant scatter (degree) needs; the place stage, run
only where a share depends on its sender (PageRank), transposes the
rows into per-destination sender columns.  Exact reproduction is the
admission rule: a kernel registers for exactly one program class
(``register_vectorized``) and has three parts —

* ``applies(program, fabric, superstep, wake_all) -> phase | None``:
  a cheap, state-based proof that this superstep is expressible with
  the *identical* float operation sequence as the per-vertex loop
  (fixed summation order per destination, left folds with no injected
  zero seed, division by the same exactly-converted degree), evaluated
  on the authoritative fabric (:func:`vector_phase`);
* ``compile(lane, program) -> plan | None``: the lane's topology
  compiled once (``None`` when it cannot be reproduced exactly, e.g.
  a dangling out-edge whose send must raise);
* ``run(host, lane, plan, phase)``: the lane's share of the superstep.
  A kernel that scatters through its plan returns its lane record's
  payload column instead of sending into the lane's mail.

Every other superstep — fault-injected runs, wake-all phases,
unregistered programs, non-conforming topology — runs
:func:`dense_compute_pass`, per superstep (a mutation re-indexes the
plane; plans recompile).  The tier used is reported per superstep in
``engine._kernel_tier`` / ``Worker.kernel_tier`` (observability only).
"""

from __future__ import annotations

import operator
import time
from array import array
from bisect import bisect_left
from collections import Counter
from functools import partial, reduce
from itertools import accumulate, chain, repeat
from typing import Any, Dict, List, Tuple

from repro.bsp.aggregator import left_sum
from repro.bsp.fabric import _drain, _planned


def dense_compute_pass(host, lane, wake_all: bool):
    """One worker's compute calls on the dense path.

    Vertex state and mailboxes are reached by dense position in the
    lane, not by hashing.  ``lane.cur`` tracks the executing vertex
    for the lane's full-neighbor fanout (and, on a pool rank, for the
    heartbeat's progress reading).  Returns the dense indices
    visited, in order, and leaves ``lane.awake`` for the next pass.
    Walks the lane's frontier, or its whole range when the frontier
    is not known to be smaller (module docstring).
    """
    lane.materialize()  # programs read and edit real edge dicts
    program = host._program
    ctx = host._ctx
    tracker = host._tracker
    compute = program.compute
    state_size = program.state_size
    begin_vertex = ctx._begin_vertex
    states = lane.states
    in_msgs, in_start, in_count = lane.in_msgs, lane.in_start, lane.in_count
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
        count = in_count[pos]
        if count:
            state.halted = False
            # A fresh list per visit: the program may keep or mutate it.
            lo = in_start[pos]
            messages = in_msgs[lo:lo + count]
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


def vector_phase(engine, wake_all: bool):
    """The vectorized phase covering this superstep, or ``None`` for
    the per-vertex loop.

    Evaluated against the authoritative fabric state — the serial
    engine's own, or the coordinator's on the parallel backend, so
    every rank receives the same verdict.  Declines outright when a
    fault injector is present (the exactness proofs do not cover
    replayed supersteps) or the program's exact class has no kernel.
    """
    if engine._injector is not None:
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
    """One lane's share of a superstep, on the tier its plan allows;
    returns ``(tier, executed, order, record)``: ``executed`` is the
    dense indices visited, in visit order; ``record`` the lane's mail
    for the barrier — a payload column in its plan's ``shape()``, its
    sends charged to the lane's worker here, or the sends detached
    from ``lane.mail`` — and ``order`` its destinations' first-touch
    order.
    """
    tier, emitted = "vectorized", None
    if plan is None:
        tier, executed = "dense", dense_compute_pass(host, lane, wake_all)
    elif lane.start == lane.stop:  # no vertex to run, nothing to send
        lane.awake, executed = None, ()
    else:
        lane.awake = None  # unless the kernel keeps every vertex halted
        kernel = _VECTOR_KERNELS[type(host._program)]
        executed, emitted = kernel.run(host, lane, plan, phase)
    if emitted is None:
        record = lane.detach()
        return tier, executed, record.touched, record
    lane.worker.sent_logical += plan.sent
    lane.worker.sent_remote += plan.remote
    return tier, executed, plan.order, _planned(plan, emitted)


def _segment_folder(combine):
    """Left fold with *no* initial value, matching send-time combining:
    ``acc = combine(acc, msg)`` in arrival order, seeded by the first
    message — a literal zero would turn ``-0.0`` into ``+0.0`` under
    sum-combining.  Module-level so the oracle-differential tests can
    swap in a re-associated fold and prove the harness catches it."""
    return partial(reduce, combine)


def _affine(totals, scale, shift):
    """``shift + scale * totals[i]`` elementwise — the program's own
    expression, one IEEE-754 multiply and one add per element."""
    return [shift + scale * t for t in totals]


_HALTED = operator.attrgetter("halted")
_VALUE = operator.attrgetter("value")
_SUB = operator.sub
#: ``getter(shares)`` as a mappable: C-level apply over a getter column.
_CALL_WITH = operator.methodcaller


class _CountPlan:
    """A scatter plan's count stage (:func:`_count_stage`): the lane's
    destinations in first-touch order (``order``, the order of its
    mail after a per-vertex pass), how many messages each gets
    (``counts``) and the lane's ``sent`` and ``remote`` tallies — all
    a constant scatter's record needs (:func:`_constant_payloads`)."""

    __slots__ = ("order", "counts", "sent", "remote")

    def shape(self):
        return self.order, self.counts


class _ScatterLane(_CountPlan):
    """A full scatter plan: the count stage, then the place stage
    (:func:`_place_stage`), for shares that depend on the sender.

    Transposes the range's out-adjacency into per-destination gather
    lists over the range's *share values* (one per sending vertex, in
    ascending vertex order — the per-vertex loop's enqueue order).
    Single-contributor destinations share one flat ``itemgetter``
    (``s_dst``/``s_get``).  Those with 2..``_GROUP_MAX`` contributors
    are grouped by contributor count ``k`` into ``k`` *contributor
    columns* (``groups``): column ``j`` holds each grouped
    destination's ``j``-th message position, so a group folds with
    ``k - 1`` C-level ``map(combine, ...)`` passes — the same
    per-destination left fold, batched.  Fatter destinations keep
    their own getter and fold count (``m_dst``/``m_get``/``m_cnt``).
    """

    __slots__ = (
        "n", "value_getter", "degs",
        "s_dst", "s_get", "groups", "m_dst", "m_get", "m_cnt", "_shape",
    )

    def shape(self):
        """``(touched, counts)`` in :func:`_emit`'s order — singles,
        groups, fat — built once: every record has the same shape."""
        if self._shape is None:
            touched = array("q", self.s_dst)
            counts = array("q", [1]) * len(touched)
            for count, dsts, _getters in self.groups:
                touched += dsts
                counts += array("q", [count]) * len(dsts)
            self._shape = touched + self.m_dst, counts + self.m_cnt
        return self._shape


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


def _count_stage(plan, lo, hi, adjacency):
    """Fill ``plan``'s count stage for dense positions ``[lo, hi)`` of
    ``adjacency`` (``(out_start, out_dst, remote_out, dangling)``, rows
    of global dense indices) and return the range's targets and their
    ``Counter``; ``None`` when a vertex in range has a dangling
    out-edge — the per-vertex path must run so the send raises."""
    out_start, out_dst, remote_out, dangling = adjacency
    if any(lo <= pos < hi for pos in dangling):
        return None
    dsts = out_dst[out_start[lo]:out_start[hi]]
    counts = Counter(dsts)
    plan.order = array("q", counts)
    plan.counts = array("q", counts.values())
    plan.sent = len(dsts)
    plan.remote = sum(remote_out[lo:hi])
    return dsts, counts


def _compile_scatter_lane(lo, hi, adjacency):
    """Count, then place: ``[lo, hi)``'s full plan (``None``: dangling)."""
    lane = _ScatterLane()
    counted = _count_stage(lane, lo, hi, adjacency)
    return counted and _place_stage(lane, lo, hi, adjacency[0], *counted)


def _place_stage(lane, lo, hi, out_start, dsts, counts):
    """``lane``'s place stage: destinations ordered by (count, first
    touch) each get a run of one flat placement column, filled with
    the sender ordinals in send order; the plan's columns are cuts of
    that column.  No container is built per destination or vertex."""
    lens = list(map(_SUB, out_start[lo + 1:hi + 1], out_start[lo:hi]))
    senders = list(filter(lens.__getitem__, range(hi - lo)))
    k = len(senders)
    lane._shape, lane.n = None, k
    lane.degs = array("d", map(float, filter(None, lens)))
    if not k:
        lane.value_getter = None
    elif senders[-1] - senders[0] + 1 == k:
        lane.value_getter = operator.itemgetter(
            slice(senders[0], senders[-1] + 1)
        )
    else:
        lane.value_getter = operator.itemgetter(*senders)
    ranked = sorted(counts, key=counts.__getitem__)
    sizes = list(map(counts.__getitem__, ranked))
    cursor = dict(zip(ranked, accumulate(sizes, initial=0)))
    place = [0] * len(dsts)
    ordinals = chain.from_iterable(map(repeat, range(k), filter(None, lens)))
    for j, dst in zip(ordinals, dsts):
        at = cursor[dst]
        place[at] = j
        cursor[dst] = at + 1
    lane.s_dst, lane.s_get = array("q"), None
    groups, fat = [], {}
    d = at = 0
    for count, members in sorted(Counter(sizes).items()):
        run = ranked[d:d + members]
        block = place[at:at + count * members]
        if count == 1:
            lane.s_dst = array("q", run)
            lane.s_get = _column_getter(block)
        elif count <= _GROUP_MAX:
            getters = tuple(
                _column_getter(block[j::count]) for j in range(count)
            )
            groups.append((count, array("q", run), getters))
        else:
            for i, dst in enumerate(run):
                fat[dst] = block[i * count:(i + 1) * count]
        d += members
        at += count * members
    lane.groups = tuple(groups)
    m_dst = list(filter(fat.__contains__, counts))
    lane.m_dst = array("q", m_dst)
    lane.m_get = tuple(operator.itemgetter(*fat[dst]) for dst in m_dst)
    lane.m_cnt = array("q", map(counts.__getitem__, m_dst))
    return lane


def _group_fold(combine, getters, shares):
    """Fold one contributor-column group pairwise, column by column:
    column ``j`` holds every grouped destination's ``j``-th message,
    so chaining ``map(combine, carry, column_j)`` is, per destination,
    the per-vertex path's ``acc = combine(acc, msg)`` in arrival order,
    batched at C level.  Module-level as :func:`_segment_folder` is."""
    columns = iter(getters)
    carry = next(columns)(shares)
    for getter in columns:
        carry = map(combine, carry, getter(shares))
    return carry


def _emit(lane, shares, combine):
    """One lane's shares as its record's payload column, in
    :meth:`_ScatterLane.shape` order: a destination's messages laid end
    to end in arrival order without a combiner, else left-folded as a
    combining lane's sends fold — groups column-wise
    (:func:`_group_fold`), fat ones by :func:`_segment_folder`."""
    out = list(lane.s_get(shares)) if lane.s_dst else []
    apply_shares = _CALL_WITH("__call__", shares)
    if combine is None:
        for _count, _dsts, getters in lane.groups:
            out += chain.from_iterable(zip(*[g(shares) for g in getters]))
        out += chain.from_iterable(map(apply_shares, lane.m_get))
        return out
    for _count, _dsts, getters in lane.groups:
        out += _group_fold(combine, getters, shares)
    if lane.m_dst:
        fold = _segment_folder(combine)
        out += map(fold, map(apply_shares, lane.m_get))
    return out


def _constant_payloads(counts, message, combine):
    """The payload column of ``counts[i]`` copies of ``message`` to
    each destination ``i``: laid end to end without a combiner, else
    left-folded by :func:`_segment_folder` once per distinct count."""
    if combine is None:
        return list(chain.from_iterable(map(repeat, repeat(message), counts)))
    fold = _segment_folder(combine)
    folded = {count: fold([message] * count) for count in set(counts)}
    return list(map(folded.__getitem__, counts))


def _lane_range(lane):
    """``(lo, hi, adjacency)`` of ``lane``'s range, for the compiles."""
    base = lane.base
    return lane.start - base, lane.stop - base, (
        lane.out_start, lane.out_dst, lane.remote_out, lane.dangling
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
        # of the mailed positions, ascending (``in_dirty`` is unsorted).
        ordered = sorted(fabric.in_dirty)
        for lane in fabric.lanes:
            lo = bisect_left(ordered, lane.start)
            lane.arrivals = ordered[lo:bisect_left(ordered, lane.stop)]
    active = 0
    for lane in fabric.lanes:
        seg_start = time.perf_counter()
        plan = plans[lane.index] if plans else None
        if plan is None:
            fabric.bind_lane(lane)
        tier, executed, order, record = lane_compute_pass(
            engine, lane, wake_all, phase, plan
        )
        fabric.flush_worker_sends(lane.index, order, record)
        active += len(executed)
        lane.worker.kernel_tier = engine._kernel_tier = tier
        lane.worker.wall_seconds = time.perf_counter() - seg_start
    fabric.drain_inbox()
    return active


def _serial_plans(engine):
    """One compiled plan per lane of the engine's fabric, or ``None``
    when any lane declines — all or nothing: a superstep runs on one
    tier.  Compiled once per dense index."""
    fabric = engine._fabric
    cache = engine._vector_kernel_cache
    if cache is not None and cache[0] is fabric.dense:
        return cache[1]
    plans = [compile_plan(engine._program, lane) for lane in fabric.lanes]
    if None in plans:
        plans = None
    engine._vector_kernel_cache = (fabric.dense, plans)
    return plans


def _feed_tracker(tracker, program, lane, seg_states, seg_counts, sends):
    """One tracker row per vertex of a whole-lane pass, in visit
    order: ``sends`` says whether the phase scattered along every
    out-edge — as many messages as the lane's compiled row holds —
    and ``seg_counts`` (``None`` on a seed phase) how many arrived."""
    state_size = program.state_size
    record = tracker.record_vertex
    lo = lane.start - lane.base
    starts = lane.out_start[lo:lo + len(seg_states) + 1]
    degs = map(_SUB, starts[1:], starts) if sends else repeat(0)
    for i, (state, sent) in enumerate(zip(seg_states, degs)):
        ln = seg_counts[i] if seg_counts is not None else 0
        record(state.id, sent, ln, 1 + ln + sent + 0.0, state_size(state))


# -- PageRank ---------------------------------------------------------------


def _pagerank_phase(program, fabric, superstep, wake_all):
    """Which vectorized PageRank phase covers this superstep, if any:
    seed (rank ``1/n`` + scatter at superstep 0), steady (gather +
    aggregate + scatter) or final (gather + aggregate + halt at
    ``num_supersteps``).  Anything off-script — a wake-all mid-run, a
    pre-halted vertex, supersteps past the program's horizon (after
    ``master_compute`` re-activates) — declines to the per-vertex loop.
    """
    num = program.num_supersteps
    if superstep > num:
        return None
    states = fabric.dense_states
    if not states:
        return None
    if superstep == 0:
        if not wake_all or fabric.in_dirty or fabric.held:
            return None
    elif wake_all:
        return None
    if any(map(_HALTED, states)):
        return None
    return "seed" if superstep == 0 else ("final" if superstep == num else "steady")


class PageRankKernel:
    """Whole-lane PageRank pass over the inbox columns.

    Gather is ``left_sum(messages, 0.0)`` over each position's slice of
    ``in_msgs`` (empty without mail) — the same left fold, in the same
    worker order, seeded the same way, as the program's ``total =
    0.0; for m in messages: total += m``.  The new rank is ``base + d
    * total`` with ``base`` computed by the program's own expression
    ``(1.0 - damping) / n``, and shares divide by the int out-degree
    exactly converted to float — every float op bit-identical to the
    per-vertex loop.
    """

    applies = staticmethod(_pagerank_phase)

    @staticmethod
    def compile(lane, program):
        return _compile_scatter_lane(*_lane_range(lane))

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
            seg_counts, total_msgs = None, 0
            new_vals = [1.0 / n] * n_seg
        else:
            seg_counts = lane.in_count[lo:hi]
            total_msgs = sum(seg_counts)
            msgs = lane.in_msgs
            totals = [
                left_sum(msgs[start:start + count], 0.0)
                for start, count in zip(lane.in_start[lo:hi], seg_counts)
            ]
            new_vals = _affine(totals, d, (1.0 - d) / n)
            # L1 deltas aggregate in visit order, before assignment —
            # the program aggregates against the *old* value.
            host._agg_sink.aggregate_many(
                "l1_change",
                map(abs, map(_SUB, new_vals, map(_VALUE, seg_states))),
            )
        _drain(map(setattr, seg_states, repeat("value"), new_vals))
        if phase == "final":
            _drain(map(setattr, seg_states, repeat("halted"), repeat(True)))
            sent, emitted = 0, None
        else:
            sent = plan.sent
            emitted = _emit(plan, list(map(
                operator.truediv, plan.value_getter(new_vals), plan.degs
            )), lane.combine) if plan.n else []
        worker.work += float(n_seg + total_msgs + sent)
        if host._tracker is not None:
            _feed_tracker(
                host._tracker, program, lane, seg_states, seg_counts,
                phase != "final",
            )
        return range(lane.start, lane.stop), emitted


# -- Min-propagation (hashmin / WCC) ----------------------------------------


def _plain_numeric_ids(ids):
    """True when every vertex id is a plain (non-bool) int or float.

    The min-label programs' labels are drawn from the vertex-id set,
    and ``repr_key`` orders plain numerics by value alone, so then
    ``min(messages)`` and ``a < b`` reproduce the keyed comparisons
    exactly — ties, NaNs and mixed int/float included: the key tuples'
    leading elements are equal, so every tuple comparison is the
    plain operators' value comparison."""
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
    mailed positions in ascending order, take the min message under the
    program's total order, and scatter improved labels along peer
    lists precompiled to dense indices and remote counts — no set
    rebuilt, no id hashed — through the lane's own scatter
    (:meth:`~repro.bsp.fabric.DenseLane.scatter`).  Superstep 0 stays
    on the per-vertex loop; halt flags stay ``True`` throughout, as
    every visit round-trips to ``vote_to_halt``.

    ``key`` is the program's total order over labels (dropped under
    the plain-numeric proof).  ``peers_of(state)`` is the program's
    own peer-set expression, evaluated once per vertex at compile;
    ``None`` means its out-edges, the lane's compiled adjacency.
    ``charge_peers`` reproduces WCC's cost model, which charges the
    peer-set size on every visit; hashmin's charges messages only.
    """

    def __init__(self, key, peers_of=None, charge_peers=False):
        self._key = key
        self._peers_of = peers_of
        self._charge_peers = charge_peers

    applies = staticmethod(_gather_phase)

    def compile(self, lane, program):
        """``(key, off, starts, peers, remote)``: the peers of lane
        position ``pos`` are ``peers[starts[i]:starts[i + 1]]`` with
        ``i = pos - off``, ``remote[i]`` of them on other workers —
        the lane's own adjacency columns, or the program's peer sets
        laid out the same way.  ``None`` when a peer is unknown
        (dangling edge), so the per-vertex send raises."""
        lo = lane.start - lane.base
        hi = lane.stop - lane.base
        if self._peers_of is None:
            if any(lo <= pos < hi for pos in lane.dangling):
                return None
            off, starts, peers = 0, lane.out_start, lane.out_dst
            remote = lane.remote_out
        else:
            lane.materialize()  # the peer sets read the edge dicts
            idx_get = lane.idx_of.get
            off, starts = lo, array("q", [0])
            peers, remote = array("q"), array("q")
            for state in lane.states[lo:hi]:
                row = list(map(idx_get, self._peers_of(state)))
                if None in row:
                    return None
                peers.extend(row)
                starts.append(len(peers))
                remote.append(lane._remote(row))
        key = None if _plain_numeric_ids(lane.idx_of) else self._key
        return key, off, starts, peers, remote

    def run(self, host, lane, plan, phase):
        key, off, starts, peer_dst, peer_remote = plan
        charge_peers = self._charge_peers
        tracker = host._tracker
        state_size = host._program.state_size
        worker = lane.worker
        scatter = lane.scatter
        base = lane.base
        states = lane.states
        in_msgs, in_start = lane.in_msgs, lane.in_start
        in_count = lane.in_count
        work = worker.work
        executed: List[int] = []
        lane.awake = []
        for pos in lane.arrivals:
            ln = in_count[pos]
            messages = in_msgs[in_start[pos]:in_start[pos] + ln]
            state = states[pos]
            i = pos - off
            first = starts[i]
            n_peers = starts[i + 1] - first
            if key is None:
                incoming = min(messages)
                improved = incoming < state.value
            else:
                incoming = min(messages, key=key)
                improved = key(incoming) < key(state.value)
            if improved:
                state.value = incoming
                scatter(
                    peer_dst[first:first + n_peers], incoming, peer_remote[i]
                )
                sent = n_peers
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
        return executed, None


# -- Degree centrality ------------------------------------------------------


class DegreeKernel:
    """Degree-style workload: a seed superstep scattering a constant
    ``1.0`` along every out-edge — a record built from the count stage
    alone (:func:`_constant_payloads`), no place stage — then pure
    gather supersteps (``value += left_sum(messages, 0.0)``) over the
    mailed positions with every vertex staying halted."""

    @staticmethod
    def applies(program, fabric, superstep, wake_all):
        if superstep:
            return _gather_phase(program, fabric, superstep, wake_all)
        states = fabric.dense_states
        if not states or not wake_all or fabric.in_dirty or fabric.held:
            return None
        return None if any(map(_HALTED, states)) else "seed"

    @staticmethod
    def compile(lane, program):
        """The count stage alone: every message is ``1.0``."""
        plan = _CountPlan()
        return _count_stage(plan, *_lane_range(lane)) and plan

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
            emitted = _constant_payloads(plan.counts, 1.0, lane.combine)
            worker.work += float(len(seg_states) + plan.sent)
            if tracker is not None:
                _feed_tracker(tracker, program, lane, seg_states, None, True)
            return range(lane.start, lane.stop), emitted
        state_size = program.state_size
        in_msgs, in_start = lane.in_msgs, lane.in_start
        in_count = lane.in_count
        work = worker.work
        executed: List[int] = []
        for pos in lane.arrivals:
            ln = in_count[pos]
            state = states[pos]
            lo = in_start[pos]
            state.value = state.value + left_sum(in_msgs[lo:lo + ln], 0.0)
            executed.append(pos + base)
            ops = 1 + ln + 0.0
            work += ops
            if tracker is not None:
                tracker.record_vertex(
                    state.id, 0, ln, ops, state_size(state)
                )
        worker.work = work
        return executed, None
