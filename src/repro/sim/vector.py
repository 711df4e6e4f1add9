"""Vectorized batch engine over the columnar trace store.

The third execution path of :meth:`SimulationEngine.run` (after the
reference interpreter and the compiled segment-index loop): it consumes
the compiled "repro-trace v2" columns through zero-copy numpy views and
processes whole guaranteed-private runs as array operations, falling
back to the per-event interpreter at every segment boundary that
genuinely interleaves cores (sync events, shared epochs, THINK runs —
the latter were already O(1) per scheduling turn post-PR 3).

Why private runs batch exactly
------------------------------

Every event of a PRIVATE segment is a *cold* miss on a block no core
ever cached (sole-toucher first touch, see
:mod:`repro.traces.compile`).  For each protocol backend a cold
transaction is a pure function of ``(core, kind, home, predicted set)``:

* ``communicating`` is False, ``responder`` is None, ``invalidated`` is
  empty and ``prediction_correct`` is None, so the miss handler's
  communication/epoch/accuracy bookkeeping reduces to per-class counter
  adds;
* its latency and NoC traffic are per-class constants, measured here by
  probing one representative transaction per class on a *scratch*
  substrate (same mesh and latencies, fresh directory, huge-associative
  caches so no victim traffic pollutes the delta) built from the same
  factories as the real one;
* predictor state advances in a closed form: ``peek_private_plan``
  returns the exact prediction sequence ``n`` sequential ``predict()``
  calls would produce (training is a no-op on cold misses, so the
  underlying counters are frozen), and ``commit_private_batch`` applies
  the state effects afterwards.

Only the cache *fills* — which evict real victims whose writebacks are
real traffic — are inherently sequential; they run per event through
the protocol's own fill helpers, so eviction behavior cannot drift from
the other two paths.  The scheduler quantum splits a batch at the exact
event-consume-then-check position of the interpreter via one
prefix-sum + ``searchsorted``; short windows (a contended quantum
admits only a few events) skip numpy and walk the same class constants
in plain Python, so the batch path never loses to the compiled one.

Cross-quantum windows
---------------------

At the default 400-cycle quantum each scheduling turn admits only a
couple of misses, so the per-turn costs of planning a batch (predictor
peek, class table, commit) used to dominate.  The trace compiler now
emits per-core *fusible-span* footprint summaries (maximal chains of
back-to-back THINK/PRIVATE segments whose shared-access count is zero
and whose end precedes the next sync marker — see
:meth:`CompiledTrace.span_summaries`).  Before running a turn for a
core parked at a span start, :func:`run_vector` builds a *window*: one
per-event cumulative-cost array over the whole span plus the frozen
single-chunk prediction plan.  Every later turn inside the span is then
a single ``bisect`` over that array — the interpreter's quantum breaks
replayed arithmetically — followed by eager per-slice fills and
predictor commits, so counters and cache/directory state stay
bit-identical.  Windows are dropped on thread migration and rebuilt
(re-peeked) whenever a foreign shared miss could have trained the
core's table (ADDR-style ``observe_external`` predictors).

Warm-transaction memo
---------------------

Shared epochs repeat: a stable producer/consumer pattern issues the
same miss against the same directory state epoch after epoch.  On the
plain full-map directory backend a transaction's latency/traffic is a
pure function of ``(kind, core, home, predicted set, directory-entry
fingerprint)``, so the vector path memoizes it: the first occurrence
runs the real protocol flow (with victim handling deferred and
replayed live), later occurrences apply the recorded counter deltas
and run the protocol's own mutation tail (fills, invalidations,
directory records) live.  State transitions therefore execute the
exact same code as the other two paths; only the accounting arithmetic
is replayed.

``repro check diff`` and the fuzzer certify all three paths
bit-identical on the complete ``SimulationResult.to_dict()`` payload.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

import numpy as np

from repro.cache.cache import CacheConfig, CacheLine
from repro.cache.hierarchy import AccessKind, HierarchyOutcome, PrivateHierarchy
from repro.coherence import make_directory, make_protocol
from repro.coherence.protocol import DirectoryProtocol
from repro.coherence.snooping import BroadcastProtocol
from repro.coherence.states import Mesif
from repro.noc.network import Network
from repro.sync.points import StaticSyncId, SyncKind
from repro.traces.compile import BLOCK_SHIFT, SEG_THINK, ensure_compiled
from repro.workloads.base import OP_READ, OP_THINK, OP_WRITE

#: Minimum events worth routing through numpy; below this the same class
#: constants are walked in plain Python (a contended scheduler quantum
#: admits only a handful of ~200-cycle misses per turn, where array-op
#: fixed costs would exceed the loop they replace).
_VECTOR_MIN = 24

#: Associativity of the scratch probe caches: large enough that probe
#: fills never evict (a victim writeback would pollute the measured
#: per-class traffic delta).
_SCRATCH_ASSOC = 1 << 12

#: Minimum span length (events) worth building a cross-quantum window
#: for; shorter spans are served by the per-turn batch kernel.
_WINDOW_MIN = 6

#: Warm-transaction memo capacity; cleared wholesale when full (the
#: working set of distinct (kind, core, home, predicted, directory state)
#: classes is orders of magnitude smaller on every known workload).
_MEMO_CAP = 1 << 16

_UNSET = object()
_ABSENT = object()
_COARSE = object()


class _ClassConst:
    """Measured constants of one cold-miss class ``(core, kind, home,
    predicted set)``: critical-path latency (including the engine-side
    L2 tag check), histogram bucket, and NoC/snoop traffic deltas."""

    __slots__ = (
        "latency", "bound", "indirection", "messages", "bytes_total",
        "byte_links", "byte_routers", "by_category", "snoops",
        "is_write", "count",
    )


class _LatTable:
    """Per ``(core, predicted set)``: lazily probed class constants for
    each (kind, home) pair, a numpy latency lookup filled in as classes
    are first seen, and a running minimum latency.

    Eagerly probing all ``2 * n`` classes per table cost more than it
    saved on contended workloads (most tables see a handful of homes),
    so rows are probed on demand.  ``min_lat`` only sizes numpy windows;
    until the first probe it is unknown (0) and the caller substitutes
    1 — an undersized window just splits a batch into more slices, the
    budget cut itself is exact either way.
    """

    __slots__ = ("prober", "core", "targets", "np_lat", "rows", "min_lat",
                 "pending", "has_dead")

    def __init__(self, prober, core, targets, n):
        self.prober = prober
        self.core = core
        self.targets = targets
        self.np_lat = np.zeros((2, n), dtype=np.int64)
        self.rows = ([_UNSET] * n, [_UNSET] * n)
        self.min_lat = 0
        self.pending = 2 * n
        self.has_dead = False

    def get(self, iw, home):
        """The class constant for ``(iw, home)``, probed on first use;
        None marks an unbatchable class."""
        const = self.rows[iw][home]
        if const is _UNSET:
            const = self.prober._probe(self.core, iw, home, self.targets)
            self.rows[iw][home] = const
            self.pending -= 1
            if const is None:
                self.has_dead = True
            else:
                self.np_lat[iw, home] = const.latency
                if not self.min_lat or const.latency < self.min_lat:
                    self.min_lat = const.latency
        return const


class _ClassProber:
    """Measures cold-miss class constants on a scratch substrate.

    The scratch network/directory/hierarchies/protocol come from the
    same factories and configuration as the engine's own, so every
    measured message and cycle is produced by the real protocol code;
    each probe uses a fresh block of the requested home, guaranteeing
    the cold path.  Classes that violate the cold-purity contract
    (communicating, a responder, invalidations, an accuracy verdict)
    are reported as unbatchable and the engine falls back per event.
    """

    def __init__(self, engine) -> None:
        machine = engine.machine
        n = machine.num_cores
        self.num_nodes = n
        self.l2_tag = engine._l2_tag
        self.buckets = engine._LATENCY_BUCKETS
        self.network = Network(
            machine.mesh(),
            router_latency=machine.router_latency,
            link_latency=machine.link_latency,
        )
        protocol_name = engine.result.protocol
        self.directory = make_directory(
            protocol_name, n,
            pointers=getattr(engine.directory, "pointers", None),
        )
        line = machine.l2.line_size
        cfg = CacheConfig(
            size=_SCRATCH_ASSOC * line, assoc=_SCRATCH_ASSOC,
            line_size=line,
        )
        self.hierarchies = [
            PrivateHierarchy(core, cfg, cfg) for core in range(n)
        ]
        self.protocol = make_protocol(
            protocol_name, self.hierarchies, self.directory, self.network,
            machine.latencies,
        )
        self._next_block = 0
        self._fills = [0] * n
        self._consts: dict = {}
        self._tables: dict = {}

    def table(self, core: int, targets) -> _LatTable:
        """The (lazily probed) class-constant table for ``(core,
        targets)``; unbatchable classes surface as None from its
        :meth:`_LatTable.get`."""
        key = (core, targets)
        tbl = self._tables.get(key)
        if tbl is None:
            tbl = self._tables[key] = _LatTable(
                self, core, targets, self.num_nodes
            )
        return tbl

    def _probe(self, core, is_write, home, targets) -> _ClassConst | None:
        key = (core, is_write, home, targets)
        const = self._consts.get(key, _UNSET)
        if const is not _UNSET:
            return const
        if self._fills[core] >= _SCRATCH_ASSOC - 1:
            # Scratch set nearly full; a further fill could evict.  Far
            # beyond any realistic class count — refuse rather than risk
            # a polluted delta.
            return None
        n = self.num_nodes
        block = self._next_block * n + home
        self._next_block += 1
        self._fills[core] += 1

        stats = self.network.stats
        before = (
            stats.messages, stats.bytes_total, stats.byte_links,
            stats.byte_routers, dict(stats.bytes_by_category),
        )
        snoops_before = self.protocol.snoop_lookups
        if is_write:
            tx = self.protocol.write_miss(core, block, targets)
        else:
            tx = self.protocol.read_miss(core, block, targets)

        if (
            tx.communicating
            or tx.responder is not None
            or tx.invalidated
            or not tx.off_chip
            or tx.prediction_correct is not None
        ):
            self._consts[key] = None
            return None

        const = _ClassConst()
        const.is_write = bool(is_write)
        const.count = 0
        const.latency = self.l2_tag + tx.latency
        const.bound = self.buckets[bisect_left(self.buckets, const.latency)]
        const.indirection = 1 if tx.indirection else 0
        const.messages = stats.messages - before[0]
        const.bytes_total = stats.bytes_total - before[1]
        const.byte_links = stats.byte_links - before[2]
        const.byte_routers = stats.byte_routers - before[3]
        const.by_category = tuple(
            (cat, val - before[4].get(cat, 0))
            for cat, val in stats.bytes_by_category.items()
            if val != before[4].get(cat, 0)
        )
        const.snoops = self.protocol.snoop_lookups - snoops_before
        self._consts[key] = const
        return const


class _TxMemo:
    """Warm-transaction memo for the vector path's shared lane.

    Wraps ``DirectoryProtocol.{read,write,upgrade}_miss``.  For the
    plain full-map backend (and its limited-pointer directory variant)
    the *accounting* side of a transaction — latency, NoC traffic,
    snoop lookups, and every ``TransactionResult`` field — is a pure
    function of the flat key ``(kind, core, home, predicted set, owner,
    forwarder, dirty, sharer mask)``: everything the flow reads from the
    directory.  Limited-pointer organizations append the tracked-pointer
    state that feeds ``can_verify`` / ``invalidation_fanout`` (the
    tracked mask, or the absent/coarse sentinel).  The home tile stands
    in for the block itself: two blocks with the same home and the same
    directory state are indistinguishable to the accounting arithmetic.

    The first occurrence of a class runs the real protocol method with
    ``_handle_victim`` shadowed (victims are collected and processed
    through the real helper immediately after — their traffic depends
    on the victim, not the class) and records the counter deltas plus
    the result object.  A hit replays the deltas and then runs the
    protocol's own *mutation tail* live — the exact statements each
    flow ends with — so cache, directory and pointer state transitions
    execute the same code as the other two engine paths:

    * READ: ``_finish_read_fill(core, block, peek(block))`` (the live
      entry matches the recorded fingerprint by key construction);
    * WRITE: ``_apply_write_invalidations`` + ``_finish_write_fill``;
    * UPGRADE: ``_apply_write_invalidations`` + ``set_state(MODIFIED)``
      + ``record_store_upgrade``.

    Armed only when no tracer/verifier observes individual misses and
    no network transcript records individual messages (the protocol's
    own send memos fall back to live sends exactly then).
    """

    __slots__ = (
        "proto", "directory", "hierarchies", "stats", "by_category",
        "num_nodes", "tracked", "memo",
    )

    #: Key sentinels, exposed as class attributes so the engine's
    #: shared-run handler (which cannot import this module — it must
    #: work without numpy) builds byte-identical keys.
    absent = _ABSENT
    coarse = _COARSE

    def __init__(self, protocol) -> None:
        self.proto = protocol
        self.directory = protocol.directory
        self.hierarchies = protocol.hierarchies
        self.stats = protocol.network.stats
        self.by_category = self.stats.bytes_by_category
        self.num_nodes = protocol.directory.num_nodes
        # LimitedPointerDirectory hardware-precision state; None for the
        # full-map organization (whose can_verify/fanout answers are
        # already functions of the entry fingerprint).
        self.tracked = getattr(protocol.directory, "_tracked", None)
        self.memo: dict = {}

    def _key(self, kind, core, block, predicted):
        entry = self.directory.peek(block)
        tracked = self.tracked
        if tracked is None:
            return (
                kind, core, block % self.num_nodes, predicted,
                entry.owner, entry.forwarder, entry.dirty, entry.mask,
            )
        t = tracked.get(block, _ABSENT)
        if t is None:
            t = _COARSE
        return (
            kind, core, block % self.num_nodes, predicted,
            entry.owner, entry.forwarder, entry.dirty, entry.mask, t,
        )

    def read_miss(self, core, block, predicted=None):
        key = self._key(0, core, block, predicted)
        hit = self.memo.get(key)
        if hit is None:
            return self._record(key, 0, core, block, predicted)
        tx = self._replay(hit)
        self.proto._finish_read_fill(core, block, self.directory.peek(block))
        return tx

    def write_miss(self, core, block, predicted=None):
        key = self._key(1, core, block, predicted)
        hit = self.memo.get(key)
        if hit is None:
            return self._record(key, 1, core, block, predicted)
        tx = self._replay(hit)
        proto = self.proto
        proto._apply_write_invalidations(core, block, tx.minimal_targets)
        proto._finish_write_fill(core, block)
        return tx

    def upgrade_miss(self, core, block, predicted=None):
        key = self._key(2, core, block, predicted)
        hit = self.memo.get(key)
        if hit is None:
            return self._record(key, 2, core, block, predicted)
        tx = self._replay(hit)
        self.proto._apply_write_invalidations(core, block, tx.minimal_targets)
        self.hierarchies[core].set_state(block, Mesif.MODIFIED)
        self.directory.record_store_upgrade(block, core)
        return tx

    def _record(self, key, kind, core, block, predicted):
        proto = self.proto
        stats = self.stats
        by_cat = self.by_category
        deferred: list = []
        # Shadow the bound method with a collector (instance attribute
        # wins the lookup); victims re-run through the real helper below
        # so their traffic and directory notifications stay live.
        proto._handle_victim = lambda c, v, _d=deferred: _d.append((c, v))
        msgs0 = stats.messages
        total0 = stats.bytes_total
        links0 = stats.byte_links
        routers0 = stats.byte_routers
        cats0 = by_cat.copy()
        snoops0 = proto.snoop_lookups
        try:
            if kind == 0:
                tx = proto.read_miss(core, block, predicted)
            elif kind == 1:
                tx = proto.write_miss(core, block, predicted)
            else:
                tx = proto.upgrade_miss(core, block, predicted)
        finally:
            del proto._handle_victim
        cats = []
        for cat, val in by_cat.items():
            delta = val - cats0.get(cat, 0)
            if delta:
                cats.append((cat, delta))
        memo = self.memo
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        # A list, not a tuple: the last slot is reserved for the shared
        # run handler's lazily built per-class accounting row (see
        # ``SimulationEngine._make_miss_handler``).
        memo[key] = [
            tx,
            stats.messages - msgs0,
            stats.bytes_total - total0,
            stats.byte_links - links0,
            stats.byte_routers - routers0,
            tuple(cats),
            proto.snoop_lookups - snoops0,
            None,
        ]
        for v_core, victim in deferred:
            proto._handle_victim(v_core, victim)
        return tx

    def _replay(self, hit):
        tx, msgs, total, links, routers, cats, snoops, _aux = hit
        stats = self.stats
        stats.messages += msgs
        stats.bytes_total += total
        stats.byte_links += links
        stats.byte_routers += routers
        by_cat = self.by_category
        for cat, delta in cats:
            try:
                by_cat[cat] += delta
            except KeyError:
                by_cat[cat] = delta
        self.proto.snoop_lookups += snoops
        return tx


def _make_tx_memo(engine) -> _TxMemo | None:
    """Build the shared-lane transaction memo when the run's invariants
    allow it (see :class:`_TxMemo`); None otherwise."""
    if engine.tracer is not None or engine.verifier is not None:
        return None
    if engine.forensics is not None:
        return None
    if engine.network._transcript is not None:
        return None
    if type(engine.protocol) is not DirectoryProtocol:
        return None
    return _TxMemo(engine.protocol)


def _batch_eligible(engine) -> bool:
    """Whether the per-run invariants allow the batch kernel at all.

    A tracer, verifier, or forensics collector observes individual
    misses in order; a network transcript records individual messages;
    a predictor without the plan/commit hook pair cannot be batched.
    In every such case the vector loop simply runs private segments per
    event — still bit-identical, certified by the same differential
    harness.
    """
    if engine.tracer is not None or engine.verifier is not None:
        return False
    if engine.forensics is not None:
        return False
    if engine.network._transcript is not None:
        return False
    predictor = engine.predictor
    if predictor is not None and not hasattr(predictor, "peek_private_plan"):
        return False
    return True


def _make_bulk_fill(engine):
    """Bulk cold-fill closure ``bulk(core, blocks, writes)``, or None for
    an unknown protocol backend.

    Mirrors what the protocol's ``_finish_read_fill`` (empty entry) /
    ``_finish_write_fill`` and ``_handle_victim`` do for a *guaranteed
    cold* fill — the only case a PRIVATE segment produces: the block is
    resident nowhere (sole-toucher first touch), so the residency
    re-checks and per-call dispatch of the general helpers are provably
    dead weight.  Real victims still pop out of the real caches one by
    one — their writeback traffic (DATA home for dirty victims; also a
    CONTROL notification under the directory backends) is accounted with
    the exact inlined arithmetic of :meth:`Network.send`, and every
    directory transition goes through the directory's own ``record_*``
    methods, so limited-pointer semantics cannot drift.
    """
    protocol = engine.protocol
    broadcast = isinstance(protocol, BroadcastProtocol)  # incl. multicast
    if not broadcast and not isinstance(protocol, DirectoryProtocol):
        return None
    directory = engine.directory
    network = engine.network
    stats = network.stats
    by_category = stats.bytes_by_category
    hops_table = network._hops
    data_bytes = network._data_bytes
    control_bytes = network._control_bytes
    writeback = protocol.CAT_WRITEBACK
    record_exclusive = directory.record_exclusive_fill
    record_eviction = directory.record_eviction
    num_nodes = directory.num_nodes
    hierarchies = engine.hierarchies
    modified = Mesif.MODIFIED
    exclusive = Mesif.EXCLUSIVE
    invalid = Mesif.INVALID

    def bulk(core, block_list, write_list):
        hier = hierarchies[core]
        l2_sets = hier._l2_sets
        l2_nsets = hier._l2_nsets
        l2_assoc = hier._l2_assoc
        l1_sets = hier._l1_sets
        l1_nsets = hier._l1_nsets
        l1_assoc = hier._l1_assoc
        hops_row = hops_table[core]
        for block, iw in zip(block_list, write_list):
            # Cold L2 fill: the block is guaranteed absent from both
            # levels, so this is hierarchy.fill() minus the residency
            # branches.
            bucket = l2_sets[block % l2_nsets]
            victim = None
            if len(bucket) >= l2_assoc:
                victim = bucket.pop(next(iter(bucket)))
                l1_sets[victim.block % l1_nsets].pop(victim.block, None)
            bucket[block] = CacheLine(
                block=block, state=modified if iw else exclusive
            )
            bucket = l1_sets[block % l1_nsets]
            if len(bucket) >= l1_assoc:
                line = bucket.pop(next(iter(bucket)))
                line.block = block
                line.state = True
                bucket[block] = line
            else:
                bucket[block] = CacheLine(block=block, state=True)
            if victim is not None:
                vstate = victim.state
                if vstate is not invalid:
                    dirty = vstate is modified
                    if dirty or not broadcast:
                        # _handle_victim's Network.send, inlined: dirty
                        # victims write data back home; the directory
                        # backends also notify on clean evictions.
                        n_bytes = data_bytes if dirty else control_bytes
                        hops = hops_row[victim.block % num_nodes]
                        stats.messages += 1
                        stats.bytes_total += n_bytes
                        stats.byte_links += n_bytes * hops
                        stats.byte_routers += n_bytes * (hops + 1)
                        try:
                            by_category[writeback] += n_bytes
                        except KeyError:
                            by_category[writeback] = n_bytes
                    record_eviction(victim.block, core, was_dirty=dirty)
            record_exclusive(block, core, dirty=True if iw else False)

    return bulk


class _Window:
    """One cross-quantum fusion window: the per-event cumulative-cost
    array and frozen plan for a fusible span (see module docstring)."""

    __slots__ = (
        "p0", "end", "m", "cum", "consts", "blocks", "writes", "pcs",
        "aprefix", "prediction", "stamp",
    )


def _make_batch(engine, compiled, miss, streams):
    """Build the private-run batch kernel, or None when ineligible.

    Returns ``(batch, flush, build_window, consume_window)``:

    * ``batch(core, p, end, c, budget) -> (p, c, consumed, over)``
      consumes events ``p..end`` of one PRIVATE segment under the same
      consume-then-check budget rule as the interpreter loops, tallying
      per-class counts in place;
    * ``build_window(core, si, p, span_end, stamp)`` precomputes a
      :class:`_Window` over the fusible span starting at segment ``si``
      (or None when the span cannot be fused — multi-chunk plan, an
      unbatchable class, nothing but THINK time);
    * ``consume_window(win, core, p, c, budget)`` replays one
      scheduling turn's slice of a window arithmetically;
    * ``flush()`` folds the deferred tallies into the
      result/network/hierarchy counters once, at run end.
    """
    if not _batch_eligible(engine):
        return None
    bulk_fill = _make_bulk_fill(engine)
    if bulk_fill is None:
        return None

    prober = _ClassProber(engine)
    res = engine.result
    n = engine.machine.num_cores
    hist = res.latency_histogram
    net_stats = engine.network.stats
    by_category = net_stats.bytes_by_category
    protocol = engine.protocol
    probe_stats = [hier.stats for hier in engine.hierarchies]
    track = engine._track
    epoch_misses = engine._epoch_misses
    predictor = engine.predictor
    peek_plan = (
        predictor.peek_private_plan if predictor is not None else None
    )
    commit_plan = (
        predictor.commit_private_batch if predictor is not None else None
    )
    needs_keys = bool(getattr(predictor, "plan_needs_keys", False))
    observes = (
        predictor is not None
        and getattr(predictor, "observe_external", None) is not None
    )

    compiled.np_columns(0)  # materializes the array('q') columns too
    ops_q = compiled.ops
    arg1_q = compiled.arg1
    arg2_q = compiled.arg2
    segments = compiled.segments
    # Derived numpy columns, built lazily per core: block ids for the
    # residual fills, kind selectors and home ids for the class lookups.
    blocks_cols: list = [None] * n
    writes_cols: list = [None] * n
    homes_cols: list = [None] * n
    #: Events batched per core, flushed into the hierarchy probe stats
    #: at run end (nothing reads them mid-run; epoch bookkeeping reads
    #: ``_epoch_misses``, which is kept live).
    core_events = [0] * n
    op_write = OP_WRITE
    outcome_miss = HierarchyOutcome.MISS
    seg_think = SEG_THINK

    def fallback(core, p, end, c, budget, consumed):
        """Finish the segment through the live per-event miss handler
        (predictions re-run in place, so any uncommitted remainder of a
        plan is simply discarded)."""
        stats = probe_stats[core]
        stream = streams[core]
        while p < end:
            ev = stream[p]
            p += 1
            consumed += 1
            stats.accesses += 1
            stats.misses += 1
            c += miss(
                core, ev[1], ev[2], ev[0] == op_write, outcome_miss,
            )
            if budget is not None and c > budget:
                return p, c, consumed, True
        return p, c, consumed, False

    def batch(core, p, end, c, budget):
        consumed = 0

        if needs_keys:
            kb = [a >> BLOCK_SHIFT for a in arg1_q[core][p:end]]
            kp = arg2_q[core][p:end].tolist()
        else:
            kb = kp = None
        if peek_plan is not None:
            if needs_keys:
                plan = peek_plan(core, end - p, blocks=kb, pcs=kp)
            else:
                plan = peek_plan(core, end - p)
            if plan is None:
                # The predictor declined (e.g. a capacity-bounded table
                # would overflow mid-batch): run the segment per event.
                return fallback(core, p, end, c, budget, consumed)
        else:
            plan = ((end - p, None),)

        p0 = p
        for count, prediction in plan:
            remaining = min(count, end - p)
            if remaining <= 0:
                continue
            targets = prediction.targets if prediction is not None else None
            table = prober.table(core, targets)
            rows = table.rows
            table_get = table.get
            while remaining > 0:
                over = False
                dead = False
                if budget is None:
                    window = remaining
                else:
                    window = min(
                        remaining,
                        (budget - c) // (table.min_lat or 1) + 1,
                    )
                use_np = window >= _VECTOR_MIN
                if use_np:
                    blocks_np = blocks_cols[core]
                    if blocks_np is None:
                        ops_np, arg1_np, _arg2_np = compiled.np_columns(core)
                        blocks_np = blocks_cols[core] = (
                            arg1_np >> BLOCK_SHIFT
                        )
                        writes_cols[core] = (
                            (ops_np == op_write).astype(np.intp)
                        )
                        homes_cols[core] = blocks_np % n
                    hw = homes_cols[core][p:p + window]
                    ww = writes_cols[core][p:p + window]
                    if table.pending or table.has_dead:
                        # Probe the distinct classes of this slice; an
                        # unbatchable one routes through the short walk,
                        # which commits the batchable prefix and falls
                        # back per event.
                        for key in np.unique(hw + ww * n).tolist():
                            if table_get(key // n, key % n) is None:
                                use_np = False
                                break
                if use_np:
                    cum = table.np_lat[ww, hw].cumsum()
                    if budget is None:
                        take = window
                    else:
                        idx = int(cum.searchsorted(
                            budget - c, side="right"
                        ))
                        if idx >= window:
                            take = window
                        else:
                            # The crossing event is consumed, as the
                            # interpreter consumes it before its check.
                            take = idx + 1
                            over = True
                    c += int(cum[take - 1])
                    counts = np.bincount(
                        hw[:take] + ww[:take] * n, minlength=2 * n
                    )
                    for key in np.nonzero(counts)[0].tolist():
                        rows[key // n][key % n].count += int(counts[key])
                    block_list = blocks_np[p:p + take].tolist()
                    write_list = ww[:take].tolist()
                else:
                    # Short window: same class constants, plain Python
                    # over the array('q') columns (a contended quantum
                    # admits only a few events; numpy fixed costs would
                    # dominate).
                    a1 = arg1_q[core]
                    ops = ops_q[core]
                    take = 0
                    block_list = []
                    write_list = []
                    add_block = block_list.append
                    add_write = write_list.append
                    while take < remaining:
                        i = p + take
                        block = a1[i] >> BLOCK_SHIFT
                        iw = 1 if ops[i] == op_write else 0
                        home = block % n
                        const = rows[iw][home]
                        if const is _UNSET:
                            const = table_get(iw, home)
                        if const is None:
                            dead = True
                            break
                        const.count += 1
                        c += const.latency
                        take += 1
                        add_block(block)
                        add_write(iw)
                        if budget is not None and c > budget:
                            over = True
                            break

                if take:
                    core_events[core] += take
                    if track:
                        epoch_misses[core] += take
                    if prediction is not None:
                        res.pred_attempted += take
                        res.predicted_target_sum += (
                            len(prediction.targets) * take
                        )
                        res.pred_on_noncomm += take
                    if commit_plan is not None:
                        if needs_keys:
                            ki = p - p0
                            commit_plan(
                                core, take,
                                blocks=kb[ki:ki + take],
                                pcs=kp[ki:ki + take],
                            )
                        else:
                            commit_plan(core, take)

                    bulk_fill(core, block_list, write_list)

                    p += take
                    consumed += take
                    remaining -= take
                if dead:
                    return fallback(core, p, end, c, budget, consumed)
                if over:
                    return p, c, consumed, True
        return p, c, consumed, False

    def build_window(core, si, p, span_end, stamp):
        """Precompute the cumulative-cost replay for the fusible span
        ``[p, span_end)`` starting inside segment ``si``; None when the
        span cannot be fused this time around."""
        segs = segments[core]
        nsegs = len(segs)
        a1 = arg1_q[core]
        ops = ops_q[core]
        a2 = arg2_q[core]

        # Materialize the private-event keys and ask the predictor for
        # one frozen plan over the whole span.  A multi-chunk plan (SP
        # warm-up adoption mid-span) or a decline means per-turn
        # batching still works but cross-turn fusion would not be
        # bit-identical — skip the window.
        prediction = None
        if peek_plan is not None:
            kb = []
            kp = []
            j = si
            while j < nsegs and segs[j][1] < span_end:
                kind, s, e, _payload = segs[j]
                if s < p:
                    s = p
                if kind != seg_think:
                    for i in range(s, e):
                        kb.append(a1[i] >> BLOCK_SHIFT)
                        kp.append(a2[i])
                j += 1
            if not kb:
                return None  # THINK-only: the bisect path already fuses
            if needs_keys:
                plan = peek_plan(core, len(kb), blocks=kb, pcs=kp)
            else:
                plan = peek_plan(core, len(kb))
            if plan is None or len(plan) != 1:
                return None
            prediction = plan[0][1]

        targets = prediction.targets if prediction is not None else None
        table = prober.table(core, targets)
        rows = table.rows
        table_get = table.get

        cum: list = []
        consts: list = []
        blocks: list = []
        writes: list = []
        pcs: list = []
        aprefix = [0]
        total = 0
        na = 0
        j = si
        while j < nsegs and segs[j][1] < span_end:
            kind, s, e, payload = segs[j]
            start = s
            if s < p:
                s = p
            if kind == seg_think:
                base = payload[s - start - 1] if s > start else 0
                for i in range(s, e):
                    cyc = payload[i - start]
                    total += cyc - base
                    base = cyc
                    cum.append(total)
                    consts.append(None)
                    blocks.append(0)
                    writes.append(0)
                    pcs.append(0)
                    aprefix.append(na)
            else:
                for i in range(s, e):
                    block = a1[i] >> BLOCK_SHIFT
                    iw = 1 if ops[i] == op_write else 0
                    home = block % n
                    const = rows[iw][home]
                    if const is _UNSET:
                        const = table_get(iw, home)
                    if const is None:
                        return None
                    total += const.latency
                    na += 1
                    cum.append(total)
                    consts.append(const)
                    blocks.append(block)
                    writes.append(iw)
                    pcs.append(a2[i])
                    aprefix.append(na)
            j += 1
        if na == 0:
            return None

        win = _Window()
        win.p0 = p
        win.end = span_end
        win.m = len(cum)
        win.cum = cum
        win.consts = consts
        win.blocks = blocks
        win.writes = writes
        win.pcs = pcs
        win.aprefix = aprefix
        win.prediction = prediction
        # Staleness only matters when a foreign shared miss can train
        # this core's table (observe_external); otherwise the plan is
        # frozen for the span's lifetime by construction.
        win.stamp = stamp if observes else None
        return win

    def consume_window(win, core, p, c, budget):
        """Replay one scheduling turn's slice of a window: bisect the
        cumulative costs for the interpreter's consume-then-check break
        position, then apply fills/commits/tallies for the slice."""
        i0 = p - win.p0
        cum = win.cum
        m = win.m
        base = cum[i0 - 1] if i0 else 0
        if budget is None:
            nk = m
            over = False
        else:
            idx = bisect_right(cum, budget - c + base, i0)
            if idx >= m:
                nk = m
                over = False
            else:
                # The crossing event is consumed before the break.
                nk = idx + 1
                over = True
        c += cum[nk - 1] - base
        na = win.aprefix[nk] - win.aprefix[i0]
        if na:
            consts = win.consts
            w_blocks = win.blocks
            w_writes = win.writes
            block_list: list = []
            write_list: list = []
            add_block = block_list.append
            add_write = write_list.append
            for i in range(i0, nk):
                const = consts[i]
                if const is not None:
                    const.count += 1
                    add_block(w_blocks[i])
                    add_write(w_writes[i])
            core_events[core] += na
            if track:
                epoch_misses[core] += na
            prediction = win.prediction
            if prediction is not None:
                res.pred_attempted += na
                res.predicted_target_sum += len(prediction.targets) * na
                res.pred_on_noncomm += na
            if commit_plan is not None:
                if needs_keys:
                    w_pcs = win.pcs
                    pl = [
                        w_pcs[i] for i in range(i0, nk)
                        if consts[i] is not None
                    ]
                    commit_plan(core, na, blocks=block_list, pcs=pl)
                else:
                    commit_plan(core, na)
            bulk_fill(core, block_list, write_list)
        return win.p0 + nk, c, na, over

    def flush():
        """Fold the deferred per-class tallies into the result, network
        and hierarchy counters (called once, before finalization)."""
        read_misses = write_misses = lat_sum = indirections = 0
        offchip = msgs = total = links = routers = snoops = 0
        for const in prober._consts.values():
            if const is None:
                continue
            cnt = const.count
            if not cnt:
                continue
            const.count = 0
            if const.is_write:
                write_misses += cnt
            else:
                read_misses += cnt
            lat_sum += const.latency * cnt
            bound = const.bound
            hist[bound] = hist.get(bound, 0) + cnt
            indirections += const.indirection * cnt
            offchip += cnt
            msgs += const.messages * cnt
            total += const.bytes_total * cnt
            links += const.byte_links * cnt
            routers += const.byte_routers * cnt
            for cat, delta in const.by_category:
                by_category[cat] = by_category.get(cat, 0) + delta * cnt
            snoops += const.snoops * cnt
        res.read_misses += read_misses
        res.write_misses += write_misses
        res.miss_latency_sum += lat_sum
        res.indirections += indirections
        res.offchip_misses += offchip
        net_stats.messages += msgs
        net_stats.bytes_total += total
        net_stats.byte_links += links
        net_stats.byte_routers += routers
        protocol.snoop_lookups += snoops
        for core in range(n):
            batched = core_events[core]
            if batched:
                core_events[core] = 0
                stats = probe_stats[core]
                stats.accesses += batched
                stats.misses += batched

    return batch, flush, build_window, consume_window


def run_vector(engine, quantum: int):
    """The vectorized engine loop: the compiled loop with PRIVATE runs
    batched through :func:`_make_batch`.

    Scheduling, sync handling, THINK bisection, and the per-event paths
    are identical to :meth:`SimulationEngine._run_compiled` — the
    established two-loop idiom extended by one loop; ``repro check
    diff`` certifies all three bit-identical.
    """
    self = engine
    n = self.machine.num_cores
    compiled = ensure_compiled(self.workload)
    streams = [compiled.events(core) for core in range(n)]
    lengths = [len(s) for s in streams]
    use_private = self._block_shift == BLOCK_SHIFT
    seg_tables = []
    for core in range(n):
        segs = compiled.segments[core]
        if not use_private:
            segs = [seg for seg in segs if seg[0] == SEG_THINK]
        seg_tables.append(segs)
    seg_pos = [0] * n

    pos = [0] * n
    clock = [0] * n
    done = [False] * n
    sync_latency_fn = getattr(self.predictor, "sync_latency", None)
    self._sync_cost = sync_latency_fn() if sync_latency_fn else 0
    # Arm the shared-lane transaction memo before the handler binds the
    # protocol entry points, then clear the hook (the closure holds the
    # bound methods; nothing in the miss path should see it).  A
    # stats-only alias survives for observability: span resource
    # samples read len(memo) — distinct transaction classes — after
    # the run; nothing consults it while the run executes.
    self._tx_memo = _make_tx_memo(self)
    miss, flush, run_shared = self._make_miss_handler()
    self._tx_memo_stats = self._tx_memo
    self._tx_memo = None
    batch = batch_flush = build_window = consume_window = None
    if use_private:
        made = _make_batch(self, compiled, miss, streams)
        if made is not None:
            batch, batch_flush, build_window, consume_window = made

    # Cross-quantum windows: per-core span-start lookup from the
    # compile-time footprint summaries, the live window per core, and a
    # staleness stamp bumped on every shared-lane miss (a foreign miss
    # may train an observe_external predictor's table, invalidating a
    # frozen plan — the window then rebuilds, i.e. re-peeks, from its
    # current position).
    if build_window is not None:
        span_starts = [
            {rec[0]: rec for rec in spans}
            for spans in compiled.span_summaries()
        ]
        windows: list = [None] * n
    else:
        span_starts = None
        windows = None
    shake = 0

    heap = [(0, core) for core in range(n)]
    heapq.heapify(heap)

    barrier_index = [0] * n
    barrier_waiters: dict = {}
    barrier_pc: dict = {}
    lock_holder: dict = {}
    lock_waiters: dict = {}
    lock_granted: set = set()
    active = n

    heappush = heapq.heappush
    heappop = heapq.heappop
    kind_read = AccessKind.READ
    kind_write = AccessKind.WRITE
    l1_hit = HierarchyOutcome.L1_HIT
    l2_hit = HierarchyOutcome.L2_HIT
    outcome_miss = HierarchyOutcome.MISS
    barrier_kind = SyncKind.BARRIER
    lock_kind = SyncKind.LOCK
    unlock_kind = SyncKind.UNLOCK
    static_sync_id = StaticSyncId
    seg_think = SEG_THINK
    op_write = OP_WRITE
    bisect = bisect_right
    classifiers = [hier.classify for hier in self.hierarchies]
    probe_stats = [hier.stats for hier in self.hierarchies]
    on_sync = self._on_sync
    sync_op_latency = self.machine.sync_op_latency
    sync_cost = self._sync_cost
    l1_latency = self._l1_latency
    l2_access = self._l2_access
    migrations = self.migrations
    accesses = l1_hits = l2_hits = 0

    while heap:
        t, core = heappop(heap)
        c = clock[core]
        if t > c:
            c = t
        budget = (heap[0][0] + quantum) if heap else None

        stream = streams[core]
        length = lengths[core]
        p = pos[core]
        classify = classifiers[core]
        segs = seg_tables[core]
        nsegs = len(segs)
        si = seg_pos[core]
        while si < nsegs and segs[si][2] <= p:
            si += 1
        s_start = segs[si][1] if si < nsegs else length + 1
        blocked = False

        while p < length:
            if p >= s_start:
                if windows is not None:
                    win = windows[core]
                    if win is not None:
                        if not (win.p0 <= p < win.end):
                            win = windows[core] = None
                        elif win.stamp is not None and win.stamp != shake:
                            # A foreign shared miss may have trained this
                            # core's table: re-peek from here.
                            win = windows[core] = build_window(
                                core, si, p, win.end, shake
                            )
                    if win is None and p == s_start:
                        rec = span_starts[core].get(p)
                        if (
                            rec is not None
                            and rec[4] == 0
                            and rec[1] - p >= _WINDOW_MIN
                            and not (
                                segs[si][0] == seg_think
                                and segs[si][2] >= rec[1]
                            )
                        ):
                            win = windows[core] = build_window(
                                core, si, p, rec[1], shake
                            )
                    if win is not None:
                        p, c, na, over = consume_window(
                            win, core, p, c, budget
                        )
                        accesses += na
                        if p >= win.end:
                            windows[core] = None
                        while si < nsegs and segs[si][2] <= p:
                            si += 1
                        s_start = segs[si][1] if si < nsegs else length + 1
                        if over:
                            break
                        continue
                seg = segs[si]
                end = seg[2]
                if seg[0] == seg_think:
                    start = seg[1]
                    prefix = seg[3]
                    base = prefix[p - start - 1] if p > start else 0
                    if budget is None:
                        c += prefix[-1] - base
                        p = end
                    else:
                        i = bisect(prefix, budget - c + base, p - start)
                        if i >= end - start:
                            c += prefix[-1] - base
                            p = end
                        else:
                            # Event start+i pushes c past the budget;
                            # the interpreter consumes it and then
                            # breaks — so do we.
                            c += prefix[i] - base
                            p = start + i + 1
                            break
                    si += 1
                    s_start = segs[si][1] if si < nsegs else length + 1
                    continue
                # PRIVATE run: batched when the kernel is armed, else
                # per event exactly as the compiled loop runs it.
                if batch is not None:
                    p, c, consumed, over = batch(core, p, end, c, budget)
                    accesses += consumed
                    if over:
                        break
                    si += 1
                    s_start = segs[si][1] if si < nsegs else length + 1
                    continue
                stats = probe_stats[core]
                over = False
                while p < end:
                    ev = stream[p]
                    p += 1
                    accesses += 1
                    stats.accesses += 1
                    stats.misses += 1
                    c += miss(
                        core, ev[1], ev[2], ev[0] == op_write,
                        outcome_miss,
                    )
                    if budget is not None and c > budget:
                        over = True
                        break
                if over:
                    break
                si += 1
                s_start = segs[si][1] if si < nsegs else length + 1
                continue
            ev = stream[p]
            op = ev[0]
            if op == OP_READ or op == OP_WRITE:
                if run_shared is not None:
                    # Shared-run fast path: one call consumes the whole
                    # run of consecutive memory events (see
                    # SimulationEngine._make_miss_handler), with the
                    # same consume-then-check budget arithmetic.
                    p, c, na, h1, h2, nm, over = run_shared(
                        core, stream, p,
                        s_start if s_start <= length else length,
                        c, budget, classify,
                    )
                    accesses += na
                    l1_hits += h1
                    l2_hits += h2
                    shake += nm
                    if over:
                        break
                    continue
                p += 1
                accesses += 1
                is_write = op == OP_WRITE
                outcome = classify(
                    ev[1], kind_write if is_write else kind_read
                )
                if outcome is l1_hit:
                    l1_hits += 1
                    c += l1_latency
                elif outcome is l2_hit:
                    l2_hits += 1
                    c += l2_access
                else:
                    c += miss(core, ev[1], ev[2], is_write, outcome)
                    shake += 1
            elif op == OP_THINK:
                p += 1
                c += ev[1]
            else:  # OP_SYNC
                kind, pc, lock_addr = ev[1], ev[2], ev[3]
                if kind is barrier_kind:
                    p += 1
                    idx = barrier_index[core]
                    barrier_index[core] += 1
                    if idx in barrier_pc and barrier_pc[idx] != pc:
                        raise RuntimeError(
                            f"barrier mismatch at index {idx}: "
                            f"{barrier_pc[idx]} vs {pc}"
                        )
                    barrier_pc[idx] = pc
                    on_sync(core, static_sync_id(kind=kind, pc=pc), c)
                    c += sync_cost
                    waiters = barrier_waiters.setdefault(idx, [])
                    waiters.append((core, c))
                    if len(waiters) == active:
                        if idx in migrations:
                            self._apply_migration(migrations[idx])
                            if windows is not None:
                                # Migration remaps predictor cores;
                                # every frozen plan is suspect.
                                for w in range(n):
                                    windows[w] = None
                        release = (
                            max(wc for _, wc in waiters)
                            + sync_op_latency
                        )
                        for w_core, _ in waiters:
                            if w_core == core:
                                c = release
                            else:
                                clock[w_core] = release
                                heappush(heap, (release, w_core))
                        del barrier_waiters[idx]
                        # fall through: this core keeps running
                    else:
                        blocked = True
                        break
                elif kind is lock_kind:
                    holder = lock_holder.get(lock_addr)
                    if holder is None or core in lock_granted:
                        lock_granted.discard(core)
                        p += 1
                        lock_holder[lock_addr] = core
                        c += sync_op_latency + sync_cost
                        on_sync(
                            core,
                            static_sync_id(
                                kind=kind, pc=pc, lock_addr=lock_addr
                            ),
                            c,
                        )
                    else:
                        # Re-examined when the holder unlocks.
                        heappush(
                            lock_waiters.setdefault(lock_addr, []),
                            (c, core),
                        )
                        blocked = True
                        break
                elif kind is unlock_kind:
                    p += 1
                    if lock_holder.get(lock_addr) != core:
                        raise RuntimeError(
                            f"core {core} unlocked {lock_addr:#x} it does "
                            "not hold"
                        )
                    c += sync_op_latency + sync_cost
                    on_sync(
                        core,
                        static_sync_id(
                            kind=kind, pc=pc, lock_addr=lock_addr
                        ),
                        c,
                    )
                    waiters = lock_waiters.get(lock_addr)
                    if waiters:
                        _, nxt = heappop(waiters)
                        lock_holder[lock_addr] = nxt
                        lock_granted.add(nxt)
                        if c > clock[nxt]:
                            clock[nxt] = c
                        heappush(heap, (clock[nxt], nxt))
                    else:
                        lock_holder[lock_addr] = None
                else:
                    # join / wakeup / broadcast are epoch boundaries
                    # without blocking semantics in these traces.
                    p += 1
                    on_sync(core, static_sync_id(kind=kind, pc=pc), c)
                    c += sync_cost
            if budget is not None and c > budget:
                break

        pos[core] = p
        clock[core] = c
        seg_pos[core] = si
        if blocked:
            continue
        if p >= length:
            if not done[core]:
                done[core] = True
                active -= 1
                self._on_finish(core, clock[core])
                # A core leaving can make a pending barrier releasable
                # (uneven streams: the finisher was never going to
                # arrive).  Re-check parked barriers.
                for idx in list(barrier_waiters):
                    waiters = barrier_waiters[idx]
                    if waiters and len(waiters) == active:
                        if idx in migrations:
                            self._apply_migration(migrations[idx])
                            if windows is not None:
                                for w in range(n):
                                    windows[w] = None
                        release = (
                            max(wc for _, wc in waiters)
                            + sync_op_latency
                        )
                        for w_core, _ in waiters:
                            clock[w_core] = release
                            heappush(heap, (release, w_core))
                        del barrier_waiters[idx]
            continue
        heappush(heap, (c, core))

    if active != 0:
        raise RuntimeError(f"{active} cores never finished (deadlock?)")
    if batch_flush is not None:
        batch_flush()
    return self._finalize(clock, accesses, l1_hits, l2_hits, flush)
