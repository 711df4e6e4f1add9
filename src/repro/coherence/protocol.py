"""Directory MESIF protocol engine with the prediction overlay.

Transactions are modelled atomically: each L2 miss runs one transaction
that (a) moves the caches and directory to their next stable state,
(b) accounts every message on the NoC, and (c) computes the critical-path
latency of the miss.  The prediction overlay implements Section 4.5 of the
paper: a predicted request travels directly to the predicted nodes and, in
parallel, to the directory, which verifies that the predicted set was
sufficient and repairs mispredictions at baseline-like latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.coherence.directory import Directory
from repro.coherence.states import Mesif
from repro.noc.network import MessageClass, Network


class MissKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    UPGRADE = "upgrade"


@dataclass(frozen=True)
class ProtocolLatencies:
    """Fixed latency components in cycles (Table 4)."""

    l2_tag: int = 2
    l2_data: int = 6
    #: Directory slice access: read + update of the full sharing vector.
    dir_lookup: int = 16
    memory: int = 150

    @property
    def l2_access(self) -> int:
        return self.l2_tag + self.l2_data


class TransactionResult:
    """Outcome of one coherence transaction.

    ``minimal_targets`` is the smallest sufficient cache set (the owner /
    forwarder for reads; every remote sharer for writes and upgrades); a
    miss is *communicating* exactly when that set is non-empty.
    ``prediction_correct`` is None when no prediction was attempted or the
    miss was non-communicating (accuracy is defined over communicating
    misses only, Section 5.2).

    A plain ``__slots__`` class rather than a dataclass: one instance is
    built per L2 miss, and the generated frozen-dataclass ``__init__``
    (twelve ``object.__setattr__`` calls) is measurable there.
    """

    __slots__ = (
        "kind", "core", "block", "communicating", "off_chip",
        "minimal_targets", "predicted", "prediction_correct", "latency",
        "indirection", "responder", "invalidated",
    )

    def __init__(
        self,
        *,
        kind: MissKind,
        core: int,
        block: int,
        communicating: bool,
        off_chip: bool,
        minimal_targets: frozenset,
        predicted: frozenset | None,
        prediction_correct: bool | None,
        latency: int,
        indirection: bool,
        responder: int | None,
        invalidated: frozenset,
    ) -> None:
        self.kind = kind
        self.core = core
        self.block = block
        self.communicating = communicating
        self.off_chip = off_chip
        self.minimal_targets = minimal_targets
        self.predicted = predicted
        self.prediction_correct = prediction_correct
        self.latency = latency
        self.indirection = indirection
        self.responder = responder
        self.invalidated = invalidated

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"TransactionResult({fields})"


class DirectoryProtocol:
    """Directory-based MESIF with optional per-miss target prediction.

    The protocol owns the directory and drives every core's private
    hierarchy; the simulation engine calls :meth:`read_miss`,
    :meth:`write_miss`, or :meth:`upgrade_miss` for each L2 miss outcome,
    optionally passing the predictor's target set.
    """

    #: Backend name used by the engine/CLI and in check reports.
    name = "directory"

    #: Optional :class:`repro.obs.EventTracer` (installed by the engine).
    #: Emits only into the predicted flows' repair path, so the disabled
    #: cost is one falsy attribute check per predicted miss.
    tracer = None

    #: Traffic categories used for the Fig. 9 bandwidth breakdown.
    CAT_COMM = "base_comm"
    CAT_NONCOMM = "base_noncomm"
    CAT_PRED_COMM = "pred_comm"
    CAT_PRED_NONCOMM = "pred_noncomm"
    CAT_WRITEBACK = "writeback"

    def __init__(
        self,
        hierarchies,
        directory: Directory,
        network: Network,
        latencies: ProtocolLatencies | None = None,
    ) -> None:
        self.hierarchies = list(hierarchies)
        self.directory = directory
        self.network = network
        self.lat = latencies or ProtocolLatencies()
        self.snoop_lookups = 0
        # Memoized traffic aggregates for the predicted-request fan-out
        # (multicast + tagged directory request + nacks).  Predicted sets
        # repeat for epochs at a time, so the per-miss loop of send()
        # calls collapses to one table lookup plus a handful of adds; the
        # accounted bytes/messages/latency are identical by construction.
        self._fan_memo: dict = {}
        # Cold-miss round trips (request to home + memory data reply) are
        # the single most common flow on streaming workloads; their two
        # sends depend only on (core, home), so the pair memoizes the same
        # way.  Falls back to live sends while a transcript records.
        self._cold_memo: dict = {}
        # The write/upgrade ack collection mirrors the fan-out: every
        # predicted node returns one control message, and only the nodes
        # that really held a copy contribute an ack latency.  Both facts
        # depend only on (core, predicted, minimal), which repeat for
        # epochs at a time.
        self._ack_memo: dict = {}
        if directory.num_nodes != network.num_nodes:
            raise ValueError("directory and network disagree on node count")
        if len(self.hierarchies) != network.num_nodes:
            raise ValueError("one private hierarchy per network node required")

    # ------------------------------------------------------------------
    # public transaction entry points
    # ------------------------------------------------------------------

    def read_miss(self, core: int, block: int, predicted=None) -> TransactionResult:
        predicted = self._clean_prediction(core, predicted)
        entry = self.directory.peek(block)
        minimal = entry.minimal_read_targets()
        if predicted is None:
            return self._baseline_read(core, block, entry, minimal)
        return self._predicted_read(core, block, entry, minimal, predicted)

    def write_miss(self, core: int, block: int, predicted=None) -> TransactionResult:
        predicted = self._clean_prediction(core, predicted)
        entry = self.directory.peek(block)
        minimal = entry.minimal_write_targets(core)
        if predicted is None:
            return self._baseline_write(core, block, entry, minimal)
        return self._predicted_write(core, block, entry, minimal, predicted)

    def upgrade_miss(self, core: int, block: int, predicted=None) -> TransactionResult:
        predicted = self._clean_prediction(core, predicted)
        entry = self.directory.peek(block)
        minimal = entry.minimal_write_targets(core)
        if predicted is None:
            return self._baseline_upgrade(core, block, entry, minimal)
        return self._predicted_upgrade(core, block, entry, minimal, predicted)

    # ------------------------------------------------------------------
    # baseline (unpredicted) flows
    # ------------------------------------------------------------------

    def _baseline_read(self, core, block, entry, minimal) -> TransactionResult:
        home = self.directory.home_of(block)
        comm = bool(minimal)
        cat = self.CAT_COMM if comm else self.CAT_NONCOMM
        responder = entry.responder

        if responder is None and self.network._transcript is None:
            latency = self._cold_fill(core, home, cat)
            off_chip = True
        else:
            latency = self.network.send(core, home, MessageClass.CONTROL, cat)
            latency += self.lat.dir_lookup
            if responder is not None:
                latency += self._forward_read_from_owner(
                    core, block, entry, responder, cat
                )
                off_chip = False
            else:
                latency += self._memory_read(core, home, entry, cat)
                off_chip = True

        self._finish_read_fill(core, block, entry)
        return TransactionResult(
            kind=MissKind.READ, core=core, block=block, communicating=comm,
            off_chip=off_chip, minimal_targets=minimal, predicted=None,
            prediction_correct=None, latency=latency, indirection=True,
            responder=responder, invalidated=frozenset(),
        )

    def _baseline_write(self, core, block, entry, minimal) -> TransactionResult:
        home = self.directory.home_of(block)
        comm = bool(minimal)
        cat = self.CAT_COMM if comm else self.CAT_NONCOMM
        # The entry mutates when the requester's fill is recorded; capture
        # the data source now.  A dirty/exclusive owner responds; otherwise
        # the F holder does (matching the snooping backends, which report
        # ``entry.responder`` for the same state).
        data_source = entry.responder if entry.responder != core else None
        off_chip = not entry.cached_anywhere
        owner = entry.owner
        has_remote_owner = owner is not None and owner != core

        if (
            not has_remote_owner and not minimal
            and self.network._transcript is None
        ):
            latency = self._cold_fill(core, home, cat)
        else:
            latency = self.network.send(core, home, MessageClass.CONTROL, cat)
            latency += self.lat.dir_lookup
            if has_remote_owner:
                path = self.network.send(home, owner, MessageClass.CONTROL, cat)
                path += self._probe(owner) + self.lat.l2_data
                path += self.network.send(owner, core, MessageClass.DATA, cat)
                latency += path
            elif minimal:
                latency += self._invalidate_via_directory(
                    core, home, entry, minimal, cat, need_data=True, block=block
                )
            else:
                latency += self._memory_read(core, home, entry, cat)

        invalidated = self._apply_write_invalidations(core, block, minimal)
        self._finish_write_fill(core, block)
        return TransactionResult(
            kind=MissKind.WRITE, core=core, block=block, communicating=comm,
            off_chip=off_chip, minimal_targets=minimal, predicted=None,
            prediction_correct=None, latency=latency, indirection=True,
            responder=data_source, invalidated=invalidated,
        )

    def _baseline_upgrade(self, core, block, entry, minimal) -> TransactionResult:
        home = self.directory.home_of(block)
        comm = bool(minimal)
        cat = self.CAT_COMM if comm else self.CAT_NONCOMM
        latency = self.network.send(core, home, MessageClass.CONTROL, cat)
        latency += self.lat.dir_lookup
        if minimal:
            latency += self._invalidate_via_directory(
                core, home, entry, minimal, cat, need_data=False, block=block
            )
        else:
            latency += self.network.send(home, core, MessageClass.CONTROL, cat)

        invalidated = self._apply_write_invalidations(core, block, minimal)
        self.hierarchies[core].set_state(block, Mesif.MODIFIED)
        self.directory.record_store_upgrade(block, core)
        return TransactionResult(
            kind=MissKind.UPGRADE, core=core, block=block, communicating=comm,
            off_chip=False, minimal_targets=minimal, predicted=None,
            prediction_correct=None, latency=latency, indirection=True,
            responder=None, invalidated=invalidated,
        )

    # ------------------------------------------------------------------
    # predicted flows (Section 4.5 overlay)
    # ------------------------------------------------------------------

    def _predicted_read(self, core, block, entry, minimal, predicted):
        home = self.directory.home_of(block)
        comm = bool(minimal)
        base_cat = self.CAT_COMM if comm else self.CAT_NONCOMM
        pred_cat = self.CAT_PRED_COMM if comm else self.CAT_PRED_NONCOMM
        correct = comm and minimal <= predicted
        responder = entry.responder
        if self.tracer is not None and comm and not correct:
            self.tracer.pred_repair(core, "read", predicted, minimal)

        # Requester: predicted requests to each predicted node, plus the
        # (tagged) request to the directory that the baseline also sends;
        # every predicted node that is not the responder nacks.
        dir_leg = self._predicted_fanout(
            core, home, predicted, base_cat, pred_cat,
            nacks=True, responder=responder,
        )
        self.snoop_lookups += len(predicted)

        # A coarse (limited-pointer) directory entry cannot verify the
        # predicted set, so the requester must wait for the directory
        # path even when the prediction was in fact sufficient.
        if correct and self.directory.can_verify(block):
            # Data comes straight from the predicted responder; the
            # directory learns the new sharing state off the critical path.
            latency = self.network.latency(core, responder)
            latency += self.lat.l2_access  # lookup counted with the multicast
            latency += self.network.send(responder, core, MessageClass.DATA, base_cat)
            self._account_owner_update(entry, responder, home)
            indirection = False
            off_chip = False
        else:
            # Directory services the miss as in the baseline.
            latency = dir_leg + self.lat.dir_lookup
            if responder is not None:
                latency += self._forward_read_from_owner(
                    core, block, entry, responder, base_cat
                )
                off_chip = False
            else:
                latency += self._memory_read(core, home, entry, base_cat)
                off_chip = True
            indirection = True

        self._finish_read_fill(core, block, entry)
        return TransactionResult(
            kind=MissKind.READ, core=core, block=block, communicating=comm,
            off_chip=off_chip, minimal_targets=minimal, predicted=predicted,
            prediction_correct=correct if comm else None, latency=latency,
            indirection=indirection, responder=responder,
            invalidated=frozenset(),
        )

    def _predicted_write(self, core, block, entry, minimal, predicted):
        home = self.directory.home_of(block)
        comm = bool(minimal)
        base_cat = self.CAT_COMM if comm else self.CAT_NONCOMM
        pred_cat = self.CAT_PRED_COMM if comm else self.CAT_PRED_NONCOMM
        correct = comm and minimal <= predicted
        data_source = entry.responder if entry.responder != core else None
        if self.tracer is not None and comm and not correct:
            self.tracer.pred_repair(core, "write", predicted, minimal)

        dir_leg = self._predicted_fanout(
            core, home, predicted, base_cat, pred_cat
        )
        self.snoop_lookups += len(predicted)

        # Predicted nodes holding a copy invalidate and ack directly to the
        # requester; predicted nodes without a copy nack.
        ack_lat = self._predicted_acks(core, predicted, minimal, pred_cat)

        dir_resp = dir_leg + self.lat.dir_lookup
        dir_resp += self.network.send(home, core, MessageClass.CONTROL, base_cat)

        if correct and self.directory.can_verify(block):
            data_lat = self._predicted_write_data(core, home, entry, base_cat)
            latency = max(dir_resp, ack_lat, data_lat)
            indirection = False
        else:
            # The directory repairs: it invalidates the unpredicted sharers
            # and sources data, at baseline-like latency.
            missing = minimal - predicted
            repair = dir_leg + self.lat.dir_lookup
            if entry.owner is not None and entry.owner not in predicted:
                owner = entry.owner
                repair += self.network.send(home, owner, MessageClass.CONTROL, base_cat)
                repair += self._probe(owner) + self.lat.l2_data
                repair += self.network.send(owner, core, MessageClass.DATA, base_cat)
            else:
                inv_lat = 0
                for node in missing:
                    leg = self.network.send(home, node, MessageClass.CONTROL, base_cat)
                    leg += self._probe(node)
                    leg += self.network.send(node, core, MessageClass.CONTROL, base_cat)
                    inv_lat = max(inv_lat, leg)
                data_lat = self._predicted_write_data(core, home, entry, base_cat)
                repair += max(inv_lat, data_lat)
            latency = max(repair, ack_lat)
            indirection = True

        off_chip = not entry.cached_anywhere
        invalidated = self._apply_write_invalidations(core, block, minimal)
        self._finish_write_fill(core, block)
        return TransactionResult(
            kind=MissKind.WRITE, core=core, block=block, communicating=comm,
            off_chip=off_chip, minimal_targets=minimal, predicted=predicted,
            prediction_correct=correct if comm else None, latency=latency,
            indirection=indirection, responder=data_source,
            invalidated=invalidated,
        )

    def _predicted_upgrade(self, core, block, entry, minimal, predicted):
        home = self.directory.home_of(block)
        comm = bool(minimal)
        base_cat = self.CAT_COMM if comm else self.CAT_NONCOMM
        pred_cat = self.CAT_PRED_COMM if comm else self.CAT_PRED_NONCOMM
        correct = comm and minimal <= predicted
        if self.tracer is not None and comm and not correct:
            self.tracer.pred_repair(core, "upgrade", predicted, minimal)

        dir_leg = self._predicted_fanout(
            core, home, predicted, base_cat, pred_cat
        )
        self.snoop_lookups += len(predicted)

        ack_lat = self._predicted_acks(core, predicted, minimal, pred_cat)

        dir_resp = dir_leg + self.lat.dir_lookup
        dir_resp += self.network.send(home, core, MessageClass.CONTROL, base_cat)

        if correct and self.directory.can_verify(block):
            latency = max(dir_resp, ack_lat)
            indirection = False
        else:
            missing = minimal - predicted
            inv_lat = 0
            for node in missing:
                leg = self.network.send(home, node, MessageClass.CONTROL, base_cat)
                leg += self._probe(node)
                leg += self.network.send(node, core, MessageClass.CONTROL, base_cat)
                inv_lat = max(inv_lat, leg)
            latency = max(dir_leg + self.lat.dir_lookup + inv_lat, dir_resp, ack_lat)
            indirection = True

        invalidated = self._apply_write_invalidations(core, block, minimal)
        self.hierarchies[core].set_state(block, Mesif.MODIFIED)
        self.directory.record_store_upgrade(block, core)
        return TransactionResult(
            kind=MissKind.UPGRADE, core=core, block=block, communicating=comm,
            off_chip=False, minimal_targets=minimal, predicted=predicted,
            prediction_correct=correct if comm else None, latency=latency,
            indirection=indirection, responder=None, invalidated=invalidated,
        )

    # ------------------------------------------------------------------
    # shared flow fragments
    # ------------------------------------------------------------------

    def _predicted_fanout(
        self, core, home, predicted, base_cat, pred_cat,
        nacks=False, responder=None,
    ) -> int:
        """Account the predicted-request fan-out; return the directory leg.

        Covers the requester's multicast to the predicted nodes, the
        tagged request to the home directory, and — when ``nacks`` is set
        — the control nack each predicted node other than ``responder``
        returns (the read-flow shape; write/upgrade flows ack through
        their own loop).  Message-by-message this is exactly the
        unmemoized loop; with a transcript recording it falls back to
        per-message sends so the audit trail stays complete.
        """
        net = self.network
        if net._transcript is not None:
            net.multicast(core, predicted, MessageClass.CONTROL, pred_cat)
            leg = net.send(core, home, MessageClass.CONTROL, base_cat)
            if nacks:
                for node in predicted:
                    if node != responder:
                        net.send(node, core, MessageClass.CONTROL, pred_cat)
            return leg
        key = (core, home, predicted, nacks, responder, base_cat, pred_cat)
        memo = self._fan_memo.get(key)
        if memo is None:
            ctrl = net._control_bytes
            hops_table = net._hops
            hops_row = hops_table[core]
            msgs = 0
            hop_sum = 0
            for node in predicted:
                if node == core:
                    continue
                msgs += 1
                hop_sum += hops_row[node]
                if nacks and node != responder:
                    msgs += 1
                    hop_sum += hops_table[node][core]
            pred_bytes = msgs * ctrl
            msgs += 1
            hop_sum += hops_row[home]
            links = hop_sum * ctrl
            memo = (
                msgs,
                msgs * ctrl,
                links,
                links + msgs * ctrl,
                pred_bytes,
                ctrl,
                net._latency[core][home],
            )
            self._fan_memo[key] = memo
        msgs, n_bytes, links, routers, pred_bytes, base_bytes, leg = memo
        stats = net.stats
        stats.messages += msgs
        stats.bytes_total += n_bytes
        stats.byte_links += links
        stats.byte_routers += routers
        by_category = stats.bytes_by_category
        try:
            by_category[pred_cat] += pred_bytes
        except KeyError:
            by_category[pred_cat] = pred_bytes
        try:
            by_category[base_cat] += base_bytes
        except KeyError:
            by_category[base_cat] = base_bytes
        return leg

    def _predicted_acks(self, core, predicted, minimal, pred_cat) -> int:
        """Account the acks/nacks the predicted nodes return on a write
        or upgrade; return the slowest ack leg.

        Every predicted node sends one control message back to the
        requester; only the nodes that actually held a copy (``minimal``)
        pay the request leg plus a tag probe and so contribute to the
        ack latency.  Message-by-message identical to the unmemoized
        loop; with a transcript recording it falls back to per-message
        sends so the audit trail stays complete.
        """
        net = self.network
        if not predicted:
            return 0
        if net._transcript is not None:
            ack_lat = 0
            for node in predicted:
                if node in minimal:
                    leg = net.latency(core, node) + self.lat.l2_tag
                    leg += net.send(node, core, MessageClass.CONTROL, pred_cat)
                    if leg > ack_lat:
                        ack_lat = leg
                else:
                    net.send(node, core, MessageClass.CONTROL, pred_cat)
            return ack_lat
        key = (core, predicted, minimal, pred_cat)
        memo = self._ack_memo.get(key)
        if memo is None:
            hops_table = net._hops
            lat_table = net._latency
            lat_row = lat_table[core]
            l2_tag = self.lat.l2_tag
            hop_sum = 0
            ack_lat = 0
            for node in predicted:
                hop_sum += hops_table[node][core]
                if node in minimal:
                    leg = lat_row[node] + l2_tag + lat_table[node][core]
                    if leg > ack_lat:
                        ack_lat = leg
            msgs = len(predicted)
            ctrl = net._control_bytes
            links = hop_sum * ctrl
            memo = (msgs, msgs * ctrl, links, links + msgs * ctrl, ack_lat)
            self._ack_memo[key] = memo
        msgs, n_bytes, links, routers, ack_lat = memo
        stats = net.stats
        stats.messages += msgs
        stats.bytes_total += n_bytes
        stats.byte_links += links
        stats.byte_routers += routers
        by_category = stats.bytes_by_category
        try:
            by_category[pred_cat] += n_bytes
        except KeyError:
            by_category[pred_cat] = n_bytes
        return ack_lat

    def _cold_fill(self, core, home, cat) -> int:
        """Account a cold miss's round trip (control request to the home,
        memory fetch, data reply) as one memoized pair of sends; returns
        the full latency including the directory lookup and memory access.
        Message-for-message identical to the unmemoized flow."""
        net = self.network
        memo = self._cold_memo.get((core, home))
        if memo is None:
            hops = net._hops[core][home]
            n_bytes = net._control_bytes + net._data_bytes
            memo = (
                n_bytes,
                n_bytes * hops,
                n_bytes * (hops + 1),
                2 * net._latency[core][home]
                + self.lat.dir_lookup + self.lat.memory,
            )
            self._cold_memo[(core, home)] = memo
        n_bytes, links, routers, latency = memo
        stats = net.stats
        stats.messages += 2
        stats.bytes_total += n_bytes
        stats.byte_links += links
        stats.byte_routers += routers
        try:
            stats.bytes_by_category[cat] += n_bytes
        except KeyError:
            stats.bytes_by_category[cat] = n_bytes
        return latency

    def _probe(self, node: int) -> int:
        """A remote L2 tag probe (counted for the snoop-energy model)."""
        self.snoop_lookups += 1
        return self.lat.l2_tag

    def _forward_read_from_owner(self, core, block, entry, responder, cat) -> int:
        """Directory forwards a read to the owner/F-holder, who replies."""
        home = self.directory.home_of(block)
        path = self.network.send(home, responder, MessageClass.CONTROL, cat)
        path += self._probe(responder) + self.lat.l2_data
        path += self.network.send(responder, core, MessageClass.DATA, cat)
        self._account_owner_update(entry, responder, home)
        return path

    def _account_owner_update(self, entry, responder, home) -> None:
        """Off-critical-path messages the responder sends the directory.

        A dirty owner writes the line back so memory is clean once the
        block degrades to shared; a clean responder just notifies.
        """
        if entry.owner == responder and entry.dirty:
            self.network.send(responder, home, MessageClass.DATA, self.CAT_WRITEBACK)
        else:
            self.network.send(responder, home, MessageClass.CONTROL, self.CAT_WRITEBACK)

    def _memory_read(self, core, home, entry, cat) -> int:
        """Home fetches the line from memory and ships it to the requester."""
        return self.lat.memory + self.network.send(
            home, core, MessageClass.DATA, cat
        )

    def _invalidate_via_directory(
        self, core, home, entry, minimal, cat, *, need_data: bool, block: int
    ) -> int:
        """Directory-side invalidation fan-out with acks collected at the
        requester; data comes from the F holder if present, else memory.

        The fan-out follows what the directory *hardware* knows
        (``invalidation_fanout``): with a full map that is exactly the
        remote sharers; a limited-pointer directory may fan out to a
        superset after overflow, every target acking regardless.
        """
        fanout = self.directory.invalidation_fanout(block, core) | minimal
        inv_lat = 0
        for node in fanout:
            leg = self.network.send(home, node, MessageClass.CONTROL, cat)
            leg += self._probe(node)
            leg += self.network.send(node, core, MessageClass.CONTROL, cat)
            inv_lat = max(inv_lat, leg)
        if not need_data:
            grant = self.network.send(home, core, MessageClass.CONTROL, cat)
            return max(inv_lat, grant)
        if (
            entry.forwarder is not None
            and entry.forwarder != core
            and self.directory.can_verify(block)
        ):
            fwd = entry.forwarder
            data_lat = self.network.send(home, fwd, MessageClass.CONTROL, cat)
            data_lat += self.lat.l2_data
            data_lat += self.network.send(fwd, core, MessageClass.DATA, cat)
        else:
            # Coarse entries do not know the forwarder: memory supplies.
            data_lat = self.lat.memory + self.network.send(
                home, core, MessageClass.DATA, cat
            )
        return max(inv_lat, data_lat)

    def _predicted_write_data(self, core, home, entry, cat) -> int:
        """Data path for a fully predicted write miss."""
        source = entry.responder
        if source is not None and source != core:
            path = self.network.latency(core, source) + self.lat.l2_data
            path += self.network.send(source, core, MessageClass.DATA, cat)
            return path
        return (
            self.network.latency(core, home)
            + self.lat.dir_lookup
            + self._memory_read(core, home, entry, cat)
        )

    def _apply_write_invalidations(self, core, block, minimal) -> frozenset:
        """Drop every remote copy of the block."""
        for node in minimal:
            self.hierarchies[node].invalidate(block)
        if type(minimal) is frozenset:
            return minimal
        return frozenset(minimal)

    def _finish_read_fill(self, core, block, entry) -> None:
        """Install the line at the requester after a read miss."""
        had_other_copies = entry.mask & ~(1 << core)
        if entry.responder is not None and entry.responder != core:
            # The previous responder's copy degrades to plain Shared.
            resp = entry.responder
            if self.hierarchies[resp].peek_state(block) is not Mesif.INVALID:
                self.hierarchies[resp].set_state(block, Mesif.SHARED)
        state = Mesif.FORWARD if had_other_copies else Mesif.EXCLUSIVE
        victim = self.hierarchies[core].fill(block, state)
        if victim is not None:
            self._handle_victim(core, victim)
        if state is Mesif.EXCLUSIVE:
            self.directory.record_exclusive_fill(block, core, dirty=False)
        else:
            self.directory.record_read_fill(block, core)

    def _finish_write_fill(self, core, block) -> None:
        victim = self.hierarchies[core].fill(block, Mesif.MODIFIED)
        if victim is not None:
            self._handle_victim(core, victim)
        self.directory.record_exclusive_fill(block, core, dirty=True)

    def _handle_victim(self, core, victim) -> None:
        """Notify the directory (and write back dirty data) on eviction."""
        if victim is None or victim.state is Mesif.INVALID:
            return
        home = self.directory.home_of(victim.block)
        msg = MessageClass.DATA if victim.state is Mesif.MODIFIED else MessageClass.CONTROL
        self.network.send(core, home, msg, self.CAT_WRITEBACK)
        self.directory.record_eviction(
            victim.block, core, was_dirty=victim.state is Mesif.MODIFIED
        )

    @staticmethod
    def _clean_prediction(core, predicted):
        """Normalize a predicted set: drop self, treat empty as no prediction."""
        if predicted is None:
            return None
        if type(predicted) is frozenset and core not in predicted:
            # Predictors hand over frozensets that already exclude the
            # requester; skip the per-miss copy in that common case.
            return predicted or None
        cleaned = frozenset(predicted) - {core}
        return cleaned or None
