"""Broadcast snooping protocol over a totally ordered interconnect.

The paper's latency reference: every L2 miss broadcasts to all tiles, the
owner/forwarder (or memory at the home tile) responds directly, and no
directory indirection ever occurs.  Ordering comes from the interconnect,
so writes need no explicit acknowledgement collection.  The price is a
request message to every tile and a snoop tag lookup at each — the
bandwidth and energy reference of Figures 9 and 11.

The implementation reuses the full-map :class:`Directory` purely as a
bookkeeping oracle for where copies live (a real snooping machine keeps no
such structure; here it only tracks cache contents we would otherwise have
to mirror).  No directory messages or lookup latency are ever charged.
"""

from __future__ import annotations

from repro.coherence.directory import Directory
from repro.coherence.protocol import (
    MissKind,
    ProtocolLatencies,
    TransactionResult,
)
from repro.coherence.states import Mesif
from repro.noc.network import MessageClass, Network


class BroadcastProtocol:
    """Snooping MESIF with per-miss broadcast.

    Exposes the same transaction interface as :class:`DirectoryProtocol`;
    predictions are ignored (broadcast already reaches every possible
    target).
    """

    #: Backend name used by the engine/CLI and in check reports.
    name = "broadcast"

    CAT_COMM = "base_comm"
    CAT_NONCOMM = "base_noncomm"
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

    # ------------------------------------------------------------------

    def read_miss(self, core: int, block: int, predicted=None) -> TransactionResult:
        entry = self.directory.peek(block)
        minimal = entry.minimal_read_targets()
        comm = bool(minimal)
        cat = self.CAT_COMM if comm else self.CAT_NONCOMM

        bcast_lat = self.network.broadcast(core, MessageClass.CONTROL, cat)
        self.snoop_lookups += self.network.num_nodes - 1
        responder = entry.responder

        if responder is not None:
            latency = self.network.latency(core, responder)
            latency += self.lat.l2_access
            latency += self.network.send(responder, core, MessageClass.DATA, cat)
            if entry.dirty:
                home = self.directory.home_of(block)
                self.network.send(responder, home, MessageClass.DATA, self.CAT_WRITEBACK)
            off_chip = False
        else:
            home = self.directory.home_of(block)
            latency = max(
                bcast_lat,
                self.network.latency(core, home) + self.lat.memory,
            )
            latency += self.network.send(home, core, MessageClass.DATA, cat)
            off_chip = True

        self._finish_read_fill(core, block, entry)
        return TransactionResult(
            kind=MissKind.READ, core=core, block=block, communicating=comm,
            off_chip=off_chip, minimal_targets=minimal, predicted=None,
            prediction_correct=None, latency=latency, indirection=False,
            responder=responder, invalidated=frozenset(),
        )

    def write_miss(self, core: int, block: int, predicted=None) -> TransactionResult:
        entry = self.directory.peek(block)
        minimal = entry.minimal_write_targets(core)
        comm = bool(minimal)
        cat = self.CAT_COMM if comm else self.CAT_NONCOMM

        self.network.broadcast(core, MessageClass.CONTROL, cat)
        self.snoop_lookups += self.network.num_nodes - 1
        responder = entry.responder

        if responder is not None and responder != core:
            latency = self.network.latency(core, responder)
            latency += self.lat.l2_access
            latency += self.network.send(responder, core, MessageClass.DATA, cat)
            off_chip = False
        elif comm:
            # Shared copies but no forwarder: memory supplies the data while
            # the broadcast invalidates the sharers.
            home = self.directory.home_of(block)
            latency = self.network.latency(core, home) + self.lat.memory
            latency += self.network.send(home, core, MessageClass.DATA, cat)
            off_chip = False
        else:
            home = self.directory.home_of(block)
            latency = self.network.latency(core, home) + self.lat.memory
            latency += self.network.send(home, core, MessageClass.DATA, cat)
            off_chip = True

        invalidated = self._apply_write_invalidations(core, block, minimal)
        victim = self.hierarchies[core].fill(block, Mesif.MODIFIED)
        self._handle_victim(core, victim)
        self.directory.record_exclusive_fill(block, core, dirty=True)
        return TransactionResult(
            kind=MissKind.WRITE, core=core, block=block, communicating=comm,
            off_chip=off_chip, minimal_targets=minimal, predicted=None,
            prediction_correct=None, latency=latency, indirection=False,
            responder=responder, invalidated=invalidated,
        )

    def upgrade_miss(self, core: int, block: int, predicted=None) -> TransactionResult:
        entry = self.directory.peek(block)
        minimal = entry.minimal_write_targets(core)
        comm = bool(minimal)
        cat = self.CAT_COMM if comm else self.CAT_NONCOMM

        latency = self.network.broadcast(core, MessageClass.CONTROL, cat)
        self.snoop_lookups += self.network.num_nodes - 1

        invalidated = self._apply_write_invalidations(core, block, minimal)
        self.hierarchies[core].set_state(block, Mesif.MODIFIED)
        self.directory.record_store_upgrade(block, core)
        return TransactionResult(
            kind=MissKind.UPGRADE, core=core, block=block, communicating=comm,
            off_chip=False, minimal_targets=minimal, predicted=None,
            prediction_correct=None, latency=latency, indirection=False,
            responder=None, invalidated=invalidated,
        )

    # ------------------------------------------------------------------

    def _apply_write_invalidations(self, core, block, minimal) -> frozenset:
        for node in minimal:
            self.hierarchies[node].invalidate(block)
        return frozenset(minimal)

    def _finish_read_fill(self, core, block, entry) -> None:
        had_other_copies = entry.mask & ~(1 << core)
        if entry.responder is not None and entry.responder != core:
            resp = entry.responder
            if self.hierarchies[resp].peek_state(block) is not Mesif.INVALID:
                self.hierarchies[resp].set_state(block, Mesif.SHARED)
        state = Mesif.FORWARD if had_other_copies else Mesif.EXCLUSIVE
        victim = self.hierarchies[core].fill(block, state)
        self._handle_victim(core, victim)
        if state is Mesif.EXCLUSIVE:
            self.directory.record_exclusive_fill(block, core, dirty=False)
        else:
            self.directory.record_read_fill(block, core)

    def _handle_victim(self, core, victim) -> None:
        if victim is None or victim.state is Mesif.INVALID:
            return
        if victim.state is Mesif.MODIFIED:
            home = self.directory.home_of(victim.block)
            self.network.send(core, home, MessageClass.DATA, self.CAT_WRITEBACK)
        self.directory.record_eviction(
            victim.block, core, was_dirty=victim.state is Mesif.MODIFIED
        )
