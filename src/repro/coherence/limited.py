"""Limited-pointer directory (Dir-P style) — substrate extension.

The paper's baseline directory is full-map: one presence bit per core
per entry, which is exactly what lets it verify predicted sets.  Real
machines often spend less: a limited-pointer directory tracks up to P
sharers precisely (plus a dedicated owner pointer) and falls back to a
*coarse* representation on overflow, where writes must fan out
invalidations to every core.

This module models that organization so the interaction with
SP-prediction can be studied:

* reads are unaffected (the owner pointer survives overflow);
* writes/upgrades to overflowed entries broadcast invalidations
  (bandwidth + latency cost on the baseline);
* the directory cannot *verify* a predicted set against an overflowed
  entry, so predictions on coarse blocks cannot skip indirection even
  when they happen to be sufficient — prediction's gains shrink as the
  directory gets cheaper, which quantifies how much SP-prediction's
  benefit depends on directory precision.

The class keeps the base :class:`Directory`'s exact sharer masks as the
model's ground truth (the protocol still needs to know which caches to
actually invalidate); the pointer bound only limits what the *hardware
would know*, exposed through :meth:`can_verify` and
:meth:`invalidation_fanout`.
"""

from __future__ import annotations

from repro.coherence.directory import Directory, mask_set


class LimitedPointerDirectory(Directory):
    """Directory with P precise sharer pointers + an owner pointer."""

    def __init__(self, num_nodes: int, pointers: int = 4) -> None:
        super().__init__(num_nodes)
        if pointers < 1:
            raise ValueError("need at least one sharer pointer")
        self.pointers = pointers
        #: block -> presence mask of the tracked sharers, or None once
        #: overflowed.
        self._tracked: dict = {}
        self.overflows = 0

    # -- hardware-visible state ----------------------------------------

    def tracked_sharers(self, block: int):
        """The sharers the hardware knows, or None when coarse."""
        tracked = self._tracked.get(block, 0)
        return None if tracked is None else mask_set(tracked)

    def is_coarse(self, block: int) -> bool:
        return block in self._tracked and self._tracked[block] is None

    def can_verify(self, block: int) -> bool:
        """Whether a predicted set can be checked against this entry."""
        return not self.is_coarse(block)

    def invalidation_fanout(self, block: int, requester: int) -> frozenset:
        """Cores the hardware must send invalidations to."""
        tracked = self._tracked.get(block, 0)
        if tracked is None:
            # Coarse: invalidate everyone (Dir-P broadcast fallback).
            tracked = (1 << self.num_nodes) - 1
        return mask_set(tracked & ~(1 << requester))

    # -- state transitions (mirror the base class, bounding pointers) ---

    def _track_add(self, block: int, core: int) -> None:
        tracked = self._tracked.get(block, 0)
        if tracked is None:
            return  # already coarse
        tracked |= 1 << core
        if tracked.bit_count() > self.pointers:
            self._tracked[block] = None
            self.overflows += 1
        else:
            self._tracked[block] = tracked

    def record_read_fill(self, block: int, requester: int) -> None:
        super().record_read_fill(block, requester)
        self._track_add(block, requester)

    def record_exclusive_fill(self, block: int, requester: int, dirty: bool) -> None:
        super().record_exclusive_fill(block, requester, dirty)
        # Exclusive ownership resets the entry to one precise pointer.
        self._tracked[block] = 1 << requester

    def record_eviction(self, block: int, core: int, *, was_dirty: bool) -> None:
        super().record_eviction(block, core, was_dirty=was_dirty)
        if not self.peek(block).mask:
            self._tracked.pop(block, None)
            return
        tracked = self._tracked.get(block)
        if tracked:
            self._tracked[block] = tracked & ~(1 << core)

    def coarse_entries(self) -> int:
        return sum(1 for v in self._tracked.values() if v is None)

    def precision_summary(self) -> dict:
        """Hardware-precision counters for check/sanitizer reports."""
        return {
            "pointers": self.pointers,
            "overflows": self.overflows,
            "coarse_entries": self.coarse_entries(),
            "tracked_entries": len(self._tracked),
        }
