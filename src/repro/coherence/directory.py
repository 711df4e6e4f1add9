"""Distributed full-map directory.

Each block has a home tile (address-interleaved); the home's directory
slice records the full sharing state: an N-bit presence mask of the
caches with a valid copy (bit *i* set means core *i* holds the block),
which of them (if any) owns the block in M/E, and which holds the MESIF
Forward state.  Because caches notify the directory on evictions, the
directory view is exact — which the paper relies on for detecting whether
a predicted target set was sufficient.

Sharer sets leave the directory as frozensets (transaction results and
predictions speak in sets); :func:`mask_set` interns one frozenset per
mask, so the per-miss target queries do not allocate.
"""

from __future__ import annotations


_EMPTY_SET: frozenset = frozenset()

#: Interned frozenset per presence mask (see :func:`mask_set`).  One
#: table serves every directory in the process: each value is an
#: immutable, pure function of its key.
_MASK_SETS: dict = {0: _EMPTY_SET}

#: Masks beyond this many distinct ones are converted without interning
#: (a 16-core machine has at most 65,536 masks; wider machines only
#: ever see a tiny fraction of theirs).
_MASK_SETS_CAP = 1 << 16


def mask_cores(mask: int) -> list:
    """The core ids whose bits are set in ``mask``, ascending."""
    cores = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


def mask_set(mask: int) -> frozenset:
    """The interned frozenset of the cores in ``mask``."""
    cores = _MASK_SETS.get(mask)
    if cores is None:
        cores = frozenset(mask_cores(mask))
        if len(_MASK_SETS) < _MASK_SETS_CAP:
            _MASK_SETS[mask] = cores
    return cores


def cores_mask(cores) -> int:
    """The presence mask of an iterable of core ids."""
    mask = 0
    for core in cores:
        mask |= 1 << core
    return mask


class DirectoryEntry:
    """Sharing state of a single block.

    ``mask`` is the presence vector; ``sharers`` is a read-only
    frozenset view of it for callers that want set semantics.
    """

    __slots__ = ("mask", "owner", "forwarder", "dirty")

    def __init__(
        self,
        sharers=(),
        owner: int | None = None,      # holder of M or E, if any
        forwarder: int | None = None,  # holder of F, if any
        dirty: bool = False,           # owner's copy is Modified
    ) -> None:
        self.mask = cores_mask(sharers) if sharers else 0
        self.owner = owner
        self.forwarder = forwarder
        self.dirty = dirty

    def __repr__(self) -> str:
        return (
            f"DirectoryEntry(sharers={mask_cores(self.mask)}, "
            f"owner={self.owner}, forwarder={self.forwarder}, "
            f"dirty={self.dirty})"
        )

    def __eq__(self, other) -> bool:
        if type(other) is not DirectoryEntry:
            return NotImplemented
        return (
            self.mask == other.mask and self.owner == other.owner
            and self.forwarder == other.forwarder
            and self.dirty == other.dirty
        )

    __hash__ = None

    @property
    def sharers(self) -> frozenset:
        return mask_set(self.mask)

    @property
    def cached_anywhere(self) -> bool:
        return self.mask != 0

    @property
    def responder(self) -> int | None:
        """The single cache that answers a read request (owner or F holder)."""
        return self.owner if self.owner is not None else self.forwarder

    def minimal_read_targets(self) -> frozenset:
        """Smallest cache set sufficient to satisfy a read miss.

        Empty when memory must respond (no owner and no forwarder).
        """
        resp = self.owner
        if resp is None:
            resp = self.forwarder
            if resp is None:
                return _EMPTY_SET
        return mask_set(1 << resp)

    def minimal_write_targets(self, requester: int) -> frozenset:
        """Caches that must be contacted to grant exclusive ownership.

        All remote valid copies must be invalidated (and a dirty owner must
        forward its data), so the minimal set is every sharer but the
        requester itself.
        """
        return mask_set(self.mask & ~(1 << requester))


#: The entry ``peek`` hands out for uncached blocks; never mutated.
EMPTY_ENTRY = DirectoryEntry()


class Directory:
    """Full-map directory distributed across the tiles of the machine.

    ``home_of`` address-interleaves blocks across tiles.  Entries are
    created lazily; a block nobody caches has an implicit empty entry.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("directory needs at least one node")
        self.num_nodes = num_nodes
        self._entries: dict = {}

    def home_of(self, block: int) -> int:
        return block % self.num_nodes

    def entry(self, block: int) -> DirectoryEntry:
        ent = self._entries.get(block)
        if ent is None:
            ent = DirectoryEntry()
            self._entries[block] = ent
        return ent

    def peek(self, block: int) -> DirectoryEntry:
        """Entry without creating one (empty entry for uncached blocks).

        Uncached blocks share one immutable-by-convention empty entry:
        every caller treats peeked entries as read-only (mutations go
        through the ``record_*`` methods, which materialize real entries),
        and a cold miss happens once per block touched, so the per-call
        allocation showed up in profiles.
        """
        ent = self._entries.get(block)
        return ent if ent is not None else EMPTY_ENTRY

    # -- state transitions driven by the protocol -------------------------

    def record_read_fill(self, block: int, requester: int) -> None:
        """Requester obtained a shared copy; it becomes the F holder.

        A previous M/E owner has degraded to plain shared; memory is clean
        again (the protocol accounts the writeback message).
        """
        ent = self.entry(block)
        ent.mask |= 1 << requester
        ent.owner = None
        ent.dirty = False
        ent.forwarder = requester

    def record_exclusive_fill(self, block: int, requester: int, dirty: bool) -> None:
        """Requester became the sole owner (read miss with no sharers, or
        any write miss / upgrade)."""
        ent = self.entry(block)
        ent.mask = 1 << requester
        ent.owner = requester
        ent.forwarder = None
        ent.dirty = dirty

    def record_eviction(self, block: int, core: int, *, was_dirty: bool) -> None:
        """A cache dropped its copy (capacity eviction, with notification)."""
        ent = self._entries.get(block)
        if ent is None:
            return
        ent.mask &= ~(1 << core)
        if ent.owner == core:
            ent.owner = None
            ent.dirty = False
        if ent.forwarder == core:
            ent.forwarder = None
        if not ent.mask:
            del self._entries[block]

    def record_store_upgrade(self, block: int, core: int) -> None:
        """A resident sharer was granted exclusive ownership."""
        self.record_exclusive_fill(block, core, dirty=True)

    def num_entries(self) -> int:
        return len(self._entries)

    def state_summary(self) -> dict:
        """Canonical, JSON-friendly snapshot of every live entry.

        Used by the differential checker to compare final stable state
        across protocol backends; the representation deliberately
        contains nothing timing- or organization-specific.
        """
        return {
            block: {
                "sharers": mask_cores(ent.mask),
                "owner": ent.owner,
                "forwarder": ent.forwarder,
                "dirty": ent.dirty,
            }
            for block, ent in self._entries.items()
            if ent.mask
        }

    # -- hardware-precision hooks (overridden by limited-pointer orgs) --

    def can_verify(self, block: int) -> bool:
        """Whether predicted sets can be checked against this entry.

        The full-map directory always can; limited-pointer organizations
        cannot once an entry overflows to coarse representation.
        """
        return True

    def invalidation_fanout(self, block: int, requester: int) -> frozenset:
        """Cores the hardware sends invalidations to for a write.

        Full map: exactly the remote sharers.  Coarse organizations may
        return a superset (up to every core).
        """
        return self.peek(block).minimal_write_targets(requester)
