"""Communication counters and hot-set signatures.

Each core monitors its coherence responses with one counter per remote
core; counters reset at every sync-point (Table 2).  At epoch end the *hot
communication set* — every core drawing at least a threshold fraction
(10% in the paper, Section 3.3) of the epoch's communication volume — is
extracted and stored as a bit-vector signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A communication signature: the set of hot target cores.  Stored and
#: combined as a frozenset; hardware would hold it as an N-bit vector.
#: The directory already keeps its sharers in that form (an int
#: presence mask per entry, ``DirectoryEntry.mask``); signatures and the
#: predicted sets built from them do not yet.
Signature = frozenset

#: Hot-set extraction threshold used throughout the paper (Section 3.3).
DEFAULT_HOT_THRESHOLD = 0.10


def extract_hot_set(
    counts,
    *,
    self_core: int | None = None,
    threshold: float = DEFAULT_HOT_THRESHOLD,
    max_size: int | None = None,
) -> Signature:
    """Extract the hot communication set from per-core volume counts.

    ``counts`` maps core id -> communication volume (a sequence or dict).
    A core is hot when it draws at least ``threshold`` of the total volume.
    The extracting core itself is never part of its own hot set.

    ``max_size`` optionally bounds the set to the top-k hottest cores —
    the Section 5.2 policy tweak for bandwidth/power-capped designs
    ("tune the policy to extract a hot set that does not exceed a
    certain size").
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be positive when given")
    items = counts.items() if isinstance(counts, dict) else enumerate(counts)
    pairs = [(core, vol) for core, vol in items if vol > 0 and core != self_core]
    total = sum(vol for _, vol in pairs)
    if total == 0:
        return Signature()
    floor = threshold * total
    hot = [(vol, core) for core, vol in pairs if vol >= floor]
    if max_size is not None and len(hot) > max_size:
        hot = sorted(hot, reverse=True)[:max_size]
    return Signature(core for _, core in hot)


def signature_bits(sig: Signature, num_cores: int) -> str:
    """Render a signature as the paper's bit-vector notation (core 0 first)."""
    return "".join("1" if core in sig else "0" for core in range(num_cores))


@dataclass
class CommunicationCounters:
    """Per-core communication volume counters for one observing core.

    ``record_response`` mirrors Table 2: data responses on read/write
    misses increment the responder's counter; invalidation acks increment
    every responder in the acked set.  ``volume`` is the total activity in
    the current interval, used for noise detection (Section 3.4).
    """

    num_cores: int
    self_core: int
    _counts: list = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.self_core < self.num_cores:
            raise ValueError("self_core out of range")
        self._counts = [0] * self.num_cores

    def reset(self) -> None:
        """Zero all counters (performed at each sync-point, Table 2)."""
        for i in range(self.num_cores):
            self._counts[i] = 0

    def record_response(self, responder: int) -> None:
        """A remote cache sourced data for one of our misses."""
        if responder != self.self_core:
            self._counts[responder] += 1

    def record_invalidation_acks(self, responders) -> None:
        """Remote caches acknowledged invalidations for one of our writes."""
        for responder in responders:
            if responder != self.self_core:
                self._counts[responder] += 1

    @property
    def volume(self) -> int:
        return sum(self._counts)

    def counts(self) -> list:
        return list(self._counts)

    def hot_set(
        self,
        threshold: float = DEFAULT_HOT_THRESHOLD,
        max_size: int | None = None,
    ) -> Signature:
        """Extract the current hot communication set (Section 3.3)."""
        return extract_hot_set(
            self._counts, self_core=self.self_core, threshold=threshold,
            max_size=max_size,
        )
