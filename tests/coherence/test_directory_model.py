"""Model-based tests: the presence-mask directory against a set model.

Random sequences of read fills, exclusive fills, store upgrades and
evictions drive :class:`Directory` and a 2-pointer
:class:`LimitedPointerDirectory` side by side with a plain reference
model that keeps every sharer set as a Python ``set``.  After every step
each query the protocols make of the directory must agree with the
model, and every set the directory hands out must be a ``frozenset``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import PrivateHierarchy
from repro.coherence.directory import Directory
from repro.coherence.limited import LimitedPointerDirectory
from repro.coherence.multicast import MulticastProtocol
from repro.coherence.protocol import DirectoryProtocol
from repro.coherence.snooping import BroadcastProtocol
from repro.coherence.states import Mesif
from repro.noc.network import Network
from repro.noc.topology import Mesh2D

N = 16
BLOCKS = range(3)
POINTERS = 2
#: A few cores spread over the 16 (low, high, top bit) so short random
#: scripts revisit the same core and block often enough to reach
#: overflow, eviction of the F holder and eviction of the last sharer.
CORES = [0, 1, 2, 7, 11, 15]

steps = st.lists(
    st.tuples(
        st.sampled_from(["read", "read", "exclusive", "upgrade", "evict"]),
        st.sampled_from(CORES),         # core
        st.sampled_from(list(BLOCKS)),  # block
        st.booleans(),                  # dirty (exclusive)
    ),
    max_size=50,
)


class RefDirectory:
    """The directory as plain sets, with optional Dir-P tracking."""

    def __init__(self, pointers=None):
        self.entries = {}   # block -> [sharers, owner, forwarder, dirty]
        self.pointers = pointers
        self.tracked = {}   # block -> set, or None once coarse

    def read_fill(self, block, core):
        ent = self.entries.setdefault(block, [set(), None, None, False])
        ent[0].add(core)
        ent[1], ent[2], ent[3] = None, core, False
        if self.pointers is not None:
            tracked = self.tracked.get(block, set())
            if tracked is not None:
                tracked = tracked | {core}
                self.tracked[block] = (
                    None if len(tracked) > self.pointers else tracked
                )

    def exclusive_fill(self, block, core, dirty):
        self.entries[block] = [{core}, core, None, dirty]
        if self.pointers is not None:
            self.tracked[block] = {core}

    def evict(self, block, core):
        ent = self.entries.get(block)
        if ent is None:
            return
        ent[0].discard(core)
        if ent[1] == core:
            ent[1], ent[3] = None, False
        if ent[2] == core:
            ent[2] = None
        if not ent[0]:
            del self.entries[block]
            self.tracked.pop(block, None)
        elif self.tracked.get(block):
            self.tracked[block].discard(core)

    # -- queries --------------------------------------------------------

    def sharers(self, block):
        ent = self.entries.get(block)
        return set(ent[0]) if ent else set()

    def read_targets(self, block):
        ent = self.entries.get(block)
        if ent is None:
            return set()
        resp = ent[1] if ent[1] is not None else ent[2]
        return set() if resp is None else {resp}

    def coarse(self, block):
        return self.pointers is not None and (
            block in self.tracked and self.tracked[block] is None
        )

    def fanout(self, block, core):
        if self.pointers is None:
            return self.sharers(block) - {core}
        if self.coarse(block):
            return set(range(N)) - {core}
        return set(self.tracked.get(block) or ()) - {core}

    def summary(self):
        return {
            block: {
                "sharers": sorted(ent[0]),
                "owner": ent[1],
                "forwarder": ent[2],
                "dirty": ent[3],
            }
            for block, ent in self.entries.items()
        }


def apply(directory, ref, step):
    op, core, block, dirty = step
    if op == "read":
        directory.record_read_fill(block, core)
        ref.read_fill(block, core)
    elif op == "exclusive":
        directory.record_exclusive_fill(block, core, dirty)
        ref.exclusive_fill(block, core, dirty)
    elif op == "upgrade":
        directory.record_store_upgrade(block, core)
        ref.exclusive_fill(block, core, True)
    else:
        directory.record_eviction(block, core, was_dirty=False)
        ref.evict(block, core)


def assert_agrees(directory, ref):
    for block in BLOCKS:
        ent = directory.peek(block)
        assert type(ent.sharers) is frozenset
        assert ent.sharers == ref.sharers(block)
        assert ent.cached_anywhere == bool(ref.sharers(block))
        read_targets = ent.minimal_read_targets()
        assert type(read_targets) is frozenset
        assert read_targets == ref.read_targets(block)
        assert directory.can_verify(block) == (not ref.coarse(block))
        for core in range(N):
            write_targets = ent.minimal_write_targets(core)
            assert type(write_targets) is frozenset
            assert write_targets == ref.sharers(block) - {core}
            fanout = directory.invalidation_fanout(block, core)
            assert type(fanout) is frozenset
            assert fanout == ref.fanout(block, core)
    assert directory.state_summary() == ref.summary()
    assert directory.num_entries() == len(ref.entries)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(steps)
def test_full_map_matches_set_model(script):
    directory = Directory(N)
    ref = RefDirectory()
    assert_agrees(directory, ref)
    for step in script:
        apply(directory, ref, step)
        assert_agrees(directory, ref)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(steps)
def test_limited_pointer_matches_set_model(script):
    directory = LimitedPointerDirectory(N, pointers=POINTERS)
    ref = RefDirectory(pointers=POINTERS)
    assert_agrees(directory, ref)
    for step in script:
        apply(directory, ref, step)
        assert_agrees(directory, ref)
        for block in BLOCKS:
            tracked = directory.tracked_sharers(block)
            if ref.coarse(block):
                assert tracked is None
            else:
                assert type(tracked) is frozenset
                assert tracked == set(ref.tracked.get(block) or ())


transactions = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.sampled_from(CORES),                           # core
        st.sampled_from(list(BLOCKS)),                    # block
        st.frozensets(st.sampled_from(CORES), max_size=3),  # predicted
    ),
    max_size=40,
)


def _protocols():
    def hierarchies():
        return [
            PrivateHierarchy(
                c,
                l1=CacheConfig(size=256, assoc=1, line_size=64),
                l2=CacheConfig(size=2048, assoc=2, line_size=64),
            )
            for c in range(N)
        ]

    yield DirectoryProtocol(hierarchies(), Directory(N), Network(Mesh2D(4, 4)))
    yield DirectoryProtocol(
        hierarchies(), LimitedPointerDirectory(N, pointers=POINTERS),
        Network(Mesh2D(4, 4)),
    )
    yield BroadcastProtocol(hierarchies(), Directory(N), Network(Mesh2D(4, 4)))
    yield MulticastProtocol(hierarchies(), Directory(N), Network(Mesh2D(4, 4)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(transactions)
def test_transaction_sets_stay_frozensets(script):
    for proto in _protocols():
        for op, core, block, predicted in script:
            state = proto.hierarchies[core].peek_state(block)
            if op == "read":
                if state is not Mesif.INVALID:
                    continue
                tx = proto.read_miss(core, block, predicted or None)
            elif state is Mesif.INVALID:
                tx = proto.write_miss(core, block, predicted or None)
            elif not state.can_write:
                tx = proto.upgrade_miss(core, block, predicted or None)
            else:
                continue
            assert type(tx.minimal_targets) is frozenset
            assert type(tx.invalidated) is frozenset
