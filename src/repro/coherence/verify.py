"""Coherence sanitizer: structured MESIF invariant checking.

A debugging aid for protocol work: after every transaction the verifier
checks that a block still satisfies the MESIF invariants —
directory/cache agreement, the single-writer/multiple-reader property,
at most one Forward copy, and dirty-bit consistency.

Two modes:

* **raise** (default, the historical behavior): the first violation
  raises :class:`CoherenceViolation` — right for unit tests and for
  ``verify_coherence=True`` debugging runs that want to stop at the bug.
* **record** (``record=True``): violations accumulate as structured
  :class:`ViolationRecord` entries (rule name, block, transaction
  ordinal, expected/actual in protocol-agnostic terms) and the run keeps
  going — right for the ``--sanitize`` CLI flag, the sweep runner, and
  the differential checker, which all want a full report rather than a
  stack trace.

Messages name cores as ``core N`` and states by their MESIF letter names
(``MODIFIED``, ``FORWARD``, ...), never raw enum reprs, so reports read
the same regardless of which protocol backend produced the state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coherence.directory import cores_mask, mask_cores
from repro.coherence.states import Mesif


class CoherenceViolation(AssertionError):
    """A protocol invariant was broken (indicates a simulator bug)."""


#: Invariant rule identifiers (the ``rule`` field of a record).
RULE_DIR_CACHE_MISMATCH = "dir-cache-mismatch"
RULE_MULTIPLE_WRITERS = "multiple-writers"
RULE_WRITER_SHARER_OVERLAP = "writer-sharer-overlap"
RULE_OWNER_MISMATCH = "owner-mismatch"
RULE_DOUBLE_FORWARD = "double-forward"
RULE_FORWARDER_MISMATCH = "forwarder-mismatch"
RULE_DIRTY_MISMATCH = "dirty-mismatch"


@dataclass(frozen=True)
class ViolationRecord:
    """One broken invariant, with enough context to debug it.

    ``transaction`` is the ordinal of the coherence transaction after
    which the check ran (None when the verifier is driven outside a
    simulation, e.g. directly in a unit test).
    """

    rule: str
    block: int
    transaction: int | None
    expected: str
    actual: str

    @property
    def message(self) -> str:
        where = (
            f" after transaction #{self.transaction}"
            if self.transaction is not None
            else ""
        )
        return (
            f"block {self.block:#x}{where} [{self.rule}]: "
            f"expected {self.expected}; found {self.actual}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "block": self.block,
            "transaction": self.transaction,
            "expected": self.expected,
            "actual": self.actual,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ViolationRecord":
        return cls(
            rule=data["rule"],
            block=data["block"],
            transaction=data["transaction"],
            expected=data["expected"],
            actual=data["actual"],
        )


def _cores(cores) -> str:
    return ", ".join(f"core {c}" for c in sorted(cores)) or "no cores"


def _holders_desc(holders: dict) -> str:
    if not holders:
        return "no cached copies"
    return ", ".join(
        f"core {c} in {s.name}" for c, s in sorted(holders.items())
    )


class CoherenceVerifier:
    """Checks MESIF invariants for blocks against a protocol's state.

    Works with anything exposing ``hierarchies`` (indexable by core, each
    with ``peek_state``) and ``directory`` (with ``peek``) — every
    protocol backend (directory, broadcast, multicast, limited-pointer
    directory) qualifies, because the limited-pointer organization keeps
    the base class's exact sharer sets as ground truth.
    """

    def __init__(
        self,
        protocol,
        record: bool = False,
        max_records: int = 1000,
    ) -> None:
        self.protocol = protocol
        self.record = record
        self.max_records = max_records
        self.checks = 0
        self.violations: list[ViolationRecord] = []
        self._num_cores = len(protocol.hierarchies)

    # ------------------------------------------------------------------

    def check_block(self, block: int, transaction: int | None = None) -> list:
        """Check one block; raise (raise mode) or record (record mode).

        Returns the violations found for this block (empty when clean).
        """
        self.checks += 1
        if transaction is None:
            transaction = self.checks
        found = self._block_violations(block, transaction)
        if found:
            if self.record:
                room = self.max_records - len(self.violations)
                if room > 0:
                    self.violations.extend(found[:room])
            else:
                raise CoherenceViolation(found[0].message)
        return found

    def check_all(self, blocks, transaction: int | None = None) -> list:
        found = []
        for block in blocks:
            found.extend(self.check_block(block, transaction))
        return found

    def report(self) -> dict:
        """Summary of everything recorded so far (record mode)."""
        by_rule: dict = {}
        for v in self.violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        return {
            "checks": self.checks,
            "violations": len(self.violations),
            "by_rule": by_rule,
            "records": [v.to_dict() for v in self.violations],
        }

    # ------------------------------------------------------------------

    def _block_violations(self, block: int, tx: int | None) -> list:
        entry = self.protocol.directory.peek(block)
        holders = {}
        for core in range(self._num_cores):
            state = self.protocol.hierarchies[core].peek_state(block)
            if state is not Mesif.INVALID:
                holders[core] = state

        found = []

        if cores_mask(holders) != entry.mask:
            found.append(ViolationRecord(
                rule=RULE_DIR_CACHE_MISMATCH,
                block=block,
                transaction=tx,
                expected=(
                    f"directory sharers ({_cores(mask_cores(entry.mask))}) "
                    "to match the caches holding a valid copy"
                ),
                actual=_holders_desc(holders),
            ))

        writers = {c: s for c, s in holders.items() if s.can_write}
        if len(writers) > 1:
            found.append(ViolationRecord(
                rule=RULE_MULTIPLE_WRITERS,
                block=block,
                transaction=tx,
                expected="at most one writable (MODIFIED/EXCLUSIVE) copy",
                actual=f"writable copies at {_holders_desc(writers)}",
            ))
        if writers:
            writer = next(iter(writers))
            if len(holders) != 1:
                readers = {
                    c: s for c, s in holders.items() if c not in writers
                }
                if readers:
                    found.append(ViolationRecord(
                        rule=RULE_WRITER_SHARER_OVERLAP,
                        block=block,
                        transaction=tx,
                        expected=(
                            f"writer core {writer} "
                            f"({writers[writer].name}) to be the only holder"
                        ),
                        actual=f"copies also at {_holders_desc(readers)}",
                    ))
            if entry.owner != writer:
                owner_desc = (
                    f"core {entry.owner}" if entry.owner is not None
                    else "nobody"
                )
                found.append(ViolationRecord(
                    rule=RULE_OWNER_MISMATCH,
                    block=block,
                    transaction=tx,
                    expected=(
                        f"directory owner to be the cache writer "
                        f"core {writer} ({writers[writer].name})"
                    ),
                    actual=f"directory names {owner_desc} as owner",
                ))

        forwarders = [c for c, s in holders.items() if s is Mesif.FORWARD]
        if len(forwarders) > 1:
            found.append(ViolationRecord(
                rule=RULE_DOUBLE_FORWARD,
                block=block,
                transaction=tx,
                expected="at most one FORWARD copy",
                actual=f"Forward copies at {_cores(forwarders)}",
            ))
        if (
            entry.forwarder is not None
            and entry.owner is None
            and forwarders != [entry.forwarder]
        ):
            found.append(ViolationRecord(
                rule=RULE_FORWARDER_MISMATCH,
                block=block,
                transaction=tx,
                expected=(
                    f"directory forwarder core {entry.forwarder} to hold "
                    "the FORWARD copy"
                ),
                actual=(
                    f"caches show Forward at {_cores(forwarders)}"
                    if forwarders else "caches show no FORWARD copy"
                ),
            ))

        dirty = [c for c, s in holders.items() if s.is_dirty]
        if dirty and not entry.dirty:
            found.append(ViolationRecord(
                rule=RULE_DIRTY_MISMATCH,
                block=block,
                transaction=tx,
                expected="directory dirty bit set when a MODIFIED copy exists",
                actual=(
                    f"core {dirty[0]} holds the block in MODIFIED but the "
                    "directory believes memory is clean"
                ),
            ))

        return found
