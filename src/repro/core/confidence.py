"""Saturating confidence counter for the recovery mechanism.

The paper uses a 4-bit saturating counter per core that starts fully set
on each new interval, increments on correct predictions, decrements
otherwise, and triggers a recovery step when it reaches zero
(Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ConfidenceCounter:
    """An n-bit saturating up/down counter."""

    bits: int = 4
    value: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("counter needs at least one bit")
        if self.value is None:
            self.value = self.max_value
        if not 0 <= self.value <= self.max_value:
            raise ValueError("initial value out of range")

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1

    def reset_high(self) -> None:
        """Fully set the counter (done at each new interval)."""
        self.value = self.max_value

    def record(self, correct: bool) -> None:
        # Runs once per trained prediction: plain int compares against
        # the ceiling, no property lookup or min/max call.
        value = self.value
        if correct:
            if value < (1 << self.bits) - 1:
                self.value = value + 1
        elif value:
            self.value = value - 1

    @property
    def exhausted(self) -> bool:
        """True when confidence has dropped to the recovery threshold."""
        return self.value == 0
