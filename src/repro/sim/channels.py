"""Canonical registry of trace-channel names.

Every channel a component publishes on the run's
:class:`~repro.sim.trace.Tracer` is declared here, once.  Call sites
import these constants instead of free-typing string literals: a typo in
a literal silently creates a brand-new empty channel and every consumer
reading the intended one sees nothing — the reprolint rule ``REP003``
(:mod:`repro.devtools.rules.channels`) rejects any literal passed to a
tracer method that is not in :data:`CHANNELS`.

Adding a channel is two lines: declare the constant, add it to
:data:`CHANNELS`.  The registry is intentionally a plain frozenset of
strings so the linter (and tests) can consume it without importing any
simulation machinery.
"""

from __future__ import annotations

__all__ = [
    "EVENTS",
    "FAULTS",
    "FAULT_RECOVERY",
    "CHANNELS",
    "is_registered",
]

#: Interaction events emitted by the firmware (one record per
#: :class:`~repro.core.events.InteractionEvent`).
EVENTS = "events"

#: One record per injected hardware fault (see :mod:`repro.faults`).
FAULTS = "faults"

#: One record per firmware recovery action, paired with :data:`FAULTS`.
FAULT_RECOVERY = "fault.recovery"

#: Every channel name any component may record on.  ``repro lint``
#: enforces that tracer call sites only use names from this set.
CHANNELS: frozenset[str] = frozenset({EVENTS, FAULTS, FAULT_RECOVERY})


def is_registered(name: str) -> bool:
    """Whether ``name`` is a declared trace channel."""
    return name in CHANNELS
