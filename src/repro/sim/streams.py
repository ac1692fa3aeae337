"""Canonical registry of ``SeedSequence`` spawn-key stream domains.

Every module that derives dedicated RNG streams with an explicit
``SeedSequence(entropy, spawn_key=(DOMAIN, ...))`` tuple declares its
domain tag here, once.  The first element of a spawn key is a namespace:
two modules that pick the same tag and overlapping trailing elements
silently share bit streams, which couples experiments that must be
independent (the fleet devices' per-device streams sit next to the
persona engine's per-user streams, and a shared tag would couple them).

The reprolint rule ``REP006`` (:mod:`repro.devtools.rules.rngstreams`)
enforces the convention project-wide: a spawn-key tuple whose first
element is a bare literal, or a constant not declared in this module, is
a lint error, and two registered domains with the same value are flagged
as a collision.

Adding a domain is two lines: declare an upper-case module-level
constant with an integer literal value, add it to
:data:`STREAM_DOMAINS`.  The linter recognises *every* upper-case
integer constant defined in this module as a declared domain (so the
registry stays consumable by pure-AST tooling), and cross-checks that
the values are pairwise distinct.
"""

from __future__ import annotations

__all__ = [
    "PERSONA_STREAM",
    "TRIAL_STREAM",
    "BATCH_STREAM",
    "SHARD_STREAM",
    "ARENA_STREAM",
    "STREAM_DOMAINS",
    "is_registered_domain",
]

#: Per-user persona derivation (`repro.interaction.personas`): one
#: child stream per simulated participant.
PERSONA_STREAM = 0x9E37

#: Per-user trial noise (`repro.interaction.personas`): endpoint noise,
#: glove slips and paging jitter for one participant's task battery.
TRIAL_STREAM = 0x79B9

#: Per-device streams of FLEET's device model (`repro.core.batch`):
#: spec/specimen/corruption/noise/ADC/glitch sub-streams, one family per
#: fleet index.
BATCH_STREAM = 0xBA7C

#: Per-shard seed derivation of the parallel runner
#: (`repro.runner.sharding`): shard ``i`` of a run derives from
#: ``(seed, SHARD_STREAM, i)`` alone, so any worker can materialize any
#: single shard in O(1) without spawning the whole family.  There is
#: deliberately *no* separate retry domain: a crash-retried
#: re-execution of shard ``i`` must replay the original shard stream
#: bit-for-bit, so retries reuse this domain with the same trailing key.
SHARD_STREAM = 0x5A8D

#: Per-(user, technique) trial streams of the technique arena
#: (`repro.experiments.arena`): participant ``u`` running technique
#: ``t`` (index in the canonical roster) draws every trial from
#: ``(seed, ARENA_STREAM, u, t)``, so dropping techniques from a run
#: never perturbs the remaining techniques' bits and any block
#: partition of the population merges byte-identically.
ARENA_STREAM = 0xA12A

#: Every declared domain tag, value -> constant name.  ``repro lint``
#: (REP006) rejects spawn-key tuples whose first element is not one of
#: these constants, and rejects duplicate values.
STREAM_DOMAINS: dict[int, str] = {
    PERSONA_STREAM: "PERSONA_STREAM",
    TRIAL_STREAM: "TRIAL_STREAM",
    BATCH_STREAM: "BATCH_STREAM",
    SHARD_STREAM: "SHARD_STREAM",
    ARENA_STREAM: "ARENA_STREAM",
}


def is_registered_domain(value: int) -> bool:
    """Whether ``value`` is a declared spawn-key stream domain."""
    return value in STREAM_DOMAINS
