"""The shipped reprolint rule set.

=======  ==========================================================
REP001   no wall-clock reads inside the simulation stack
REP002   randomness only via seeded ``numpy.random.Generator`` s
REP003   trace-channel literals must exist in ``repro.sim.channels``
REP004   sim-time discipline: no float-equality on times, no
         negative scheduling delays
REP005   optional hardware fault hooks are null-checked before call
REP006   SeedSequence spawn-key domains come from the
         ``sim/streams`` registry, no cross-module collisions, no
         data-dependent draw counts
REP007   float sums route through exact accumulators; fast-path
         pow stays per-element
REP008   set iteration goes through ``sorted()`` on
         result-producing paths
=======  ==========================================================

Adding a per-file rule: subclass :class:`repro.devtools.base.Rule` in a
new module here, set ``rule_id``/``title`` (override ``applies_to`` to
scope it by path) + the
``rationale``/``example``/``escape_hatch`` docs metadata, implement the
``visit_*`` methods, and append the class to :data:`ALL_RULES`.
"""

from repro.devtools.rules.channels import TraceChannelRegistryRule
from repro.devtools.rules.floatdet import FloatDeterminismRule
from repro.devtools.rules.hooks import FaultHookGuardRule
from repro.devtools.rules.iterorder import IterationOrderRule
from repro.devtools.rules.rng import SeededRngOnlyRule
from repro.devtools.rules.rngstreams import RngStreamCollisionRule
from repro.devtools.rules.simtime import SimTimeDisciplineRule
from repro.devtools.rules.wallclock import NoWallClockRule

__all__ = [
    "ALL_RULES",
    "FaultHookGuardRule",
    "FloatDeterminismRule",
    "IterationOrderRule",
    "NoWallClockRule",
    "RngStreamCollisionRule",
    "SeededRngOnlyRule",
    "SimTimeDisciplineRule",
    "TraceChannelRegistryRule",
]

#: Every shipped per-file rule, in id order.
ALL_RULES = (
    NoWallClockRule,
    SeededRngOnlyRule,
    TraceChannelRegistryRule,
    SimTimeDisciplineRule,
    FaultHookGuardRule,
    RngStreamCollisionRule,
    FloatDeterminismRule,
    IterationOrderRule,
)
