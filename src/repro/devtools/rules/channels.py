"""REP003 — trace-channel literals must exist in the channel registry.

``Tracer.record("fautls", ...)`` is not an error at runtime — it
cheerfully creates a new empty channel, and every consumer reading the
intended one sees nothing.  The registry in :mod:`repro.sim.channels`
declares every legal channel name; this rule rejects any string literal
passed to a tracer method that is not registered.  Call sites should
normally use the registry *constants* (which this rule never flags,
since a ``Name`` argument is not a literal); a registered literal is
tolerated so tests can spell channels inline.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Optional

from repro.devtools.base import Rule, attribute_chain

__all__ = ["TraceChannelRegistryRule"]

#: Tracer methods whose first positional argument is a channel name.
_TRACER_METHODS = frozenset(
    {"record", "channel", "get", "subscribe", "unsubscribe"}
)


def _registry() -> FrozenSet[str]:
    from repro.sim.channels import CHANNELS

    return CHANNELS


class TraceChannelRegistryRule(Rule):
    """Flag unregistered channel-name literals at tracer call sites."""

    rule_id = "REP003"
    title = "trace-channel literals must be declared in repro.sim.channels"
    rationale = (
        "Trace channels are part of the golden-file contract: an"
        " undeclared channel string is either a typo (events silently"
        " dropped by consumers) or an unreviewed extension of the trace"
        " schema.  The registry in `repro/sim/channels.py` is the single"
        " source of truth."
    )
    example = 'tracer.record("event", payload)  # typo of "events"'
    escape_hatch = (
        "Declare the channel as a constant in `repro/sim/channels.py`"
        " (and update consumers); a test-only channel takes"
        " `# reprolint: allow REP003 (reason)` on the flagged line."
    )

    #: Override for tests (None -> load from ``repro.sim.channels``).
    known_channels: ClassVar[Optional[FrozenSet[str]]] = None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _TRACER_METHODS
            and self._is_tracer(func.value)
            and node.args
        ):
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                known = self.known_channels
                if known is None:
                    known = _registry()
                if arg.value not in known:
                    self.report(
                        arg,
                        f"unregistered trace channel {arg.value!r}: declare"
                        " it in repro/sim/channels.py and use the constant"
                        " (a typo here silently records into a dead"
                        " channel)",
                    )
        self.generic_visit(node)

    @staticmethod
    def _is_tracer(receiver: ast.AST) -> bool:
        """Heuristic: the receiver's terminal name mentions ``tracer``.

        Matches ``tracer.record``, ``self.tracer.get``,
        ``self._tracer.record``, ``device.tracer.subscribe`` — without
        needing type inference.  ``mapping.get(...)`` and friends pass.
        """
        chain = attribute_chain(receiver)
        if not chain:
            return False
        return "tracer" in chain[-1].lower()
