"""Typed interaction events the device emits to applications.

Applications (the phone menu, the game, the stocktaking client) and the
experiment harness subscribe to these rather than poking at firmware
internals; the same events are serialized over the RF link to the host PC
for logging, as the original prototype streamed its debug state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

__all__ = [
    "InteractionEvent",
    "HighlightChanged",
    "EntryActivated",
    "SubmenuEntered",
    "SubmenuLeft",
    "ChunkChanged",
    "ZoomChanged",
    "FastScroll",
    "ButtonEvent",
    "decode_event",
]


@dataclass(frozen=True)
class InteractionEvent:
    """Base class: every event carries the simulated time it occurred."""

    time: float

    @property
    def kind(self) -> str:
        """Event discriminator used in serialized form."""
        return type(self).__name__

    def to_bytes(self) -> bytes:
        """Serialize for the RF link (JSON keeps host tooling trivial).

        The record is ``kind`` followed by every field in declaration
        order, as ``dataclasses.asdict`` would give it, but read straight
        off the instance: field values are scalars, strings or tuples of
        strings, which ``asdict``'s deep copy would leave equal anyway.
        """
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
        record: dict[str, object] = {"kind": cls.__name__}
        for name in names:
            record[name] = getattr(self, name)
        return json.dumps(record, separators=(",", ":")).encode()


#: Field names per event class, in declaration order, filled on first use.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


@dataclass(frozen=True)
class HighlightChanged(InteractionEvent):
    """The distance sensor moved the highlight to another entry."""

    index: int
    label: str
    previous_index: int


@dataclass(frozen=True)
class EntryActivated(InteractionEvent):
    """Select was pressed on a leaf entry."""

    label: str
    action: Optional[str]
    path: tuple[str, ...]


@dataclass(frozen=True)
class SubmenuEntered(InteractionEvent):
    """Select was pressed on a submenu entry."""

    label: str
    depth: int


@dataclass(frozen=True)
class SubmenuLeft(InteractionEvent):
    """Back was pressed inside a submenu."""

    depth: int


@dataclass(frozen=True)
class ChunkChanged(InteractionEvent):
    """A long level paged to a different chunk (§7 Q4)."""

    chunk: int
    n_chunks: int


@dataclass(frozen=True)
class ZoomChanged(InteractionEvent):
    """The SDAZ long-menu mode zoomed in or out (§7 Q4 extension)."""

    zoom: str
    window_start: int
    window_end: int


@dataclass(frozen=True)
class FastScroll(InteractionEvent):
    """The fold-back fast-scroll gesture moved the highlight (§4.2)."""

    index: int
    step: int


@dataclass(frozen=True)
class ButtonEvent(InteractionEvent):
    """A debounced button edge."""

    name: str
    pressed: bool


_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        HighlightChanged,
        EntryActivated,
        SubmenuEntered,
        SubmenuLeft,
        ChunkChanged,
        ZoomChanged,
        FastScroll,
        ButtonEvent,
    )
}


def decode_event(payload: bytes) -> InteractionEvent:
    """Reconstruct an event from its RF serialization.

    Raises
    ------
    ValueError
        If the payload is not a known event record.
    """
    try:
        record = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed event payload: {exc}") from exc
    kind = record.pop("kind", None)
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    if "path" in record and record["path"] is not None:
        record["path"] = tuple(record["path"])
    return cls(**record)
