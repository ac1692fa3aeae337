"""Trace recording for simulation runs.

A :class:`Tracer` collects timestamped records from any component that wants
to publish what it is doing — sensor samples, firmware selections, button
presses, display updates.  Experiments replay these traces into the series
the paper plots; tests assert on them.

Records are plain tuples ``(time, channel, value)`` so traces stay cheap to
collect even in long runs, and can be converted to numpy arrays per channel.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

import numpy as np

__all__ = ["Tracer", "TraceChannel"]


class TraceChannel:
    """A single named stream of ``(time, value)`` records."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[Any] = []

    def append(self, time: float, value: Any) -> None:
        """Record one sample."""
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, Any]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> np.ndarray:
        """Sample times as a float array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array (object dtype if heterogeneous)."""
        try:
            return np.asarray(self._values, dtype=float)
        except (TypeError, ValueError):
            return np.asarray(self._values, dtype=object)

    def last(self) -> tuple[float, Any]:
        """The most recent ``(time, value)`` record."""
        if not self._times:
            raise LookupError(f"channel {self.name!r} is empty")
        return self._times[-1], self._values[-1]

    def between(self, t0: float, t1: float) -> list[tuple[float, Any]]:
        """Records with ``t0 <= time <= t1``."""
        return [
            (t, v)
            for t, v in zip(self._times, self._values)
            if t0 <= t <= t1
        ]

    def count_changes(self) -> int:
        """Number of times the recorded value changed between samples."""
        changes = 0
        previous: Any = _SENTINEL
        for value in self._values:
            if previous is not _SENTINEL and value != previous:
                changes += 1
            previous = value
        return changes


_SENTINEL = object()


class Tracer:
    """A set of named trace channels plus optional live subscribers.

    Components call :meth:`record`; anything interested in live updates (for
    example a simulated user watching the display) can :meth:`subscribe` to a
    channel and receives ``(time, value)`` callbacks synchronously.
    """

    def __init__(self) -> None:
        self._channels: dict[str, TraceChannel] = {}
        self._subscribers: dict[str, list[Callable[[float, Any], None]]] = (
            defaultdict(list)
        )

    def channel(self, name: str) -> TraceChannel:
        """Get (creating if needed) the channel with this name."""
        if name not in self._channels:
            self._channels[name] = TraceChannel(name)
        return self._channels[name]

    def record(self, name: str, time: float, value: Any) -> None:
        """Append a record and notify subscribers."""
        self.channel(name).append(time, value)
        for callback in self._subscribers.get(name, ()):
            callback(time, value)

    def subscribe(self, name: str, callback: Callable[[float, Any], None]) -> None:
        """Register a live callback for a channel."""
        self._subscribers[name].append(callback)

    def unsubscribe(self, name: str, callback: Callable[[float, Any], None]) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        try:
            self._subscribers[name].remove(callback)
        except ValueError:
            pass

    def channels(self) -> list[str]:
        """Names of all channels that have been touched."""
        return sorted(self._channels)

    def get(self, name: str) -> Optional[TraceChannel]:
        """The channel if it exists, else ``None`` (does not create)."""
        return self._channels.get(name)

    def clear(self) -> None:
        """Drop all recorded data (subscribers stay registered)."""
        self._channels.clear()

    def serialize(self) -> bytes:
        """Stable byte serialization of every channel.

        Channels are emitted in sorted name order, records in insertion
        order, each as ``repr(time)|repr(value)``.  Two runs of the same
        seeded simulation must produce byte-identical serializations —
        the determinism regression tests compare exactly these bytes.

        Framing is unambiguous: every chunk (channel name, record) is
        length-prefixed with a 4-byte big-endian count, and each channel
        header carries its record count.  A separator-joined encoding
        cannot distinguish a channel name containing the separator (or an
        empty channel followed by another) from adjacent records; the
        length-prefixed form can, so distinct trace contents always yield
        distinct bytes.
        """
        out = bytearray()
        channel_names = self.channels()
        out += len(channel_names).to_bytes(4, "big")
        for name in channel_names:
            name_bytes = name.encode("utf-8")
            channel = self._channels[name]
            out += len(name_bytes).to_bytes(4, "big")
            out += name_bytes
            out += len(channel).to_bytes(4, "big")
            for time, value in channel:
                record = f"{time!r}|{value!r}".encode("utf-8")
                out += len(record).to_bytes(4, "big")
                out += record
        return bytes(out)
