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


#: A deferred block of records: ``expand(*args)`` returns its
#: ``(times, values)`` lists.
_Deferred = tuple[Callable[..., tuple[list[float], list[Any]]], tuple[Any, ...]]


class TraceChannel:
    """A single named stream of ``(time, value)`` records."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[Any] = []
        # Blocks recorded by defer() and not yet expanded, oldest first;
        # every read and write goes through _settled(), so order is kept.
        self._deferred: list[_Deferred] = []

    def append(self, time: float, value: Any) -> None:
        """Record one sample."""
        times, values = self._settled()
        times.append(time)
        values.append(value)

    def defer(
        self,
        expand: Callable[..., tuple[list[float], list[Any]]],
        args: tuple[Any, ...],
    ) -> None:
        """Record the block ``expand(*args)`` returns, when next read.

        ``expand`` must be a pure function of ``args`` and ``args`` must
        not change: the channel then holds exactly what extending it with
        the block now would, for the cost of one tuple.
        """
        self._deferred.append((expand, args))

    def _settled(self) -> tuple[list[float], list[Any]]:
        """The record lists, with every deferred block expanded in order."""
        if self._deferred:
            for expand, args in self._deferred:
                times, values = expand(*args)
                self._times.extend(times)
                self._values.extend(values)
            self._deferred.clear()
        return self._times, self._values

    def __len__(self) -> int:
        return len(self._settled()[0])

    def __iter__(self) -> Iterator[tuple[float, Any]]:
        return iter(zip(*self._settled()))

    @property
    def times(self) -> np.ndarray:
        """Sample times as a float array."""
        return np.asarray(self._settled()[0], dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array (object dtype if heterogeneous)."""
        values = self._settled()[1]
        try:
            return np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            return np.asarray(values, dtype=object)

    def last(self) -> tuple[float, Any]:
        """The most recent ``(time, value)`` record."""
        times, values = self._settled()
        if not times:
            raise LookupError(f"channel {self.name!r} is empty")
        return times[-1], values[-1]

    def between(self, t0: float, t1: float) -> list[tuple[float, Any]]:
        """Records with ``t0 <= time <= t1``."""
        return [(t, v) for t, v in zip(*self._settled()) if t0 <= t <= t1]

    def count_changes(self) -> int:
        """Number of times the recorded value changed between samples."""
        changes = 0
        previous: Any = _SENTINEL
        for value in self._settled()[1]:
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

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
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
        """Append a record and notify subscribers.

        Subscribers are notified even when recording is disabled, because
        they model *in-simulation* observers rather than offline analysis.
        """
        if self.enabled:
            self.channel(name).append(time, value)
        for callback in self._subscribers.get(name, ()):
            callback(time, value)

    def record_deferred(
        self,
        name: str,
        expand: Callable[..., tuple[list[float], list[Any]]],
        args: tuple[Any, ...],
    ) -> None:
        """:meth:`record` each record of the block ``expand(*args)``.

        Channel contents and subscriber callbacks are exactly those of
        the one-by-one calls.  Subscribers get the records now; without
        subscribers the channel keeps ``(expand, args)`` and expands it
        when it is next read or written (see :meth:`TraceChannel.defer`).
        """
        if self._subscribers.get(name):
            times, values = expand(*args)
            for time, value in zip(times, values):
                self.record(name, time, value)
        elif self.enabled:
            self.channel(name).defer(expand, args)

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
