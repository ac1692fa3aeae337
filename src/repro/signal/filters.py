"""Streaming signal filters used by the simulated firmware.

The PIC firmware in the paper smooths the raw ADC readings before mapping
them to menu entries (a noisy reading flickering between two islands would
make the selection jump).  These classes are small stateful filters suitable
for sample-at-a-time use inside the firmware loop.

The firmware runs :class:`MedianFilter` on every ADC sample, and the
altitude game smooths its aircraft with :class:`ExponentialMovingAverage`.
Both are recurrences fed one sample at a time, so the order of their
floating-point operations is part of every pinned output.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Optional

__all__ = [
    "ExponentialMovingAverage",
    "MedianFilter",
]


class ExponentialMovingAverage:
    """First-order IIR low-pass filter: ``y += alpha * (x - y)``.

    ``alpha`` in (0, 1]; alpha=1 passes the signal through unchanged.
    """

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current filter output (``None`` before the first sample)."""
        return self._value

    def update(self, sample: float) -> float:
        """Feed one sample, return the filtered value."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (float(sample) - self._value)
        return self._value

    def reset(self) -> None:
        """Forget all history."""
        self._value = None


class MedianFilter:
    """Median over the last ``window`` samples — robust to IR glints.

    The GP2D120 occasionally produces spike readings on specular surfaces
    (Section 4.2 of the paper); a short median kills isolated spikes without
    adding much lag.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._buffer: deque[float] = deque(maxlen=int(window))
        # Sorted mirror of the buffer, maintained incrementally: one
        # bisect-remove plus one insort per sample instead of re-sorting
        # the whole window on the firmware hot path.
        self._sorted: list[float] = []

    def update(self, sample: float) -> float:
        """Feed one sample, return the windowed median."""
        sample = float(sample)
        if len(self._buffer) == self._buffer.maxlen:
            oldest = self._buffer[0]
            del self._sorted[bisect_left(self._sorted, oldest)]
        self._buffer.append(sample)
        insort(self._sorted, sample)
        ordered = self._sorted
        n = len(ordered)
        middle = n // 2
        if n % 2 == 1:
            return ordered[middle]
        return 0.5 * (ordered[middle - 1] + ordered[middle])

    def reset(self) -> None:
        """Forget all history."""
        self._buffer.clear()
        self._sorted.clear()
