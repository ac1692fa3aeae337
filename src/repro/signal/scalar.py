"""Scalar stand-ins for numpy calls on single Python floats.

A numpy call on one Python float pays the array dispatch (~6 µs for
``np.clip``) for one machine operation.  Hot scalar paths use these
instead; each returns exactly what the numpy call returns, converted
with ``float()``, so substituting one keeps every pinned output.
"""

from __future__ import annotations

__all__ = ["clamp"]


def clamp(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` without the array dispatch.

    Follows numpy's float clip op for op — ``max`` against ``lo``, then
    ``min`` against ``hi``, each keeping ``x`` on ties and passing NaN
    through — so signed zeros, infinities and NaN come out as numpy's
    do, and so does ``lo > hi`` (the result is ``hi``).
    """
    if x < lo:
        x = lo
    return hi if x > hi else x
