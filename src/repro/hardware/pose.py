"""The device pose a hand model writes and a distance sensor reads.

Kept apart from :mod:`repro.hardware.board` so the hand model can link
to it without loading the board's hardware stack.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["DrivenPose"]


class DrivenPose:
    """A device distance that a hand model writes and a sensor reads.

    Both boards carry one.  A :class:`~repro.interaction.hand.Hand` whose
    pose writer is the carrier's ``set_distance`` evaluates its updates
    on demand and installs its catch-up as :attr:`pose_sync`, so a
    sensor that reads through :meth:`distance_at` sees every update
    before the read time.
    """

    distance_cm: float
    #: The driving hand's :meth:`~repro.interaction.hand.Hand.catch_up`,
    #: or ``None`` when no hand drives the pose.
    pose_sync: Optional[Callable[[float], None]] = None

    def distance_at(self, time_s: float) -> float:
        """The distance as a measurement starting at ``time_s`` sees it."""
        sync = self.pose_sync
        if sync is not None:
            sync(time_s)
        return self.distance_cm
