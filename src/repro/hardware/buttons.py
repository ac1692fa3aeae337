"""Push buttons with contact bounce and firmware-side debouncing.

The prototype has three push buttons: "two of them situated in the middle
area of the device on the left side and one button situated near the top
on the right side", laid out for right-handed use with the thumb on the
top-right select button (Sections 4.5 and 5.1).  The final design explores
two slidable buttons or one large button (Section 6) — the
:class:`ButtonLayout` presets cover those variants.

Mechanical switches bounce: a single physical press produces a burst of
open/close transitions over a few milliseconds.  The :class:`Button`
model generates the bounce; :class:`DebouncedButton` implements the
firmware-side filter (stable-for-N-ms acceptance) and emits clean
press/release events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from repro.sim.kernel import Simulator

__all__ = [
    "ButtonPosition",
    "ButtonSpec",
    "ButtonLayout",
    "Button",
    "DebouncedButton",
    "RIGHT_HANDED_LAYOUT",
    "TWO_BUTTON_SLIDABLE_LAYOUT",
    "SINGLE_LARGE_BUTTON_LAYOUT",
]


class ButtonPosition(Enum):
    """Physical placement of a button on the case."""

    TOP_RIGHT = "top-right"
    MIDDLE_LEFT_UPPER = "middle-left-upper"
    MIDDLE_LEFT_LOWER = "middle-left-lower"
    SIDE_SLIDABLE = "side-slidable"
    FRONT_LARGE = "front-large"


@dataclass(frozen=True)
class ButtonSpec:
    """One button of a layout.

    Attributes
    ----------
    name:
        Logical role ("select", "back", "aux").
    position:
        Physical placement.
    thumb_operable:
        Whether the holding hand's thumb reaches it (the paper singles out
        the top-right button as "most conveniently operated with the thumb").
    area_mm2:
        Contact area — larger buttons stay operable with thick gloves.
    """

    name: str
    position: ButtonPosition
    thumb_operable: bool
    area_mm2: float = 40.0


@dataclass(frozen=True)
class ButtonLayout:
    """A full button arrangement for one device variant."""

    name: str
    buttons: tuple[ButtonSpec, ...]
    handedness: str = "right"

    def spec(self, name: str) -> ButtonSpec:
        """Look up a button by logical role."""
        for button in self.buttons:
            if button.name == name:
                return button
        raise KeyError(f"layout {self.name!r} has no button {name!r}")

    @property
    def ambidextrous(self) -> bool:
        """Whether left- and right-handed users are served equally."""
        return self.handedness == "both"


#: The initial prototype layout (Section 4.5): three buttons, right-handed.
RIGHT_HANDED_LAYOUT = ButtonLayout(
    name="prototype-3-button",
    buttons=(
        ButtonSpec("select", ButtonPosition.TOP_RIGHT, thumb_operable=True),
        ButtonSpec("back", ButtonPosition.MIDDLE_LEFT_UPPER, thumb_operable=False),
        ButtonSpec("aux", ButtonPosition.MIDDLE_LEFT_LOWER, thumb_operable=False),
    ),
    handedness="right",
)

#: The favored two-button design with slidable buttons (Section 6).
TWO_BUTTON_SLIDABLE_LAYOUT = ButtonLayout(
    name="two-button-slidable",
    buttons=(
        ButtonSpec("select", ButtonPosition.SIDE_SLIDABLE, thumb_operable=True),
        ButtonSpec("back", ButtonPosition.SIDE_SLIDABLE, thumb_operable=True),
    ),
    handedness="both",
)

#: The one-large-button alternative (Section 6).
SINGLE_LARGE_BUTTON_LAYOUT = ButtonLayout(
    name="single-large-button",
    buttons=(
        ButtonSpec(
            "select", ButtonPosition.FRONT_LARGE, thumb_operable=True, area_mm2=250.0
        ),
    ),
    handedness="both",
)


class Button:
    """A raw mechanical switch wired to a GPIO pin.

    ``press``/``release`` model the *finger*; the electrical contact state
    (with bounce) is what :attr:`closed` reports and what the debouncer
    samples.

    Parameters
    ----------
    sim:
        Simulator for scheduling bounce transitions.
    spec:
        The physical button being modeled.
    bounce_time_s:
        Duration of the bounce burst after each press/release.
    rng:
        Generator for bounce patterns; ``None`` gives a bounce-free ideal
        switch.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ButtonSpec,
        bounce_time_s: float = 0.004,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._sim = sim
        self.spec = spec
        self.bounce_time_s = float(bounce_time_s)
        self._rng = rng
        self._closed = False
        self._settled_state = False
        # Generation of the latest bounce burst; older bursts' setters
        # check it and stand down.
        self._burst = 0

    @property
    def closed(self) -> bool:
        """Instantaneous electrical contact state (bouncy)."""
        return self._closed

    def press(self) -> None:
        """The finger pushes the button down."""
        self._settled_state = True
        self._start_bounce(final=True)

    def release(self) -> None:
        """The finger lets go."""
        self._settled_state = False
        self._start_bounce(final=False)

    def _start_bounce(self, final: bool) -> None:
        self._burst += 1
        if self._rng is None or self.bounce_time_s <= 0:
            self._closed = final
            return
        burst = self._burst
        n_transitions = int(self._rng.integers(2, 7))
        state = not final
        for i in range(n_transitions):
            at = self.bounce_time_s * float(self._rng.random())
            state = not state
            self._sim.schedule(at, self._make_setter(state, burst))
        self._sim.schedule(self.bounce_time_s, self._make_setter(final, burst))

    def _make_setter(self, state: bool, burst: int) -> Callable[[], None]:
        def setter() -> None:
            # A later finger action supersedes this bounce burst.
            if burst == self._burst:
                self._closed = state
        return setter


@dataclass
class DebouncedButton:
    """Firmware-side debouncer polling a :class:`Button`.

    The firmware samples the GPIO each tick and accepts a state change only
    after it has been stable for ``stable_time_s``.  Clean edges invoke the
    registered callbacks.
    """

    button: Button
    stable_time_s: float = 0.012
    on_press: Optional[Callable[[], None]] = None
    on_release: Optional[Callable[[], None]] = None
    _stable_state: bool = field(default=False, init=False)
    _candidate: bool = field(default=False, init=False)
    _candidate_since: Optional[float] = field(default=None, init=False)
    press_count: int = field(default=0, init=False)

    @property
    def pressed(self) -> bool:
        """Debounced logical state."""
        return self._stable_state

    def poll(self, time_s: float) -> None:
        """Sample the raw contact; call from the firmware tick."""
        raw = self.button.closed
        if raw != self._candidate:
            self._candidate = raw
            self._candidate_since = time_s
            return
        if self._candidate == self._stable_state:
            return
        if self._candidate_since is None:
            self._candidate_since = time_s
        if time_s - self._candidate_since >= self.stable_time_s:
            self._stable_state = self._candidate
            if self._stable_state:
                self.press_count += 1
                if self.on_press is not None:
                    self.on_press()
            elif self.on_release is not None:
                self.on_release()
