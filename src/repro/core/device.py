"""`DistScroll` — the assembled device and the library's main entry point.

This is the object a downstream user creates: it owns a simulator, builds
the Smart-Its board, flashes the firmware with a menu, and exposes a clean
facade for applications, examples and experiments.

Example
-------
>>> from repro import DistScroll, build_menu
>>> device = DistScroll(build_menu({"Messages": ["Inbox", "Outbox"],
...                                 "Settings": ["Sound", "Display"]}),
...                     seed=42)
>>> device.hold_at(20.0)          # hold the device 20 cm from the body
>>> device.run_for(0.5)           # let the firmware settle
>>> device.highlighted_label
'Messages'
>>> device.press("select")        # thumb on the top-right button
>>> device.run_for(0.2)
>>> device.visible_menu()[0]
'>Inbox'
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.core.config import DeviceConfig
from repro.core.events import InteractionEvent
from repro.core.firmware import Firmware
from repro.faults import FaultPlan
from repro.core.sdaz import SDAZFirmware
from repro.core.menu import MenuEntry, build_menu
from repro.hardware.board import DistScrollBoard, build_distscroll_board
from repro.hardware.buttons import ButtonLayout, RIGHT_HANDED_LAYOUT
from repro.sim import channels
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

__all__ = ["DistScroll"]


class DistScroll:
    """A complete simulated DistScroll device.

    Parameters
    ----------
    menu:
        The menu tree to navigate — either a :class:`MenuEntry` or a
        nested dict/list spec accepted by :func:`build_menu`.
    config:
        Device configuration (ranges, polarity, chunking, ...).
    seed:
        Seed for all randomness (sensor noise, bus errors, bounce).
    layout:
        Physical button layout variant.
    noisy:
        ``False`` gives ideal noise-free hardware for deterministic tests.
    simulator:
        Attach to an existing simulator instead of creating one — used
        when a simulated user and the device must share a clock.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` installed on the board
        before the firmware boots; every injection and firmware recovery
        lands on :attr:`tracer` (channels ``"faults"``/``"fault.recovery"``).
    """

    def __init__(
        self,
        menu: MenuEntry | dict | list,
        config: Optional[DeviceConfig] = None,
        seed: int = 0,
        layout: ButtonLayout = RIGHT_HANDED_LAYOUT,
        noisy: bool = True,
        simulator: Optional[Simulator] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not isinstance(menu, MenuEntry):
            menu = build_menu(menu)
        self.sim = simulator if simulator is not None else Simulator(seed=seed)
        self.tracer = Tracer()
        self.board: DistScrollBoard = build_distscroll_board(
            self.sim, layout=layout, noisy=noisy
        )
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.install(self.board, tracer=self.tracer)
        self.config = config or DeviceConfig()
        firmware_cls = (
            SDAZFirmware if self.config.long_menu_mode == "sdaz" else Firmware
        )
        self.firmware = firmware_cls(
            self.board, menu, self.config, on_event=self._trace_event
        )
        self._pressed: set[str] = set()

    # ------------------------------------------------------------------
    # physical interaction (what the hand does)
    # ------------------------------------------------------------------
    def hold_at(self, distance_cm: float) -> None:
        """Place the device at a distance from the body (instantaneous).

        Raises
        ------
        ValueError
            If ``distance_cm`` is not finite: a NaN pose would reach the
            sensor and read as "out of range" instead of failing here.
        """
        if not math.isfinite(distance_cm):
            raise ValueError(f"distance must be finite, got {distance_cm}")
        self.board.set_pose(distance_cm=distance_cm)

    @property
    def distance_cm(self) -> float:
        """Current true device–body distance."""
        return self.board.distance_cm

    def press(self, name: str = "select") -> None:
        """Press a button (it stays down until :meth:`release`)."""
        self.board.press_button(name)
        self._pressed.add(name)

    def release(self, name: str = "select") -> None:
        """Release a held button."""
        self.board.release_button(name)
        self._pressed.discard(name)

    def click(self, name: str = "select", hold_s: float = 0.08) -> None:
        """Press and release with a human-ish hold time, then settle.

        Runs the simulation long enough for the debouncer to register both
        edges.
        """
        self.press(name)
        self.run_for(hold_s)
        self.release(name)
        self.run_for(0.05)

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def run_for(self, duration_s: float) -> None:
        """Advance the simulation by a duration."""
        self.sim.run_until(self.sim.now + duration_s)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    # ------------------------------------------------------------------
    # observable state (what the user sees)
    # ------------------------------------------------------------------
    @property
    def highlighted_label(self) -> str:
        """Label of the currently highlighted entry."""
        return self.firmware.cursor.highlighted_entry.label

    @property
    def highlighted_index(self) -> int:
        """Index of the highlighted entry in the current level."""
        return self.firmware.cursor.highlight

    @property
    def depth(self) -> int:
        """Menu depth (0 = root level)."""
        return self.firmware.cursor.depth

    def visible_menu(self) -> list[str]:
        """Text lines currently readable on the top display."""
        return self.board.display_top.visible_text()

    def visible_status(self) -> list[str]:
        """Text lines currently readable on the bottom display."""
        return self.board.display_bottom.visible_text()

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def on_event(self, callback: Callable[[InteractionEvent], None]) -> None:
        """Subscribe an application callback to interaction events."""
        self.firmware.add_listener(callback)

    def events(self) -> list[tuple[float, InteractionEvent]]:
        """All traced interaction events as ``(time, event)`` pairs."""
        channel = self.tracer.get(channels.EVENTS)
        if channel is None:
            return []
        return list(channel)

    def _trace_event(self, event: InteractionEvent) -> None:
        self.tracer.record(channels.EVENTS, self.sim.now, event)
