"""The fictive mobile-phone menu of the initial user study (§6).

"We simulated a fictive mobile phone menu and used the second display to
provide debug information.  We later plan to provide the user with
information necessary for conducting the user study itself, such as
instructions which items are to be searched or selected."

:data:`PHONE_MENU_SPEC` is a period-accurate phone menu tree;
:class:`PhoneApp` binds it to a device, records activated actions, and
implements the *planned* instruction display: study tasks are pushed to
the bottom display so the simulated participant knows what to select.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.events import EntryActivated, InteractionEvent
from repro.core.menu import MenuEntry, build_menu
from repro.hardware.board import I2C_ADDR_DISPLAY_BOTTOM
from repro.hardware.display import BT96040, TEXT_LINES, wrap_text

__all__ = ["PHONE_MENU_SPEC", "build_phone_menu", "PhoneApp"]

#: A 2005-vintage phone menu: 9 top-level items, two to three levels deep.
PHONE_MENU_SPEC: dict = {
    "Messages": {
        "Write message": [],
        "Inbox": [],
        "Outbox": [],
        "Drafts": [],
        "Templates": [],
    },
    "Call register": ["Missed calls", "Received calls", "Dialled numbers"],
    "Contacts": ["Search", "Add contact", "Delete", "Speed dials"],
    "Settings": {
        "Tone settings": ["Ringing tone", "Volume", "Vibrating alert"],
        "Display": ["Wallpaper", "Contrast", "Backlight"],
        "Time and date": ["Clock", "Date", "Auto-update"],
        "Security": ["PIN code", "Call barring"],
    },
    "Gallery": ["Photos", "Tones", "Graphics"],
    "Organiser": ["Alarm clock", "Calendar", "To-do list", "Notes"],
    "Games": ["Snake", "Space impact", "Bantumi"],
    "Extras": ["Calculator", "Countdown timer", "Stopwatch"],
    "Services": [],
}


def build_phone_menu() -> MenuEntry:
    """The study's menu as a tree (fresh instance each call)."""
    return build_menu(PHONE_MENU_SPEC, label="phone")


@dataclass
class PhoneApp:
    """Application glue: the phone menu running on a DistScroll.

    Attributes
    ----------
    device:
        The bound device (created by :meth:`create` or supplied).
    activations:
        ``(time, action, path)`` records of every activated leaf.
    """

    device: DistScroll
    activations: list[tuple[float, str, tuple[str, ...]]] = field(
        default_factory=list
    )

    @classmethod
    def create(
        cls, seed: int = 0, config: DeviceConfig | None = None
    ) -> "PhoneApp":
        """Build a device around the phone menu and attach the app."""
        device = DistScroll(build_phone_menu(), config=config, seed=seed)
        app = cls(device=device)
        device.on_event(app._handle_event)
        return app

    def _handle_event(self, event: InteractionEvent) -> None:
        if isinstance(event, EntryActivated):
            self.activations.append(
                (event.time, event.action or event.label, event.path)
            )

    def show_instruction(self, text: str) -> None:
        """Push a study instruction to the bottom display.

        Implements the paper's plan to use the second display for
        "instructions which items are to be searched or selected".
        Requires ``debug_display=False`` in the config to be visible
        (otherwise the firmware's debug output overwrites it).
        """
        board = self.device.board
        lines = ["TASK:"] + wrap_text(text, TEXT_LINES - 1)
        for i in range(TEXT_LINES):
            payload = BT96040.encode_line(i, lines[i] if i < len(lines) else "")
            board.i2c.write(I2C_ADDR_DISPLAY_BOTTOM, payload)

    def last_activation(self) -> tuple[str, tuple[str, ...]] | None:
        """The most recent activated (action, path), if any."""
        if not self.activations:
            return None
        _, action, path = self.activations[-1]
        return action, path
