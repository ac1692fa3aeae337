"""Board-level assembly of the DistScroll hardware (Figures 2 and 3).

The prototype is "an add-on board to the Smart-Its platform": the base
board carries the PIC 18F452, the RF module and the serial/programmer
connector; the add-on board carries the two displays, the acceleration
sensor and the distance-sensor wiring, joined through elongated add-on
connectors so the case can be opened for battery changes and code
downloads (Section 4.1).

:func:`build_distscroll_board` wires the inventory as in
Figure 3: distance sensor on ADC channel 0 (a second, unused sensor slot
on channel 1 — "only one is used in our experiments so far"), the two
BT96040 displays at I2C addresses 0x3C/0x3D, three debounced buttons,
the contrast potentiometer and the 9 V battery.  The two-axis
accelerometer is fitted but unused (§4.3), so it is not modelled and
ADC channels 2 and 3 stay unwired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults import FaultPlan

from repro.hardware.adc import ADC, ADCParams
from repro.hardware.battery import Battery
from repro.hardware.buttons import (
    Button,
    ButtonLayout,
    DebouncedButton,
    RIGHT_HANDED_LAYOUT,
)
from repro.hardware.display import BT96040
from repro.hardware.i2c import I2CBus
from repro.hardware.mcu import PIC18F452
from repro.hardware.pose import DrivenPose
from repro.hardware.potentiometer import Potentiometer
from repro.hardware.rf import RFEndpoint, RFLink
from repro.sensors.gp2d120 import GP2D120
from repro.sim.kernel import Simulator
from repro.sim.streams import BlockStream

__all__ = [
    "ADC_CHANNEL_DISTANCE",
    "ADC_CHANNEL_DISTANCE_SPARE",
    "I2C_ADDR_DISPLAY_TOP",
    "I2C_ADDR_DISPLAY_BOTTOM",
    "DistScrollBoard",
    "build_distscroll_board",
]

#: ADC channel assignments on the Smart-Its base board.
ADC_CHANNEL_DISTANCE = 0
ADC_CHANNEL_DISTANCE_SPARE = 1

#: I2C addresses of the two chip-on-glass displays.
I2C_ADDR_DISPLAY_TOP = 0x3C
I2C_ADDR_DISPLAY_BOTTOM = 0x3D


@dataclass
class DistScrollBoard(DrivenPose):
    """The assembled hardware: everything inside the case of Figure 3.

    Attributes mirror the physical inventory; the firmware
    (:mod:`repro.core.firmware`) talks only to this object.
    """

    sim: Simulator
    mcu: PIC18F452
    adc: ADC
    i2c: I2CBus
    distance_sensor: GP2D120
    spare_distance_sensor: Optional[GP2D120]
    #: Longitudinal mounting recess of the spare sensor: it measures
    #: ``distance_cm + spare_offset_cm`` (0 when not fitted).
    spare_offset_cm: float
    display_top: BT96040
    display_bottom: BT96040
    buttons: dict[str, DebouncedButton]
    raw_buttons: dict[str, Button]
    layout: ButtonLayout
    potentiometer: Potentiometer
    battery: Battery
    rf_device: RFEndpoint
    rf_host: RFEndpoint
    rf_link: RFLink

    # mutable physical state the environment (hand model) drives --------
    distance_cm: float = 25.0
    #: Fault-injection plan threaded through this board's hardware, set by
    #: :meth:`repro.faults.FaultPlan.install`.  ``None`` = healthy hardware.
    fault_plan: Optional["FaultPlan"] = None

    def set_pose(self, distance_cm: Optional[float] = None) -> None:
        """Update the device's physical pose (driven by the hand model)."""
        if distance_cm is not None:
            self.distance_cm = float(distance_cm)

    def set_distance(self, distance_cm: float) -> None:
        """Set the device–body distance: the hand model's pose writer.

        One bound call per hand update, where :meth:`set_pose` would
        take keyword arguments; the hand always writes a ``float``.
        """
        self.distance_cm = distance_cm

    def apply_contrast(self) -> None:
        """Propagate the potentiometer wiper to both displays."""
        contrast = self.potentiometer.position
        self.display_top.set_contrast(contrast)
        self.display_bottom.set_contrast(contrast)

    def press_button(self, name: str) -> None:
        """The environment presses a physical button."""
        self.raw_buttons[name].press()

    def release_button(self, name: str) -> None:
        """The environment releases a physical button."""
        self.raw_buttons[name].release()


def build_distscroll_board(
    sim: Simulator,
    layout: ButtonLayout = RIGHT_HANDED_LAYOUT,
    noisy: bool = True,
    i2c_error_rate: float = 0.0005,
    rf_loss_rate: float = 0.01,
    fit_spare_sensor: bool = True,
    spare_offset_cm: float = 3.0,
) -> DistScrollBoard:
    """Assemble a DistScroll board on the given simulator.

    Parameters
    ----------
    sim:
        The simulation the hardware lives in.
    layout:
        Button arrangement (defaults to the 3-button right-handed
        prototype).
    noisy:
        When ``False``, every noise source is disabled — ideal hardware
        for deterministic unit tests.
    i2c_error_rate, rf_loss_rate:
        Error injection rates for the buses (ignored when ``noisy`` is
        ``False``).
    fit_spare_sensor:
        Populate the second distance-sensor slot ("only one is used in
        our experiments so far", §4 — the spare enables the dual-sensor
        fold-back disambiguation mode).
    spare_offset_cm:
        Mounting recess of the spare sensor behind the primary.

    Returns
    -------
    DistScrollBoard
        Fully wired hardware with analog channels attached.
    """
    if noisy:
        # The board's general-purpose noise stream, which nothing draws
        # from: spawned and discarded so every later stream keeps its
        # seed.
        sim.spawn_rng()

    # The ADC's conversion noise and the I2C bus's error draws each have
    # a stream that nothing else reads, one draw kind each, so both are
    # served from blocks (see repro.sim.streams, "Drawing in blocks").
    battery = Battery()
    adc = ADC(
        params=ADCParams(),
        rng=BlockStream(sim.spawn_rng(), "standard_normal") if noisy else None,
    )
    mcu = PIC18F452(adc=adc, battery=battery)

    sensor_rng = sim.spawn_rng() if noisy else None
    if sensor_rng is not None:
        distance_sensor = GP2D120.specimen(sensor_rng)
    else:
        distance_sensor = GP2D120(rng=None)
    spare: Optional[GP2D120] = None
    if fit_spare_sensor:
        spare_rng = sim.spawn_rng() if noisy else None
        spare = GP2D120.specimen(spare_rng) if spare_rng is not None else GP2D120(rng=None)

    if noisy:
        # The unmodelled accelerometer's noise stream: spawned and
        # discarded so the I2C, button and RF streams keep their seeds.
        sim.spawn_rng()

    i2c = I2CBus(
        error_rate=i2c_error_rate if noisy else 0.0,
        rng=BlockStream(sim.spawn_rng(), "random") if noisy else None,
    )
    display_top = BT96040("top")
    display_bottom = BT96040("bottom")
    i2c.attach(I2C_ADDR_DISPLAY_TOP, display_top)
    i2c.attach(I2C_ADDR_DISPLAY_BOTTOM, display_bottom)

    raw_buttons: dict[str, Button] = {}
    debounced: dict[str, DebouncedButton] = {}
    for spec in layout.buttons:
        raw = Button(
            sim,
            spec,
            rng=sim.spawn_rng() if noisy else None,
        )
        raw_buttons[spec.name] = raw
        debounced[spec.name] = DebouncedButton(button=raw)

    rf_device = RFEndpoint("distscroll")
    rf_host = RFEndpoint("host-pc")
    rf_link = RFLink(
        sim,
        rf_device,
        rf_host,
        loss_rate=rf_loss_rate if noisy else 0.0,
        rng=sim.spawn_rng() if noisy else None,
    )

    potentiometer = Potentiometer(position=0.5)

    board = DistScrollBoard(
        sim=sim,
        mcu=mcu,
        adc=adc,
        i2c=i2c,
        distance_sensor=distance_sensor,
        spare_distance_sensor=spare,
        spare_offset_cm=spare_offset_cm if spare is not None else 0.0,
        display_top=display_top,
        display_bottom=display_bottom,
        buttons=debounced,
        raw_buttons=raw_buttons,
        layout=layout,
        potentiometer=potentiometer,
        battery=battery,
        rf_device=rf_device,
        rf_host=rf_host,
        rf_link=rf_link,
    )

    # Analog wiring: each sensor reads the board's pose only when it
    # starts a new measurement cycle (see GP2D120.output_voltage).
    distance_at = board.distance_at
    adc.attach(
        ADC_CHANNEL_DISTANCE,
        lambda t: board.distance_sensor.output_voltage(t, distance_at),
    )
    if spare is not None:

        def spare_distance_at(time_s: float) -> float:
            return distance_at(time_s) + board.spare_offset_cm

        adc.attach(
            ADC_CHANNEL_DISTANCE_SPARE,
            lambda t: board.spare_distance_sensor.output_voltage(
                t, spare_distance_at
            ),
        )

    board.apply_contrast()

    # Static power consumers: displays and radio idle draw, booked per
    # simulated second by the firmware loop via mcu.consume_power.
    mcu.allocate("bootloader", flash_bytes=2048, ram_bytes=64)

    return board
