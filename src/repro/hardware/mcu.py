"""Microchip PIC 18F452 microcontroller model.

The DistScroll firmware runs on "a Microchip PIC 18F452 8-bit
microcontroller with 32 kbytes of flash memory and 1.5 kbytes RAM"
(Section 4).  We do not emulate the instruction set — the firmware logic
itself is re-implemented in :mod:`repro.core.firmware` — but the MCU model
enforces the *constraints* that shaped the original C firmware:

* **memory budgets** — firmware components declare their flash and RAM
  footprints; exceeding the part's 32 KB / 1536 B budget raises, which
  keeps our reimplementation honest about what would actually fit (e.g.
  island tables for very long menus must be chunked, Section 7);
* **cycle budget** — at 10 MIPS (40 MHz crystal, 4 clocks per instruction)
  a firmware tick has a finite instruction budget; the tick accounting
  lets benchmarks report simulated CPU headroom;
* **peripherals** — the ADC and GPIO live here, and the MCU reports its
  supply current to the battery model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.adc import ADC
from repro.hardware.battery import Battery

__all__ = ["MCUParams", "MemoryBudgetError", "PIC18F452"]


class MemoryBudgetError(MemoryError):
    """A firmware component does not fit in the PIC's flash or RAM."""


@dataclass(frozen=True)
class MCUParams:
    """Part parameters of the PIC 18F452.

    Attributes
    ----------
    flash_bytes:
        Program memory (32 KB on the 18F452).
    ram_bytes:
        Data memory (1536 bytes).
    mips:
        Instructions per second at the chosen crystal (10 MIPS at 40 MHz).
    run_current_ma:
        Supply current while running.
    sleep_current_ua:
        Supply current asleep.
    """

    flash_bytes: int = 32 * 1024
    ram_bytes: int = 1536
    mips: float = 10e6
    run_current_ma: float = 12.0
    sleep_current_ua: float = 45.0


@dataclass
class _Allocation:
    owner: str
    flash: int
    ram: int


class PIC18F452:
    """The microcontroller at the heart of the Smart-Its base board.

    Parameters
    ----------
    adc:
        The ADC peripheral (channel wiring happens at board assembly).
    params:
        Part parameters.
    battery:
        Optional battery to draw supply current from as time advances.
    """

    def __init__(
        self,
        adc: ADC,
        params: MCUParams | None = None,
        battery: Battery | None = None,
    ) -> None:
        self.params = params or MCUParams()
        self.adc = adc
        self.battery = battery
        self._allocations: list[_Allocation] = []
        self._instructions_this_tick = 0
        self.total_instructions = 0
        self.ticks = 0

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def allocate(self, owner: str, flash_bytes: int = 0, ram_bytes: int = 0) -> None:
        """Reserve flash and RAM for a firmware component.

        Raises
        ------
        MemoryBudgetError
            If the reservation would exceed the part's capacity.
        """
        if flash_bytes < 0 or ram_bytes < 0:
            raise ValueError("allocation sizes must be non-negative")
        if self.flash_used + flash_bytes > self.params.flash_bytes:
            raise MemoryBudgetError(
                f"{owner}: flash overflow "
                f"({self.flash_used + flash_bytes} > {self.params.flash_bytes} bytes)"
            )
        if self.ram_used + ram_bytes > self.params.ram_bytes:
            raise MemoryBudgetError(
                f"{owner}: RAM overflow "
                f"({self.ram_used + ram_bytes} > {self.params.ram_bytes} bytes)"
            )
        self._allocations.append(_Allocation(owner, flash_bytes, ram_bytes))

    def free(self, owner: str) -> None:
        """Release all reservations made under ``owner``."""
        self._allocations = [a for a in self._allocations if a.owner != owner]

    @property
    def flash_used(self) -> int:
        """Total flash bytes reserved."""
        return sum(a.flash for a in self._allocations)

    @property
    def ram_used(self) -> int:
        """Total RAM bytes reserved."""
        return sum(a.ram for a in self._allocations)

    @property
    def flash_free(self) -> int:
        """Remaining flash bytes."""
        return self.params.flash_bytes - self.flash_used

    @property
    def ram_free(self) -> int:
        """Remaining RAM bytes."""
        return self.params.ram_bytes - self.ram_used

    def memory_report(self) -> dict[str, tuple[int, int]]:
        """Per-owner (flash, ram) usage, for DESIGN-style inventories."""
        report: dict[str, tuple[int, int]] = {}
        for allocation in self._allocations:
            flash, ram = report.get(allocation.owner, (0, 0))
            report[allocation.owner] = (
                flash + allocation.flash,
                ram + allocation.ram,
            )
        return report

    # ------------------------------------------------------------------
    # cycle accounting
    # ------------------------------------------------------------------
    def begin_tick(self, instructions: int = 0) -> None:
        """Start a new firmware tick's instruction budget.

        ``instructions`` charges the tick's fixed work up front: the
        counters end exactly as ``begin_tick()`` followed by
        :meth:`execute` calls summing to it would leave them.
        """
        self._instructions_this_tick = instructions
        self.ticks += 1
        self.total_instructions += instructions

    def execute(self, instructions: int) -> None:
        """Account for executed instructions within the current tick."""
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        self._instructions_this_tick += instructions
        self.total_instructions += instructions

    def tick_budget(self, tick_period_s: float) -> int:
        """Instructions available in one tick of the given period."""
        return int(self.params.mips * tick_period_s)

    def tick_utilization(self, tick_period_s: float) -> float:
        """Fraction of the current tick's budget consumed."""
        budget = self.tick_budget(tick_period_s)
        if budget == 0:
            return 0.0
        return self._instructions_this_tick / budget

    # ------------------------------------------------------------------
    # power
    # ------------------------------------------------------------------
    def consume_power(self, duration_s: float, asleep: bool = False) -> None:
        """Draw supply current from the battery for ``duration_s``."""
        if self.battery is None:
            return
        if asleep:
            current_ma = self.params.sleep_current_ua / 1000.0
        else:
            current_ma = self.params.run_current_ma
        self.battery.draw(current_ma, duration_s)
