"""The firmware reuses one island map per entry count, read-only.

``Firmware._rebuild_islands`` runs on every chunk page.  Its inputs are
fixed for the firmware's life, so the map for a given entry count is
built once and shared, and the fold-back thresholds and plausibility
bound are derived once at construction.  Paging a 40-entry menu through
every chunk and back must highlight exactly what fresh per-page builds
highlight, a shared map must not be mutable, and the thresholds must
equal what a per-page derivation gives.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType

import pytest

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.islands import build_island_map
from repro.core.menu import build_menu
from repro.core.sdaz import SDAZFirmware
from repro.sensors.gp2d120 import GP2D120


class _NeverKeeps(dict):
    """A map cache that forgets everything: every page builds afresh."""

    def __setitem__(self, key, value) -> None:
        pass


def _device(fresh: bool, chunk_size: int = 12) -> DistScroll:
    labels = [f"Item {i:02d}" for i in range(40)]
    device = DistScroll(
        build_menu(labels), config=DeviceConfig(chunk_size=chunk_size),
        seed=4,
    )
    if fresh:
        device.firmware._island_maps = _NeverKeeps()
    return device


def _walk(device: DistScroll) -> list:
    """Page through every chunk and back to the first, twice, sweeping
    the hand across the range on each page; the highlights seen."""
    firmware = device.firmware
    seen = []
    for _page in range(2 * firmware.n_chunks + 1):
        for distance in (5.5, 9.0, 13.5, 17.0, 21.5, 26.0):
            device.hold_at(distance)
            device.run_for(0.25)
            seen.append((firmware.chunk, device.highlighted_index))
        seen.append(tuple(firmware.island_map.islands))
        device.click("aux")
    return seen


class TestIslandMapReuse:
    def test_paging_matches_fresh_builds(self):
        reused, fresh = _device(fresh=False), _device(fresh=True)
        assert _walk(reused) == _walk(fresh)
        # 40 entries in chunks of 12: pages of 12, 12, 12 and 4 entries.
        assert sorted(reused.firmware._island_maps) == [4, 12]

    def test_a_page_reuses_the_map_object(self):
        device = _device(fresh=False)
        firmware = device.firmware
        first = firmware.island_map
        for _ in range(firmware.n_chunks):
            device.click("aux")
        assert firmware.chunk == 0
        assert firmware.island_map is first

    def test_reused_map_equals_a_fresh_build(self):
        device = _device(fresh=False)
        _walk(device)
        config = device.config
        for n_slots, island_map in device.firmware._island_maps.items():
            fresh = build_island_map(
                device.board.distance_sensor, device.board.adc, n_slots,
                range_cm=config.range_cm, island_fill=config.island_fill,
                placement=config.placement,
            )
            assert island_map.islands == fresh.islands

    def test_sdaz_levels_share_maps_too(self):
        labels = [f"Item {i:02d}" for i in range(60)]
        device = DistScroll(
            build_menu(labels),
            config=DeviceConfig(long_menu_mode="sdaz", chunk_size=0),
            seed=1,
        )
        assert isinstance(device.firmware, SDAZFirmware)
        coarse = device.firmware.island_map
        device.firmware._set_zoom("fine")
        device.firmware._set_zoom("coarse")
        assert device.firmware.island_map is coarse


def _thresholds(firmware) -> tuple[int, int, int]:
    return (
        firmware._fast_threshold_code,
        firmware._reentry_code,
        firmware._max_plausible_delta,
    )


def _derived_thresholds(device: DistScroll) -> tuple[int, int, int]:
    """The thresholds as a per-page derivation computes them."""
    config = device.config
    adc = device.board.adc
    board_sensor = device.board.distance_sensor
    mapping = board_sensor if config.factory_calibrated else GP2D120(rng=None)
    near = config.range_cm[0]
    travel = 150.0 * config.firmware_period_s

    def code(sensor, distance: float) -> int:
        return adc.code_for_voltage(sensor.ideal_voltage(distance))

    return (
        code(mapping, near - 0.45),
        code(mapping, near + 1.5),
        abs(code(board_sensor, near) - code(board_sensor, near + travel))
        + 24,
    )


class TestFixedThresholds:
    @pytest.mark.parametrize("calibrated", [True, False])
    def test_paged_firmware_keeps_derived_thresholds(self, calibrated):
        labels = [f"Item {i:02d}" for i in range(40)]
        device = DistScroll(
            build_menu(labels),
            config=DeviceConfig(chunk_size=12, factory_calibrated=calibrated),
            seed=4,
        )
        firmware = device.firmware
        expected = _derived_thresholds(device)
        for _ in range(firmware.n_chunks + 1):
            assert _thresholds(firmware) == expected
            device.click("aux")

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_sdaz_zoom_keeps_derived_thresholds(self, calibrated):
        labels = [f"Item {i:02d}" for i in range(60)]
        device = DistScroll(
            build_menu(labels),
            config=DeviceConfig(
                long_menu_mode="sdaz", chunk_size=0,
                factory_calibrated=calibrated,
            ),
            seed=1,
        )
        firmware = device.firmware
        expected = _derived_thresholds(device)
        for zoom in ("fine", "coarse", "fine"):
            firmware._set_zoom(zoom)
            assert _thresholds(firmware) == expected

    def test_calibration_changes_the_thresholds(self):
        """The uncalibrated build maps through the datasheet part."""
        labels = [f"Item {i:02d}" for i in range(40)]
        devices = [
            DistScroll(
                build_menu(labels),
                config=DeviceConfig(factory_calibrated=calibrated),
                seed=4,
            )
            for calibrated in (True, False)
        ]
        calibrated, generic = (_thresholds(d.firmware) for d in devices)
        assert calibrated[:2] != generic[:2]


class TestIslandMapIsReadOnly:
    def test_tables_cannot_be_mutated(self):
        device = _device(fresh=False)
        island_map = device.firmware.island_map
        assert isinstance(island_map.islands, tuple)
        assert isinstance(island_map._lows, tuple)
        assert isinstance(island_map._by_slot, MappingProxyType)
        with pytest.raises(TypeError):
            island_map._by_slot[0] = island_map.islands[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            island_map.islands[0].code_low = 0
