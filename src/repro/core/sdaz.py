"""Speed-dependent automatic zooming for long menus (§7 Q4 extension).

"How to scroll long menus?  A possible solution could be similar to the
one suggested in [6]" — Igarashi & Hinckley's speed-dependent automatic
zooming.  This module adapts that idea to distance scrolling:

* **coarse zoom** — the whole (long) level is represented by ~10 evenly
  spaced *anchor* entries mapped over the scroll range; moving the hand
  sweeps through the list at coarse granularity;
* **dwell to zoom in** — holding a coarse anchor steady for a dwell time
  zooms in: the range is remapped to a fine window of ~10 consecutive
  entries centered on that anchor;
* **edge-hold to pan, retreat to zoom out** — holding a fine-window edge
  pans the window; entering the fast-scroll region (or pressing aux)
  zooms back out to coarse.

Unlike button-paged chunking, the whole traversal is *buttonless*: the
same towards/away movement handles both granularities, which is exactly
the property the SDAZ paper argues for (one continuous control channel).

:class:`SDAZFirmware` subclasses the standard firmware, replacing the
chunk machinery; everything else (islands, debounce, displays, events,
RF) is inherited.
"""

from __future__ import annotations

from typing import Optional

from repro.core.events import ZoomChanged
from repro.core.firmware import Firmware

__all__ = ["SDAZFirmware"]

#: Dwell (seconds) holding one coarse anchor before zooming in.
_ZOOM_IN_DWELL_S = 0.45
#: Dwell (seconds) holding a fine-window edge before panning.
_PAN_DWELL_S = 0.40


class SDAZFirmware(Firmware):
    """Firmware variant using speed-dependent zooming for long levels.

    The ``chunk_size`` config field is reused as the anchor/window size
    (the paper's suggested "chunks of e.g. 10 entries").
    """

    def __init__(self, *args, **kwargs) -> None:
        self.zoom: str = "coarse"
        self._window_start: int = 0
        self._dwell_slot: Optional[int] = None
        self._dwell_since: float = 0.0
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def _granularity(self) -> int:
        """Anchor/window capacity (chunk_size, min 2)."""
        return max(self.config.chunk_size or 10, 2)

    def _level_needs_zoom(self) -> bool:
        return len(self.cursor.entries) > self._granularity()

    def anchor_indices(self) -> list[int]:
        """Entry indices represented in the coarse view."""
        n_entries = len(self.cursor.entries)
        k = min(self._granularity(), n_entries)
        if k == 1 or n_entries == 1:
            return [0]
        return [
            round(i * (n_entries - 1) / (k - 1)) for i in range(k)
        ]

    def window_range(self) -> tuple[int, int]:
        """Inclusive (start, end) of the fine window."""
        n_entries = len(self.cursor.entries)
        size = min(self._granularity(), n_entries)
        start = max(0, min(self._window_start, n_entries - size))
        return start, start + size - 1

    def nearest_anchor(self, index: int) -> int:
        """The coarse anchor closest to a target entry."""
        anchors = self.anchor_indices()
        return min(anchors, key=lambda a: abs(a - index))

    # ------------------------------------------------------------------
    # overridden chunk machinery
    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        """SDAZ has no pages; report 1 for display compatibility."""
        return 1

    def chunk_of_index(self, index: int) -> int:
        """SDAZ has no pages; every index is reachable from 'chunk' 0."""
        return 0

    def aim_distance_for_index(self, index: int) -> float:
        """Aim point for an entry *in the current zoom state*.

        Coarse state: the aim of the nearest anchor (callers then dwell
        to zoom in).  Fine state: the aim inside the window.

        Raises
        ------
        ValueError
            In fine state when the entry lies outside the window.
        """
        if not self._level_needs_zoom():
            return super().aim_distance_for_index(index)
        n_slots = self.island_map.n_slots
        if self.zoom == "coarse":
            anchors = self.anchor_indices()
            anchor = self.nearest_anchor(index)
            local = anchors.index(anchor)
        else:
            start, end = self.window_range()
            if not start <= index <= end:
                raise ValueError(
                    f"entry {index} outside fine window [{start}, {end}]"
                )
            local = index - start
        slot = self._slot_for_local_index(local, n_slots)
        return self.island_map.center_distance(slot)

    def distance_tolerance_cm(self, index: int) -> float:
        """Island half-width (cm) of the entry in the current zoom state."""
        if not self._level_needs_zoom():
            return super().distance_tolerance_cm(index)
        n_slots = self.island_map.n_slots
        if self.zoom == "coarse":
            anchors = self.anchor_indices()
            local = anchors.index(self.nearest_anchor(index))
        else:
            start, end = self.window_range()
            if start <= index <= end:
                local = index - start
            else:
                # Outside the window: report the representative width of
                # a mid-window island (all fine islands are equal-sized).
                local = n_slots // 2
        slot = self._slot_for_local_index(local, n_slots)
        return self.island_map.distance_tolerance(
            slot, self.board.distance_sensor
        )

    def _enter_level(self, keep_highlight: bool = False) -> None:
        self.zoom = "coarse"
        self._window_start = 0
        self._dwell_slot = None
        self._chunk = 0
        self._rebuild_islands()
        self._last_valid_code = None
        self._filter.reset()

    def _advance_chunk(self, step: int) -> None:
        """The aux button zooms out instead of paging."""
        if self.zoom == "fine":
            self._set_zoom("coarse")

    def _effective_chunk_size(self) -> int:
        # The base class uses this for chunk arithmetic; in SDAZ the
        # whole level is always "one chunk".
        return max(len(self.cursor.entries), 1)

    def _rebuild_islands(self) -> None:
        if not self._level_needs_zoom():
            # Short level: identical to the flat base behaviour.
            self.zoom = "fine"
            self._window_start = 0
            super()._rebuild_islands()
            return
        self._confirmed_slot = None
        self._candidate_slot = None
        self._candidate_since = 0.0
        if self.zoom == "coarse":
            n_slots = len(self.anchor_indices())
        else:
            start, end = self.window_range()
            n_slots = end - start + 1
        self._island_map = self._island_map_for(n_slots)
        self.board.mcu.free("island-table")
        self.board.mcu.allocate(
            "island-table", ram_bytes=6 * self._island_map.n_slots
        )

    # ------------------------------------------------------------------
    # slot handling with zoom transitions
    # ------------------------------------------------------------------
    def _apply_slot_lookup(self, code: int, now: float) -> None:
        if not self._level_needs_zoom():
            super()._apply_slot_lookup(code, now)
            return
        slot = self.island_map.lookup(code)
        self.current_slot = slot
        if slot is None:
            # A momentary gap excursion is still "holding still" — the
            # dwell timer keeps running so noise cannot cancel a zoom.
            self._candidate_slot = None
            return
        if slot != getattr(self, "_confirmed_slot", None):
            if slot != getattr(self, "_candidate_slot", None):
                self._candidate_slot = slot
                self._candidate_since = now
            if now - self._candidate_since < self._confirm_window_s - 1e-9:
                return
            self._confirmed_slot = slot
            self._candidate_slot = None

        local = self._local_index_for_slot(slot, self.island_map.n_slots)
        if self.zoom == "coarse":
            index = self.anchor_indices()[local]
        else:
            index = self.window_range()[0] + local
        self._move_highlight(index, now)
        self._track_dwell(slot, local, now)

    def _move_highlight(self, index: int, now: float) -> None:
        from repro.core.events import HighlightChanged

        previous = self.cursor.highlight
        if self.cursor.set_highlight(index):
            self._display_dirty = True
            self._emit(
                HighlightChanged(
                    time=now,
                    index=self.cursor.highlight,
                    label=self.cursor.highlighted_entry.label,
                    previous_index=previous,
                )
            )

    def _track_dwell(self, slot: int, local: int, now: float) -> None:
        if slot != self._dwell_slot:
            self._dwell_slot = slot
            self._dwell_since = now
            return
        held_for = now - self._dwell_since
        if self.zoom == "coarse":
            if held_for >= _ZOOM_IN_DWELL_S:
                self._zoom_in_around(self.cursor.highlight, now)
        else:
            n_slots = self.island_map.n_slots
            if held_for >= _PAN_DWELL_S:
                if local == n_slots - 1:
                    self._pan_window(+1, now)
                elif local == 0:
                    self._pan_window(-1, now)

    def _zoom_in_around(self, index: int, now: float) -> None:
        size = min(self._granularity(), len(self.cursor.entries))
        start = index - size // 2
        start = max(0, min(start, len(self.cursor.entries) - size))
        self._window_start = start
        self._set_zoom("fine", now)

    def _pan_window(self, direction: int, now: float) -> None:
        n_entries = len(self.cursor.entries)
        size = min(self._granularity(), n_entries)
        step = max(size // 2, 1)
        new_start = self._window_start + direction * step
        new_start = max(0, min(new_start, n_entries - size))
        if new_start == self._window_start:
            self._dwell_since = now  # pinned at the list end
            return
        self._window_start = new_start
        self._rebuild_islands()
        self._dwell_slot = None
        self._display_dirty = True
        start, end = self.window_range()
        self._emit(
            ZoomChanged(time=now, zoom="fine", window_start=start,
                        window_end=end)
        )

    def _set_zoom(self, zoom: str, now: Optional[float] = None) -> None:
        if zoom == self.zoom:
            return
        self.zoom = zoom
        self._rebuild_islands()
        self._dwell_slot = None
        self._display_dirty = True
        start, end = self.window_range() if zoom == "fine" else (
            0,
            len(self.cursor.entries) - 1,
        )
        self._emit(
            ZoomChanged(
                time=now if now is not None else self._sim.now,
                zoom=zoom,
                window_start=start,
                window_end=end,
            )
        )

    # ------------------------------------------------------------------
    # fast-scroll region doubles as "zoom out"
    # ------------------------------------------------------------------
    def _process_code(self, code: int, now: float) -> None:
        if (
            self._level_needs_zoom()
            and self.zoom == "fine"
            and code > self._fast_threshold_code
        ):
            self._set_zoom("coarse", now)
            return
        super()._process_code(code, now)
