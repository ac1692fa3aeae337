"""Closed-loop simulated users operating the DistScroll.

The paper's evaluation is an observational study (Section 6): people were
handed the device, discovered the operation "promptly", and after learning
the distance↔entry relation used it "nearly errorless".  To reproduce that
— and to run the quantitative studies the authors list as future work — we
need a human in the loop.  :class:`SimulatedUser` is a standard
perception–decision–action model:

* **perception** — the user reads the top display with a visual latency;
  they only know the highlight from what the display showed then;
* **decision** — reaction times and verification dwells (lognormal-ish);
* **action** — minimum-jerk reaches whose durations follow Fitts's law on
  the island's distance tolerance, with noisy endpoints and corrective
  submovements when the wrong entry ends up highlighted;
* **learning** — aim-point knowledge sharpens with practice (power law),
  reproducing the study's "promptly discovered / nearly errorless after
  learning" arc;
* **gloves** — a :class:`~repro.interaction.gloves.Glove` scales tremor,
  movement time, dexterity and button reliability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.interaction.fitts import movement_time
from repro.interaction.gloves import GLOVES, Glove
from repro.interaction.hand import Hand
from repro.signal.scalar import clamp

if TYPE_CHECKING:
    from repro.core.device import DistScroll

__all__ = ["MotorProfile", "TrialResult", "DiscoveryResult", "SimulatedUser"]


@dataclass(frozen=True)
class MotorProfile:
    """Population parameters of one simulated participant.

    Defaults are standard HCI magnitudes (KLM / Fitts literature) for an
    adult moving a handheld device with the forearm.

    Attributes
    ----------
    reaction_time_s:
        Simple reaction time before a planned movement starts.
    fitts_a, fitts_b:
        Fitts intercept (s) and slope (s/bit) for forearm translation.
    perception_latency_s:
        Display-to-percept latency when checking the highlight.
    verify_dwell_s:
        Time spent confirming the highlight before committing.
    button_press_s:
        Motor time for a thumb press on the select button.
    endpoint_sigma_frac:
        Endpoint standard deviation as a fraction of the target's
        distance tolerance (≈0.27 yields the classic ~4% miss rate).
    impulsivity:
        Probability of committing without verifying (source of the rare
        wrong activations).
    learning_rate:
        Exponent of the power law of practice on aim uncertainty.
    """

    reaction_time_s: float = 0.26
    fitts_a: float = 0.10
    fitts_b: float = 0.145
    perception_latency_s: float = 0.20
    verify_dwell_s: float = 0.22
    button_press_s: float = 0.16
    endpoint_sigma_frac: float = 0.27
    impulsivity: float = 0.03
    learning_rate: float = 0.35

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "MotorProfile":
        """Draw an individual from the population distribution.

        Draw for draw the same values as ``mean * rng.lognormal(0.0,
        rel)`` and ``np.clip(rng.normal(loc, scale), lo, hi)``: numpy
        computes those as ``exp(0.0 + rel * z)`` and ``loc + scale * z``
        from one standard-normal ``z``, and so does this, without the
        per-call distribution dispatch.
        """
        gauss = rng.standard_normal
        exp = math.exp
        return cls(
            reaction_time_s=0.26 * exp(0.15 * gauss()),
            fitts_a=0.10 * exp(0.2 * gauss()),
            fitts_b=0.145 * exp(0.15 * gauss()),
            perception_latency_s=0.20 * exp(0.1 * gauss()),
            verify_dwell_s=0.22 * exp(0.2 * gauss()),
            button_press_s=0.16 * exp(0.15 * gauss()),
            endpoint_sigma_frac=0.27 * exp(0.15 * gauss()),
            impulsivity=clamp(0.03 + 0.02 * gauss(), 0.0, 0.15),
            learning_rate=clamp(0.35 + 0.08 * gauss(), 0.15, 0.6),
        )


@dataclass
class TrialResult:
    """Outcome of one selection trial.

    Attributes
    ----------
    target_index:
        The entry the user was asked to select.
    duration_s:
        Simulated time from go-signal to successful activation.
    submovements:
        Voluntary reaches performed (1 = perfect first hit).
    wrong_activations:
        Times select was pressed while the wrong entry was highlighted.
    button_misses:
        Presses that failed to register (glove fumbles).
    movement_distance_cm:
        Distance between start position and the target aim point.
    target_width_cm:
        Effective target tolerance (island width in distance terms).
    success:
        Whether the correct entry was eventually activated.
    """

    target_index: int
    duration_s: float
    submovements: int = 0
    wrong_activations: int = 0
    button_misses: int = 0
    movement_distance_cm: float = 0.0
    target_width_cm: float = 0.0
    success: bool = False

    @property
    def error_free(self) -> bool:
        """The paper's "errorless" criterion: no wrong activation."""
        return self.success and self.wrong_activations == 0


@dataclass
class DiscoveryResult:
    """Outcome of the unguided discovery phase (initial study, §6)."""

    discovered: bool
    time_to_discovery_s: float
    exploratory_movements: int


@dataclass
class SimulatedUser:
    """One participant operating a :class:`~repro.core.device.DistScroll`.

    Parameters
    ----------
    device:
        The device under test (user and device must share the simulator).
    profile:
        Motor parameters; default draws vary per user via ``rng``.
    glove:
        Worn glove (``GLOVES['none']`` by default).
    rng:
        The participant's private noise stream.
    """

    device: DistScroll
    rng: np.random.Generator
    profile: Optional[MotorProfile] = None
    glove: Glove = field(default_factory=lambda: GLOVES["none"])
    handedness: str = "right"
    #: Extra hand-tremor RMS multiplier on top of the glove's factor —
    #: the persona engine's motor-ability hook (1.0 = nominal).
    tremor_scale: float = 1.0
    max_attempts: int = 12
    practice_trials: int = field(default=0, init=False)

    @classmethod
    def for_persona(
        cls,
        device: DistScroll,
        rng: np.random.Generator,
        persona: "object",
    ) -> "SimulatedUser":
        """Build a user parameterized by a
        :class:`~repro.interaction.personas.Persona`.

        The persona supplies the scaled motor profile, worn glove,
        handedness and tremor multiplier; ``rng`` stays the
        participant's private stream.  (Typed loosely to avoid a
        circular import — personas imports :class:`MotorProfile`.)
        """
        return cls(
            device=device,
            rng=rng,
            profile=persona.motor_profile(rng),  # type: ignore[attr-defined]
            glove=persona.glove_model(),  # type: ignore[attr-defined]
            handedness=persona.handedness,  # type: ignore[attr-defined]
            tremor_scale=persona.tremor_scale,  # type: ignore[attr-defined]
        )

    def __post_init__(self) -> None:
        if self.profile is None:
            self.profile = MotorProfile.sample(self.rng)
        tremor = 0.08 * self.glove.tremor_factor * self.tremor_scale
        board = self.device.board
        self.hand = Hand(
            self.device.sim,
            lambda d: board.set_pose(distance_cm=d),
            start_cm=board.distance_cm,
            tremor_rms_cm=tremor,
            rng=self.rng,
        )
        # Record which entry each select press actually lands on: the
        # firmware emits the ButtonEvent *before* acting on the cursor, so
        # the highlight at that instant is the activated index.
        self._last_press_index: Optional[int] = None
        self.device.on_event(self._observe_event)

    def _observe_event(self, event) -> None:
        if (
            event.kind == "ButtonEvent"
            and event.name == "select"
            and event.pressed
        ):
            self._last_press_index = self.device.firmware.cursor.highlight

    # ------------------------------------------------------------------
    # small time primitives
    # ------------------------------------------------------------------
    def _wait(self, duration_s: float) -> None:
        self.device.run_for(max(duration_s, 0.0))

    def _lognormal(self, mean_s: float, spread: float = 0.15) -> float:
        return float(mean_s * self.rng.lognormal(0.0, spread))

    def _react(self) -> None:
        self._wait(self._lognormal(self.profile.reaction_time_s))

    # ------------------------------------------------------------------
    # perception
    # ------------------------------------------------------------------
    def perceived_highlight(self) -> Optional[int]:
        """The highlight index as the user currently perceives it.

        Reads the *display*, not the firmware state: if the panel contrast
        is unreadable, the user perceives nothing.
        """
        self._wait(self._lognormal(self.profile.perception_latency_s, 0.1))
        lines = self.device.visible_menu()
        if not any(lines):
            return None
        return self.device.highlighted_index

    # ------------------------------------------------------------------
    # aiming knowledge
    # ------------------------------------------------------------------
    def _aim_uncertainty_factor(self) -> float:
        """Extra endpoint spread while the mapping is still being learned.

        Power law of practice: trial 0 is ~2.2x noisier than asymptote.
        """
        return 1.0 + 1.2 * (1.0 + self.practice_trials) ** (
            -self.profile.learning_rate * 3.0
        )

    # ------------------------------------------------------------------
    # the core trial
    # ------------------------------------------------------------------
    def select_entry(self, target_index: int) -> TrialResult:
        """Perform one full selection: scroll to the entry and activate it.

        The user pages chunks if needed, reaches for the island's center
        distance, verifies the highlight on the display, corrects until
        the right entry is highlighted, and presses select.
        """
        firmware = self.device.firmware
        if getattr(firmware, "zoom", None) is not None and (
            firmware._level_needs_zoom()
        ):
            return self._select_entry_sdaz(target_index)
        start_time = self.device.now
        self._trial_depth = self.device.depth
        result = TrialResult(target_index=target_index, duration_s=0.0)

        self._page_to_chunk(firmware.chunk_of_index(target_index))

        aim = firmware.aim_distance_for_index(target_index)
        tolerance = firmware.distance_tolerance_cm(target_index)
        width = max(2.0 * tolerance, 0.2)
        result.movement_distance_cm = abs(
            self.hand.position(include_tremor=False) - aim
        )
        result.target_width_cm = width

        self._react()
        target_chunk = firmware.chunk_of_index(target_index)
        for attempt in range(self.max_attempts):
            if firmware.chunk != target_chunk:
                # A wrong activation may have left us on another page.
                self._page_to_chunk(target_chunk)
                aim = firmware.aim_distance_for_index(target_index)
            result.submovements += 1
            self._reach(aim, width, first=attempt == 0)
            perceived = self.perceived_highlight()
            if perceived != target_index:
                # Wrong island (or gap): an impulsive user may still commit.
                if self.rng.random() < self.profile.impulsivity and (
                    perceived is not None
                ):
                    if self._press_select(result):
                        result.wrong_activations += 1
                        self._recover_from_wrong_activation()
                if perceived is not None:
                    # Directional correction: the display feedback tells
                    # the user which way (and roughly how far) they are
                    # off — essential when the device's nominal mapping
                    # is biased (e.g. an uncalibrated sensor, ABL-CAL).
                    aim += self._aim_correction(perceived, target_index)
                continue
            if self.rng.random() >= self.profile.impulsivity:
                self._wait(self._lognormal(self.profile.verify_dwell_s, 0.2))
                if self.device.highlighted_index != target_index:
                    continue  # tremor pushed it off during the dwell
            if self._press_select(result):
                if self._activation_matches(target_index):
                    result.success = True
                    break
                result.wrong_activations += 1
                self._recover_from_wrong_activation()
        result.duration_s = self.device.now - start_time
        self.practice_trials += 1
        return result

    def _activation_matches(self, target_index: int) -> bool:
        """Whether the select actually landed on the intended entry.

        Between the user's last percept and the debounced press the tremor
        can move the highlight; the firmware activates whatever is
        highlighted at press time, which :meth:`_observe_event` captured.
        """
        return self._last_press_index == target_index

    def _select_entry_sdaz(self, target_index: int) -> TrialResult:
        """Selection through the SDAZ long-menu mode (§7 Q4 extension).

        Strategy a user naturally adopts: coarse-reach the anchor nearest
        the target and hold (the firmware zooms in after its dwell), pan
        by holding the window edge if the target is just outside, then
        fine-reach and select as usual.
        """
        firmware = self.device.firmware
        start_time = self.device.now
        self._trial_depth = self.device.depth
        result = TrialResult(target_index=target_index, duration_s=0.0)
        result.target_width_cm = max(
            2.0 * firmware.distance_tolerance_cm(target_index), 0.2
        )
        self._react()

        for attempt in range(self.max_attempts * 2):
            if firmware.zoom == "coarse":
                aim = firmware.aim_distance_for_index(target_index)
                width = max(
                    2.0 * firmware.distance_tolerance_cm(target_index), 0.2
                )
                result.submovements += 1
                self._reach(aim, width, first=attempt == 0)
                # Hold steady: the firmware's dwell triggers the zoom.
                self._wait(0.65)
                continue
            start, end = firmware.window_range()
            if not start <= target_index <= end:
                distance_out = min(
                    abs(target_index - start), abs(target_index - end)
                )
                if distance_out > (end - start + 1):
                    # Way off: zoom back out (aux button) and re-anchor.
                    self._react()
                    self._click_button("aux")
                    continue
                # Close by: pan by holding the edge nearest the target.
                edge = end if target_index > end else start
                aim = firmware.aim_distance_for_index(edge)
                width = max(2.0 * firmware.distance_tolerance_cm(edge), 0.2)
                result.submovements += 1
                self._reach(aim, width, first=False)
                self._wait(0.55)
                continue
            aim = firmware.aim_distance_for_index(target_index)
            width = max(
                2.0 * firmware.distance_tolerance_cm(target_index), 0.2
            )
            result.submovements += 1
            self._reach(aim, width, first=False)
            perceived = self.perceived_highlight()
            if perceived != target_index:
                continue
            if self.rng.random() >= self.profile.impulsivity:
                self._wait(self._lognormal(self.profile.verify_dwell_s, 0.2))
                if self.device.highlighted_index != target_index:
                    continue
            if self._press_select(result):
                if self._activation_matches(target_index):
                    result.success = True
                    break
                result.wrong_activations += 1
                self._recover_from_wrong_activation()
        result.duration_s = self.device.now - start_time
        self.practice_trials += 1
        return result

    def _aim_correction(self, perceived: int, target: int) -> float:
        """Signed aim adjustment (cm) from observed index error.

        One entry of index error maps to roughly one inter-entry spacing
        of distance; polarity gives the sign.  Clamped to two entries so
        a misread cannot fling the hand across the range.
        """
        from repro.core.config import ScrollDirection

        firmware = self.device.firmware
        n_slots = max(firmware.island_map.n_slots, 1)
        step = self.device.config.span_cm / n_slots
        delta = perceived - target
        delta = max(-2, min(2, delta))
        if (
            self.device.config.direction
            is ScrollDirection.TOWARDS_SCROLLS_DOWN
        ):
            return delta * step
        return -delta * step

    def _recover_from_wrong_activation(self) -> None:
        """Back out of an accidental submenu entry / note a wrong action."""
        self._react()
        while self.device.depth > getattr(self, "_trial_depth", 0):
            self._click_button("back")

    # ------------------------------------------------------------------
    # motor actions
    # ------------------------------------------------------------------
    def _reach(self, aim_cm: float, width_cm: float, first: bool) -> None:
        """One voluntary submovement toward the aim point."""
        position = self.hand.position(include_tremor=False)
        distance = abs(position - aim_cm)
        if distance < 0.05:
            distance = 0.05
        effective_width = width_cm
        mt = movement_time(
            self.profile.fitts_a, self.profile.fitts_b, distance, effective_width
        )
        mt *= self.glove.movement_time_factor
        mt = max(mt * self.rng.lognormal(0.0, 0.08), 0.12)
        sigma = (
            self.profile.endpoint_sigma_frac
            * (width_cm / 2.0)
            * self._aim_uncertainty_factor()
        )
        endpoint = aim_cm + self.rng.normal(0.0, sigma)
        self.hand.move_to(endpoint, mt)
        self._wait(mt + 0.06)

    def _press_select(self, result: TrialResult) -> bool:
        """Thumb press on select; may fumble with gloves.

        Returns ``True`` once a press registers.
        """
        layout = self.device.board.layout
        spec = layout.spec("select")
        miss_p = self.glove.effective_miss_probability(spec.area_mm2)
        press_time = (
            self.profile.button_press_s * self.glove.dexterity_time_factor
        )
        # A handed layout operated with the other hand (§5.1: "the
        # restriction to the right hand is introduced by the layout of
        # the push buttons"): the thumb cannot reach the select button
        # naturally, so presses are slower and less reliable.
        if not layout.ambidextrous and layout.handedness != self.handedness:
            press_time *= 1.6
            miss_p = min(miss_p + 0.12, 0.9)
        for _ in range(4):
            self._wait(self._lognormal(press_time, 0.12))
            if self.rng.random() >= miss_p:
                self.device.click("select")
                return True
            result.button_misses += 1
        # Even a mitten gets there on the 4th deliberate attempt.
        self.device.click("select")
        return True

    def _click_button(self, name: str) -> None:
        press_time = (
            self.profile.button_press_s * self.glove.dexterity_time_factor
        )
        self._wait(self._lognormal(press_time, 0.12))
        self.device.click(name)

    def _page_to_chunk(self, target_chunk: int) -> None:
        firmware = self.device.firmware
        guard = 0
        while firmware.chunk != target_chunk and guard < 2 * firmware.n_chunks:
            self._react()
            self._click_button("aux")
            guard += 1

    # ------------------------------------------------------------------
    # discovery (initial user study, §6)
    # ------------------------------------------------------------------
    def discover(
        self, timeout_s: float = 60.0, hint_given: bool = False
    ) -> DiscoveryResult:
        """Unguided exploration until the distance↔menu relation is found.

        The participant waggles the device through exploratory movements;
        discovery happens once they have *observed* enough highlight
        changes correlated with their own motion (three causal
        observations, fewer if a hint was given).  This reproduces the
        study protocol: "even when no hints were given, the manner of
        operation was promptly discovered".
        """
        needed = 1 if hint_given else 3
        observed = 0
        movements = 0
        start = self.device.now
        near, far = self.device.config.range_cm
        last_seen = self.device.highlighted_index
        while self.device.now - start < timeout_s:
            movements += 1
            # Curious waggling: random reaches across a growing span.
            span = min(0.3 + 0.15 * movements, 1.0)
            center = (near + far) / 2.0
            target = center + (self.rng.random() - 0.5) * span * (far - near)
            mt = self._lognormal(0.5, 0.2)
            self.hand.move_to(target, mt)
            self._wait(mt + 0.15)
            perceived = self.perceived_highlight()
            if perceived is not None and perceived != last_seen:
                observed += 1
                last_seen = perceived
                # Noticing takes a beat.
                self._wait(self._lognormal(0.4, 0.2))
            if observed >= needed:
                return DiscoveryResult(
                    discovered=True,
                    time_to_discovery_s=self.device.now - start,
                    exploratory_movements=movements,
                )
        return DiscoveryResult(
            discovered=False,
            time_to_discovery_s=timeout_s,
            exploratory_movements=movements,
        )
