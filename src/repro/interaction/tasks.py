"""Selection-task workloads for user studies and benchmarks.

The initial study used "a fictive mobile phone menu" with instructed
search/select tasks; the planned quantitative studies need controlled
target sequences.  These generators produce reproducible task lists:

* :func:`random_targets` — uniform random entries with a minimum index
  separation (so consecutive trials require real movement);
* :func:`battery` and :func:`scenario_distances` — ScrollTest-style
  scenario batteries for the population-scale studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "random_targets",
    "Scenario",
    "BATTERIES",
    "battery",
    "scenario_distances",
]


def random_targets(
    n_entries: int,
    n_trials: int,
    rng: np.random.Generator,
    min_separation: int = 1,
) -> list[int]:
    """Uniform random target indices with consecutive separation.

    Parameters
    ----------
    n_entries:
        Size of the menu level.
    n_trials:
        Number of targets to draw.
    rng:
        Random stream.
    min_separation:
        Each target differs from its predecessor by at least this many
        positions (0 allows repeats).

    Raises
    ------
    ValueError
        If the separation is unsatisfiable for the level size.
    """
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    if min_separation >= n_entries:
        raise ValueError(
            f"min_separation {min_separation} unsatisfiable with "
            f"{n_entries} entries"
        )
    targets: list[int] = []
    previous = -10**9
    for _ in range(n_trials):
        while True:
            candidate = int(rng.integers(0, n_entries))
            if abs(candidate - previous) >= min_separation:
                break
        targets.append(candidate)
        previous = candidate
    return targets


# ---------------------------------------------------------------------------
# ScrollTest-style scenario batteries (population-scale studies)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One cell of a diversified task battery (per ScrollTest).

    ScrollTest (Chen et al., PAPERS.md) evaluates scrolling techniques
    over long lists, varied target distances, and both speed *and*
    accuracy measures.  A scenario fixes the menu length, the trial
    count, and a target-distance profile; ``error_recovery`` marks the
    trials where a deliberate wrong activation must be backed out of,
    so recovery cost shows up in the timings.
    """

    name: str
    menu_entries: int
    n_trials: int
    #: ``"near"`` (1–3 entries away), ``"far"`` (most of the level) or
    #: ``"mixed"`` (uniform over the level).
    distance_profile: str
    error_recovery: bool = False

    def __post_init__(self) -> None:
        if self.menu_entries < 2:
            raise ValueError("menu_entries must be >= 2")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.distance_profile not in ("near", "far", "mixed"):
            raise ValueError(
                f"unknown distance_profile {self.distance_profile!r}"
            )


#: Named batteries.  ``scrolltest`` is the population-study default:
#: short and long menus, near and far targets, and an error-recovery
#: cell.  ``smoke`` is the CI-sized variant.
BATTERIES: dict[str, tuple[Scenario, ...]] = {
    "scrolltest": (
        Scenario("short-near", 10, 4, "near"),
        Scenario("short-far", 10, 4, "far"),
        Scenario("long-menu", 40, 4, "mixed"),
        Scenario("error-recovery", 10, 3, "mixed", error_recovery=True),
    ),
    "smoke": (
        Scenario("short-mixed", 10, 2, "mixed"),
        Scenario("long-menu", 40, 2, "mixed"),
    ),
}


def battery(name: str) -> tuple[Scenario, ...]:
    """Look up a named battery with a helpful error on typos."""
    try:
        return BATTERIES[name]
    except KeyError:
        raise ValueError(
            f"unknown battery {name!r}; available: {', '.join(BATTERIES)}"
        ) from None


def scenario_distances(
    scenario: Scenario, rng: np.random.Generator
) -> list[int]:
    """Per-trial target *index distances* for one scenario.

    Distances are in entries within the scenario's level; the caller
    maps them to physical centimetres via the device geometry.  Every
    distance is at least 1 (a trial always requires real movement).
    """
    top = scenario.menu_entries - 1
    distances: list[int] = []
    for _ in range(scenario.n_trials):
        if scenario.distance_profile == "near":
            distance = 1 + int(rng.integers(0, min(3, top)))
        elif scenario.distance_profile == "far":
            low = max(1, (2 * top) // 3)
            distance = low + int(rng.integers(0, top - low + 1))
        else:  # mixed
            distance = 1 + int(rng.integers(0, top))
        distances.append(min(distance, top))
    return distances
