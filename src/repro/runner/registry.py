"""Declarative experiment registry.

Each DESIGN.md experiment id maps to an :class:`ExperimentSpec`: the
import path of its ``run_*`` entry point, the keyword arguments
``repro run <id>`` uses, and an optional sharding strategy telling the
runner how to split the experiment into independent work units.  Specs are plain data — picklable, hashable into cache keys, and
resolvable inside worker processes without shipping closures around.

Sharding strategies
-------------------
``whole``
    The experiment is one indivisible work unit (default).
``param``
    One sweep parameter (``shard_param``, a tuple such as fault
    ``intensities`` or island-map ``sizes``) is split into singleton
    sweeps, one shard per value.  Valid only when the experiment's loop
    body is RNG-independent across values — each iteration builds its
    hardware and RNG streams fresh from the experiment seed.
``users``
    One shard per simulated participant.  The spec names a per-user
    entry point, an aggregate function and ``seeds_entry``, which draws
    the per-user seeds from the experiment's master stream.
``userblocks``
    Fixed-size blocks of participants (``users_per_shard`` each), for
    population-scale studies: a million users is ~250 shards, not a
    million.  The block entry receives ``(seed, start, count)`` and
    returns a streaming aggregate; per-user state derives from
    ``(seed, user_index)`` alone, so the shard layout — and therefore
    ``--jobs`` — cannot affect the merged bytes.  FLEET uses the same
    blocks over *device* indices (``n_users_param="n_devices"``): each
    block steps one :class:`repro.core.batch.DeviceBatch`, a scalar
    engine per device.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.experiments.harness import ExperimentResult

__all__ = [
    "ExperimentSpec",
    "REGISTRY",
    "resolve_entry",
    "scaled_user_study_spec",
    "arena_spec",
]


def resolve_entry(entry: str) -> Callable:
    """Import ``"package.module:function"`` and return the function."""
    module_name, _, attr = entry.partition(":")
    if not attr:
        raise ValueError(f"entry {entry!r} is not of the form 'module:function'")
    return getattr(importlib.import_module(module_name), attr)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment id's entry point, parameters and sharding plan."""

    experiment_id: str
    entry: str
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Index into the entry's return value when it returns a tuple
    #: (e.g. ``run_fig4`` returns ``(result, calibration)``).
    result_index: int | None = None
    sharder: str = "whole"
    #: For ``param`` sharding: the swept keyword and its full value tuple.
    shard_param: str | None = None
    shard_values: Tuple[Any, ...] | None = None
    #: For ``users`` sharding.
    n_users_param: str = "n_users"
    user_entry: str | None = None
    aggregate_entry: str | None = None
    #: Params (by name) forwarded to the aggregate function.
    aggregate_params: Tuple[str, ...] = ()
    #: ``(seed, n) -> list[int]`` deriving per-user seeds; required by
    #: ``users`` sharding.
    seeds_entry: str | None = None
    #: For ``userblocks`` sharding: participants per block.
    users_per_shard: int = 4096

    def kwargs(self) -> dict:
        """The entry-point keyword arguments as a fresh dict."""
        return dict(self.params)

    def run_whole(self, seed: int) -> ExperimentResult:
        """Run the full experiment in-process, unsharded (the serial reference)."""
        outcome = resolve_entry(self.entry)(seed=seed, **self.kwargs())
        if self.result_index is not None:
            outcome = outcome[self.result_index]
        return outcome

    def cache_token(self) -> str:
        """Canonical description of everything that determines a shard.

        The block layout (``n_users_param``, ``users_per_shard``) is in
        it because a shard index names a different participant range
        under another layout.
        """
        return repr(
            (
                self.experiment_id,
                self.entry,
                tuple(sorted(self.params)),
                self.result_index,
                self.sharder,
                self.shard_param,
                self.shard_values,
                self.n_users_param,
                self.user_entry,
                self.seeds_entry,
                self.users_per_shard,
            )
        )


def _spec(*args, **kwargs) -> Tuple[str, ExperimentSpec]:
    spec = ExperimentSpec(*args, **kwargs)
    return spec.experiment_id, spec


#: Registry: experiment id -> declarative spec.  Parameter values are
#: the zero-config defaults ``repro run <id>`` runs with.
REGISTRY: Dict[str, ExperimentSpec] = dict(
    (
        _spec("FIG4", "repro.experiments.fig4:run_fig4", result_index=0),
        _spec("FIG5", "repro.experiments.fig5:run_fig5"),
        _spec(
            "SENS-ENV",
            "repro.experiments.sensor_env:run_sensor_env",
            params=(("readings_per_point", 8),),
        ),
        _spec("SENS-FOLD", "repro.experiments.foldback:run_foldback"),
        _spec(
            "MAP-ISL",
            "repro.experiments.island_mapping:run_island_mapping",
            sharder="param",
            shard_param="sizes",
            shard_values=(5, 10, 20, 40),
        ),
        _spec(
            "STUDY1",
            "repro.experiments.user_study:run_user_study",
            params=(("n_users", 8), ("n_blocks", 3), ("trials_per_block", 6)),
            sharder="users",
            user_entry="repro.experiments.user_study:run_single_user",
            aggregate_entry="repro.experiments.user_study:aggregate_user_study",
            aggregate_params=("n_blocks",),
            seeds_entry="repro.experiments.user_study:user_study_seeds",
        ),
        _spec(
            "EXT-SPEED",
            "repro.experiments.speed_comparison:run_speed_comparison",
        ),
        _spec(
            "EXT-SPEED-PROFILE",
            "repro.experiments.speed_comparison:run_distance_profile",
        ),
        _spec(
            "EXT-RANGE",
            "repro.experiments.range_sweep:run_range_sweep",
            params=(("n_trials", 6), ("n_users", 2)),
        ),
        _spec(
            "EXT-LONG",
            "repro.experiments.long_menus:run_long_menus",
            params=(
                ("menu_lengths", (10, 20, 40)),
                ("n_trials", 5),
                ("n_users", 2),
            ),
        ),
        _spec(
            "EXT-DIR",
            "repro.experiments.direction:run_direction",
            params=(("n_users", 8), ("n_trials", 8)),
        ),
        _spec("EXT-FUSION", "repro.experiments.fusion:run_fusion"),
        _spec(
            "EXT-PDA",
            "repro.experiments.pda:run_pda",
            params=(("n_trials", 6), ("n_users", 2)),
        ),
        _spec(
            "ABL-MAP",
            "repro.experiments.ablation_mapping:run_ablation_mapping",
            params=(("n_trials", 5), ("n_users", 2)),
        ),
        _spec(
            "ABL-GLOVE",
            "repro.experiments.gloves_bench:run_gloves_bench",
            params=(("n_trials", 6),),
        ),
        _spec(
            "ABL-FW",
            "repro.experiments.firmware_ablation:run_firmware_ablation",
        ),
        _spec(
            "ABL-GLOVE-STOCK",
            "repro.experiments.gloves_bench:run_stocktaking_by_glove",
            params=(("n_items", 3),),
        ),
        _spec(
            "ABL-LAYOUT",
            "repro.experiments.layouts:run_layouts",
            params=(("n_users", 5), ("n_trials", 4)),
        ),
        _spec(
            "ABL-CAL",
            "repro.experiments.calibration_ablation:run_calibration_ablation",
            params=(("n_specimens", 3), ("n_trials", 5)),
        ),
        _spec(
            "EXT-POWER",
            "repro.experiments.power:run_power",
            params=(("window_s", 45.0),),
        ),
        _spec(
            "ROB-FAULT",
            "repro.experiments.fault_sweep:run_fault_sweep",
            sharder="param",
            shard_param="intensities",
            shard_values=(0.0, 0.15, 0.35, 0.6, 0.85),
        ),
        _spec(
            "EXT-BREADTH",
            "repro.experiments.breadth:run_breadth",
            params=(("n_tasks", 4), ("n_users", 2)),
        ),
        _spec(
            "FLEET",
            "repro.experiments.fleet:run_fleet",
            params=(
                ("n_devices", 512),
                ("duration_s", 2.0),
                ("personas", "full"),
                ("fault_every", 8),
            ),
            sharder="userblocks",
            n_users_param="n_devices",
            user_entry="repro.experiments.fleet:run_device_block",
            aggregate_entry="repro.experiments.fleet:finalize_fleet",
            aggregate_params=(
                "n_devices",
                "duration_s",
                "personas",
                "fault_every",
            ),
            users_per_shard=128,
        ),
        _spec(
            "ARENA",
            "repro.experiments.arena:run_arena",
            params=(
                ("n_users", 16),
                ("personas", "full"),
                ("battery", "scrolltest"),
                ("fault_every", 4),
            ),
            sharder="userblocks",
            user_entry="repro.experiments.arena:run_arena_block",
            aggregate_entry="repro.experiments.arena:finalize_arena",
            aggregate_params=(
                "n_users",
                "personas",
                "battery",
                "fault_every",
            ),
            users_per_shard=4,
        ),
    )
)


def scaled_user_study_spec(
    n_users: int,
    personas: str = "full",
    battery: str = "scrolltest",
    users_per_shard: int = 4096,
) -> ExperimentSpec:
    """A dynamic STUDY1 spec for ``repro run STUDY1 --users N``.

    Not in :data:`REGISTRY` (the population size is a CLI decision);
    pass it to :func:`repro.runner.pool.run_experiments` via
    ``overrides``.  The spec is plain frozen data, so workers receive
    it by pickle exactly like registry specs.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if users_per_shard < 1:
        raise ValueError("users_per_shard must be >= 1")
    return ExperimentSpec(
        experiment_id="STUDY1",
        entry="repro.experiments.user_study:run_scaled_user_study",
        params=(
            ("n_users", n_users),
            ("personas", personas),
            ("battery", battery),
        ),
        sharder="userblocks",
        user_entry="repro.experiments.user_study:run_user_block",
        aggregate_entry="repro.experiments.user_study:finalize_scaled_study",
        aggregate_params=("n_users", "personas", "battery"),
        users_per_shard=users_per_shard,
    )


def arena_spec(
    n_users: int,
    personas: str = "full",
    battery: str = "scrolltest",
    users_per_shard: int = 4,
    fault_every: int = 4,
) -> ExperimentSpec:
    """A dynamic ARENA spec for ``repro run ARENA --users N``.

    Like :func:`scaled_user_study_spec`, this lives outside
    :data:`REGISTRY` (the population size, persona spec and battery are
    CLI decisions) and is passed to the runner via ``overrides``.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if users_per_shard < 1:
        raise ValueError("users_per_shard must be >= 1")
    return ExperimentSpec(
        experiment_id="ARENA",
        entry="repro.experiments.arena:run_arena",
        params=(
            ("n_users", n_users),
            ("personas", personas),
            ("battery", battery),
            ("fault_every", fault_every),
        ),
        sharder="userblocks",
        user_entry="repro.experiments.arena:run_arena_block",
        aggregate_entry="repro.experiments.arena:finalize_arena",
        aggregate_params=("n_users", "personas", "battery", "fault_every"),
        users_per_shard=users_per_shard,
    )

