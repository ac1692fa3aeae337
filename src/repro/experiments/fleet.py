"""FLEET — a heterogeneous device fleet, one scalar engine per device.

The population study made a million *analytic* users cheap; this
experiment runs a fleet of full signal-chain devices — per-device sensor
specimens, surfaces, ambient light, filter windows, island maps, fault
schedules — as blocks of :class:`repro.core.batch.ScalarDeviceEngine`
(:class:`repro.core.batch.DeviceBatch`), each block stepped by one
kernel :class:`~repro.sim.kernel.PeriodicTask`.

Shard discipline mirrors the ``userblocks`` study: every device's spec
and RNG streams derive from ``(seed, device_index)`` alone
(:func:`repro.core.batch.derive_device_spec`), so any block partition of
the same fleet produces identical per-device rows and the ``userblocks``
sharder keeps ``--jobs 1 == --jobs N`` byte-identical.  The summary table
additionally carries a digest over every per-device row, so a shard
layout bug cannot hide behind aggregation.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.core.batch import DeviceBatch, derive_device_spec
from repro.experiments.harness import ExperimentResult
from repro.interaction.personas import parse_spec
from repro.sim.kernel import PeriodicTask, Simulator

__all__ = [
    "run_device_block",
    "finalize_fleet",
    "run_fleet",
    "TICK_HZ",
]

#: Firmware main-loop rate a fleet device models (matches the full
#: device's 50 Hz tick).
TICK_HZ = 50.0


def run_device_block(
    seed: int,
    start: int,
    count: int,
    duration_s: float = 2.0,
    personas: str = "full",
    fault_every: int = 8,
) -> list[tuple]:
    """Simulate devices ``[start, start+count)`` for ``duration_s``.

    The fleet shard unit: a fresh kernel drives one
    :class:`~repro.core.batch.DeviceBatch` via a single
    :class:`~repro.sim.kernel.PeriodicTask`, so the whole block is one
    event per tick no matter how many devices it holds.  Fault schedules
    land on every ``fault_every``-th *absolute* device index, keeping
    the assignment independent of the block layout.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    spec = parse_spec(personas)
    specs = [
        derive_device_spec(
            seed,
            index,
            personas=spec,
            fault_every=fault_every,
            duration_hint_s=duration_s,
        )
        for index in range(start, start + count)
    ]
    batch = DeviceBatch(specs, seed=seed)
    sim = Simulator(seed=seed)
    task = PeriodicTask(sim, 1.0 / TICK_HZ, lambda: batch.step(sim.now))
    sim.run_while(lambda: True, max_time=duration_s)
    task.stop()
    return batch.result_rows()


def _fleet_digest(rows: Sequence[tuple]) -> str:
    """Order-sensitive digest over every per-device row."""
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(repr(row).encode())
    return hasher.hexdigest()[:16]


def finalize_fleet(
    blocks: list[list[tuple]],
    n_devices: int,
    duration_s: float = 2.0,
    personas: str = "full",
    fault_every: int = 8,
) -> ExperimentResult:
    """Merge per-block device rows into the per-surface fleet table.

    The table aggregates by sensing surface (the axis the paper cares
    about: clothing reflectivity drives corruption); the notes carry the
    fleet-wide fault stats and a digest over all per-device rows so two
    runs agree iff every device agrees.
    """
    rows = [row for block in blocks for row in block]
    if len(rows) != n_devices:
        raise ValueError(
            f"blocks cover {len(rows)} devices, expected {n_devices}"
        )
    result = ExperimentResult(
        experiment_id="FLEET",
        title=(
            f"Device fleet: {n_devices} devices x {duration_s} s "
            f"({personas} personas)"
        ),
        columns=(
            "surface",
            "devices",
            "measurements",
            "corrupted",
            "foldback_latches",
            "rejections",
            "confirmations",
            "highlight_moves",
        ),
    )
    by_surface: dict[str, list[int]] = {}
    for row in rows:
        surface = row[3]
        totals = by_surface.setdefault(surface, [0] * 7)
        totals[0] += 1
        for offset in range(6):
            totals[1 + offset] += row[10 + offset]
    for surface in sorted(by_surface):
        result.add_row(surface, *by_surface[surface])
    faulted = sum(1 for row in rows if row[9] > 0)
    # reprolint: allow REP007 (row[10] is an integer tick count — integer sums are exact)
    ticks = sum(row[10] for row in rows)
    result.note(
        f"{faulted}/{n_devices} devices ran scheduled fault windows "
        f"(fault_every={fault_every}); {ticks} device-measurements total"
    )
    result.note(f"per-device row digest: {_fleet_digest(rows)}")
    result.note(
        "one repro.core.batch.ScalarDeviceEngine per device, each block "
        "of devices stepped by one kernel event per tick"
    )
    return result


def run_fleet(
    seed: int = 0,
    n_devices: int = 512,
    duration_s: float = 2.0,
    personas: str = "full",
    fault_every: int = 8,
    devices_per_shard: int = 128,
) -> ExperimentResult:
    """Serial driver of the fleet experiment (the ``--jobs 1`` path).

    Walks the identical block decomposition the ``userblocks`` sharder
    uses and concatenates block rows in order, so serial and parallel
    runs are byte-identical by construction.
    """
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    if devices_per_shard < 1:
        raise ValueError("devices_per_shard must be >= 1")
    blocks = [
        run_device_block(
            seed,
            start,
            min(devices_per_shard, n_devices - start),
            duration_s=duration_s,
            personas=personas,
            fault_every=fault_every,
        )
        for start in range(0, n_devices, devices_per_shard)
    ]
    return finalize_fleet(
        blocks,
        n_devices,
        duration_s=duration_s,
        personas=personas,
        fault_every=fault_every,
    )
