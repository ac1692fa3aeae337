"""Experiment notes state what their own seed-0 tables show.

The pins cover CSV bytes only, and a note sits outside them, so each
note that summarizes its table is computed from the table's rows.  These
tests read the session's seed-0 registry pass (``registry_results``) and
check every such note against the rows it annotates.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def table(registry_results):
    def get(experiment_id):
        result = registry_results[experiment_id]
        (note,) = [n for n in result.notes if not n.startswith("fitts ")]
        return result.rows, note

    return get


def test_speed_profile_note(table):
    rows, note = table("EXT-SPEED-PROFILE")
    means = {(tech, distance): mean for tech, distance, mean, _ in rows}
    dist = {d: m for (t, d), m in means.items() if t == "distscroll"}
    ahead = [d for d in dist if dist[d] < means[("buttons", d)]]
    assert ahead == [15, 23]
    assert note.endswith(
        "distscroll is faster than buttons at distance 15, 23"
    )
    # Not near-flat: distscroll grows from distance 1 to 23.
    assert f"distscroll {dist[1]:.3g} s at distance 1 -> {dist[23]:.3g} s" in note
    assert dist[7] > 1.5 * dist[3]
    assert "near-flat" not in note


def test_pda_note(table):
    rows, note = table("EXT-PDA")
    by_variant = {row[0]: row for row in rows}
    assert by_variant["pda-addon"][2] < by_variant["handheld"][2]
    assert note.startswith("the pda-addon selects faster")
    assert "match" not in note
    ratio = by_variant["pda-addon"][4] / by_variant["handheld"][4]
    assert ratio > 2.0 and f"({ratio:.2g}x)" in note


def test_layouts_note(table):
    rows, note = table("ABL-LAYOUT")
    bare = {row[0]: row[4] for row in rows if row[1] == "none"}
    assert bare["single-large-button"] > bare["prototype-3-button"] > 0.0
    assert "none: left-handed penalty" in note
    assert "(largest: single-large-button)" in note
    assert "hand-neutral" not in note
    arctic_misses = {row[0]: row[3] for row in rows if row[1] == "arctic"}
    assert min(arctic_misses, key=arctic_misses.get) == "single-large-button"
    assert note.endswith("fewest button misses single-large-button (0.05 per trial)")


def test_stocktaking_note(table):
    rows, note = table("ABL-GLOVE-STOCK")
    slowest = min(rows, key=lambda row: row[1])
    assert slowest[0] == "latex"  # not the thickest mittens
    assert note.startswith(f"slowest: latex at {slowest[1]:.3g} items/min")
    assert sum(row[3] for row in rows) == 0
    assert note.endswith("0 wrong activations across all gloves")


def test_speed_fitts_note(registry_results):
    result = registry_results["EXT-SPEED"]
    (fit,) = [n for n in result.notes if n.startswith("fitts distscroll:")]
    (note,) = [n for n in result.notes if n.startswith("paper §7:")]
    assert fit.endswith("b=0.3498 s/bit, r2=0.1275, n=40")
    assert "positive slope (b=0.3498 s/bit)" in note
    assert "ID explains 13% of the variance (r2=0.1275)" in note
    assert "chunk paging" in note
    assert "reliably" not in note
