#!/usr/bin/env python
"""The altitude-control game of Section 5.2, rendered in ASCII.

An aircraft sits on the left of the 96x40 top display; moving the
DistScroll towards/away from the body flies it up and down through
obstacles (#) and collectibles (o).  The thumb button fires, the other
buttons change speed.  A simulated pilot hand plays a short session and
the final frames are rendered to the terminal.

Run:  python examples/altitude_game.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.game import AltitudeGame, GameConfig
from repro.hardware.board import build_distscroll_board
from repro.interaction.hand import Hand
from repro.sim.kernel import Simulator


def render(board, game) -> str:
    """Downsample the 96x40 framebuffer to an 48x10 terminal view."""
    frame = board.display_top.framebuffer
    rows = []
    for r in range(0, 40, 4):
        row = []
        for c in range(0, 96, 2):
            block = frame[r : r + 4, c : c + 2]
            row.append("#" if block.any() else " ")
        rows.append("".join(row))
    return "\n".join("|" + row + "|" for row in rows)


def main() -> None:
    sim = Simulator(seed=2025)
    board = build_distscroll_board(sim)
    game = AltitudeGame(board, config=GameConfig(obstacle_rate_hz=2.0))
    rng = np.random.default_rng(1)
    hand = Hand(
        sim,
        board.set_distance,
        start_cm=16.0,
        rng=sim.spawn_rng(),
    )

    print("Altitude game (Section 5.2) — a simulated pilot plays 20 s")
    print("==========================================================")

    from repro.apps.game import ReactivePilot

    pilot = ReactivePilot(game, hand, rng)
    for second in range(20):
        sim.run_until(sim.now + 1.0)
        if second % 4 == 3:
            print(f"\nt={sim.now:4.1f}s  score={game.state.score}  "
                  f"hits={game.state.collisions}/3  "
                  f"collected={game.state.collected}")
            print(render(board, game))

    state = game.state
    print("\nFinal score sheet")
    print(f"  score: {state.score}")
    print(f"  obstacles dodged/destroyed: "
          f"{state.score - 5 * state.collected + 3 * state.collisions}")
    print(f"  collectibles: {state.collected}")
    print(f"  shots fired: {state.shots_fired}")
    print(f"  collisions: {state.collisions} -> "
          f"{'GAME OVER' if state.game_over else 'survived'}")
    print("\nBottom display:")
    for line in board.display_bottom.lines:
        print(f"  |{line:<16}|")


if __name__ == "__main__":
    main()
