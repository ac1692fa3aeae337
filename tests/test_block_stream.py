"""``BlockStream`` serves a private generator's scalar draws from blocks.

Each served kind must return the wrapped generator's own scalar draws,
value for value, across block boundaries; the other kind must raise.
The DistScroll board and the PDA add-on wrap their ADC and I2C streams;
Point n Move and the pressure pad hand their ADC the participant's
shared generator, which other draws interleave with, so it stays a bare
``Generator``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ALL_TECHNIQUES
from repro.core.menu import build_menu
from repro.hardware.adc import ADC
from repro.hardware.board import build_distscroll_board
from repro.hardware.i2c import I2CBus
from repro.hardware.pda import build_pda_device
from repro.sim.kernel import Simulator
from repro.sim.streams import BlockStream

KINDS = ("standard_normal", "random")
BLOCK_DRAWS = BlockStream.BLOCK_DRAWS
#: Past the second block boundary, and not on a boundary.
N_DRAWS = 2 * BLOCK_DRAWS + 37


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 99, 2**40 + 3])
def test_values_equal_the_scalar_draws(kind, seed):
    scalar = getattr(np.random.default_rng(seed), kind)
    served = getattr(BlockStream(np.random.default_rng(seed), kind), kind)
    expected = [scalar() for _ in range(N_DRAWS)]
    got = [served() for _ in range(N_DRAWS)]
    assert got == expected
    assert all(type(value) is float for value in got)


@pytest.mark.parametrize("kind", KINDS)
def test_the_other_kind_raises(kind):
    server = BlockStream(np.random.default_rng(4), kind)
    other = KINDS[1 - KINDS.index(kind)]
    with pytest.raises(ValueError, match=f"serves {kind}"):
        getattr(server, other)()
    getattr(server, kind)()
    for _ in range(2):
        with pytest.raises(ValueError, match=f"serves {kind}"):
            getattr(server, other)()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind must be"):
        BlockStream(np.random.default_rng(0), "integers")


def test_first_block_is_drawn_by_the_first_call():
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    server = BlockStream(rng, "random")
    assert rng.bit_generator.state == before
    server.random()
    reference = np.random.default_rng(8)
    reference.random(BLOCK_DRAWS)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_adc_codes_equal_through_a_server():
    bare = ADC(rng=np.random.default_rng(21))
    served = ADC(rng=BlockStream(np.random.default_rng(21), "standard_normal"))
    for adc in (bare, served):
        adc.attach(0, lambda t: 1.0 + 0.5 * t)
    times = [i * 0.001 for i in range(N_DRAWS)]
    assert [served.sample(t, 0) for t in times] == [
        bare.sample(t, 0) for t in times
    ]


class _Sink:
    def i2c_write(self, payload: bytes) -> None:
        pass


def test_i2c_retries_equal_through_a_server():
    bare = I2CBus(error_rate=0.3, rng=np.random.default_rng(5), max_retries=99)
    served = I2CBus(
        error_rate=0.3,
        rng=BlockStream(np.random.default_rng(5), "random"),
        max_retries=99,
    )
    for bus in (bare, served):
        bus.attach(0x20, _Sink())
    writes = 2 * BLOCK_DRAWS
    assert [served.write(0x20, b"x").retries for _ in range(writes)] == [
        bare.write(0x20, b"x").retries for _ in range(writes)
    ]


def test_the_board_serves_its_private_streams_from_blocks():
    board = build_distscroll_board(Simulator(seed=3))
    assert isinstance(board.adc.rng, BlockStream)
    assert board.adc.rng.kind == "standard_normal"
    assert isinstance(board.i2c._rng, BlockStream)
    assert board.i2c._rng.kind == "random"
    quiet = build_distscroll_board(Simulator(seed=3), noisy=False)
    assert quiet.adc.rng is None and quiet.i2c._rng is None


def test_the_pda_addon_serves_its_adc_noise_from_blocks():
    _, addon, _ = build_pda_device(build_menu(["a", "b", "c"]), seed=2)
    assert isinstance(addon.adc.rng, BlockStream)
    assert addon.adc.rng.kind == "standard_normal"


@pytest.mark.parametrize("key", ["pointnmove", "pressurepad"])
def test_shared_participant_generator_stays_scalar(key):
    rng = np.random.default_rng(17)
    technique = ALL_TECHNIQUES[key](rng=rng)
    assert technique._adc.rng is rng
    assert type(technique._adc.rng) is np.random.Generator
