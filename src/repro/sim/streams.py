"""Canonical registry of ``SeedSequence`` spawn-key stream domains, and
:func:`stream_rng`, the one primitive that derives their streams: the
generator of ``SeedSequence(entropy=seed, spawn_key=(DOMAIN, *key))``,
bit for bit, from a pool cached per ``(seed, DOMAIN)``.

Every module that derives dedicated RNG streams with an explicit
``SeedSequence(entropy, spawn_key=(DOMAIN, ...))`` tuple declares its
domain tag here, once.  The first element of a spawn key is a namespace:
two modules that pick the same tag and overlapping trailing elements
silently share bit streams, which couples experiments that must be
independent (the fleet devices' per-device streams sit next to the
persona engine's per-user streams, and a shared tag would couple them).

The reprolint rule ``REP006`` (:mod:`repro.devtools.rules.rngstreams`)
enforces the convention project-wide: a spawn-key tuple whose first
element (or a :func:`stream_rng`/:func:`stream_state` call whose
``domain`` argument) is a bare literal, or a constant not declared in
this module, is a lint error, and two registered domains with the same
value are flagged as a collision.

Adding a domain is two lines: declare an upper-case module-level
constant with an integer literal value, add it to
:data:`STREAM_DOMAINS`.  The linter recognises *every* upper-case
integer constant defined in this module as a declared domain (so the
registry stays consumable by pure-AST tooling), and cross-checks that
the values are pairwise distinct.

Deriving a stream
-----------------
:func:`stream_rng` returns exactly the generator numpy builds as
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(DOMAIN,
*key))))``, and :func:`stream_state` the four ``uint64`` words that
``SeedSequence`` hands ``PCG64`` (``generate_state(4, np.uint64)``).
They replay numpy's documented ``SeedSequence`` mixing in Python ints:
the pool after the seed and the domain word is cached per ``(seed,
DOMAIN)`` (:func:`_prefix`), so a call mixes only the trailing key
words and hashes the pool out.  ``PCG64`` is then seeded from those
words through an :class:`~numpy.random.bit_generator.ISeedSequence`.
Every caller that derives a keyed stream goes through these two
functions; ``SeedSequence(..., spawn_key=...)`` appears nowhere else in
program code.  The per-call work is Python-int arithmetic, so
:func:`_derive` keeps it unrolled and in locals.

A seed, domain or key element that is not a non-negative ``int`` takes
numpy's own ``SeedSequence`` path, so it raises numpy's ``ValueError``
or ``TypeError`` (or derives numpy's stream for the ``np.integer`` and
other inputs numpy accepts).

Drawing in blocks
-----------------
The batch rule: one call of ``n`` same-kind draws gives the values and
the generator end state of ``n`` scalar calls, because numpy fills the
array with exactly the draws the scalar calls would make, in order.  A
caller that knows its count up front makes the one call
(``simulate_user_fast``, ``MotorProfile.sample``,
:func:`~repro.analysis.stats.bootstrap_ci`).  A component that draws one
value per event cannot know its count, but if it owns its generator
outright and draws one kind from it, drawing ahead is unobservable:
:class:`BlockStream` serves such a generator's scalar ``standard_normal()``
or ``random()`` calls from blocks.  The component's code keeps its one
scalar call site.  Whoever creates the generator decides whether it
is private (the DistScroll board's ADC and I2C streams are) and wraps
it; a generator that anything else also draws from must stay scalar,
or the block would take draws meant for the other consumer.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt
    from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "PERSONA_STREAM",
    "TRIAL_STREAM",
    "BATCH_STREAM",
    "ARENA_STREAM",
    "STREAM_DOMAINS",
    "is_registered_domain",
    "BlockStream",
    "stream_rng",
    "stream_state",
]

#: Per-user persona derivation (`repro.interaction.personas`): one
#: child stream per simulated participant.
PERSONA_STREAM = 0x9E37

#: Per-user trial noise (`repro.interaction.personas`): endpoint noise,
#: glove slips and paging jitter for one participant's task battery.
TRIAL_STREAM = 0x79B9

#: Per-device streams of FLEET's device model (`repro.core.batch`):
#: spec/specimen/corruption/noise/ADC/glitch sub-streams, one family per
#: fleet index.
BATCH_STREAM = 0xBA7C

#: Per-(user, technique) trial streams of the technique arena
#: (`repro.experiments.arena`): participant ``u`` running technique
#: ``t`` (index in the canonical roster) draws every trial from
#: ``(seed, ARENA_STREAM, u, t)``, so dropping techniques from a run
#: never perturbs the remaining techniques' bits and any block
#: partition of the population merges byte-identically.
ARENA_STREAM = 0xA12A

#: Every declared domain tag, value -> constant name.  ``repro lint``
#: (REP006) rejects spawn-key tuples whose first element is not one of
#: these constants, and rejects duplicate values.
STREAM_DOMAINS: dict[int, str] = {
    PERSONA_STREAM: "PERSONA_STREAM",
    TRIAL_STREAM: "TRIAL_STREAM",
    BATCH_STREAM: "BATCH_STREAM",
    ARENA_STREAM: "ARENA_STREAM",
}


def is_registered_domain(value: int) -> bool:
    """Whether ``value`` is a declared spawn-key stream domain."""
    return value in STREAM_DOMAINS


# ---------------------------------------------------------------------------
# stream derivation: numpy's SeedSequence mixing, cached per (seed, domain)
# ---------------------------------------------------------------------------
_MASK32 = 0xFFFFFFFF
#: ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _output_constants() -> tuple[tuple[int, int], ...]:
    """``(xor, multiplier)`` of each word ``generate_state`` hashes out.

    The output hash constant depends only on the word's position, so
    the eight of ``generate_state(4, np.uint64)`` are fixed.
    """
    constants = []
    hash_const = _INIT_B
    for _word in range(8):
        xor = hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        constants.append((xor, hash_const))
    return tuple(constants)


(
    (_X0, _M0), (_X1, _M1), (_X2, _M2), (_X3, _M3),
    (_X4, _M4), (_X5, _M5), (_X6, _M6), (_X7, _M7),
) = _output_constants()


def _words(value: int) -> list[int]:
    """``value``'s little-endian ``uint32`` words; ``[0]`` for zero."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """numpy's ``hashmix``: the mixed word and the next hash constant."""
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    """numpy's ``mix`` of a pool word ``x`` with a hashed word ``y``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


@lru_cache(maxsize=1024)
def _prefix(seed: int, domain: int) -> tuple[int, int, int, int, int]:
    """The pool and hash constant once ``seed`` and ``domain`` are mixed.

    ``SeedSequence`` pads the seed's words with zeros to the pool size
    when a spawn key is present, so the first four words always come
    from the seed and the domain word is always mixed in after the
    pool's cross-mix: the state here is a prefix every key of ``(seed,
    domain)`` shares.  Returns ``(p0, p1, p2, p3, hash_const)``.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += _words(domain)
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    return pool[0], pool[1], pool[2], pool[3], hash_const


def stream_state(seed: int, domain: int, *key: int) -> tuple[int, int, int, int]:
    """``generate_state(4, np.uint64)`` of the keyed ``SeedSequence``.

    Equal to ``SeedSequence(entropy=seed, spawn_key=(domain,
    *key)).generate_state(4, np.uint64)`` as four Python ints.  Its
    low 32 bits of word 0 are ``generate_state(1, np.uint32)[0]``.
    """
    return _derive(seed, domain, key)


def _derive(
    seed: int, domain: int, key: tuple[int, ...]
) -> tuple[int, int, int, int]:
    """:func:`stream_state` with the key as one tuple."""
    if type(seed) is not int or type(domain) is not int or seed < 0 or domain < 0:
        return _numpy_state(seed, domain, key)
    p0, p1, p2, p3, h = _prefix(seed, domain)
    mult_a = _MULT_A
    mask = _MASK32
    left = _MIX_MULT_L
    right = _MIX_MULT_R
    for element in key:
        if type(element) is not int or element < 0:
            return _numpy_state(seed, domain, key)
        while True:
            # One entropy word mixed into each pool word (numpy's
            # remaining-entropy loop), the hash constant advancing per
            # pool word as ``hashmix`` advances it.
            word = element & mask
            v = word ^ h
            h = (h * mult_a) & mask
            v = (v * h) & mask
            r = (left * p0 - right * (v ^ (v >> 16))) & mask
            p0 = r ^ (r >> 16)
            v = word ^ h
            h = (h * mult_a) & mask
            v = (v * h) & mask
            r = (left * p1 - right * (v ^ (v >> 16))) & mask
            p1 = r ^ (r >> 16)
            v = word ^ h
            h = (h * mult_a) & mask
            v = (v * h) & mask
            r = (left * p2 - right * (v ^ (v >> 16))) & mask
            p2 = r ^ (r >> 16)
            v = word ^ h
            h = (h * mult_a) & mask
            v = (v * h) & mask
            r = (left * p3 - right * (v ^ (v >> 16))) & mask
            p3 = r ^ (r >> 16)
            element >>= 32
            if not element:
                break
    w0 = ((p0 ^ _X0) * _M0) & mask
    w1 = ((p1 ^ _X1) * _M1) & mask
    w2 = ((p2 ^ _X2) * _M2) & mask
    w3 = ((p3 ^ _X3) * _M3) & mask
    w4 = ((p0 ^ _X4) * _M4) & mask
    w5 = ((p1 ^ _X5) * _M5) & mask
    w6 = ((p2 ^ _X6) * _M6) & mask
    w7 = ((p3 ^ _X7) * _M7) & mask
    return (
        (w0 ^ (w0 >> 16)) | (w1 ^ (w1 >> 16)) << 32,
        (w2 ^ (w2 >> 16)) | (w3 ^ (w3 >> 16)) << 32,
        (w4 ^ (w4 >> 16)) | (w5 ^ (w5 >> 16)) << 32,
        (w6 ^ (w6 >> 16)) | (w7 ^ (w7 >> 16)) << 32,
    )


def _numpy_state(
    seed: Any, domain: Any, key: tuple[Any, ...]
) -> tuple[int, int, int, int]:
    """numpy's own derivation, for inputs the fast path does not take.

    Raises numpy's ``ValueError``/``TypeError`` for a negative or
    non-integer seed or key element.
    """
    # reprolint: allow REP006 (the primitive itself: its domain is an argument)
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))
    state = sequence.generate_state(4, np.uint64)
    return int(state[0]), int(state[1]), int(state[2]), int(state[3])


@lru_cache(maxsize=None)
def _fixed_state() -> Callable[[tuple[int, int, int, int]], ISeedSequence]:
    """The ``ISeedSequence`` that hands ``PCG64`` four precomputed words.

    Built on first use: numpy imports ``numpy.random`` lazily, and
    importing it with this registry would add its ~20 ms to every
    import of the package, not only to runs that draw.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        __slots__ = ("_state",)
        _state: npt.NDArray[np.uint64]

        def __init__(self, state: tuple[int, int, int, int]) -> None:
            self._state = np.array(state, dtype=np.uint64)

        def generate_state(
            self, n_words: int, dtype: Any = np.uint32
        ) -> npt.NDArray[np.uint64]:
            # ``PCG64`` asks for exactly ``(4, np.uint64)``.
            return self._state

    return FixedState


def stream_rng(seed: int, domain: int, *key: int) -> np.random.Generator:
    """The generator of ``SeedSequence(entropy=seed, spawn_key=(domain,
    *key))``, mixing only ``key``'s words per call.

    Bit-identical to ``np.random.Generator(np.random.PCG64(
    np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))))``
    at about half its cost: ``domain`` is a registered constant of this
    module (REP006 checks each call site), ``key`` its trailing
    elements.
    """
    words = _fixed_state()(_derive(seed, domain, key))
    # numpy's stub narrows ``seed`` to ``SeedSequence``; ``BitGenerator``
    # takes any ``ISeedSequence`` at run time.
    return np.random.Generator(np.random.PCG64(words))  # type: ignore[arg-type]



class BlockStream:
    """One kind of a private generator's scalar draws, served from blocks.

    ``kind`` is ``"standard_normal"`` or ``"random"``.  That method
    returns, call by call, the Python floats the wrapped generator's own
    scalar method would, at a fraction of numpy's per-call cost: each
    call takes the next value of a ``kind(BLOCK_DRAWS)`` block, drawn
    when the previous one runs out.  The generator runs up to one block
    ahead of the draws served, so wrap only a generator nothing else
    draws from (see "Drawing in blocks" above).  Blocks of one kind
    would skip the draws another kind makes between them, so the other
    method raises ``ValueError``.
    """

    __slots__ = ("kind", "standard_normal", "random")

    #: Draws per block: big enough that numpy's per-call cost vanishes,
    #: small enough that a short device life wastes little.  A class
    #: attribute, because every upper-case integer constant at module
    #: level here is read as a stream domain (REP006).
    BLOCK_DRAWS = 256

    standard_normal: Callable[[], float]
    random: Callable[[], float]

    def __init__(self, rng: np.random.Generator, kind: str) -> None:
        if kind not in ("standard_normal", "random"):
            raise ValueError(
                f"kind must be 'standard_normal' or 'random', got {kind!r}"
            )
        self.kind = kind
        draw: Callable[[int], npt.NDArray[np.float64]] = getattr(rng, kind)
        # ``chain`` asks for a block only when the previous one is used
        # up, so the first block is drawn by the first call.
        served = chain.from_iterable(
            draw(self.BLOCK_DRAWS).tolist() for _ in repeat(None)
        ).__next__
        self.standard_normal = served if kind == "standard_normal" else self._refuse
        self.random = served if kind == "random" else self._refuse

    def _refuse(self) -> float:
        raise ValueError(
            f"this BlockStream serves {self.kind}() draws only; a block "
            "of them would skip the draws another kind makes in between"
        )
