"""REP002 — randomness only through seeded numpy ``Generator`` streams.

Determinism (and shard-order independence in the parallel runner) holds
because every random draw descends from an explicit seed: components
receive a ``numpy.random.Generator`` (or spawn one from a
``SeedSequence``), never reach for ambient global state.  Both the
stdlib ``random`` module and numpy's legacy global functions
(``np.random.rand``, ``np.random.seed``, ...) are process-global: a
single call anywhere couples unrelated experiments' streams and makes
``--jobs N`` results depend on worker scheduling.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Rule, attribute_chain

__all__ = ["SeededRngOnlyRule"]

#: Legacy global-state members of ``numpy.random``.  Everything needed
#: for seeded streams (``default_rng``, ``Generator``, ``SeedSequence``,
#: bit generators) is absent from this set on purpose.
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "poisson",
        "exponential",
        "binomial",
        "beta",
        "gamma",
        "lognormal",
        "RandomState",
    }
)


class SeededRngOnlyRule(Rule):
    """Flag stdlib ``random`` and legacy ``numpy.random`` global state."""

    rule_id = "REP002"
    title = "randomness must flow from a passed-in Generator/SeedSequence"
    rationale = (
        "stdlib `random` and legacy `numpy.random` globals are"
        " process-wide state: one call anywhere couples unrelated"
        " experiments' streams and makes `--jobs N` results depend on"
        " worker scheduling.  Every draw must descend from an explicit"
        " seed via a passed-in `numpy.random.Generator`."
    )
    example = "values = np.random.rand(32)  # legacy global stream"
    escape_hatch = (
        "Take a `numpy.random.Generator` (or spawn one from a"
        " `SeedSequence`) from the caller instead; a deliberate exception"
        " takes `# reprolint: allow REP002 (reason)` on the flagged line."
    )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "stdlib `random` is process-global state: accept a"
                    " `numpy.random.Generator` parameter (or spawn one"
                    " via `Simulator.spawn_rng()`) instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self.report(
                node,
                "stdlib `random` is process-global state: accept a"
                " `numpy.random.Generator` parameter instead",
            )
        elif node.module in ("numpy.random", "np.random"):
            for alias in node.names:
                if alias.name in _LEGACY_NP_RANDOM:
                    self.report(
                        node,
                        f"legacy `numpy.random.{alias.name}` uses the global"
                        " stream; use `default_rng`/`SeedSequence` and pass"
                        " the Generator down",
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = attribute_chain(node)
        if (
            len(chain) >= 3
            and chain[-3] in ("np", "numpy")
            and chain[-2] == "random"
            and chain[-1] in _LEGACY_NP_RANDOM
        ):
            self.report(
                node,
                f"legacy `{'.'.join(chain)}` draws from numpy's global"
                " stream; use `default_rng(seed)`/`SeedSequence` and pass"
                " the Generator down",
            )
        self.generic_visit(node)
