"""Statistics helpers shared by experiments and benchmarks.

Two layers live in :mod:`repro.analysis.stats`: the classic batch
helpers (``summarize``, ``bootstrap_ci``, ``linear_regression``) and
the streaming aggregates (``StreamingMoments``, ``QuantileSketch``,
``CellCounter``) that give the population-scale user studies
O(1)-memory, exactly-mergeable statistics.
"""
