"""What the ROB-FAULT artifact must mean, checked on a live seed-0 run.

``test_experiment_pins`` pins the bytes of every registered experiment's
CSV, so any drift in the fault model or RNG stream already fails there.
This test states the facts those bytes have to carry: the header, the
zero-intensity row being fault-free, an error rate that never falls as
intensity rises, and every injected fault paired with a recovery.  A
deliberate re-pin must keep them true.
"""

from __future__ import annotations

import csv
import io

from repro.experiments.fault_sweep import run_fault_sweep


def test_rob_fault_csv_schema_pinned():
    result = run_fault_sweep(seed=0)
    reader = csv.reader(io.StringIO(result.csv_bytes().decode()))
    header = next(reader)
    rows = [[float(cell) for cell in row] for row in reader if row]
    assert header == [
        "intensity",
        "trials",
        "errors",
        "error_rate",
        "fault_windows",
        "faults_injected",
        "recoveries",
        "unpaired_faults",
    ]
    baseline = rows[0]
    assert baseline[0] == 0.0  # intensity
    assert baseline[4] == 0.0  # fault_windows
    assert baseline[5] == 0.0  # faults_injected
    rates = [row[3] for row in rows]
    # Healthy hardware selects reliably; the error rate never decreases
    # as fault intensity rises, and full intensity visibly degrades it.
    assert rates[0] <= 0.10
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    assert rates[-1] > rates[0]
    assert all(row[7] == 0.0 for row in rows)  # unpaired_faults
