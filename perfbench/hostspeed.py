"""A fixed probe of how fast the host runs right now, to scale the benchmark's times.

The host's speed drifts over minutes (by 40% within 12 minutes while this
benchmark was tuned), and every workload drifts with it. Timing a fixed
piece of work between the operations of a run, and scaling the run's times
by REFERENCE_MS / (the probe's median), takes most of that common drift
out. The probe moves more with the host than the workloads do, so the
scaling over-corrects in fast and slow spells (README.md). The probe never
touches pointfam, so a change to the program moves the scaled times by the
same share as the raw ones.

The probe does the kinds of work pointfam does in process: scalar complex
arithmetic in a Python loop, numpy arithmetic on arrays of a few MB, writing
floats as text and reading them back, and JSON. It serves the in-process
workloads only: it did not follow the drift of fresh pointfam processes
(see README.md).
"""

from __future__ import annotations

import cmath
import json
import time

# Scaled times read as on a host where the probe takes this long; its median
# was 75-85 ms per run on the 2-vCPU x86-64 VM of README.md.
REFERENCE_MS = 90.0
# After each operation, probe for at least this share of the operation's time.
SHARE = 0.1

_ARRAY_SIZE = 250_000
_TEXT_ROWS = 8_000


def probe() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    import numpy as np  # loaded by pointfam already; never imported before a timed set-up

    start = time.perf_counter()
    acc = 0j
    for i in range(25_000):
        k = 0.1 + i * 1e-5
        z = cmath.exp(1j * k) / (1.0 + 0.5j * k)
        acc += z * z.conjugate()
    a = np.linspace(0.0, 1.0, _ARRAY_SIZE)
    total = float((np.sin(a) * np.exp(-a) + np.sqrt(a + 1.0)).sum())
    text = "\n".join(f"{x!r},{x * x!r}" for x in a[:_TEXT_ROWS].tolist())
    total += sum(float(cell) for line in text.splitlines() for cell in line.split(","))
    rows = json.loads(json.dumps([{"k": x, "re": x * 0.5, "im": -x} for x in a[:_TEXT_ROWS:4].tolist()]))
    elapsed = time.perf_counter() - start
    if not (acc.real > 0 and total > 0 and len(rows) == _TEXT_ROWS // 4):
        raise RuntimeError("host probe computed a wrong value")
    return elapsed


def probe_after(op_seconds: float, probes: list[float]) -> None:
    """Probe until SHARE of an operation's time is spent, at least once."""
    spent = 0.0
    while not spent or spent < SHARE * op_seconds:
        elapsed = probe()
        probes.append(elapsed)
        spent += elapsed
