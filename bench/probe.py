"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on a shared host whose speed changes in stretches of a
few seconds: while other tenants are busy, the same pure-Python code takes
up to 1.8 times as long.  Wall-clock job times then move by 20% from run to
run, with no change to the program.

The runner times ``probe()`` right before and right after every job.  The
kernel is the benchmark's own code, not ``centerlab``'s, so no change to the
program can change it: sparse products of dict polynomials with big integer
coefficients (the pattern of ``mpoly``) and a scalar float integration loop
(the pattern of ``numeric``).  A job's normalised time is its wall time
scaled by ``PROBE_REF_S`` over the mean of the two probe times beside it:
what the job would take while the probe runs in ``PROBE_REF_S``.
"""

from __future__ import annotations

import time

#: The probe's time at full speed on the machine where the baseline was taken
#: (a shared 2-vCPU Linux VM, CPython 3.11).  Normalised times are seconds at
#: this probe speed.
PROBE_REF_S = 0.008

_A = {(i, j, (i * j) % 3): (i + 1) * (j + 2) * 10 ** 12 + i
      for i in range(12) for j in range(12 - i)}
_B = {(i, j, (i + j) % 2): (2 * i - j + 3) * 10 ** 9 + 1
      for i in range(10) for j in range(10 - i)}
_ROUNDS = 5


def _kernel() -> int:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    x, y = 0.1, 0.0
    for _ in range(4000):
        x, y = x + 1e-3 * y, y - 1e-3 * (x + x * x * y)
    return len(out)


def probe() -> float:
    """Wall seconds of one fixed amount of reference work."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        _kernel()
    return time.perf_counter() - t0


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference probe speed, given the probes beside it."""
    return seconds * PROBE_REF_S / ((before + after) / 2.0)
