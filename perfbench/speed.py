"""Probes of the host's current speed, for scaling timings to a quiet host.

The 2-vCPU machine the benchmark was built on shares its cores and caches
with other tenants. Over spells of about a minute its speed swung by up to
2x, so the same code read 2.5k or 4.7k cycle steps/s depending on when it
ran. A fixed probe kernel, timed next to the workload, slows down with it:
over the same spells, cycles-op time divided by the interpreter probe's time
stayed within +-6%, and bcs-op time divided by the array probe's time within
+-2%. Timings are therefore reported as raw time x NOMINAL / probe time,
which is seconds on the host at its quiet speed. The raw times are kept
beside them in the report.

The probes are the benchmark's own code and call nothing in spinfridge, so
no change to the package can move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SYM = np.eye(8) + 0.01 * np.arange(64.0).reshape(8, 8)
_SYM = _SYM + _SYM.T


def _interpreter() -> None:
    """Python-level loop around tiny LAPACK calls, like the dense 8x8 path."""
    acc = 0.0
    for i in range(150):
        acc += float(np.linalg.eigvalsh(_SYM + i * 1e-3)[0]) + sum(range(30))


def _arrays() -> None:
    """Sampling, comparing and compacting arrays larger than L2, like bcs."""
    bits = (np.random.default_rng(0).random(1_000_000) >= 0.6).astype(np.uint8)
    agree = bits[0::2] == bits[1::2]
    float(bits[0::2][agree].mean())


# kernel, its median time on the quiet host (s), and the time between probes
# (s), which keeps each kind's probing near 5% of a run
PROBES = {
    "interpreter": (_interpreter, 1.4e-3, 0.1),
    "arrays": (_arrays, 8.0e-3, 0.5),
}


# Timed in the freshly spawned interpreter whose set-up time is measured,
# right after its import, so that it sees the speed of that process. Timed
# before the import instead, it read the processor still waking from idle
# and scattered twice as widely as the set-up time itself. Its time on the
# quiet host (s) is STARTUP_NOMINAL.
STARTUP_PROBE = "s = 0\nfor i in range(40000):\n    s += i * i\n"
STARTUP_NOMINAL = 4.8e-3


def factor(kind: str) -> float:
    """NOMINAL / current probe time (median of three): below 1 on a slowed host."""
    kernel, nominal, _ = PROBES[kind]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return nominal / statistics.median(times)
