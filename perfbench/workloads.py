"""Seeded op streams for the four benchmark workloads.

Each workload is an endless sequence of blocks. A block runs every size
class of its workload exactly once, in an order shuffled by the seed, and
draws every physical parameter (gaps, temperatures, angles, pool bias, PRNG
seed) afresh. Sizes are stratified rather than drawn per op so that the
median and the tail of the op time land inside one size class whatever the
seed; with sizes drawn freely, a few seeds with many large grids would move
the median by more than any bound worth setting.

Parameters follow the acceptance suite's criterion-6 sampler:
E1, E3 ~ U(0.2, 4) and E2 = E1 + E3 in float; T1 ~ U(0.2, 8),
T2 = T1 + U(1e-3, 6), T3 = T2 + U(1e-3, 8); theta ~ U(0.05, pi/2).

Every value is passed as ``--key=value`` because argparse reads a leading
minus sign in ``--theta -2.4,0.7`` as a new flag.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("phase-sweep", "cooling-cycles", "pulse-ledger", "bit-pool")

# What one unit of each workload's throughput is.
THROUGHPUT_NAME = {
    "phase-sweep": "exchanges_per_s",
    "cooling-cycles": "cycle_steps_per_s",
    "pulse-ledger": "pulses_per_s",
    "bit-pool": "bits_per_s",
}

# Size classes per block. phase-sweep runs 5 phase-diagram grids and 2 cop
# sweeps per block (71% / 29%).
PHASE_GRIDS = (11, 19, 26, 34, 41)
COP_POINTS = (51, 201)
CYCLE_COUNTS = (60, 120, 200)
CYCLE_THETAS = (1, 2, 3, 4)
VERIFY_THETAS = tuple(range(1, 9))
LEDGER_OPS = 8
POOL_BITS = (1_000_000, 2_000_000, 4_000_000)
POOL_ROUNDS = tuple(range(1, 7))
# Expected minority bits left in a bcs op's final pool, at least. The seed
# commit's bcs exits 1 once the pool turns pure, so eps0 is drawn below the
# bias at which that stops being vanishingly rare (P(pure) ~ exp(-100)).
POOL_MINORITY = 100

# Blocks per pass. A pass is the unit the op-time percentiles are taken over,
# so every pass has the same number of ops of each size. With seven blocks
# the median op lands in the middle of one size class (phase-sweep: 19x19
# grids; cooling-cycles: 240 steps; pulse-ledger: ledger; bit-pool: 2M bits)
# and the op with ten slower ones beyond it lands in the middle of the
# second-largest class (phase-sweep, cooling-cycles, pulse-ledger) or in the
# largest one (bit-pool), so neither moves to another class with the seed.
PASS_BLOCKS = 7

# Blocks in the fixed op set of a traced run (about 3 s untraced each).
TRACE_BLOCKS = {"phase-sweep": 1, "cooling-cycles": 3, "pulse-ledger": 12, "bit-pool": 6}

# Speed probe (speed.py) whose slow-downs track each workload's.
PROBE = {"phase-sweep": "interpreter", "cooling-cycles": "interpreter",
         "pulse-ledger": "interpreter", "bit-pool": "arrays"}

LEDGER_PULSES = 40  # steps of one compiled exchange


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv (without --out) and what to check it against."""

    command: str
    size_class: str
    fmt: str
    units: int  # throughput units the op completes
    params: dict

    def argv(self, out: str) -> list[str]:
        args = [self.command]
        for key, value in self.params.items():
            if isinstance(value, tuple):
                value = ",".join(_fmt(v) for v in value)
            else:
                value = _fmt(value)
            args.append(f"--{key.replace('_', '-')}={value}")
        args.append(f"--format={self.fmt}")
        args.append(f"--out={out}")
        return args


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _physics(rng: random.Random) -> dict:
    e1 = rng.uniform(0.2, 4.0)
    e3 = rng.uniform(0.2, 4.0)
    t1 = rng.uniform(0.2, 8.0)
    t2 = t1 + rng.uniform(1e-3, 6.0)
    t3 = t2 + rng.uniform(1e-3, 8.0)
    return {"e1": e1, "e2": e1 + e3, "e3": e3, "t1": t1, "t2": t2, "t3": t3}


def _theta(rng: random.Random) -> float:
    return rng.uniform(0.05, math.pi / 2.0)


def _phase_sweep(rng: random.Random) -> list[tuple[str, str, int, dict]]:
    specs = []
    for steps in PHASE_GRIDS:
        p = _physics(rng)
        grid = (p["t2"], p["t2"] + rng.uniform(1e-3, 6.0),
                p["t3"], p["t3"] + rng.uniform(1e-3, 8.0), steps)
        specs.append(("phase-diagram", f"grid{steps}", steps * steps,
                      {**p, "theta": (_theta(rng),), "grid": grid}))
    for points in COP_POINTS:
        p = _physics(rng)
        # the T2 sweep may cross T3, where the Carnot column turns to nan
        grid = (p["t2"], p["t2"] + rng.uniform(1e-3, 8.0), p["t3"], p["t3"], points)
        specs.append(("cop", f"cop{points}", points, {**p, "theta": (_theta(rng),), "grid": grid}))
    return specs


def _cooling_cycles(rng: random.Random) -> list[tuple[str, str, int, dict]]:
    specs = []
    for cycles in CYCLE_COUNTS:
        for n_theta in CYCLE_THETAS:
            thetas = tuple(_theta(rng) for _ in range(n_theta))
            specs.append(("cycles", f"{cycles}x{n_theta}", cycles * n_theta,
                          {**_physics(rng), "theta": thetas, "cycles": cycles}))
    return specs


def _pulse_ledger(rng: random.Random) -> list[tuple[str, str, int, dict]]:
    specs = [("ledger", "ledger", LEDGER_PULSES, {**_physics(rng), "theta": (_theta(rng),)})
             for _ in range(LEDGER_OPS)]
    for n_theta in VERIFY_THETAS:
        thetas = tuple(rng.uniform(-math.pi, math.pi) for _ in range(n_theta))
        specs.append(("verify-decomposition", f"verify{n_theta}", LEDGER_PULSES * n_theta,
                      {"theta": thetas}))
    return specs


@functools.cache
def pool_bias_cap(bits: int, rounds: int) -> float:
    """Largest eps0 at which the final pool still expects POOL_MINORITY minority bits.

    A round keeps the agreeing pairs, (1 + eps^2)/2 of them, at bias
    2 eps / (1 + eps^2); the expected minority count falls as eps0 rises.
    """
    def minority(eps: float) -> float:
        n = float(bits)
        for _ in range(rounds):
            n = (n // 2) * (1.0 + eps * eps) / 2.0
            eps = 2.0 * eps / (1.0 + eps * eps)
        return n * (1.0 - eps) / 2.0

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if minority(mid) >= POOL_MINORITY else (lo, mid)
    return lo


def _bit_pool(rng: random.Random) -> list[tuple[str, str, int, dict]]:
    specs = []
    for bits in POOL_BITS:
        for rounds in POOL_ROUNDS:
            # eps0 ~ U(0.05, 0.6), shrunk by the same factor where 0.6 could turn the pool pure
            high = min(0.6, pool_bias_cap(bits, rounds))
            specs.append(("bcs", f"{bits // 1_000_000}Mx{rounds}", bits,
                          {"bits": bits, "epsilon0": rng.uniform(high / 12.0, high), "rounds": rounds,
                           "seed": rng.randrange(2**31)}))
    return specs


_BLOCKS = {
    "phase-sweep": _phase_sweep,
    "cooling-cycles": _cooling_cycles,
    "pulse-ledger": _pulse_ledger,
    "bit-pool": _bit_pool,
}


def block_ops(workload: str, seed: int, block: int) -> list[Op]:
    """The ops of one block; a pure function of (workload, seed, block)."""
    rng = random.Random(f"{workload}:{seed}:{block}")
    specs = _BLOCKS[workload](rng)
    ops = []
    for index, (command, size_class, units, params) in enumerate(specs):
        # csv and json alternate per size class from block to block
        fmt = ("csv", "json")[(seed + block + index) % 2]
        ops.append(Op(command, size_class, fmt, units, params))
    rng.shuffle(ops)
    return ops
