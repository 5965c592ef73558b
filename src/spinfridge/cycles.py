"""Multi-cycle refrigeration and the bath-temperature phase diagram.

One cycle = evolve the joint state under the exchange coupling for angle
theta, then reset spins 2 and 3 by replacing them with fresh thermal
states while keeping spin 1's reduced state exactly (infinite-heat-capacity
baths, perfect trace-and-replace).  Iterating drives spin 1's temperature
monotonically down to the fixed point of the working condition,
independently of theta.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .fridge import FridgeConfig, boltzmann_margin, exchange_flow, exchange_sweep
from .thermo import binary_entropy, check_positive, spin_temperature

MAX_GRID_STEPS = 1000  # per axis
MAX_CYCLES = 100_000


class CycleColumns(NamedTuple):
    """Spin 1 after each cycle n = 0..n_cycles (n = 0 is the initial state), one
    entry per cycle in each column."""

    n: np.ndarray
    T1: np.ndarray
    entropy_q1: np.ndarray
    energy_q1: np.ndarray
    dQ1: np.ndarray


def check_count(name: str, value) -> None:
    """The rule of a cycle or grid-step count: an integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_cycles(n_cycles: int) -> None:
    """The cycle rule: an integer from 1 to MAX_CYCLES."""
    check_count("cycles", n_cycles)
    if not 1 <= n_cycles <= MAX_CYCLES:
        raise ValueError(f"cycles must lie in [1, {MAX_CYCLES}], got {n_cycles}")


def run_cycles(cfg: FridgeConfig, n_cycles: int) -> CycleColumns:
    """Spin 1 after each of n_cycles evolve-reset loops at angle cfg.theta, in closed form.

    The reset keeps spin 1's populations and refreshes spins 2 and 3.  With
    boltzmann_margin's b_i and x and s2 = sin^2(theta), a cycle maps spin 1's
    excited population p to p - s2 D (p - p*), D = (b2 + b3)/((1 + b2)(1 + b3)),
    with the fixed point p* = b2/(b2 + b3) (spin 1 at T_bound), 1 - p* = b3/(b2 + b3).
    After n cycles p = p* + d_n g and 1 - p = (1 - p*) - d_n g, with the gap
    g = p_0 - p* = b2 expm1(x)/((1 + b1)(b2 + b3)) and d_n = exp(n log1p(-s2 D)),
    which keeps the rounding of 1 - s2 D out of the powers (1 - s2 D)^n.  Cycle n
    moves the heat E1 delta_1 d_(n-1), delta_1 being the first cycle's exchange_flow.
    """
    check_cycles(n_cycles)
    boltzmann, margin = boltzmann_margin(cfg.gaps, cfg.temps)
    b1, b2, b3 = map(float, boltzmann)
    fixed, fixed_ground = b2 / (b2 + b3), b3 / (b2 + b3)
    start, start_ground = b1 / (1.0 + b1), 1.0 / (1.0 + b1)
    rate = (b2 + b3) / ((1.0 + b2) * (1.0 + b3))
    gap = b2 * math.expm1(margin) / ((1.0 + b1) * (b2 + b3))
    n = np.arange(n_cycles + 1)
    log_decay = n * math.log1p(-math.sin(cfg.theta) ** 2 * rate)
    decay, shrink = np.exp(log_decay), np.expm1(log_decay)  # d_n and d_n - 1
    # each population adds two terms of one sign, so it keeps its relative
    # accuracy where it is far below the other end of its path
    if margin > 0.0:  # spin 1 cools: p falls to p*, 1 - p rises from its start
        p1, q1 = fixed + decay * gap, start_ground - shrink * gap
    else:  # spin 1 warms: p rises from its start, 1 - p falls to 1 - p*
        p1, q1 = start + shrink * gap, fixed_ground - decay * gap
    p1[0], q1[0] = start, start_ground  # p* + g and (1 - p*) - g may round away from them
    flow = exchange_flow(boltzmann, margin, cfg.theta)
    dq1 = np.concatenate(([0.0], cfg.E1 * flow * decay[:-1]))
    return CycleColumns(n, spin_temperature(q1, p1, cfg.E1), binary_entropy(q1, p1),
                        cfg.E1 * p1, dq1)


def detect_convergence(T1, tol: float) -> tuple[bool, float]:
    """Converged iff the last five successive differences of the T1 column are
    below tol; also returns the last T1."""
    temps = np.asarray(T1, dtype=float)
    if temps.size < 2:
        raise ValueError("need at least two temperatures to assess convergence")
    diffs = np.abs(np.diff(temps[-6:]))
    return diffs.size == 5 and bool(np.all(diffs < tol)), float(temps[-1])


def check_grid(
    t2_range: tuple[float, float], t3_range: tuple[float, float], n2: int, n3: int
) -> None:
    """The grid rule: an integer count of 2 to MAX_GRID_STEPS points and 0 < min <= max per axis,
    with both bounds and min + (max - min)(steps - 1), the largest value the
    axis formulas form, positive and finite."""
    check_count("grid steps", n2)
    check_count("grid steps", n3)
    if n2 < 2 or n3 < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if n2 > MAX_GRID_STEPS or n3 > MAX_GRID_STEPS:
        raise ValueError(f"grid must have at most {MAX_GRID_STEPS} points per axis")
    for name, bounds, steps in (("T2", t2_range, n2), ("T3", t3_range, n3)):
        low, high = (float(bound) for bound in bounds)  # a numpy scalar would warn on overflow
        check_positive(f"{name} grid minimum", low)
        check_positive(f"{name} grid maximum", high)
        if not low <= high:
            raise ValueError("temperature ranges must be positive and ordered")
        check_positive(f"{name} axis min + (max - min)(steps - 1)",
                       low + (high - low) * (steps - 1))


def scan_phase_diagram(
    t2_range: tuple[float, float],
    t3_range: tuple[float, float],
    grid: int | tuple[int, int],
    *,
    base: FridgeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T2, T3, dQ1) of one exchange per grid cell, one entry per cell.

    Cells are ordered by T2 then T3.  Gaps, T1 and theta are taken from
    ``base`` (default configuration if omitted).
    """
    n2, n3 = grid if isinstance(grid, tuple) else (grid, grid)
    check_grid(t2_range, t3_range, n2, n3)
    base = base or FridgeConfig()
    t2s = np.linspace(t2_range[0], t2_range[1], n2)
    t3s = np.linspace(t3_range[0], t3_range[1], n3)
    dq1 = base.E1 * exchange_sweep(base, t2s[:, None], t3s[None, :])
    return t2s.repeat(n3), np.tile(t3s, n2), dq1.ravel()
