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
from typing import NamedTuple, Sequence

import numpy as np

from .fridge import FridgeConfig, boltzmann_margin, check_theta, exchange_flow, exchange_sweep
from .thermo import binary_entropy, check_count, check_positive, spin_temperature

MAX_GRID_STEPS = 1000  # per axis
MAX_CYCLES = 100_000
MAX_ROWS = MAX_GRID_STEPS**2  # the rows of the largest phase diagram


class CycleColumns(NamedTuple):
    """Spin 1 after each cycle n = 0..n_cycles (n = 0 is the initial state), one
    entry per cycle in each column."""

    n: np.ndarray
    T1: np.ndarray
    entropy_q1: np.ndarray
    energy_q1: np.ndarray
    dQ1: np.ndarray


def check_cycles(n_cycles: int) -> None:
    """The cycle rule: an integer from 1 to MAX_CYCLES."""
    check_count("cycles", n_cycles)
    if not 1 <= n_cycles <= MAX_CYCLES:
        raise ValueError(f"cycles must lie in [1, {MAX_CYCLES}], got {n_cycles}")


def check_rows(n_angles: int, n_cycles: int) -> None:
    """The row rule of a cycles run: n_angles x (n_cycles + 1) rows, at most MAX_ROWS."""
    rows = n_angles * (n_cycles + 1)
    if rows > MAX_ROWS:
        raise ValueError(f"{n_angles} angles x ({n_cycles} + 1) cycles is {rows} rows, "
                         f"above the row limit of {MAX_ROWS}")


def run_cycles(cfg: FridgeConfig, n_cycles: int,
               thetas: Sequence[float] | None = None) -> CycleColumns:
    """Spin 1 after each of n_cycles evolve-reset loops, in closed form, at each angle of
    thetas (default cfg.theta alone) in one array pass, the angles one after another.

    The reset keeps spin 1's populations and refreshes spins 2 and 3.  With
    boltzmann_margin's b_i and x and s2 = sin^2(theta), a cycle maps spin 1's
    excited population p to p - s2 D (p - p*), D = (b2 + b3)/((1 + b2)(1 + b3)),
    with the fixed point p* = b2/(b2 + b3) (spin 1 at T_bound), 1 - p* = b3/(b2 + b3).
    After n cycles p = p* + d_n g and 1 - p = (1 - p*) - d_n g, with the gap
    g = p_0 - p* = b2 expm1(x)/((1 + b1)(b2 + b3)) and d_n = exp(n log1p(-s2 D)),
    which keeps the rounding of 1 - s2 D out of the powers (1 - s2 D)^n.  Cycle n
    moves the heat E1 delta_1 d_(n-1), delta_1 being the first cycle's exchange_flow.
    Only s2 depends on the angle, so the pass runs over (angles, n_cycles + 1) arrays.
    """
    check_cycles(n_cycles)
    thetas = (cfg.theta,) if thetas is None else tuple(thetas)
    for theta in thetas:
        check_theta(theta)
    boltzmann, margin = boltzmann_margin(cfg.gaps, cfg.temps)
    b1, b2, b3 = map(float, boltzmann)
    fixed, fixed_ground = b2 / (b2 + b3), b3 / (b2 + b3)
    start, start_ground = b1 / (1.0 + b1), 1.0 / (1.0 + b1)
    rate = (b2 + b3) / ((1.0 + b2) * (1.0 + b3))
    gap = b2 * math.expm1(margin) / ((1.0 + b1) * (b2 + b3))
    n = np.arange(n_cycles + 1)
    log_decay = np.multiply.outer([math.log1p(-math.sin(t) ** 2 * rate) for t in thetas], n)
    decay, shrink = np.exp(log_decay), np.expm1(log_decay)  # d_n and d_n - 1
    # each population adds two terms of one sign, so it keeps its relative
    # accuracy where it is far below the other end of its path
    if margin > 0.0:  # spin 1 cools: p falls to p*, 1 - p rises from its start
        p1, q1 = fixed + decay * gap, start_ground - shrink * gap
    else:  # spin 1 warms: p rises from its start, 1 - p falls to 1 - p*
        p1, q1 = start + shrink * gap, fixed_ground - decay * gap
    # d_n = 1 (n = 0, or sin^2(theta) D = 0): p* + g and (1 - p*) - g may round away from the start
    still = shrink == 0.0
    p1[still], q1[still] = start, start_ground
    heat = [cfg.E1 * exchange_flow(boltzmann, margin, theta) for theta in thetas]
    dq1 = np.zeros_like(decay)
    np.multiply(np.reshape(heat, (-1, 1)), decay[:, :-1], out=dq1[:, 1:])
    return CycleColumns(np.tile(n, len(thetas)), spin_temperature(q1, p1, cfg.E1).ravel(),
                        binary_entropy(q1, p1).ravel(), (cfg.E1 * p1).ravel(), dq1.ravel())


def detect_convergence(T1, tol: float) -> tuple[bool, float]:
    """Converged iff the last five successive differences of the T1 column are
    below tol; also returns the last T1."""
    temps = np.asarray(T1, dtype=float)
    if temps.size < 2:
        raise ValueError("need at least two temperatures to assess convergence")
    diffs = np.abs(np.diff(temps[-6:]))
    return diffs.size == 5 and bool(np.all(diffs < tol)), float(temps[-1])


def check_grid(t2_range: tuple[float, float], t3_range: tuple[float, float], steps: int) -> None:
    """The grid rule: an integer count of 2 to MAX_GRID_STEPS points per axis and
    0 < min <= max per axis, with both bounds and min + (max - min)(steps - 1),
    the largest value the axis formulas form, positive and finite."""
    check_count("grid steps", steps)
    if steps < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if steps > MAX_GRID_STEPS:
        raise ValueError(f"grid must have at most {MAX_GRID_STEPS} points per axis")
    for name, bounds in (("T2", t2_range), ("T3", t3_range)):
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
    steps: int,
    *,
    base: FridgeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T2, T3, dQ1) of one exchange per cell of the steps x steps grid, one
    entry per cell.

    Cells are ordered by T2 then T3.  Gaps, T1 and theta are taken from
    ``base`` (default configuration if omitted).
    """
    check_grid(t2_range, t3_range, steps)
    base = base or FridgeConfig()
    t2s = np.linspace(t2_range[0], t2_range[1], steps)
    t3s = np.linspace(t3_range[0], t3_range[1], steps)
    dq1 = base.E1 * exchange_sweep(base, t2s[:, None], t3s[None, :])
    return t2s.repeat(steps), np.tile(t3s, steps), dq1.ravel()
