"""Multi-cycle refrigeration and the bath-temperature phase diagram.

One cycle = evolve the joint state under the exchange coupling for angle
theta, then reset spins 2 and 3 by replacing them with fresh thermal
states while keeping spin 1's reduced state exactly (infinite-heat-capacity
baths, perfect trace-and-replace).  Iterating drives spin 1's temperature
monotonically down to the fixed point of the working condition,
independently of theta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fridge import FridgeConfig, exchange_flow, exchange_sweep, excited_populations
from .thermo import binary_entropy, spin_temperature

MAX_GRID_STEPS = 1000  # per axis


@dataclass(frozen=True)
class CycleRecord:
    """Snapshot of the target spin after cycle n (n = 0 is the initial state)."""

    n: int
    T1: float
    entropy_q1: float
    energy_q1: float
    dQ1: float


@dataclass(frozen=True)
class PhasePoint:
    """Heat transfer of spin 1 for one (T2, T3) grid cell."""

    T2: float
    T3: float
    dQ1: float


def run_cycles(cfg: FridgeConfig, n_cycles: int) -> list[CycleRecord]:
    """Run n_cycles evolve-reset loops at angle cfg.theta and record spin 1 after each.

    The reset keeps spin 1's populations and refreshes spins 2 and 3, so a
    cycle is the affine map p1 <- p1 + delta of fridge.exchange_flow.
    """
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be at least 1, got {n_cycles}")
    p1, p2, p3 = (float(p) for p in excited_populations(cfg.gaps, cfg.temps))
    records = []
    delta = 0.0
    for n in range(n_cycles + 1):
        if n:
            delta = exchange_flow(p1, p2, p3, cfg.theta)[2]
            p1 += delta
        temperature = spin_temperature(1.0 - p1, p1, cfg.E1)
        records.append(CycleRecord(n, temperature, binary_entropy(p1), cfg.E1 * p1, cfg.E1 * delta))
    return records


def detect_convergence(records: list[CycleRecord], tol: float) -> tuple[bool, float]:
    """Converged iff the last five successive T1 differences are below tol."""
    if len(records) < 2:
        raise ValueError("need at least two records to assess convergence")
    temps = [r.T1 for r in records]
    diffs = [abs(b - a) for a, b in zip(temps[:-1], temps[1:])]
    converged = len(diffs) >= 5 and all(d < tol for d in diffs[-5:])
    return converged, temps[-1]


def check_grid(
    t2_range: tuple[float, float], t3_range: tuple[float, float], n2: int, n3: int
) -> None:
    """The grid rule: 2 to MAX_GRID_STEPS points and 0 < min <= max on each axis."""
    if n2 < 2 or n3 < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if n2 > MAX_GRID_STEPS or n3 > MAX_GRID_STEPS:
        raise ValueError(f"grid must have at most {MAX_GRID_STEPS} points per axis")
    if not (0.0 < t2_range[0] <= t2_range[1] and 0.0 < t3_range[0] <= t3_range[1]):
        raise ValueError("temperature ranges must be positive and ordered")


def phase_diagram_arrays(
    t2_range: tuple[float, float],
    t3_range: tuple[float, float],
    grid: int | tuple[int, int],
    t1_fixed: float,
    theta: float,
    *,
    base: FridgeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T2, T3, dQ1) of one exchange per grid cell at fixed T1, one entry per cell.

    Cells are ordered by T2 then T3.  Gaps are taken from ``base`` (default
    configuration if omitted).
    """
    n2, n3 = (grid, grid) if isinstance(grid, int) else (int(grid[0]), int(grid[1]))
    check_grid(t2_range, t3_range, n2, n3)
    base = replace(base or FridgeConfig(), T1=t1_fixed, theta=theta)
    t2s = np.linspace(t2_range[0], t2_range[1], n2)
    t3s = np.linspace(t3_range[0], t3_range[1], n3)
    dq1 = base.E1 * exchange_sweep(base, t2s[:, None], t3s[None, :])
    return t2s.repeat(n3), np.tile(t3s, n2), dq1.ravel()


def scan_phase_diagram(
    t2_range: tuple[float, float],
    t3_range: tuple[float, float],
    grid: int | tuple[int, int],
    t1_fixed: float,
    theta: float,
    *,
    base: FridgeConfig | None = None,
) -> list[PhasePoint]:
    """phase_diagram_arrays as one PhasePoint per cell."""
    cells = phase_diagram_arrays(t2_range, t3_range, grid, t1_fixed, theta, base=base)
    return [PhasePoint(*cell) for cell in zip(*(column.tolist() for column in cells))]
