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

from .linalg import DensityMatrix, evolve, herm_exp, kron, partial_trace
from .thermo import (
    SpinSpec,
    effective_temperature,
    internal_energy,
    spin_hamiltonian,
    thermal_state,
    von_neumann_entropy,
)
from .fridge import FridgeConfig, build_h_exc, exchange, initial_state


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


def run_cycles(cfg: FridgeConfig, n_cycles: int, theta: float) -> list[CycleRecord]:
    """Run n_cycles evolve-reset loops and record spin 1 after each."""
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be at least 1, got {n_cycles}")
    u = herm_exp(build_h_exc(cfg), theta / cfg.g)
    tau2 = thermal_state(SpinSpec(cfg.E2, cfg.T2))
    tau3 = thermal_state(SpinSpec(cfg.E3, cfg.T3))
    h1 = spin_hamiltonian(cfg.E1)

    rho = initial_state(cfg)
    reduced = partial_trace(rho, (0,))
    energy = internal_energy(reduced, h1)
    records = [
        CycleRecord(
            n=0,
            T1=effective_temperature(reduced, cfg.E1),
            entropy_q1=von_neumann_entropy(reduced),
            energy_q1=energy,
            dQ1=0.0,
        )
    ]
    for n in range(1, n_cycles + 1):
        rho = evolve(rho, u)
        reduced = partial_trace(rho, (0,))
        energy_after = internal_energy(reduced, h1)
        records.append(
            CycleRecord(
                n=n,
                T1=effective_temperature(reduced, cfg.E1),
                entropy_q1=von_neumann_entropy(reduced),
                energy_q1=energy_after,
                dQ1=energy_after - energy,
            )
        )
        energy = energy_after
        # reset: keep spin 1's reduced state, refresh spins 2 and 3
        rho = DensityMatrix(kron(kron(reduced.op, tau2.op), tau3.op))
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
    """The grid rule: at least 2 points and 0 < min <= max on each axis."""
    if n2 < 2 or n3 < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if not (0.0 < t2_range[0] <= t2_range[1] and 0.0 < t3_range[0] <= t3_range[1]):
        raise ValueError("temperature ranges must be positive and ordered")


def scan_phase_diagram(
    t2_range: tuple[float, float],
    t3_range: tuple[float, float],
    grid: int | tuple[int, int],
    t1_fixed: float,
    theta: float,
    *,
    base: FridgeConfig | None = None,
) -> list[PhasePoint]:
    """One exchange per (T2, T3) grid cell at fixed T1; records dQ1.

    Rows are ordered by T2 then T3.  Gaps are taken from ``base`` (default
    configuration if omitted).
    """
    n2, n3 = (grid, grid) if isinstance(grid, int) else (int(grid[0]), int(grid[1]))
    check_grid(t2_range, t3_range, n2, n3)
    if base is None:
        base = FridgeConfig()
    points: list[PhasePoint] = []
    for t2 in np.linspace(t2_range[0], t2_range[1], n2):
        for t3 in np.linspace(t3_range[0], t3_range[1], n3):
            cfg = replace(base, T1=t1_fixed, T2=float(t2), T3=float(t3), theta=theta)
            report = exchange(cfg)
            points.append(PhasePoint(T2=float(t2), T3=float(t3), dQ1=report.dQ1))
    return points
