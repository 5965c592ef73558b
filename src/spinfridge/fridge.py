"""The three-spin self-contained refrigerator.

Three spins with gaps E1, E2, E3 and E2 = E1 + E3 make the joint levels
|010> and |101> degenerate, so the exchange coupling

    H_exc = g (|010><101| + |101><010|)

moves population between them without any work input.  When the baths are
arranged so that P_101 > P_010 in the initial product of thermal states,
the exchange drains excited-state population from spin 1 and cools it.
All quantities are in delta units with k_B = 1; the three spins are closed
during an exchange (baths detached).

Sign convention: dQ_i > 0 means spin i absorbs energy, so successful
cooling of spin 1 shows up as dQ1 < 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    Operator,
    PauliString,
    evolve,
    kron,
    partial_trace,
)
from .thermo import (
    SpinSpec,
    check_positive,
    effective_temperature,
    internal_energy,
    spin_temperature,
    thermal_state,
)

SELF_CONTAINED_RTOL = 1e-12

# basis indices of the exchanged levels (qubit 0 most significant)
IDX_010 = 0b010
IDX_101 = 0b101


def check_gaps(E1: float, E2: float, E3: float) -> None:
    """The gap rule: each gap positive and finite, and E2 = E1 + E3 up to a
    relative tolerance, as the sum's rounding grows with the gaps."""
    for name, gap in (("E1", E1), ("E2", E2), ("E3", E3)):
        check_positive(name, gap)
    if not math.isclose(E2, E1 + E3, rel_tol=SELF_CONTAINED_RTOL):
        raise ValueError(
            f"E2 must equal E1 + E3 (self-contained condition): E2={E2}, E1+E3={E1 + E3}"
        )


def check_spin(spin: int, gap, temp) -> None:
    """The rules of spin ``spin``, for floats or broadcast arrays of its gap and
    temperature: each positive and finite, and e^(-E/T) no smaller than the
    smallest normal float (E/T below about 708.4), so no population underflows.
    """
    check_positive(f"E{spin}", gap)
    check_positive(f"T{spin}", temp)
    ratio = gap / temp
    if isinstance(ratio, np.ndarray):
        ratio = ratio.max()  # the largest E/T has the smallest e^(-E/T)
    if math.exp(-ratio) < sys.float_info.min:
        raise ValueError(f"spin {spin}: E{spin}/T{spin} = {float(ratio)!r} exceeds about "
                         "708.4, where e^(-E/T) underflows")


def check_theta(theta: float) -> None:
    """The rule of an evolution angle: finite."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


@dataclass(frozen=True)
class FridgeConfig:
    """Gaps, bath temperatures, coupling, and evolution angle theta = g*t.

    Defaults reproduce the reference operating point E = (1, 3, 2) delta,
    T = (2, 2, 10) delta/k_B, theta = pi/2 (a complete exchange).
    """

    E1: float = 1.0
    E2: float = 3.0
    E3: float = 2.0
    T1: float = 2.0
    T2: float = 2.0
    T3: float = 10.0
    g: float = 1.0
    theta: float = math.pi / 2

    def __post_init__(self) -> None:
        check_gaps(*self.gaps)
        for name in ("T1", "T2", "T3", "g"):
            check_positive(name, getattr(self, name))
        check_theta(self.theta)
        for spin, (gap, temp) in enumerate(zip(self.gaps, self.temps), start=1):
            check_spin(spin, gap, temp)

    @property
    def gaps(self) -> tuple[float, float, float]:
        return (self.E1, self.E2, self.E3)

    @property
    def temps(self) -> tuple[float, float, float]:
        return (self.T1, self.T2, self.T3)


@dataclass(frozen=True)
class ExchangeReport:
    """Populations, per-spin heats, and temperatures for one exchange."""

    P010_before: float
    P101_before: float
    P010_after: float
    P101_after: float
    dQ1: float
    dQ2: float
    dQ3: float
    T1_after: float
    T2_after: float
    T3_after: float


def exchange_generator(g: float = 1.0) -> Operator:
    """The bare two-entry exchange coupling g(|010><101| + |101><010|)."""
    mat = np.zeros((8, 8), dtype=complex)
    mat[IDX_010, IDX_101] = g
    mat[IDX_101, IDX_010] = g
    return Operator(mat)


def exchange_pauli_terms(g: float = 1.0) -> tuple[PauliString, ...]:
    """The exchange coupling as four mutually commuting three-body Paulis.

    The sign of the YXY term is fixed by requiring the sum to reproduce
    the two-entry matrix of exchange_generator entrywise (checked in the
    test suite); with standard Pauli conventions that term carries -g/4.
    """
    quarter = g / 4.0
    return (
        PauliString("XXX", quarter),
        PauliString("XYY", quarter),
        PauliString("YXY", -quarter),
        PauliString("YYX", quarter),
    )


def system_hamiltonian(cfg: FridgeConfig) -> Operator:
    """Sum of the single-spin Hamiltonians E_i |1><1|_i on the 8-dim space."""
    diag = np.zeros(8)
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        diag[idx] = bits[0] * cfg.E1 + bits[1] * cfg.E2 + bits[2] * cfg.E3
    return Operator(np.diag(diag).astype(complex))


def initial_state(cfg: FridgeConfig) -> DensityMatrix:
    """Product of the three thermal states (diagonal)."""
    tau1 = thermal_state(SpinSpec(cfg.E1, cfg.T1))
    tau2 = thermal_state(SpinSpec(cfg.E2, cfg.T2))
    tau3 = thermal_state(SpinSpec(cfg.E3, cfg.T3))
    return DensityMatrix(kron(kron(tau1.op, tau2.op), tau3.op))


def boltzmann_margin(gaps, temps) -> tuple:
    """The Boltzmann factors (b1, b2, b3), b_i = e^(-E_i/T_i), and the cooling margin
    x = E2/T2 - (E1/T1 + E3/T3), elementwise over broadcast arrays (or plain floats).

    They fix the diagonal state that the exchange keeps: spin i is excited with
    probability b_i/(1 + b_i), and P101/P010 = e^x.  A float subtraction has the
    exact sign of the comparison, so x > 0 is the working condition, bit for bit.
    """
    ratios = [np.divide(gap, temp) for gap, temp in zip(gaps, temps)]
    return tuple(np.exp(-ratio) for ratio in ratios), ratios[1] - (ratios[0] + ratios[2])


def exchange_flow(boltzmann, margin, theta: float):
    """delta = sin^2(theta) (P010 - P101) of one exchange by angle theta, elementwise
    over boltzmann_margin's b_i and x.

    delta moves from |010> to |101>: spins 1 and 3 gain it in excited population and
    spin 2 loses it.  P010 = b2/prod(1 + b_i) and P101 = P010 e^x, so delta =
    -sin^2(theta) P010 expm1(x) has no cancellation, and is negative exactly when x > 0.
    """
    b1, b2, b3 = boltzmann
    # P010 (e^x - 1) first, where sin^2(theta) P010 may underflow; 0 - expm1(0) is +0.0
    difference = b2 / ((1.0 + b1) * (1.0 + b2)) * (0.0 - np.expm1(margin)) / (1.0 + b3)
    return math.sin(theta) ** 2 * difference


def exchange_sweep(base: FridgeConfig, T2, T3) -> np.ndarray:
    """delta of one exchange per (T2, T3) over broadcast arrays, at base's gaps, T1 and theta.

    base is valid already, so every cell is valid once each T2 and T3 keeps the
    rules of its spin.
    """
    T2, T3 = np.asarray(T2, dtype=float), np.asarray(T3, dtype=float)
    check_spin(2, base.E2, T2)
    check_spin(3, base.E3, T3)
    return exchange_flow(*boltzmann_margin(base.gaps, (base.T1, T2, T3)), base.theta)


def exchange(cfg: FridgeConfig) -> ExchangeReport:
    """One exchange of the initial product state for angle theta, in closed form.

    Per-spin heats are dQ_i = E_i (p_i' - p_i): E1*delta, -E2*delta and
    E3*delta; temperatures are read off both populations afterwards.
    """
    boltzmann, margin = boltzmann_margin(cfg.gaps, cfg.temps)
    b1, b2, b3 = map(float, boltzmann)
    z = (1.0 + b1) * (1.0 + b2) * (1.0 + b3)
    p010, p101 = b2 / z, b1 * b3 / z
    delta = float(exchange_flow(boltzmann, margin, cfg.theta))
    moved = (delta, -delta, delta)
    heats = [gap * dp for gap, dp in zip(cfg.gaps, moved)]
    temps = [float(spin_temperature(1.0 / (1.0 + b) - dp, b / (1.0 + b) + dp, gap))
             for b, dp, gap in zip((b1, b2, b3), moved, cfg.gaps)]
    return ExchangeReport(p010, p101, p010 - delta, p101 + delta, *heats, *temps)


def working_condition(cfg: FridgeConfig) -> bool:
    """True iff E1/T1 + E3/T3 < E2/T2 strictly: boltzmann_margin's x > 0."""
    return bool(boltzmann_margin(cfg.gaps, cfg.temps)[1] > 0.0)


def bound_temperature(E1: float, E2: float, E3: float, T2: float, T3: float) -> float:
    """Fixed-point temperature E1 / (E2/T2 - E3/T3) of the cooling cycle.

    This is where the working condition turns into an equality with the
    bath temperatures held fixed; spin 1 cools iff T1 exceeds it.
    """
    check_gaps(E1, E2, E3)
    check_positive("T2", T2)
    check_positive("T3", T3)
    denom = E2 / T2 - E3 / T3
    if denom <= 0.0:
        raise ValueError(
            f"no cooling regime: E2/T2 = {E2 / T2} does not exceed E3/T3 = {E3 / T3}"
        )
    return E1 / denom


def phase_boundary_value(T2: float, T3: float, *, base: FridgeConfig | None = None) -> float:
    """E2*T1*T3 - E3*T1*T2 - E1*T2*T3 at bath temperatures T2, T3; positive iff
    cooling works.

    This is the working condition E1/T1 + E3/T3 < E2/T2 cleared of its
    denominators, with gaps and T1 from ``base`` (default configuration if
    omitted, where it reads 6*T3 - 4*T2 - T2*T3).
    """
    check_positive("T2", T2)
    check_positive("T3", T3)
    base = base or FridgeConfig()
    return base.E2 * base.T1 * T3 - base.E3 * base.T1 * T2 - base.E1 * T2 * T3


def cop(cfg: FridgeConfig) -> float:
    """Coefficient of performance |dQ1/dQ3| = E1/E3, temperature independent."""
    return cfg.E1 / cfg.E3


def carnot_limit(T1: float, T2: float, T3: float) -> float:
    """Carnot ceiling (T3 - T2) T1 / (T3 (T2 - T1)) for the engine+fridge pair.

    Requires T1 <= T2 < T3; T1 = T2 returns +inf (zero-gap refrigerator).
    """
    for name, temp in (("T1", T1), ("T2", T2), ("T3", T3)):
        check_positive(name, temp)
    if not (T1 <= T2 < T3):
        raise ValueError(f"temperatures must satisfy 0 < T1 <= T2 < T3, got {(T1, T2, T3)}")
    if T1 == T2:
        return math.inf
    return (T3 - T2) * T1 / (T3 * (T2 - T1))


_SWAP_2 = Operator(
    np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
)


def two_spin_swap(E1: float, E2: float, T0: float) -> tuple[float, float]:
    """SWAP-based cooling of two thermal spins at a common temperature T0.

    Returns (T_after, work): the effective temperature of spin 1 after the
    SWAP (analytically T0*E1/E2) and the work the SWAP costs, which is
    strictly positive for E1 < E2 - the non-self-contained contrast case.
    """
    if not (0.0 < E1 < E2):
        raise ValueError(f"gaps must satisfy 0 < E1 < E2, got {(E1, E2)}")
    if not T0 > 0.0:
        raise ValueError("temperature must be positive")
    rho = DensityMatrix(
        kron(thermal_state(SpinSpec(E1, T0)).op, thermal_state(SpinSpec(E2, T0)).op)
    )
    h_sys = Operator(np.diag([0.0, E2, E1, E1 + E2]).astype(complex))
    rho_after = evolve(rho, _SWAP_2)
    t_after = effective_temperature(partial_trace(rho_after, (0,)), E1)
    work = internal_energy(rho_after, h_sys) - internal_energy(rho, h_sys)
    return t_after, work
