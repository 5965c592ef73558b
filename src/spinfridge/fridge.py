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

import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from .linalg import (
    DensityMatrix,
    Operator,
    PauliString,
    Record,
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
    with np.errstate(over="ignore"):  # an E/T of inf fails the rule below, by name
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


class FridgeConfig(Record):
    """Gaps, bath temperatures, coupling, and evolution angle theta = g*t.

    Defaults reproduce the reference operating point E = (1, 3, 2) delta,
    T = (2, 2, 10) delta/k_B, theta = pi/2 (a complete exchange).
    """

    __slots__ = _fields = ("E1", "E2", "E3", "T1", "T2", "T3", "g", "theta")

    def __init__(self, E1: float = 1.0, E2: float = 3.0, E3: float = 2.0, T1: float = 2.0,
                 T2: float = 2.0, T3: float = 10.0, g: float = 1.0,
                 theta: float = math.pi / 2) -> None:
        check_gaps(E1, E2, E3)
        for spin, (gap, temp) in enumerate(((E1, T1), (E2, T2), (E3, T3)), start=1):
            check_spin(spin, gap, temp)
        check_positive("g", g)
        check_theta(theta)
        self._set(E1, E2, E3, T1, T2, T3, g, theta)

    @property
    def gaps(self) -> tuple[float, float, float]:
        return (self.E1, self.E2, self.E3)

    @property
    def temps(self) -> tuple[float, float, float]:
        return (self.T1, self.T2, self.T3)


class ExchangeReport(NamedTuple):
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
    mat[[IDX_010, IDX_101], [IDX_101, IDX_010]] = g
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
    diag = [b1 * cfg.E1 + b2 * cfg.E2 + b3 * cfg.E3
            for b1, b2, b3 in itertools.product((0, 1), repeat=3)]  # qubit 0 most significant
    return Operator(np.diag(diag).astype(complex))


def initial_state(cfg: FridgeConfig) -> DensityMatrix:
    """Product of the three thermal states (diagonal), canonicalized once.

    Bit for bit the DensityMatrix of kron(kron(tau1, tau2), tau3) with
    tau_i = thermal_state(SpinSpec(E_i, T_i)): each spin's populations
    [1, b]/(1 + b), b = e^(-E/T), are divided by their own sum, as tau_i's
    DensityMatrix divides by its trace (its symmetrization and positivity
    check leave a positive diagonal as it is), and their outer products are
    the kron's, in its order.
    """
    spins = []
    for gap, temp in zip(cfg.gaps, cfg.temps):
        boltzmann = math.exp(-gap / temp)
        z = 1.0 + boltzmann
        populations = np.array([1.0 / z, boltzmann / z], dtype=complex)
        spins.append(populations / populations.sum().real)
    return DensityMatrix(np.diag(np.multiply.outer(np.multiply.outer(spins[0], spins[1]),
                                                   spins[2]).ravel()))


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
    omitted, where it reads 6*T3 - 4*T2 - T2*T3).  It is positive exactly
    when boltzmann_margin's x is, as working_condition decides: where the
    rounding of the three products moves their difference across zero, the
    value is T1*T2*T3*x instead.
    """
    base = base or FridgeConfig()
    check_spin(2, base.E2, T2)  # the bath rules of the config, so no E/T overflows
    check_spin(3, base.E3, T3)
    value = base.E2 * base.T1 * T3 - base.E3 * base.T1 * T2 - base.E1 * T2 * T3
    margin = float(boltzmann_margin(base.gaps, (base.T1, T2, T3))[1])
    if (value > 0.0) != (margin > 0.0):
        value = base.T1 * T2 * T3 * margin
    return value


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
    return float(carnot_sweep(T1, T2, T3))


def carnot_sweep(T1, T2, T3) -> np.ndarray:
    """carnot_limit elementwise over broadcast arrays of positive temperatures, by the
    same expression: +inf at T1 = T2, nan where T1 <= T2 < T3 fails, and no
    floating-point warning (an overflow reads inf, as in float arithmetic)."""
    T1, T2, T3 = (np.asarray(temp, dtype=float) for temp in (T1, T2, T3))
    with np.errstate(all="ignore"):
        limit = (T3 - T2) * T1 / (T3 * (T2 - T1))
    return np.where((T1 <= T2) & (T2 < T3), limit, math.nan)


_SWAP_2 = Operator(np.eye(4, dtype=complex)[[0, 2, 1, 3]])  # |01> <-> |10>


def two_spin_swap(E1: float, E2: float, T0: float) -> tuple[float, float]:
    """SWAP-based cooling of two thermal spins at a common temperature T0.

    Returns (T_after, work): the effective temperature of spin 1 after the
    SWAP (analytically T0*E1/E2) and the work the SWAP costs, which is
    strictly positive for E1 < E2 - the non-self-contained contrast case.
    """
    if not (0.0 < E1 < E2):
        raise ValueError(f"gaps must satisfy 0 < E1 < E2, got {(E1, E2)}")
    rho = DensityMatrix(kron(thermal_state(SpinSpec(E1, T0)), thermal_state(SpinSpec(E2, T0))))
    h_sys = Operator(np.diag([0.0, E2, E1, E1 + E2]).astype(complex))
    rho_after = evolve(rho, _SWAP_2)
    t_after = effective_temperature(partial_trace(rho_after, (0,)), E1)
    work = internal_energy(rho_after, h_sys) - internal_energy(rho, h_sys)
    return t_after, work
