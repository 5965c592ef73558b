"""Spin thermodynamics: thermal states, temperature, entropy, work ledger.

Heat and work follow the split dW = tr(rho dH), dQ = tr(H drho).  A single
control pulse is booked in four phases: switching the control field on does
work dW1 on the unchanged state, the evolution under the (constant) total
Hamiltonian moves only heat dQ1, and switching the field off does work dW2.
Under unitary dynamics with a constant total Hamiltonian dQ1 vanishes, so
the net work of a pulse equals the change in system internal energy.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .linalg import DensityMatrix, Operator, Record, evolve, herm_exp


def check_positive(name: str, value) -> None:
    """The rule of every gap and temperature: positive and finite.

    ``value`` is a float or an array; for an array the smallest entry that
    breaks the rule is named (a nan last).
    """
    if isinstance(value, np.ndarray):
        broken = value[~(value > 0.0) | np.isinf(value)]
        if broken.size:
            check_positive(name, float(np.sort(broken)[0]))
    elif not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_count(name: str, value, rule: str = "an integer") -> None:
    """The rule of every count (cycles, grid steps, pool bits, rounds, seeds): an
    integer, and not a bool.  ``rule`` names it in the error message."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


class SpinSpec(Record):
    """A two-level spin: excited-state gap E > 0 at temperature T > 0.

    Units: E in delta, T in delta/k_B with k_B = 1.  Negative or infinite
    temperatures are never valid inputs; they only appear as outputs of
    effective_temperature.
    """

    __slots__ = _fields = ("E", "T")

    def __init__(self, E: float, T: float) -> None:
        check_positive("energy gap", E)
        check_positive("temperature", T)
        self._set(E, T)


class WorkLedgerEntry(Record):
    """Four-phase work/heat record for one pulse, in units of delta."""

    __slots__ = _fields = ("step_index", "dW1", "dQ1", "dW2", "net_work", "cumulative_work")

    def __init__(self, step_index: int, dW1: float, dQ1: float, dW2: float, net_work: float,
                 cumulative_work: float) -> None:
        if not abs(net_work - (dW1 + dQ1 + dW2)) <= 1e-12:  # a nan fails
            raise ValueError("net_work must equal dW1 + dQ1 + dW2")
        self._set(step_index, dW1, dQ1, dW2, net_work, cumulative_work)


def thermal_state(spec: SpinSpec) -> DensityMatrix:
    """Gibbs state diag(1, e^(-E/T)) / Z with Z = 1 + e^(-E/T)."""
    boltzmann = math.exp(-spec.E / spec.T)
    z = 1.0 + boltzmann
    return DensityMatrix(np.diag([1.0 / z, boltzmann / z]))


def effective_temperature(rho1: DensityMatrix, E: float) -> float:
    """Temperature assigned to a single spin from its populations only.

    Returns E / ln(P_g / P_e).  Edge cases are encoded in the float result
    rather than exceptions: equal populations give +inf, an inverted spin
    (P_e > P_g) gives a negative value, P_e = 0 gives 0.0 and P_g = 0
    gives -0.0 (the zero-temperature markers from either side).
    """
    if rho1.dim != 2:
        raise ValueError("effective temperature is defined for a single spin")
    return float(spin_temperature(*rho1.populations, E))


def spin_temperature(p_ground, p_excited, E: float):
    """effective_temperature of the diagonal spin state diag(p_ground, p_excited),
    elementwise over broadcast arrays (or plain floats); E / ln(p_ground / p_excited)
    forms its markers 0.0, -0.0 and +inf in the division."""
    check_positive("energy gap", E)
    with np.errstate(divide="ignore"):
        return E / np.log(np.divide(p_ground, p_excited))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum(lam ln lam) over eigenvalues, in nats, with 0 ln 0 = 0."""
    w = np.clip(rho.eigenvalues(), 0.0, 1.0)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def binary_entropy(p_ground, p_excited):
    """von_neumann_entropy of the diagonal spin state diag(p_ground, p_excited),
    elementwise over broadcast arrays (or plain floats), with 0 ln 0 = 0.

    With s the smaller population and l the larger, it is -(s ln s + l log1p(-s)),
    which keeps its relative accuracy where the spin is nearly pure: there l is
    near 1 and off by rounding of the order of an ulp of 1, which ln l would
    carry whole into a result of the order of s."""
    small, large = np.minimum(p_ground, p_excited), np.maximum(p_ground, p_excited)
    with np.errstate(divide="ignore", invalid="ignore"):  # np.where drops 0 * log(0)
        return -(np.where(small > 0.0, small * np.log(small), 0.0) + large * np.log1p(-small))


def internal_energy(rho: DensityMatrix, h_sys: Operator) -> float:
    """tr(rho H)."""
    if rho.dim != h_sys.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Hamiltonian {h_sys.dim}")
    return float(np.real(np.einsum("ij,ji->", rho.matrix, h_sys.matrix)))


def ledger_step(rho_before: DensityMatrix, generator: Operator, h_sys: Operator, *,
                step_index: int = 0,
                cumulative_before: float = 0.0) -> tuple[DensityMatrix, WorkLedgerEntry]:
    """Apply one pulse exp(-i*generator) and book its work and heat.

    The pulse runs for the unit time under the constant total Hamiltonian
    generator, i.e. the control term is H_c = generator - h_sys.  Phases:
    dW1 = tr(rho H_c) when the field switches on, dQ1 = tr[(rho' - rho)
    generator] during the evolution (zero up to rounding, since the total
    Hamiltonian commutes with the evolution), and dW2 = -tr(rho' H_c) when
    the field switches off.  The net work therefore equals the
    internal-energy change tr[h_sys (rho' - rho)].

    This is the per-pulse form of compiler.run_with_ledger, which books a
    whole compiled sequence at once, bit for bit as a loop of these calls.
    """
    try:  # herm_exp's hermiticity check is the generator's only one
        unitary = herm_exp(generator, 1.0)
    except ValueError:
        raise ValueError("pulse generator must be Hermitian") from None
    if generator.dim != rho_before.dim or h_sys.dim != rho_before.dim:
        raise ValueError("generator, state, and system Hamiltonian dimensions must agree")
    h_control = generator - h_sys
    rho_after = evolve(rho_before, unitary)
    dw1 = internal_energy(rho_before, h_control)
    dq1 = internal_energy(rho_after, generator) - internal_energy(rho_before, generator)
    dw2 = -internal_energy(rho_after, h_control)
    net = dw1 + dq1 + dw2
    return rho_after, WorkLedgerEntry(step_index, dw1, dq1, dw2, net, cumulative_before + net)
