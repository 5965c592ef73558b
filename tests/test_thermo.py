"""Thermal states, effective temperature, entropy, and the work ledger."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinfridge import (
    DensityMatrix,
    Operator,
    SpinSpec,
    dephase,
    effective_temperature,
    boltzmann_margin,
    evolve,
    herm_exp,
    internal_energy,
    ledger_step,
    spin_hamiltonian,
    thermal_state,
    von_neumann_entropy,
)
from spinfridge.linalg import PAULI_X


def test_spin_spec_validation():
    with pytest.raises(ValueError):
        SpinSpec(E=0.0, T=1.0)
    with pytest.raises(ValueError):
        SpinSpec(E=1.0, T=-2.0)
    with pytest.raises(ValueError):
        SpinSpec(E=1.0, T=math.inf)


def test_thermal_state_limits_and_value():
    hot = thermal_state(SpinSpec(E=1.0, T=1e9)).populations
    assert hot[0] == pytest.approx(0.5, abs=1e-8)
    assert hot[1] == pytest.approx(0.5, abs=1e-8)

    # frozen from the closed-form oracle: e^{-0.5} / (1 + e^{-0.5})
    assert oracles.thermal_population(2.0, 4.0) == pytest.approx(
        0.37754066879814546, abs=1e-15
    )
    warm = thermal_state(SpinSpec(E=2.0, T=4.0)).populations
    assert warm[1] == pytest.approx(0.37754066879814546, abs=1e-13)
    b = boltzmann_margin((2.0, 2.0, 2.0), (4.0, 4.0, 4.0))[0][0]
    assert b / (1.0 + b) == pytest.approx(float(warm[1]), abs=1e-15)

    cold = thermal_state(SpinSpec(E=1.0, T=1e-4)).populations
    assert cold[0] == pytest.approx(1.0, abs=1e-12)
    assert cold[1] == pytest.approx(0.0, abs=1e-12)


def test_effective_temperature_round_trip():
    rho = thermal_state(SpinSpec(E=2.0, T=4.0))
    assert effective_temperature(rho, 2.0) == pytest.approx(4.0, abs=1e-9)


def test_effective_temperature_markers():
    assert effective_temperature(DensityMatrix(np.eye(2) / 2.0), 1.0) == math.inf

    inverted = effective_temperature(DensityMatrix(np.diag([0.3, 0.7])), 1.0)
    assert inverted < 0.0 and math.isfinite(inverted)

    zero = effective_temperature(DensityMatrix(np.diag([1.0, 0.0])), 1.0)
    assert zero == 0.0 and math.copysign(1.0, zero) > 0

    negative_zero = effective_temperature(DensityMatrix(np.diag([0.0, 1.0])), 1.0)
    assert negative_zero == 0.0 and math.copysign(1.0, negative_zero) < 0


def test_effective_temperature_requires_single_spin():
    with pytest.raises(ValueError):
        effective_temperature(DensityMatrix(np.eye(4) / 4.0), 1.0)


def test_entropy_pure_mixed_thermal():
    assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]))) == pytest.approx(
        0.0, abs=1e-15
    )
    assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2.0)) == pytest.approx(
        math.log(2.0), abs=1e-14
    )
    # frozen from the binary-entropy oracle at p = 0.37754066879814546
    assert oracles.binary_entropy(0.37754066879814546) == pytest.approx(
        0.6628473185791794, abs=1e-15
    )
    assert von_neumann_entropy(thermal_state(SpinSpec(E=2.0, T=4.0))) == pytest.approx(
        0.6628473185791794, abs=1e-12
    )


def test_internal_energy_examples():
    h_sys = Operator(np.diag([0.0, 2.0, 3.0, 5.0, 1.0, 3.0, 4.0, 6.0]))  # gaps (1,3,2)
    ground = np.zeros((8, 8))
    ground[0, 0] = 1.0
    assert internal_energy(DensityMatrix(ground), h_sys) == pytest.approx(0.0, abs=1e-15)

    top = np.zeros((8, 8))
    top[7, 7] = 1.0
    assert internal_energy(DensityMatrix(top), h_sys) == pytest.approx(6.0, abs=1e-13)

    # product thermal state at T = (2, 2, 10): sum of E_i * p_i, frozen from
    # the per-spin population oracle
    rho0 = DensityMatrix(oracles.product_thermal_matrix((1.0, 3.0, 2.0), (2.0, 2.0, 10.0)))
    expected = (
        1.0 * oracles.thermal_population(1.0, 2.0)
        + 3.0 * oracles.thermal_population(3.0, 2.0)
        + 2.0 * oracles.thermal_population(2.0, 10.0)
    )
    assert expected == pytest.approx(1.8251492455922587, abs=1e-14)
    assert internal_energy(rho0, h_sys) == pytest.approx(1.8251492455922587, abs=1e-12)


def test_internal_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        internal_energy(DensityMatrix(np.eye(2) / 2.0), Operator(np.eye(4)))


def test_ledger_step_zero_generator_is_identity():
    rho = thermal_state(SpinSpec(E=1.0, T=2.0))
    after, entry = ledger_step(rho, Operator(np.zeros((2, 2))), 1.0, spin_hamiltonian(1.0))
    assert np.allclose(after.matrix, rho.matrix, atol=1e-14)
    assert entry.net_work == pytest.approx(0.0, abs=1e-13)
    assert entry.dQ1 == pytest.approx(0.0, abs=1e-13)


def test_ledger_step_commuting_generator_moves_nothing():
    # diagonal generator, diagonal state: populations cannot change
    rho = DensityMatrix(np.diag([0.6, 0.4]))
    gen = Operator(np.diag([0.0, 0.9]))
    after, entry = ledger_step(rho, gen, 1.0, spin_hamiltonian(1.0))
    assert np.allclose(after.populations, rho.populations, atol=1e-14)
    assert entry.net_work == pytest.approx(0.0, abs=1e-12)


def test_ledger_step_validation():
    rho = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        ledger_step(rho, Operator(np.array([[0, 1], [0, 0]])), 1.0, spin_hamiltonian(1.0))
    with pytest.raises(ValueError):
        ledger_step(rho, Operator(np.zeros((2, 2))), 0.0, spin_hamiltonian(1.0))


def test_ledger_step_rejects_a_nan_entry():
    # a 1e300 generator over 1e-10 overflows the total Hamiltonian to inf, and
    # every trace of it to nan, which the net-work identity must not let through
    rho = thermal_state(SpinSpec(E=1.0, T=2.0))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="^net_work must equal dW1 \\+ dQ1 \\+ dW2$"):
        ledger_step(rho, Operator(1e300 * np.diag([1.0, -1.0])), 1e-10, spin_hamiltonian(1.0))


def test_ledger_identity_against_energy_delta(rng):
    # the two accounting modes of the four-phase ledger must agree
    h_sys = Operator(np.diag([0.0, 1.0, 3.0, 4.0]))
    for _ in range(25):
        rho = DensityMatrix(oracles.random_density(rng, 4))
        gen = Operator(oracles.random_hermitian(rng, 4))
        after, entry = ledger_step(rho, gen, 1.0, h_sys)
        delta_e = internal_energy(after, h_sys) - internal_energy(rho, h_sys)
        assert entry.net_work == pytest.approx(delta_e, abs=1e-10)
        assert entry.dQ1 == pytest.approx(0.0, abs=1e-10)
        assert entry.net_work == pytest.approx(
            entry.dW1 + entry.dQ1 + entry.dW2, abs=1e-12
        )


def test_heat_conserved_under_constant_hamiltonian(rng):
    for _ in range(25):
        h = Operator(oracles.random_hermitian(rng, 8))
        rho = DensityMatrix(oracles.random_density(rng, 8))
        after = evolve(rho, herm_exp(h, 0.73))
        assert internal_energy(after, h) == pytest.approx(
            internal_energy(rho, h), abs=1e-11
        )


def test_entropy_is_unitarily_invariant(rng):
    for _ in range(25):
        rho = DensityMatrix(oracles.random_density(rng, 8))
        u = Operator(oracles.random_unitary(rng, 8))
        assert von_neumann_entropy(evolve(rho, u)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


def test_rotation_plus_dephase_prepares_thermal_state():
    # idealized preparation: rotate |0> to the right populations, crush coherence
    spec = SpinSpec(E=2.0, T=4.0)
    p_ground = 1.0 - oracles.thermal_population(spec.E, spec.T)
    angle = 2.0 * math.acos(math.sqrt(p_ground))
    rotation = herm_exp(PAULI_X, angle / 2.0)
    prepared = dephase(evolve(DensityMatrix(np.diag([1.0, 0.0])), rotation))
    assert np.allclose(prepared.matrix, thermal_state(spec).matrix, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 100.0), st.floats(0.5, 5.0))
def test_temperature_round_trip_property(T, E):
    rho = thermal_state(SpinSpec(E=E, T=T))
    assert effective_temperature(rho, E) == pytest.approx(T, abs=1e-9)
