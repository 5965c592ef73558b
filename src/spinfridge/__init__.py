"""Exact density-matrix simulation of a three-spin self-contained refrigerator."""

__version__ = "0.1.0"

from .linalg import (
    DensityMatrix,
    Operator,
    PauliString,
    dephase,
    evolve,
    herm_exp,
    kron,
    partial_trace,
    pauli_to_operator,
)
from .thermo import (
    SpinSpec,
    WorkLedgerEntry,
    binary_entropy,
    effective_temperature,
    internal_energy,
    ledger_step,
    spin_temperature,
    spin_hamiltonian,
    thermal_state,
    von_neumann_entropy,
)
from .fridge import (
    ExchangeReport,
    FridgeConfig,
    boltzmann_margin,
    bound_temperature,
    carnot_limit,
    carnot_sweep,
    cop,
    exchange,
    exchange_flow,
    exchange_generator,
    exchange_pauli_terms,
    exchange_sweep,
    initial_state,
    phase_boundary_value,
    system_hamiltonian,
    two_spin_swap,
    working_condition,
)
from .compiler import (
    CompiledSequence,
    GateStep,
    LedgerColumns,
    compile_exchange,
    permute_blocks,
    run_with_ledger,
    sequence_unitary,
    verify,
)
from .cycles import (
    CycleColumns,
    detect_convergence,
    run_cycles,
    scan_phase_diagram,
)
from .cooling import (
    BcsResult,
    BcsRound,
    BiasState,
    bcs_bias,
    bcs_outcome_probs,
    bias_from_temperature,
    expected_purified,
    rounds_to_bias,
    simulate_bcs,
)

__all__ = [
    "__version__",
    "Operator", "DensityMatrix", "PauliString",
    "kron", "partial_trace", "herm_exp", "evolve", "dephase", "pauli_to_operator",
    "SpinSpec", "WorkLedgerEntry", "thermal_state", "effective_temperature",
    "von_neumann_entropy", "internal_energy", "ledger_step", "spin_hamiltonian",
    "spin_temperature", "binary_entropy",
    "FridgeConfig", "ExchangeReport", "exchange_generator", "exchange_pauli_terms",
    "initial_state", "exchange", "boltzmann_margin", "exchange_flow", "exchange_sweep",
    "working_condition", "bound_temperature",
    "phase_boundary_value", "cop", "carnot_limit", "carnot_sweep",
    "two_spin_swap", "system_hamiltonian",
    "GateStep", "CompiledSequence", "compile_exchange", "verify",
    "sequence_unitary", "permute_blocks", "run_with_ledger", "LedgerColumns",
    "CycleColumns", "run_cycles", "detect_convergence", "scan_phase_diagram",
    "BiasState", "BcsRound", "BcsResult", "bcs_bias", "bcs_outcome_probs",
    "expected_purified", "rounds_to_bias", "bias_from_temperature", "simulate_bcs",
]
