"""Exact density-matrix simulation of a three-spin self-contained refrigerator.

The package exports the public names of its modules, listed in ``_EXPORTS``.
A name is read from its module on first use, and the module is imported then
(PEP 562), so ``import spinfridge`` alone loads no module and no numpy.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it exports, each name once
_EXPORTS = {
    "linalg": """Operator DensityMatrix PauliString kron partial_trace herm_exp evolve
        pauli_to_operator""",
    "thermo": """SpinSpec WorkLedgerEntry thermal_state effective_temperature
        von_neumann_entropy internal_energy ledger_step spin_temperature binary_entropy""",
    "fridge": """FridgeConfig ExchangeReport exchange_generator exchange_pauli_terms
        initial_state exchange boltzmann_margin exchange_flow exchange_sweep working_condition
        bound_temperature phase_boundary_value cop carnot_limit carnot_sweep two_spin_swap
        system_hamiltonian""",
    "compiler": """GateStep CompiledSequence compile_exchange verify sequence_unitary
        permute_blocks run_with_ledger LedgerColumns""",
    "cycles": "CycleColumns run_cycles detect_convergence scan_phase_diagram",
    "cooling": """BiasState BcsRound BcsResult bcs_bias bcs_outcome_probs expected_purified
        rounds_to_bias bias_from_temperature simulate_bcs""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """Read an exported name from its module, importing the module on first
    use; nothing is cached here, so a rebound module attribute shows through."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
