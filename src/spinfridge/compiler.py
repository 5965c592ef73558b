"""Compile the exchange evolution into single- and two-qubit pulses.

exp(-i*theta*(|010><101| + |101><010|)) factors over the four commuting
three-body Pauli terms of the exchange coupling.  Each term is lowered to
a ten-step block: a basis change taking every Pauli to sigma_z (Hadamard
for X, its sigma_y analogue for Y) on all three qubits, an eight-pulse
core that builds the z-z-z rotation out of one- and two-qubit rotations
around a central ZZ(theta/2) pulse on qubits 2 and 3, and the basis change
again.  Four blocks of ten give the forty-step sequence; the blocks
commute, so their order is irrelevant.

Every step stores a Hermitian generator G with unit duration, realizing
the unitary exp(-i G), which it computes once.  All generators are sums of
one- and two-qubit terms, so the sequence is directly implementable with
pairwise couplings.

Only the four core pulses depend on theta.  The basis changes and the
fixed rotations and ZZ pulses around each core are built once per process,
on first use, and every compiled sequence shares them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    HADAMARD,
    HADAMARD_Y,
    DensityMatrix,
    Operator,
    PauliString,
    eigh_exp,
    embed_single,
    herm_eigh,
    herm_exp,
    pauli_to_operator,
)
from .fridge import exchange_generator, exchange_pauli_terms
from .thermo import WorkLedgerEntry, check_positive, ledger_step

BLOCK_SIZE = 10
N_BLOCKS = 4
N_STEPS = BLOCK_SIZE * N_BLOCKS


@dataclass(frozen=True)
class GateStep:
    """One pulse: exp(-i*generator) applied for a normalized unit duration."""

    label: str
    generator: Operator
    duration: float = 1.0
    _unitary: Operator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.generator.is_hermitian():
            raise ValueError(f"gate generator for {self.label!r} must be Hermitian")
        if not self.duration > 0.0:
            raise ValueError("gate duration must be positive")
        object.__setattr__(self, "_unitary", herm_exp(self.generator, 1.0))

    def unitary(self) -> Operator:
        """exp(-i*generator), computed once when the step is built."""
        return self._unitary


@dataclass(frozen=True)
class CompiledSequence:
    """Ordered pulse list with the block structure of the four Pauli terms."""

    steps: tuple[GateStep, ...]
    theta: float
    term_boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.term_boundaries[-1] != len(self.steps):
            raise ValueError("term boundaries must end at the final step")
        if any(b - a <= 0 for a, b in zip((0,) + self.term_boundaries, self.term_boundaries)):
            raise ValueError("term boundaries must be strictly increasing")

    def blocks(self) -> list[tuple[GateStep, ...]]:
        starts = (0,) + self.term_boundaries[:-1]
        return [self.steps[a:b] for a, b in zip(starts, self.term_boundaries)]


# exp(-i * _H_GEN) equals the Hadamard exactly (phase included); same for H_y
_H_GEN = (math.pi / 2.0) * Operator(HADAMARD.matrix - np.eye(2))
_HY_GEN = (math.pi / 2.0) * Operator(HADAMARD_Y.matrix - np.eye(2))


@functools.lru_cache(maxsize=N_BLOCKS)  # one per Pauli term
def _basis_step(letters: str) -> GateStep:
    """Simultaneous single-qubit basis changes mapping each Pauli to Z."""
    gen = None
    labels = []
    for qubit, letter in enumerate(letters):
        local = _H_GEN if letter == "X" else _HY_GEN
        labels.append(("H" if letter == "X" else "Hy") + f"@{qubit + 1}")
        piece = embed_single(local, qubit, 3)
        gen = piece if gen is None else gen + piece
    return GateStep(label=";".join(labels), generator=gen)


def _pauli_step(label: str, letters: str, angle: float) -> GateStep:
    return GateStep(label=label, generator=pauli_to_operator(PauliString(letters, angle)))


@functools.lru_cache(maxsize=1)
def _core_frame() -> tuple[tuple[GateStep, ...], tuple[GateStep, ...]]:
    """The fixed pulses before and after the ZZ core of every block."""
    quarter = math.pi / 4.0
    zz = _pauli_step("ZZ(pi/2)@12", "ZZI", quarter)
    ry = _pauli_step("Ry(pi/2)@2", "IYI", quarter)
    before = (
        _pauli_step("Rx(-pi/2)@2", "IXI", -quarter),
        _pauli_step("Ry(-pi)@2", "IYI", -math.pi / 2.0),
        zz,
        ry,
    )
    after = (ry, zz, _pauli_step("Rx(pi/2)@2", "IXI", quarter))
    return before, after


def compile_exchange(theta: float, g: float = 1.0) -> CompiledSequence:
    """Forty-step pulse sequence realizing exp(-i*theta*exchange).

    theta = g*t is the dimensionless evolution angle; pi/2 is a complete
    population exchange and larger values simply wind further.  g only
    fixes the physical time t = theta/g and does not enter the sequence.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    check_positive("coupling g", g)
    before, after = _core_frame()
    steps: list[GateStep] = []
    # one block per Pauli term of the unit coupling; its coeff of +-1/4 makes the core +-theta/4
    for term in exchange_pauli_terms(1.0):
        basis = _basis_step(term.letters)
        core_label = f"ZZ({'-' if term.coeff < 0 else ''}theta/2)@23"
        core = _pauli_step(core_label, "IZZ", term.coeff * theta)
        steps.extend((basis, *before, core, *after, basis))
    boundaries = tuple(BLOCK_SIZE * (k + 1) for k in range(N_BLOCKS))
    return CompiledSequence(steps=tuple(steps), theta=theta, term_boundaries=boundaries)


@functools.lru_cache(maxsize=1)
def _exchange_eigh() -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition of the unit exchange coupling, which verify
    exponentiates at every angle."""
    w, v = herm_eigh(exchange_generator(1.0))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def sequence_unitary(seq: CompiledSequence) -> Operator:
    """Ordered product of the step unitaries (step 0 applied first)."""
    total = Operator(np.eye(seq.steps[0].generator.dim, dtype=complex))
    for step in seq.steps:
        total = step.unitary() @ total
    return total


def verify(seq: CompiledSequence, theta: float | None = None) -> float:
    """Fidelity |tr(U_seq^dag U_direct)| / dim against the direct exponential.

    1.0 means the sequence equals the target up to a global phase.
    """
    if theta is None:
        theta = seq.theta
    u_seq = sequence_unitary(seq)
    u_direct = eigh_exp(_exchange_eigh(), theta)
    overlap = np.trace(u_seq.matrix.conj().T @ u_direct.matrix)
    return float(abs(overlap)) / u_seq.dim


def permute_blocks(seq: CompiledSequence, order: Sequence[int]) -> CompiledSequence:
    """Reorder the four term blocks; the compiled unitary is unchanged."""
    blocks = seq.blocks()
    if sorted(order) != list(range(len(blocks))):
        raise ValueError(f"order must be a permutation of 0..{len(blocks) - 1}")
    steps: list[GateStep] = []
    boundaries: list[int] = []
    for idx in order:
        steps.extend(blocks[idx])
        boundaries.append(len(steps))
    return CompiledSequence(steps=tuple(steps), theta=seq.theta, term_boundaries=tuple(boundaries))


def run_with_ledger(
    seq: CompiledSequence, rho0: DensityMatrix, h_sys: Operator
) -> tuple[DensityMatrix, list[WorkLedgerEntry]]:
    """Fold the work ledger over the sequence (step indices are 1-based)."""
    if rho0.dim != h_sys.dim or rho0.dim != seq.steps[0].generator.dim:
        raise ValueError("state, Hamiltonian, and sequence dimensions must agree")
    rho = rho0
    entries: list[WorkLedgerEntry] = []
    cumulative = 0.0
    for index, step in enumerate(seq.steps, start=1):
        rho, entry = ledger_step(
            rho,
            step.generator,
            step.duration,
            h_sys,
            step_index=index,
            cumulative_before=cumulative,
            unitary=step.unitary(),
        )
        cumulative = entry.cumulative_work
        entries.append(entry)
    return rho, entries
