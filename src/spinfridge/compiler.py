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

Only the four core pulses depend on theta, and they take two generators:
three terms carry +1/4 and one -1/4, so a compile builds two core steps,
diagonal (+-theta/4 IZZ) and so exponentiated in closed form by herm_exp,
and places each in every block of its sign.  The basis changes and the
fixed rotations and ZZ pulses around each core are built once per process,
on first use, and every compiled sequence shares them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    HADAMARD,
    HADAMARD_Y,
    DensityMatrix,
    Operator,
    PauliString,
    canonical_chain,
    eigh_exp,
    embed_single,
    herm_exp,
    pauli_matrix,
    pauli_to_operator,
)
from .fridge import check_theta, exchange_generator, exchange_pauli_terms
from .thermo import check_positive

BLOCK_SIZE = 10
N_BLOCKS = 4


@dataclass(frozen=True)
class GateStep:
    """One pulse: exp(-i*generator) applied for a normalized unit duration."""

    label: str
    generator: Operator
    duration: float = 1.0
    _unitary: Operator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:  # herm_exp's hermiticity check is the step's only one (closed form if diagonal)
            unitary = herm_exp(self.generator, 1.0)
        except ValueError:
            raise ValueError(f"gate generator for {self.label!r} must be Hermitian") from None
        if not self.duration > 0.0:
            raise ValueError("gate duration must be positive")
        object.__setattr__(self, "_unitary", unitary)

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
        dims = sorted({step.generator.dim for step in self.steps})
        if len(dims) > 1:
            raise ValueError(f"sequence steps must share one dimension, got {dims}")
        if self.term_boundaries[-1] != len(self.steps):
            raise ValueError("term boundaries must end at the final step")
        if any(b - a <= 0 for a, b in zip((0,) + self.term_boundaries, self.term_boundaries)):
            raise ValueError("term boundaries must be strictly increasing")

    @functools.cached_property
    def distinct(self) -> tuple[GateStep, ...]:
        """Each step object once, in order of first use: a compiled exchange
        has 11 (4 basis changes, 5 frame pulses and 2 cores)."""
        return tuple({id(step): step for step in self.steps}.values())

    @functools.cached_property
    def layout(self) -> np.ndarray:
        """The index of every step in ``distinct``: steps[k] is distinct[layout[k]]."""
        position = {id(step): index for index, step in enumerate(self.distinct)}
        layout = np.array([position[id(step)] for step in self.steps])
        layout.setflags(write=False)
        return layout

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
def _core_frame() -> tuple[tuple[GateStep, ...], tuple[GateStep, ...], np.ndarray]:
    """The fixed pulses before and after the ZZ core of every block, and the
    unscaled Z@2 Z@3 product that the core scales by its angle."""
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
    izz = pauli_matrix("IZZ")
    izz.setflags(write=False)
    return before, after, izz


def compile_exchange(theta: float, g: float = 1.0) -> CompiledSequence:
    """Forty-step pulse sequence realizing exp(-i*theta*exchange).

    theta = g*t is the dimensionless evolution angle; pi/2 is a complete
    population exchange and larger values simply wind further.  g only
    fixes the physical time t = theta/g and does not enter the sequence.
    """
    check_theta(theta)
    check_positive("coupling g", g)
    before, after, izz = _core_frame()
    terms = exchange_pauli_terms(1.0)
    # one core per distinct coeff of the unit coupling: +-1/4 makes it +-theta/4;
    # its generator is pauli_to_operator(PauliString("IZZ", coeff * theta)), bit for bit
    cores = {
        coeff: GateStep(label=f"ZZ({'-' if coeff < 0 else ''}theta/2)@23",
                        generator=Operator(coeff * theta * izz))
        for coeff in dict.fromkeys(term.coeff for term in terms)
    }
    steps: list[GateStep] = []
    for term in terms:  # one block per Pauli term
        basis = _basis_step(term.letters)
        steps.extend((basis, *before, cores[term.coeff], *after, basis))
    boundaries = tuple(BLOCK_SIZE * (k + 1) for k in range(N_BLOCKS))
    return CompiledSequence(steps=tuple(steps), theta=theta, term_boundaries=boundaries)


@functools.lru_cache(maxsize=1)
def _exchange_eigh() -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition of the unit exchange coupling, which verify
    exponentiates at every angle."""
    w, v = np.linalg.eigh(exchange_generator(1.0).matrix)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def sequence_unitary(seqs: CompiledSequence | Sequence[CompiledSequence]):
    """Ordered product of the step unitaries (step 0 applied first).

    ``seqs`` is one sequence, whose product comes back as an Operator, or a
    list of sequences with equally many steps, whose products come back as a
    list.  One loop runs over the steps of the whole list: a step object that
    every sequence holds at a position multiplies all the products at once,
    broadcast, and the others go stacked (numpy's broadcast and stacked matmul
    equal the per-matrix product bit for bit, which the test suite guards).
    """
    batch = [seqs] if isinstance(seqs, CompiledSequence) else list(seqs)
    if len({len(seq.steps) for seq in batch}) != 1:
        raise ValueError("sequence_unitary needs one or more sequences of equal length")
    dim = batch[0].steps[0].generator.dim
    total = np.eye(dim, dtype=complex)
    for column in zip(*(seq.steps for seq in batch)):
        if all(step is column[0] for step in column):
            total = column[0].unitary().matrix @ total
        else:
            total = np.stack([step.unitary().matrix for step in column]) @ total
    products = [Operator(product) for product in np.broadcast_to(total, (len(batch), dim, dim))]
    return products[0] if isinstance(seqs, CompiledSequence) else products


def verify(seqs: CompiledSequence | Sequence[CompiledSequence]):
    """Fidelity |tr(U_seq^dag U_direct)| / dim against the direct exponential.

    1.0 means the sequence equals the target up to a global phase.  As for
    sequence_unitary, ``seqs`` is one sequence (a float comes back) or a list
    (a list of floats comes back), and one sequence_unitary call forms every
    product.
    """
    batch = [seqs] if isinstance(seqs, CompiledSequence) else list(seqs)
    fidelities = []
    for seq, u_seq in zip(batch, sequence_unitary(batch)):
        u_direct = eigh_exp(_exchange_eigh(), seq.theta)
        overlap = np.trace(u_seq.matrix.conj().T @ u_direct.matrix)
        fidelities.append(float(abs(overlap)) / u_seq.dim)
    return fidelities[0] if isinstance(seqs, CompiledSequence) else fidelities


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


class LedgerColumns(NamedTuple):
    """The work ledger of a pulse sequence: the four-phase record of
    thermo.ledger_step for each pulse, one entry per pulse in each column
    (step_index counts from 1)."""

    step_index: np.ndarray
    dW1: np.ndarray
    dQ1: np.ndarray
    dW2: np.ndarray
    net_work: np.ndarray
    cumulative_work: np.ndarray


def run_with_ledger(
    seq: CompiledSequence, rho0: DensityMatrix, h_sys: Operator
) -> tuple[DensityMatrix, LedgerColumns]:
    """Fold the work ledger over the sequence, as columns.

    The columns and the final state are those of a thermo.ledger_step per
    pulse, bit for bit.  GateStep has checked every generator and duration
    where the step was built (its unitary is herm_exp's), CompiledSequence
    their shared dimension, so only the state's and h_sys's are checked here.
    The distinct steps are stacked once and laid out per pulse by the
    sequence's layout.  The states go through linalg.canonical_chain
    (canonical_density per state, as DensityMatrix would, with the checks
    stacked), and the four traces of every pulse are taken over the stacked
    states at once.
    """
    if h_sys.dim != rho0.dim or seq.steps[0].generator.dim != rho0.dim:
        raise ValueError("generator, state, and system Hamiltonian dimensions must agree")
    # one stack of each distinct step's generator and unitary, laid out per pulse by index
    gens, units = np.array([step.generator.matrix for step in seq.distinct]
                           + [step.unitary().matrix for step in seq.distinct]
                           ).reshape(2, -1, rho0.dim, rho0.dim)
    states = canonical_chain(rho0.matrix, units, seq.layout[:-1])
    last = units[seq.layout[-1]]
    final = DensityMatrix(last @ states[-1] @ last.conj().T)
    rhos = np.concatenate((states, final.matrix[None]))
    durations = np.array([step.duration for step in seq.distinct])
    h_total = gens * (1.0 / durations).astype(complex)[:, None, None]
    h_control = h_total - h_sys.matrix
    h_total, h_control = h_total[seq.layout], h_control[seq.layout]

    def traces(rho, h):  # internal_energy of every pulse, summed in the same order
        return np.einsum("kij,kji->k", rho, h).real

    before, after = rhos[:-1], rhos[1:]
    dw1 = traces(before, h_control)
    dq1 = traces(after, h_total) - traces(before, h_total)
    dw2 = -traces(after, h_control)
    net = dw1 + dq1 + dw2
    cumulative = np.cumsum(np.concatenate(([0.0], net)))[1:]  # 0.0 + net first, as the loop
    return final, LedgerColumns(np.arange(1, len(seq.steps) + 1), dw1, dq1, dw2, net, cumulative)
