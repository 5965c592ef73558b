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
diagonal (+-theta/4 IZZ) and so exponentiated in closed form, and places
each in every block of its sign.  The basis changes and the fixed rotations
and ZZ pulses around each core are built once per process, on first use,
as a template sequence with its distinct steps and layout; every compiled
sequence shares them, and a compile of many angles builds all their cores
in one stacked pass.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    HADAMARD,
    HADAMARD_Y,
    HERMITIAN_TOL,
    DensityMatrix,
    Operator,
    PauliString,
    canonical_chain,
    diagonal_exp,
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

    @classmethod
    def _exponentiated(cls, label: str, generator: Operator, unitary: Operator) -> GateStep:
        """A unit-duration step whose generator the caller has checked and
        exponentiated as __post_init__ would (compile_exchange does both for
        all its cores at once)."""
        step = object.__new__(cls)
        step.__dict__.update(label=label, generator=generator, duration=1.0, _unitary=unitary)
        return step

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

    def _with_distinct(self, theta: float, swaps: dict[int, GateStep]) -> CompiledSequence:
        """This sequence at another theta, with distinct[i] replaced by swaps[i],
        new step objects of the same dimension: the checks of __post_init__,
        and the layout, hold as they are."""
        distinct = list(self.distinct)
        for index, step in swaps.items():
            distinct[index] = step
        seq = object.__new__(CompiledSequence)
        seq.__dict__.update(steps=self._lay_out(distinct), theta=theta,
                            term_boundaries=self.term_boundaries,
                            distinct=tuple(distinct), layout=self.layout)
        return seq

    @functools.cached_property
    def _lay_out(self) -> operator.itemgetter:
        """The steps of any list of distinct steps, laid out as this sequence's."""
        return operator.itemgetter(*self.layout.tolist())

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
def _template() -> tuple[CompiledSequence, list[tuple[int, str, float]], np.ndarray]:
    """The sequence at theta = 0, built and checked as any, with its distinct
    steps and layout formed; for each of its two cores, its index in distinct,
    its label and the coefficient of the unit coupling (+-1/4, so the core's
    generator is coeff * theta * IZZ); and the unscaled Z@2 Z@3 product."""
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
    terms = exchange_pauli_terms(1.0)
    cores = {coeff: GateStep(label=f"ZZ({'-' if coeff < 0 else ''}theta/2)@23",
                             generator=Operator(0.0 * izz))
             for coeff in dict.fromkeys(term.coeff for term in terms)}
    steps: list[GateStep] = []
    for term in terms:  # one block per Pauli term
        basis = _basis_step(term.letters)
        steps.extend((basis, *before, cores[term.coeff], *after, basis))
    boundaries = tuple(BLOCK_SIZE * (k + 1) for k in range(N_BLOCKS))
    template = CompiledSequence(steps=tuple(steps), theta=0.0, term_boundaries=boundaries)
    slots = [(index, step.label, coeff) for index, step in enumerate(template.distinct)
             for coeff, core in cores.items() if step is core]
    return template, slots, izz


def compile_exchange(theta: float | Sequence[float], g: float = 1.0):
    """Forty-step pulse sequence realizing exp(-i*theta*exchange).

    theta = g*t is the dimensionless evolution angle; pi/2 is a complete
    population exchange and larger values simply wind further.  g only
    fixes the physical time t = theta/g and does not enter the sequence.

    ``theta`` is one angle, whose sequence comes back, or a list of angles,
    whose sequences come back as a list.  Every angle's two cores are built
    in one stacked pass, and each sequence is the template's with its cores
    swapped in, so it shares the template's other steps and its layout.
    """
    single = np.ndim(theta) == 0
    angles = [theta] if single else list(theta)
    for angle in angles:
        check_theta(angle)
    check_positive("coupling g", g)
    template, cores, izz = _template()
    # gens[a, c] is core c's generator at angle a, coeff * theta * IZZ as
    # pauli_to_operator(PauliString("IZZ", coeff * theta)) forms it, bit for bit
    coeffs = np.array([coeff for _, _, coeff in cores])
    gens = np.multiply.outer(np.array(angles, dtype=float), coeffs)[..., None, None] * izz
    diagonals = gens.diagonal(axis1=-2, axis2=-1)
    # GateStep's hermiticity check, stacked; a diagonal generator's exact
    # exponential is herm_exp's closed form
    herm_err = np.abs(gens - gens.conj().swapaxes(-2, -1)).max(initial=0.0)
    if not (herm_err <= HERMITIAN_TOL and np.count_nonzero(gens) == np.count_nonzero(diagonals)):
        raise ValueError("core generators must be Hermitian and diagonal")
    units = diagonal_exp(diagonals.real, 1.0)
    gens.setflags(write=False)
    units.setflags(write=False)
    sequences = []
    for angle, angle_gens, angle_units in zip(angles, gens, units):
        swaps = {index: GateStep._exponentiated(label, Operator._shared(gen),
                                                Operator._shared(unit))
                 for (index, label, _), gen, unit in zip(cores, angle_gens, angle_units)}
        sequences.append(template._with_distinct(angle, swaps))
    return sequences[0] if single else sequences


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
    list.
    """
    batch = [seqs] if isinstance(seqs, CompiledSequence) else list(seqs)
    products = [Operator(product) for product in _products(batch)]
    return products[0] if isinstance(seqs, CompiledSequence) else products


def _products(batch: list[CompiledSequence]) -> np.ndarray:
    """The stack of the sequences' products, shape (len(batch), dim, dim).

    One loop runs over the steps of the whole list: a step object that every
    sequence holds at a position multiplies all the products at once,
    broadcast, and the others go stacked (numpy's broadcast and stacked matmul
    equal the per-matrix product bit for bit, which the test suite guards).
    """
    if len({len(seq.steps) for seq in batch}) != 1:
        raise ValueError("sequence_unitary needs one or more sequences of equal length")
    dim = batch[0].steps[0].generator.dim
    total = np.eye(dim, dtype=complex)
    for column in zip(*(seq.steps for seq in batch)):
        if all(step is column[0] for step in column):
            total = column[0].unitary().matrix @ total
        else:
            total = np.stack([step.unitary().matrix for step in column]) @ total
    return np.broadcast_to(total, (len(batch), dim, dim))


def verify(seqs: CompiledSequence | Sequence[CompiledSequence]):
    """Fidelity |tr(U_seq^dag U_direct)| / dim against the direct exponential.

    1.0 means the sequence equals the target up to a global phase.  As for
    sequence_unitary, ``seqs`` is one sequence (a float comes back) or a list
    (a list of floats comes back).  The products, the direct exponentials
    (from one eigendecomposition of the coupling) and the overlap traces are
    formed for the whole list as stacks, which equal the per-sequence
    calls bit for bit (the test suite guards that).
    """
    batch = [seqs] if isinstance(seqs, CompiledSequence) else list(seqs)
    products = _products(batch)
    w, v = _exchange_eigh()
    thetas = np.array([seq.theta for seq in batch], dtype=float)
    # eigh_exp at every angle: (v * exp(-i w theta)) @ v^H
    direct = (v * np.exp(-1j * w * thetas[:, None])[:, None, :]) @ v.conj().T
    overlaps = np.trace(products.conj().transpose(0, 2, 1) @ direct, axis1=1, axis2=2)
    fidelities = [float(abs(overlap)) / products.shape[-1] for overlap in overlaps]
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
    sequence's layout.  Every state after rho0, the final one too, goes
    through linalg.canonical_chain (canonical_density per state, as
    DensityMatrix would, with the checks stacked), and the four traces of
    every pulse are taken over the stacked states at once.
    """
    if h_sys.dim != rho0.dim or seq.steps[0].generator.dim != rho0.dim:
        raise ValueError("generator, state, and system Hamiltonian dimensions must agree")
    # one stack of each distinct step's generator and unitary, laid out per pulse by index
    gens, units = np.array([step.generator.matrix for step in seq.distinct]
                           + [step.unitary().matrix for step in seq.distinct]
                           ).reshape(2, -1, rho0.dim, rho0.dim)
    rhos = canonical_chain(rho0.matrix, units, seq.layout)
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
    final = DensityMatrix._of_canonical(rhos[-1])  # canonical_chain has checked it
    return final, LedgerColumns(np.arange(1, len(seq.steps) + 1), dw1, dq1, dw2, net, cumulative)
