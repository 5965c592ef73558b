"""Compile the exchange evolution into single- and two-qubit pulses.

exp(-i*theta*(|010><101| + |101><010|)) factors over the four commuting
three-body Pauli terms of the exchange coupling.  Each term is lowered to
a ten-step block: a basis change taking every Pauli to sigma_z (Hadamard
for X, its sigma_y analogue for Y) on all three qubits, an eight-pulse
core that builds the z-z-z rotation out of one- and two-qubit rotations
around a central ZZ(theta/2) pulse on qubits 2 and 3, and the basis change
again.  Four blocks of ten give the forty-step sequence; the blocks
commute, so their order is irrelevant.

Every pulse has a Hermitian generator G with unit duration, realizing the
unitary exp(-i G).  All generators are sums of one- and two-qubit terms,
so the sequence is directly implementable with pairwise couplings.

A compiled sequence holds read-only stacks of its 11 distinct pulses'
generators and unitaries, and lays them out over its 40 steps by index.
Only the four core pulses depend on theta, and they take two generators:
three terms carry +1/4 and one -1/4, so two rows of the stacks are cores,
diagonal (+-theta/4 IZZ) and so exponentiated in closed form.  The other
rows come from a template built once per process, on first use, from
checked GateSteps; a compile copies its stacks and writes the core rows of
every angle, formed in one stacked pass.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    HADAMARD,
    HADAMARD_Y,
    DensityMatrix,
    Operator,
    PauliString,
    Record,
    canonical_chain,
    diagonal_exp,
    eigh_exp,
    embed_single,
    herm_exp,
    pauli_matrix,
    pauli_to_operator,
)
from .fridge import check_theta, exchange_generator, exchange_pauli_terms

BLOCK_SIZE = 10
N_BLOCKS = 4


class GateStep(Record):
    """One pulse: exp(-i*generator), applied for the unit time."""

    _fields = ("label", "generator")
    __slots__ = (*_fields, "_unitary")

    def __init__(self, label: str, generator: Operator) -> None:
        try:  # herm_exp's hermiticity check is the step's only one (closed form if diagonal)
            unitary = herm_exp(generator, 1.0)
        except ValueError:
            raise ValueError(f"gate generator for {label!r} must be Hermitian") from None
        self._set(label, generator)
        object.__setattr__(self, "_unitary", unitary)

    def unitary(self) -> Operator:
        """exp(-i*generator), computed once when the step is built."""
        return self._unitary


class CompiledSequence:
    """Ordered pulse list with the block structure of the four Pauli terms.

    Its pulses are rows of read-only stacks: ``generators`` and ``unitaries``,
    shape (rows, dim, dim), each unitary herm_exp's of its generator.  Step k
    applies row ``layout[k]`` and is named
    ``labels[k]``.  Built from GateSteps, each step has a row of its own; a
    compiled exchange has 11 rows (4 basis changes, 5 frame pulses and 2
    cores) laid out over 40 steps.  A sequence is immutable, and equal only
    to itself; a copy of it is the sequence itself, and a pickle rebuilds it
    with its stacks read-only.
    """

    generators: np.ndarray
    unitaries: np.ndarray
    layout: np.ndarray
    labels: tuple[str, ...]
    theta: float
    term_boundaries: tuple[int, ...]

    __setattr__ = __delattr__ = Record.__setattr__

    def __init__(self, steps: Sequence[GateStep], theta: float,
                 term_boundaries: Sequence[int]) -> None:
        steps, boundaries = tuple(steps), tuple(term_boundaries)
        dims = sorted({step.generator.dim for step in steps})
        if len(dims) > 1:
            raise ValueError(f"sequence steps must share one dimension, got {dims}")
        if not boundaries or boundaries[-1] != len(steps):
            raise ValueError("term boundaries must end at the final step")
        if any(b - a <= 0 for a, b in zip((0,) + boundaries, boundaries)):
            raise ValueError("term boundaries must be strictly increasing")
        stacks = (np.array([step.generator.matrix for step in steps]),
                  np.array([step.unitary().matrix for step in steps]),
                  np.arange(len(steps)))
        for stack in stacks:
            stack.setflags(write=False)
        self.__dict__.update(zip(("generators", "unitaries", "layout"), stacks),
                             labels=tuple(step.label for step in steps), theta=theta,
                             term_boundaries=boundaries)

    def __copy__(self, memo=None) -> CompiledSequence:
        return self

    __deepcopy__ = __copy__

    def __setstate__(self, state: dict) -> None:  # unpickled, unchecked: its rows were checked
        for name in ("generators", "unitaries", "layout"):
            state[name].setflags(write=False)
        self.__dict__.update(state)

    def _with(self, **changes) -> CompiledSequence:
        """This sequence with some fields replaced, unchecked: every row of the
        stacks must stay a generator and its herm_exp unitary, as the rows of a
        built sequence or the cores compile_exchange forms, finite, real and
        diagonal by construction."""
        seq = object.__new__(CompiledSequence)
        seq.__dict__.update(self.__dict__, **changes)
        return seq

    @property
    def steps(self) -> tuple[GateStep, ...]:
        """The steps as GateSteps, built afresh on every call."""
        return tuple(GateStep(label, Operator(self.generators[row]))
                     for label, row in zip(self.labels, self.layout))

    def blocks(self) -> list[tuple[GateStep, ...]]:
        steps = self.steps
        starts = (0,) + self.term_boundaries[:-1]
        return [steps[a:b] for a, b in zip(starts, self.term_boundaries)]


# exp(-i * _H_GEN) equals the Hadamard exactly (phase included); same for H_y
_H_GEN = (math.pi / 2.0) * Operator(HADAMARD.matrix - np.eye(2))
_HY_GEN = (math.pi / 2.0) * Operator(HADAMARD_Y.matrix - np.eye(2))


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
def _template() -> tuple[CompiledSequence, np.ndarray, np.ndarray, np.ndarray]:
    """The sequence at theta = 0, built from checked GateSteps, whose first two
    rows are its cores; the coefficient of the unit coupling in each core (+-1/4,
    so the core's generator is coeff * theta * IZZ); the unscaled IZZ; and the
    sequence's generators and unitaries stacked, shape (2, 11, 8, 8)."""
    izz = pauli_matrix("IZZ")
    izz.setflags(write=False)
    terms = exchange_pauli_terms()
    coeffs = list(dict.fromkeys(term.coeff for term in terms))
    quarter = math.pi / 4.0
    pulses = [
        *(GateStep(label=f"ZZ({'-' if coeff < 0 else ''}theta/2)@23", generator=Operator(0.0 * izz))
          for coeff in coeffs),
        _pauli_step("Rx(-pi/2)@2", "IXI", -quarter),
        _pauli_step("Ry(-pi)@2", "IYI", -math.pi / 2.0),
        _pauli_step("ZZ(pi/2)@12", "ZZI", quarter),
        _pauli_step("Ry(pi/2)@2", "IYI", quarter),
        _pauli_step("Rx(pi/2)@2", "IXI", quarter),
        *(_basis_step(term.letters) for term in terms),
    ]
    # rows: the two cores, Rx(-pi/2), Ry(-pi), ZZ(pi/2), Ry(pi/2), Rx(pi/2) and
    # the basis changes; one block per Pauli term
    layout = []
    for block, term in enumerate(terms):
        basis, core = 7 + block, coeffs.index(term.coeff)
        layout.extend((basis, 2, 3, 4, 5, core, 5, 4, 6, basis))
    layout = np.array(layout)
    layout.setflags(write=False)
    rows = CompiledSequence(pulses, 0.0, (len(pulses),))
    template = rows._with(layout=layout, labels=tuple(rows.labels[row] for row in layout),
                          term_boundaries=tuple(BLOCK_SIZE * (k + 1) for k in range(N_BLOCKS)))
    stacked = np.stack((template.generators, template.unitaries))
    stacked.setflags(write=False)
    return template, np.array(coeffs), izz, stacked


def compile_exchange(theta: float | Sequence[float]):
    """Forty-step pulse sequence realizing exp(-i*theta*exchange).

    theta = g*t is the dimensionless evolution angle, the coupling g being the
    unit of time; pi/2 is a complete population exchange and larger values
    simply wind further.

    ``theta`` is one angle, whose sequence comes back, or a list of angles,
    whose sequences come back as a list.  Every angle's two cores are built
    in one stacked pass and written over the template's core rows; each
    sequence shares the template's layout and labels.
    """
    single = np.ndim(theta) == 0
    angles = [theta] if single else list(theta)
    for angle in angles:
        check_theta(angle)
    template, coeffs, izz, stacked = _template()
    # gens[a, c] is core c's generator at angle a, coeff * theta * IZZ as
    # pauli_to_operator(PauliString("IZZ", coeff * theta)) forms it, bit for bit:
    # finite (check_theta has passed theta), real and diagonal, so Hermitian, and
    # its exact exponential is herm_exp's closed form
    gens = np.multiply.outer(np.array(angles, dtype=float), coeffs)[..., None, None] * izz
    diagonals = gens.diagonal(axis1=-2, axis2=-1)
    stacks = np.repeat(stacked[None], len(angles), axis=0)  # (angles, 2, 11, 8, 8)
    stacks[:, 0, :len(coeffs)] = gens
    stacks[:, 1, :len(coeffs)] = diagonal_exp(diagonals.real, 1.0)
    stacks.setflags(write=False)
    sequences = [template._with(generators=generators, unitaries=unitaries, theta=angle)
                 for angle, (generators, unitaries) in zip(angles, stacks)]
    return sequences[0] if single else sequences


@functools.lru_cache(maxsize=1)
def _exchange_eigh() -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition of the unit exchange coupling, which verify
    exponentiates at every angle."""
    w, v = np.linalg.eigh(exchange_generator().matrix)
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

    One loop runs over the steps, multiplying every product at once by the
    stack of its sequence's unitary at that step (numpy's stacked matmul
    equals the per-matrix product bit for bit, which the test suite guards).
    """
    if len({len(seq.layout) for seq in batch}) != 1:
        raise ValueError("sequence_unitary needs one or more sequences of equal length")
    steps = np.stack([seq.unitaries[seq.layout] for seq in batch], axis=1)
    total = np.eye(steps.shape[-1], dtype=complex)
    for step in steps:
        total = step @ total
    return total


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
    direct = eigh_exp(_exchange_eigh(), np.array([seq.theta for seq in batch], dtype=float))
    overlaps = np.trace(products.conj().transpose(0, 2, 1) @ direct, axis1=1, axis2=2)
    fidelities = [float(abs(overlap)) / products.shape[-1] for overlap in overlaps]
    return fidelities[0] if isinstance(seqs, CompiledSequence) else fidelities


def permute_blocks(seq: CompiledSequence, order: Sequence[int]) -> CompiledSequence:
    """Reorder the four term blocks; the compiled unitary is unchanged."""
    order = list(order)
    spans = list(zip((0,) + seq.term_boundaries[:-1], seq.term_boundaries))
    if (not all(isinstance(index, (int, np.integer)) for index in order)
            or sorted(order) != list(range(len(spans)))):
        raise ValueError(f"order must be a permutation of 0..{len(spans) - 1}")
    positions: list[int] = []
    boundaries: list[int] = []
    for index in order:
        positions.extend(range(*spans[index]))
        boundaries.append(len(positions))
    layout = seq.layout[positions]
    layout.setflags(write=False)
    return seq._with(layout=layout, labels=tuple(seq.labels[k] for k in positions),
                     term_boundaries=tuple(boundaries))


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
    pulse, bit for bit.  Every row of the sequence's stacks was checked where
    it was built (its unitary is herm_exp's of its generator) and
    CompiledSequence has checked their shared dimension, so only the state's
    and h_sys's are checked here.  Every state after rho0, the final one too,
    goes through linalg.canonical_chain (canonical_density per state, as
    DensityMatrix would, with the checks stacked), and the four traces of
    every pulse are taken over the stacked states at once.
    """
    if h_sys.dim != rho0.dim or seq.generators.shape[-1] != rho0.dim:
        raise ValueError("generator, state, and system Hamiltonian dimensions must agree")
    rhos = canonical_chain(rho0.matrix, seq.unitaries, seq.layout)
    h_total = seq.generators[seq.layout]  # each pulse's generator, applied for the unit time
    h_control = h_total - h_sys.matrix

    def traces(rho, h):  # internal_energy of every pulse, summed in the same order
        return np.einsum("kij,kji->k", rho, h).real

    before, after = rhos[:-1], rhos[1:]
    dw1 = traces(before, h_control)
    dq1 = traces(after, h_total) - traces(before, h_total)
    dw2 = -traces(after, h_control)
    net = dw1 + dq1 + dw2
    cumulative = np.cumsum(np.concatenate(([0.0], net)))[1:]  # 0.0 + net first, as the loop
    final = DensityMatrix._of_canonical(rhos[-1])  # canonical_chain has checked it
    return final, LedgerColumns(np.arange(1, len(seq.layout) + 1), dw1, dq1, dw2, net, cumulative)
