"""Forty-step pulse decomposition of the exchange evolution."""

import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spinfridge
from conftest import working_configs
from spinfridge import (
    DensityMatrix,
    FridgeConfig,
    GateStep,
    Operator,
    PauliString,
    compile_exchange,
    evolve,
    exchange_generator,
    herm_exp,
    initial_state,
    internal_energy,
    ledger_step,
    pauli_to_operator,
    permute_blocks,
    run_with_ledger,
    sequence_unitary,
    system_hamiltonian,
    verify,
)
from spinfridge.linalg import canonical_density, eigh_exp, pauli_matrix, positivity_certified

THETAS = (0.0, math.pi / 8.0, math.pi / 4.0, math.pi / 2.0)
CORE = 5  # position of the theta-dependent ZZ core within each ten-step block


def test_sequence_shape():
    seq = compile_exchange(math.pi / 2.0)
    assert len(seq.steps) == 40
    assert seq.term_boundaries == (10, 20, 30, 40)
    blocks = seq.blocks()
    assert len(blocks) == 4
    assert all(len(block) == 10 for block in blocks)


def test_every_step_is_a_valid_one_or_two_qubit_pulse():
    seq = compile_exchange(1.1)
    for step in seq.steps:
        assert step.generator.is_hermitian()
        assert step.unitary().is_unitary()
        # every Pauli component of the generator touches at most two qubits
        for letters in itertools.product("IXYZ", repeat=3):
            string = "".join(letters)
            basis_op = pauli_to_operator(PauliString(string)).matrix
            coeff = np.trace(basis_op.conj().T @ step.generator.matrix) / 8.0
            weight = sum(1 for c in string if c != "I")
            if abs(coeff) > 1e-12:
                assert weight <= 2, f"{step.label} has weight-{weight} term {string}"


def test_zero_angle_compiles_to_identity_up_to_phase():
    seq = compile_exchange(0.0)
    u = sequence_unitary(seq).matrix
    assert abs(np.trace(u)) / 8.0 == pytest.approx(1.0, abs=1e-12)
    assert verify(seq) == pytest.approx(1.0, abs=1e-12)


def test_full_angle_swaps_the_two_levels_only():
    u = sequence_unitary(compile_exchange(math.pi / 2.0)).matrix
    direct = oracles.expm_unitary(oracles.exchange_matrix(), math.pi / 2.0)
    for basis in range(8):
        vec = np.zeros(8)
        vec[basis] = 1.0
        out = u @ vec
        target = {0b010: 0b101, 0b101: 0b010}.get(basis, basis)
        assert abs(out[target]) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(direct @ vec, out)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("theta", THETAS)
def test_verify_against_direct_exponential(theta):
    assert verify(compile_exchange(theta)) >= 1.0 - 1e-10


def test_verify_against_scipy_oracle():
    theta = 0.9321
    u_seq = sequence_unitary(compile_exchange(theta)).matrix
    u_direct = oracles.expm_unitary(oracles.exchange_matrix(), theta)
    fidelity = abs(np.trace(u_seq.conj().T @ u_direct)) / 8.0
    assert fidelity >= 1.0 - 1e-12


def fresh_fidelity(seq, theta):
    """verify's fidelity with the direct exponential computed afresh by herm_exp."""
    u_seq = sequence_unitary(seq)
    u_direct = herm_exp(exchange_generator(FridgeConfig().g), theta)
    return float(abs(np.trace(u_seq.matrix.conj().T @ u_direct.matrix))) / u_seq.dim


@pytest.mark.parametrize("theta", (*THETAS, -2.4, 0.9321, 12.5))
def test_verify_reuses_one_eigendecomposition(theta, monkeypatch):
    seq = compile_exchange(theta)
    wound = spinfridge.CompiledSequence(seq.steps, theta + 0.25, seq.term_boundaries)
    expected = (fresh_fidelity(seq, theta), fresh_fidelity(wound, theta + 0.25))
    verify(seq)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(1) or eigh(*args))
    # bit-identical to a fresh exponential, and no eigendecomposition per angle
    assert (verify(seq), verify(wound)) == expected
    assert calls == []


def loop_product(seq):
    """sequence_unitary's product as one 2-D matmul per step, sequence by sequence."""
    total = np.eye(8, dtype=complex)
    for step in seq.steps:
        total = step.unitary().matrix @ total
    return total


def test_broadcast_and_stacked_matmul_are_the_per_matrix_matmul(rng):
    """sequence_unitary multiplies a list of sequences at once, the stack of
    their unitaries at each step into the stack of products, which is the
    per-sequence product only while numpy's broadcast and stacked matmul equal
    the per-matrix one bit for bit; this guard fails, rather than verify
    drifting, if a numpy or BLAS update breaks that."""
    for count in range(1, 9):
        left, right = (np.stack([oracles.random_unitary(rng, 8) for _ in range(count)])
                       for _ in range(2))
        shared = oracles.random_unitary(rng, 8)
        assert (shared @ right).tobytes() == np.stack([shared @ m for m in right]).tobytes()
        assert (left @ shared).tobytes() == np.stack([m @ shared for m in left]).tobytes()
        assert (left @ right).tobytes() == np.stack([a @ b for a, b in zip(left, right)]).tobytes()


def test_stacked_exponentials_and_traces_are_the_per_matrix_calls(rng):
    """verify forms the direct exponentials (v * exp(-i w theta)) @ v^H, the
    products U^H D and their traces for a whole list as stacks, which is verify
    per sequence only while numpy's stacked calls equal the per-matrix ones bit
    for bit; this guard fails, rather than verify drifting, if a numpy or BLAS
    update breaks that."""
    w, v = np.linalg.eigh(oracles.random_hermitian(rng, 8))
    for count in range(1, 9):
        thetas = rng.normal(size=count) * 10.0 ** rng.uniform(-3.0, 3.0, size=count)
        phases = np.exp(-1j * w * thetas[:, None])
        assert phases.tobytes() == np.stack([np.exp(-1j * w * float(t)) for t in thetas]).tobytes()
        direct = (v * phases[:, None, :]) @ v.conj().T
        assert direct.tobytes() == np.stack([(v * p) @ v.conj().T for p in phases]).tobytes()
        shared = oracles.random_unitary(rng, 8)
        for products in (np.stack([oracles.random_unitary(rng, 8) for _ in range(count)]),
                         np.broadcast_to(shared, (count, 8, 8))):
            overlaps = products.conj().transpose(0, 2, 1) @ direct
            assert overlaps.tobytes() == np.stack(
                [np.array(u).conj().T @ d for u, d in zip(products, direct)]).tobytes()
            traces = np.trace(overlaps, axis1=1, axis2=2)
            assert traces.tobytes() == np.array([np.trace(m) for m in overlaps]).tobytes()


@pytest.mark.parametrize("count", range(1, 9))
def test_verify_over_a_list_is_verify_per_sequence(count):
    thetas = (0.0, -0.0, math.pi, -math.pi, 0.7, -2.4, 12.5, math.pi / 2.0)[-count:]
    seqs = [compile_exchange(theta) for theta in thetas]
    if count > 2:  # a permuted sequence holds other basis changes and cores at some positions
        seqs[1] = permute_blocks(seqs[1], (3, 1, 0, 2))
    if count > 4:  # one sequence twice, and a list with every step shared
        seqs[4] = seqs[0]
        assert verify([seqs[0]] * 3) == [verify(seqs[0])] * 3
    direct = exchange_generator(1.0)
    want = [float(abs(np.trace(loop_product(seq).conj().T @ herm_exp(direct, seq.theta).matrix)))
            / 8.0 for seq in seqs]
    got = verify(seqs)
    assert repr(got) == repr([verify(seq) for seq in seqs]) == repr(want)
    products = sequence_unitary(seqs)
    assert all(isinstance(u, Operator) for u in products)
    assert [u.matrix.tobytes() for u in products] == [loop_product(seq).tobytes() for seq in seqs]
    assert [sequence_unitary(seq).matrix.tobytes() for seq in seqs] == [
        loop_product(seq).tobytes() for seq in seqs]
    assert isinstance(verify(seqs[0]), float) and got[0] == verify(seqs[0])
    # the sequences of one list compile verify as those compiled one at a time
    batch = compile_exchange(thetas)
    assert repr(verify(batch)) == repr([verify(compile_exchange(theta)) for theta in thetas])


def test_verify_takes_sequences_of_equal_length():
    seq = compile_exchange(0.7)
    short = type(seq)(steps=seq.steps[:10], theta=0.7, term_boundaries=(10,))
    for batch in ([seq, short], []):
        with pytest.raises(ValueError, match="^sequence_unitary needs one or more sequences "
                                             "of equal length$"):
            verify(batch)


def test_single_sign_flip_is_detected():
    seq = compile_exchange(math.pi / 2.0)
    steps = list(seq.steps)
    victim = steps[3]  # ZZ(pi/2)@12 inside the first block
    steps[3] = GateStep(label=victim.label, generator=-victim.generator)
    mutated = type(seq)(steps=tuple(steps), theta=seq.theta, term_boundaries=seq.term_boundaries)
    assert verify(mutated) < 1.0 - 1e-6


def test_block_permutations_commute():
    seq = compile_exchange(math.pi / 2.0)
    cfg = FridgeConfig()
    rho0 = initial_state(cfg)
    reference = evolve(rho0, sequence_unitary(seq))
    for order in ((3, 2, 1, 0), (1, 0, 3, 2), (2, 3, 0, 1)):
        permuted = permute_blocks(seq, order)
        assert verify(permuted) >= 1.0 - 1e-10
        state = evolve(rho0, sequence_unitary(permuted))
        assert np.max(np.abs(state.matrix - reference.matrix)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1), st.floats(-300.0, 300.0))
def test_a_pulse_unitary_is_unitary_at_every_generator_scale(dim, seed, log_scale):
    """run_with_ledger checks no unitary: herm_exp's, which GateStep stores, is
    unitary by construction, for generator entries from 1e-300 to 1e300."""
    generator = Operator(oracles.random_hermitian(np.random.default_rng(seed), dim)
                         * 10.0**log_scale)
    assert herm_exp(generator, 1.0).is_unitary()
    assert GateStep(label="scaled", generator=generator).unitary().is_unitary()


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e300, sys.float_info.max,
                                  -sys.float_info.max]),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_every_compiled_pulse_is_unitary_at_extreme_angles(theta):
    assert all(step.unitary().is_unitary() for step in compile_exchange(theta).steps)


def test_permute_blocks_validates_order():
    seq = compile_exchange(0.5)
    for order in ((0, 1, 2, 2), (0, 1, 2), [0, 1, 2, 3.0]):
        with pytest.raises(ValueError, match=r"^order must be a permutation of 0\.\.3$"):
            permute_blocks(seq, order)
    # the layout and labels of the blocks, reordered; the stacks are the sequence's
    permuted = permute_blocks(seq, [np.int64(3), 2, 1, 0])
    reordered = np.concatenate([np.arange(a, a + 10) for a in (30, 20, 10, 0)])
    assert permuted.layout.tolist() == seq.layout[reordered].tolist()
    assert permuted.labels == tuple(seq.labels[k] for k in reordered)
    assert permuted.term_boundaries == (10, 20, 30, 40) and not permuted.layout.flags.writeable
    assert permuted.unitaries is seq.unitaries and permuted.theta is seq.theta


def test_ledger_on_maximally_mixed_state_is_flat():
    seq = compile_exchange(math.pi / 2.0)
    cfg = FridgeConfig()
    rho0 = DensityMatrix(np.eye(8) / 8.0)
    _, ledger = run_with_ledger(seq, rho0, system_hamiltonian(cfg))
    for net_work in ledger.net_work:
        assert net_work == pytest.approx(0.0, abs=1e-12)


def test_ledger_run_books_zero_total_work():
    cfg = FridgeConfig()
    seq = compile_exchange(math.pi / 2.0, cfg.g)
    rho0 = initial_state(cfg)
    h_sys = system_hamiltonian(cfg)
    final, ledger = run_with_ledger(seq, rho0, h_sys)

    assert all(len(column) == 40 for column in ledger)
    assert ledger.step_index.tolist() == list(range(1, 41))
    assert abs(ledger.cumulative_work[-1]) <= 1e-9
    assert max(abs(ledger.cumulative_work[:-1])) > 1e-3
    for dq1 in ledger.dQ1:
        assert dq1 == pytest.approx(0.0, abs=1e-10)

    # ledger consistency: per-step net work equals the internal-energy delta
    rho = rho0
    for net_work, step in zip(ledger.net_work, seq.steps):
        before = internal_energy(rho, h_sys)
        rho = evolve(rho, step.unitary())
        assert net_work == pytest.approx(
            internal_energy(rho, h_sys) - before, abs=1e-10
        )

    # the folded state equals the direct exponential evolution
    direct = evolve(rho0, herm_exp(Operator(oracles.exchange_matrix()), math.pi / 2.0))
    assert np.max(np.abs(final.matrix - direct.matrix)) <= 1e-10
    assert internal_energy(final, h_sys) == pytest.approx(
        internal_energy(rho0, h_sys), abs=1e-10
    )


def test_gate_step_validation():
    with pytest.raises(ValueError):
        GateStep(label="bad", generator=Operator(np.array([[0, 1], [0, 0]])))
    with pytest.raises(ValueError):
        GateStep(label="bad", generator=Operator(np.eye(2)), duration=0.0)
    # hermiticity is checked first, then the duration
    with pytest.raises(ValueError, match="^gate generator for 'bad' must be Hermitian$"):
        GateStep(label="bad", generator=Operator(np.array([[0, 1], [0, 0]])), duration=0.0)
    with pytest.raises(ValueError, match="^gate duration must be positive$"):
        GateStep(label="bad", generator=Operator(np.eye(2)), duration=0.0)


def test_each_pulse_generator_is_checked_for_hermiticity_once():
    generator = pauli_to_operator(PauliString("ZXY", 0.3))
    rho0, h_sys = initial_state(FridgeConfig()), system_hamiltonian(FridgeConfig())
    with mock.patch.object(Operator, "is_hermitian", autospec=True,
                           side_effect=Operator.is_hermitian) as checks:
        GateStep(label="Rzxy", generator=generator)
        assert checks.call_count == 1
        ledger_step(rho0, generator, 1.0, h_sys)  # exponentiates the generator itself
    assert [call.args[0] for call in checks.call_args_list] == [generator, generator]


def test_compile_exchange_rejects_an_infinite_coupling():
    with pytest.raises(ValueError, match="coupling g must be positive and finite, got inf"):
        compile_exchange(0.5, g=math.inf)


def test_compile_exchange_applies_the_theta_rule_of_the_config():
    with pytest.raises(ValueError, match="^theta must be finite, got nan$"):
        compile_exchange(math.nan)


def fresh_ledger(seq, rho0, h_sys):
    """The ledger fold as one ledger_step per pulse, exponentiating every
    generator afresh."""
    rho, entries, cumulative = rho0, [], 0.0
    for index, step in enumerate(seq.steps, start=1):
        rho, entry = ledger_step(rho, step.generator, step.duration, h_sys,
                                 step_index=index, cumulative_before=cumulative)
        cumulative = entry.cumulative_work
        entries.append(entry)
    return rho, entries


def first_clamped_state(seq, rho0):
    """Index of the first of the 40 states after rho0 of the per-pulse loop
    whose symmetrized matrix has a negative eigenvalue (40 if none has)."""
    rho = rho0.matrix
    for index, step in enumerate(seq.steps):
        u = step.unitary().matrix
        mat = u @ rho @ u.conj().T
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0] < 0.0:
            return index
        rho = canonical_density(mat)
    return len(seq.steps)


def fold_matches_the_loop(cfg, theta):
    """Assert run_with_ledger books fresh_ledger's entries, column by column,
    and final state byte for byte, and return the number of PSD clamps it
    applied and whether its state chain fell back to one positivity check per
    state."""
    seq = compile_exchange(theta, cfg.g)
    rho0, h_sys = initial_state(cfg), system_hamiltonian(cfg)
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as clamps, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as checks:
        final, ledger = run_with_ledger(seq, rho0, h_sys)
    want_final, want_entries = fresh_ledger(seq, rho0, h_sys)
    for name, column in ledger._asdict().items():
        want = [getattr(entry, name) for entry in want_entries]
        assert column.tolist() == want and repr(column.tolist()) == repr(want)
    assert final.matrix.tobytes() == want_final.matrix.tobytes()
    # one stacked check of the 40 states, the final one too, unless the
    # positivity certificate holds; the fallback checks again, one at a time,
    # the states from the first that needs a clamp on
    stacked = 0 if positivity_certified(rho0.matrix, seq.unitaries, 40) else 1
    per_state = sum(call.args[0].ndim == 2 for call in checks.call_args_list)
    first = first_clamped_state(seq, rho0)
    assert checks.call_count == per_state + stacked and per_state == 40 - first
    return clamps.call_count, first < 40


def high_e_over_t_configs(count, seed):
    """Gaps up to 20 at temperatures down to 0.05, where populations as small
    as e^-400 leave eigenvalue drift below zero for the PSD clamp."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        e1, e3 = rng.uniform(0.05, 10.0, size=2)
        t1, t2, t3 = rng.uniform(0.05, 2.0, size=3)
        configs.append(FridgeConfig(E1=e1, E2=e1 + e3, E3=e3, T1=t1, T2=t2, T3=t3))
    return configs


@pytest.mark.parametrize("theta", (math.pi / 2.0, 0.7, -2.4))
@pytest.mark.parametrize(
    "cfg", (FridgeConfig(), FridgeConfig(E1=0.7, E2=2.2, E3=1.5, T1=5.0, T2=3.0, T3=12.0, g=2.5))
)
def test_ledger_with_stored_unitaries_is_bit_identical(cfg, theta):
    fold_matches_the_loop(cfg, theta)
    clamps = [fold_matches_the_loop(hot, theta)[0] for hot in high_e_over_t_configs(12, 20)]
    assert sum(clamps) > 0

    @settings(max_examples=8, deadline=None)
    @given(working_configs())
    def criterion_6_configs(sampled):
        fold_matches_the_loop(sampled, theta)

    criterion_6_configs()


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(0.2, 4.0),
       st.tuples(*[st.floats(-3.0, math.log10(80.0))] * 3), st.floats(-math.pi, math.pi))
def test_ledger_fold_equals_the_loop_from_low_to_high_e_over_t(e1, e3, log_ratios, theta):
    """E/T per spin from 1e-3 to 80, the stacked positivity check and its fallback."""
    gaps = (e1, e1 + e3, e3)
    temps = [gap / 10.0**ratio for gap, ratio in zip(gaps, log_ratios)]
    fold_matches_the_loop(FridgeConfig(*gaps, *temps), theta)


def test_ledger_fold_takes_the_per_state_fallback_only_for_a_clamp():
    # E/T = 30 per spin: the smallest eigenvalue, about e^-120, rounds below
    # zero from the first state on, so every state is checked again
    hot = FridgeConfig(E1=30.0, E2=60.0, E3=30.0, T1=1.0, T2=1.0, T3=1.0)
    for theta in (0.7, math.pi / 2.0, -2.4):
        clamps, fallback = fold_matches_the_loop(hot, theta)
        assert fallback and clamps > 0
        assert fold_matches_the_loop(FridgeConfig(), theta) == (0, False)
    # E3/T3 = 56 with no exchange (theta = 0): the first state needs no clamp,
    # so only the 38 states after it are checked again
    cold = FridgeConfig(E1=1.0, E2=2.0, E3=1.0, T1=1.0, T2=158.86564694485625,
                        T3=0.01778279410038923)
    assert first_clamped_state(compile_exchange(0.0), initial_state(cold)) == 1
    assert fold_matches_the_loop(cold, 0.0)[1]


def test_ledger_rejects_each_pulse_as_the_per_pulse_loop():
    # GateStep checks each generator and duration where the step is built, and
    # CompiledSequence their shared dimension, so the state's and h_sys's
    # dimensions are what the ledger has left to check
    seq, rho0 = compile_exchange(0.7), initial_state(FridgeConfig())
    h_sys = system_hamiltonian(FridgeConfig())
    for pulses, state, hamiltonian in ((seq, DensityMatrix(np.eye(4) / 4.0), h_sys),
                                       (seq, rho0, Operator(np.eye(2)))):
        with pytest.raises(ValueError) as loop:
            fresh_ledger(pulses, state, hamiltonian)
        with pytest.raises(ValueError) as fold:
            run_with_ledger(pulses, state, hamiltonian)
        assert str(fold.value) == str(loop.value) == \
            "generator, state, and system Hamiltonian dimensions must agree"


def test_a_sequence_of_mixed_dimensions_fails_at_construction():
    seq = compile_exchange(0.7)
    small = GateStep(label="small", generator=Operator(np.zeros((4, 4))))
    with pytest.raises(ValueError, match=r"^sequence steps must share one dimension, got \[4, 8\]$"):
        spinfridge.CompiledSequence(seq.steps[:5] + (small,), 0.7, (6,))
    with pytest.raises(ValueError, match="^sequence steps must share one dimension"):
        spinfridge.CompiledSequence((small,) + seq.steps, 0.7, (41,))


def test_term_boundaries_must_split_one_or_more_steps():
    steps = compile_exchange(0.7).steps[:3]
    for pulses, boundaries, text in (
            ((), (), "end at the final step"), ((), (0,), "be strictly increasing"),
            (steps, (2,), "end at the final step"), (steps, (2, 2, 3), "be strictly increasing"),
            (steps, (-1, 3), "be strictly increasing")):
        with pytest.raises(ValueError, match=f"^term boundaries must {text}$"):
            spinfridge.CompiledSequence(pulses, 0.7, boundaries)
    seq = spinfridge.CompiledSequence(steps, 0.7, [1, 3])
    assert seq.term_boundaries == (1, 3) and seq.layout.tolist() == [0, 1, 2]
    assert seq.labels == tuple(step.label for step in steps)
    assert not any(stack.flags.writeable for stack in (seq.generators, seq.unitaries,
                                                       seq.durations, seq.layout))


def test_per_op_calls_build_no_gate_step_and_read_no_step():
    """After the template is built, a compile, a ledger fold and a verify (of
    one angle and of eight) read the stacks: no GateStep is built, no step is
    read and no step object is looked up by id()."""
    rho0, h_sys = initial_state(FridgeConfig()), system_hamiltonian(FridgeConfig())
    compile_exchange(0.0)
    with mock.patch.object(GateStep, "__init__", side_effect=AssertionError) as built, \
            mock.patch.object(spinfridge.CompiledSequence, "steps", new_callable=mock.PropertyMock,
                              side_effect=AssertionError) as read, \
            mock.patch.object(spinfridge.compiler, "id", create=True, wraps=id) as ids:
        for thetas in ([0.7], [0.1 * k - 0.3 for k in range(8)]):
            seqs = compile_exchange(thetas)
            run_with_ledger(seqs[0], rho0, h_sys)
            verify(seqs)
            verify(permute_blocks(seqs[-1], (3, 2, 1, 0)))
    assert built.call_count == read.call_count == ids.call_count == 0


@settings(max_examples=200, deadline=None)
@given(st.floats(-12.0, 12.0), st.sampled_from([1.0, -1.0]), st.sampled_from([0.25, -0.25]))
def test_the_closed_form_core_is_the_eigendecomposition_bytes(log_theta, sign, coeff):
    """herm_exp exponentiates a diagonal generator in closed form; at the
    compiler's cores, +-theta/4 IZZ with |theta| from 1e-12 to 1e12, its bytes
    are those of the eigendecomposition every generator went through before."""
    generator = Operator(coeff * (sign * 10.0**log_theta) * pauli_matrix("IZZ"))
    want = eigh_exp(np.linalg.eigh(generator.matrix), 1.0)
    assert herm_exp(generator, 1.0).matrix.tobytes() == want.matrix.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(0.2, 4.0),
       st.tuples(*[st.floats(-3.0, math.log10(700.0))] * 3), st.floats(-math.pi, math.pi))
def test_the_positivity_certificate_never_covers_a_negative_eigenvalue(e1, e3, log_ratios, theta):
    """E/T per spin from 1e-3 to 700: wherever the certificate lets the chain
    skip its stacked eigvalsh, no symmetrized state has a negative one.  Over
    the 11 distinct unitaries of the sequence, as the chain checks them, it
    decides as over the 40 the chain applies."""
    gaps = (e1, e1 + e3, e3)
    temps = [gap / 10.0**ratio for gap, ratio in zip(gaps, log_ratios)]
    seq, rho0 = compile_exchange(theta), initial_state(FridgeConfig(*gaps, *temps))
    units = np.stack([step.unitary().matrix for step in seq.steps])
    certified = positivity_certified(rho0.matrix, seq.unitaries, 40)
    assert len(seq.unitaries) == 11 and positivity_certified(rho0.matrix, units, 40) == certified
    if certified:
        assert first_clamped_state(seq, rho0) == 40


def test_the_positivity_certificate_needs_a_diagonal_state_unitaries_and_a_margin():
    units = np.stack([step.unitary().matrix for step in compile_exchange(0.7).steps[:-1]])
    rho = initial_state(FridgeConfig()).matrix
    assert positivity_certified(rho, units, 39)
    coherent = rho.copy()
    coherent[0, 1] = coherent[1, 0] = 1e-3
    assert not positivity_certified(coherent, units, 39)
    assert not positivity_certified(rho, np.concatenate((units, 1.001 * units[:1])), 39)
    # 2.5e-12 at d = 8 and n = 39, and a 1000-fold margin on top
    assert positivity_certified(np.diag([2.6e-9] * 7 + [1.0 - 7 * 2.6e-9]), units, 39)
    assert not positivity_certified(np.diag([2.4e-9] * 7 + [1.0 - 7 * 2.4e-9]), units, 39)
    # the bound grows with the number of steps, not with the unitaries checked
    assert not positivity_certified(np.diag([2.6e-9] * 7 + [1.0 - 7 * 2.6e-9]), units[:11], 43)


def test_compiles_share_every_theta_independent_step():
    a, b = compile_exchange(0.3), compile_exchange(-1.7, 2.0)
    assert a.generators.shape == a.unitaries.shape == (11, 8, 8) and a.durations.shape == (11,)
    # the 9 rows after the two cores (5 fixed rotations or ZZ pulses and 4 basis
    # changes) are the template's, byte for byte, and the cores are the angle's
    for stack in ("generators", "unitaries"):
        x, y = getattr(a, stack), getattr(b, stack)
        assert x[2:].tobytes() == y[2:].tobytes()
        assert not np.array_equal(x[0], y[0]) and not np.array_equal(x[1], y[1])
        assert not x.flags.writeable and not y.flags.writeable
    assert a.layout is b.layout and a.labels is b.labels and not a.layout.flags.writeable
    # steps[k] is row layout[k]; each row has one label
    assert [(s.label, s.generator.matrix.tobytes(), s.unitary().matrix.tobytes())
            for s in a.steps] == [(label, a.generators[row].tobytes(), a.unitaries[row].tobytes())
                                  for label, row in zip(a.labels, a.layout, strict=True)]
    assert all(len({a.labels[k] for k in np.flatnonzero(a.layout == row)}) == 1
               for row in range(11))
    # the three +theta/4 blocks use one core row and YXY the other
    assert a.layout[CORE::10].tolist() == [0, 0, 1, 0]
    assert a.labels[CORE] == "ZZ(theta/2)@23" and a.labels[20 + CORE] == "ZZ(-theta/2)@23"
    assert sorted(set(a.layout.tolist())) == list(range(11))


def test_step_unitary_is_the_exponential_of_its_generator():
    steps = compile_exchange(1.1).steps + (
        GateStep(label="Rz@1", generator=pauli_to_operator(PauliString("ZII", 0.3))),
    )
    for step in steps:
        assert np.array_equal(step.unitary().matrix, herm_exp(step.generator, 1.0).matrix)
        assert step.unitary() is step.unitary()


def test_compiling_many_angles_grows_no_cache():
    def cache_sizes():
        return {
            (module.__name__, name): value.cache_info().currsize
            for module in (spinfridge.compiler, spinfridge.fridge, spinfridge.linalg, spinfridge.thermo)
            for name, value in vars(module).items()
            if hasattr(value, "cache_info")
        }

    verify(compile_exchange(0.0))
    before = cache_sizes()
    # the one template of fixed pulses around the cores and the one
    # eigendecomposition verify exponentiates
    assert sum(before.values()) == 2
    for theta in np.linspace(-10.0, 10.0, 1000):
        verify(compile_exchange(float(theta)))
    assert cache_sizes() == before
    assert len(verify(compile_exchange(np.linspace(-10.0, 10.0, 1000)))) == 1000
    assert cache_sizes() == before


EDGE_ANGLES = (0.0, -0.0, math.pi, -math.pi, 12.5, 1e-300, 5e-324, -5e-324)


def stepwise_compile(theta):
    """compile_exchange(theta) with each core built as a GateStep, which
    exponentiates pauli_to_operator's generator through herm_exp, and every
    step given a row of its own by the public constructor."""
    steps = list(compile_exchange(theta).steps)
    for index in range(CORE, len(steps), 10):
        coeff = -0.25 if steps[index].label.startswith("ZZ(-") else 0.25
        steps[index] = GateStep(label=steps[index].label,
                                generator=pauli_to_operator(PauliString("IZZ", coeff * theta)))
    return spinfridge.CompiledSequence(steps, theta, (10, 20, 30, 40))


def step_bytes(seq):
    """Each step's label, duration, generator and unitary, read from the stacks."""
    return [(label, seq.durations[row], seq.generators[row].tobytes(), seq.unitaries[row].tobytes())
            for label, row in zip(seq.labels, seq.layout, strict=True)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_ANGLES),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=8))
def test_a_list_compile_is_the_per_angle_compile(angles):
    """compile_exchange of a list builds every core stacked, in closed form, and
    writes them over the template's core rows; each sequence equals the
    per-angle compile and the one built a GateStep at a time, byte for byte."""
    batch = compile_exchange(angles)
    assert isinstance(batch, list) and len(batch) == len(angles)
    for angle, seq in zip(angles, batch):
        single = compile_exchange(angle)
        assert seq.theta is angle and seq.term_boundaries == single.term_boundaries
        assert step_bytes(seq) == step_bytes(single) == step_bytes(stepwise_compile(angle))
        # the template's rows, layout and labels, with the angle's two core rows
        assert seq.generators[2:].tobytes() == single.generators[2:].tobytes()
        assert seq.unitaries[2:].tobytes() == single.unitaries[2:].tobytes()
        assert seq.layout is single.layout and seq.labels is single.labels
        assert not (seq.layout.flags.writeable or seq.generators.flags.writeable
                    or seq.unitaries.flags.writeable)
    # every entry has core rows of its own, repeated angles too
    cores = [stack[:2] for seq in batch for stack in (seq.generators, seq.unitaries)]
    assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(cores, 2))


def test_a_bad_angle_in_a_list_is_rejected_by_name():
    for bad, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(ValueError, match=f"^theta must be finite, got {text}$"):
            compile_exchange([0.3, bad, 0.7])
    # the first bad angle is named, and the angles are checked before the coupling
    with pytest.raises(ValueError, match="^theta must be finite, got inf$"):
        compile_exchange([0.1, math.inf, math.nan], g=0.0)
    with pytest.raises(ValueError, match="^coupling g must be positive and finite, got 0.0$"):
        compile_exchange([0.1, 0.2], g=0.0)
    assert compile_exchange([]) == []
