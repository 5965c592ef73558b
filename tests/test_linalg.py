"""Core operator, state, and Pauli-string primitives."""

import contextlib
import copy
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinfridge import (
    DensityMatrix,
    FridgeConfig,
    Operator,
    PauliString,
    SpinSpec,
    evolve,
    herm_exp,
    initial_state,
    kron,
    partial_trace,
    pauli_to_operator,
    thermal_state,
)
from spinfridge.linalg import (
    HADAMARD,
    HADAMARD_Y,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PSD_TOL,
    canonical_chain,
    canonical_density,
    embed_single,
)


def test_operator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.zeros((3, 3)))  # not a power of two
    with pytest.raises(ValueError):
        Operator(np.zeros((32, 32)))  # beyond four qubits
    with pytest.raises(ValueError):
        Operator(np.zeros((1, 1)))


def test_operator_is_immutable():
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


@pytest.mark.parametrize("dim", [2, 8])
def test_density_matrix_rejects_a_nan_matrix_by_name(dim):
    # nan > tol is false, so the checks must read "not within tolerance"
    with pytest.raises(ValueError, match="^density matrix not Hermitian: max deviation nan$"):
        DensityMatrix(np.full((dim, dim), np.nan))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.2, -0.2]))  # negative eigenvalue
    # drift inside the clamp window is repaired, not rejected
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
    assert rho.eigenvalues()[0] >= 0.0
    assert abs(float(np.trace(rho.matrix).real) - 1.0) < 1e-15


def test_a_density_matrix_is_its_own_operator():
    rho = initial_state(FridgeConfig())
    assert isinstance(rho, Operator)
    assert DensityMatrix.__slots__ == ()  # no field of its own
    assert not {"op", "matrix", "dim", "n_qubits", "__repr__"} & set(vars(DensityMatrix))
    assert (rho.dim, rho.n_qubits) == (8, 3)
    assert repr(rho) == "DensityMatrix(dim=8)"


def test_kron_takes_thermal_states_as_they_are():
    taus = [thermal_state(SpinSpec(gap, temp)) for gap, temp in ((1.0, 2.0), (3.0, 4.0))]
    joint = kron(*taus)
    assert type(joint) is Operator
    assert joint.matrix.tobytes() == np.kron(taus[0].matrix, taus[1].matrix).tobytes()


@pytest.mark.parametrize("clone", [lambda rho: pickle.loads(pickle.dumps(rho)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_density_matrix_keeps_its_type_and_bytes(clone):
    rho = initial_state(FridgeConfig())
    copied = clone(rho)
    assert type(copied) is DensityMatrix
    assert copied.matrix.tobytes() == rho.matrix.tobytes()


def test_of_canonical_keeps_the_bytes_and_decomposes_nothing():
    mat = initial_state(FridgeConfig()).matrix * (1.0 + 1e-13)  # off canonical form by a hair
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as checks, \
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as clamps:
        rho = DensityMatrix._of_canonical(mat)
    assert (checks.call_count, clamps.call_count) == (0, 0)
    assert type(rho) is DensityMatrix
    assert rho.matrix.tobytes() == mat.tobytes()
    assert not rho.matrix.flags.writeable


def test_stacked_eigvalsh_is_the_per_matrix_eigvalsh(rng):
    """canonical_chain decides every clamp from one stacked eigvalsh, which is
    the per-state rule only while numpy's stacked call equals the per-matrix
    one bit for bit; this guard fails, rather than the ledger drifting, if a
    numpy or LAPACK update breaks that."""
    states = [oracles.random_density(rng, 8) for _ in range(100)]
    for _ in range(100):  # spectra at and near zero, where the clamps decide
        u = oracles.random_unitary(rng, 8)
        weights = np.concatenate(([1.0], 10.0 ** rng.uniform(-40.0, 0.0, 4), np.zeros(3)))
        states.append((u * (weights / weights.sum())) @ u.conj().T)
    stacked = np.stack([(rho + rho.conj().T) / 2.0 for rho in states])
    per_matrix = np.stack([np.linalg.eigvalsh(rho) for rho in stacked])
    assert np.linalg.eigvalsh(stacked).tobytes() == per_matrix.tobytes()
    assert (per_matrix[:, 0] < 0.0).any()


def test_dot_into_a_buffer_is_the_matmul(rng):
    """canonical_chain conjugates with np.dot into preallocated buffers, against
    contiguous adjoints, where evolve and thermo.ledger_step, its per-pulse
    reference, use @ against the transposed view; this guard fails, rather than
    the ledger drifting, if a numpy or BLAS update makes the two differ."""
    out = np.empty((8, 8), dtype=complex)
    for _ in range(200):
        u = oracles.random_unitary(rng, 8)
        rho = oracles.random_density(rng, 8) * 10.0 ** rng.uniform(-300.0, 300.0)
        np.dot(u, rho, out=out)
        assert out.tobytes() == (u @ rho).tobytes()
        left = u @ rho
        np.dot(left, np.ascontiguousarray(u.conj().T), out=out)
        assert out.tobytes() == (left @ u.conj().T).tobytes()


def test_stacked_trace_and_hermiticity_error_are_the_per_matrix_ones(rng):
    """canonical_chain takes canonical_density's trace and hermiticity checks
    over the stack of raw states, which is the per-state rule only while
    numpy's stacked trace and maximum equal the per-matrix ones bit for bit."""
    states = [oracles.random_density(rng, 8) for _ in range(100)]
    for _ in range(100):  # non-Hermitian, with traces far from and near zero
        scale = 10.0 ** rng.uniform(-20.0, 5.0)
        states.append(scale * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))))
    raw = np.stack(states)
    per_trace = np.array([m.trace() for m in raw])
    per_herm = np.array([np.abs(m - m.conj().T).max() for m in raw])
    assert np.trace(raw, axis1=1, axis2=2).tobytes() == per_trace.tobytes()
    stacked_herm = np.abs(raw - raw.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    assert stacked_herm.tobytes() == per_herm.tobytes()


@pytest.mark.parametrize("case", ["clean", "repeated steps", "clamp", "late clamp", "not PSD",
                                  "trace", "not Hermitian", "trace, then zero",
                                  "not Hermitian, then inf"])
def test_canonical_chain_is_the_canonical_density_loop(rng, case):
    """Errors and states of the loop; the chain checks after it has formed every
    state, so a failing state's successors (a zero trace, an infinity) must
    raise no floating-point warning, which the test run turns into an error."""
    unitaries = [oracles.random_unitary(rng, 8) for _ in range(12)]
    rho = oracles.random_density(rng, 8)
    if case == "repeated steps":  # four unitaries laid out to twelve steps, as a compile does
        distinct, layout = unitaries[:4], rng.integers(0, 4, 12)
        unitaries = [distinct[index] for index in layout]
    elif case in ("clamp", "not PSD"):  # a negative eigenvalue in the clamp window or beyond it
        drift = 5e-11 if case == "clamp" else 1e-6
        rho = np.diag([1.0 + drift, -drift, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    elif case == "late clamp":  # a pure state stays exact through 5 identities, then drifts
        rho = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        unitaries[:5] = [np.eye(8, dtype=complex)] * 5
    elif case.startswith("trace"):
        unitaries[5] = 1.001 * unitaries[5]
    elif case == "not Hermitian":
        rho = rho + np.triu(np.full((8, 8), 1e-9), 1)
    elif case.startswith("not Hermitian"):  # rounding at this scale breaks hermiticity
        unitaries[5] = 1e8 * unitaries[5]
    if case.endswith("zero"):  # 0/0 in the division by the next state's trace
        unitaries[6:] = [np.zeros((8, 8), dtype=complex)] * 6
    elif case.endswith("inf"):
        unitaries[6:] = [np.full((8, 8), np.inf, dtype=complex)] * 6
    if case != "repeated steps":
        distinct, layout = unitaries, np.arange(12)
    want = [rho]
    try:
        for u in unitaries:
            want.append(canonical_density(u @ want[-1] @ u.conj().T))
    except ValueError as loop:
        with pytest.raises(ValueError) as chain:
            canonical_chain(rho, distinct, layout)
        assert str(chain.value) == str(loop)
        assert case.split(",")[0] in ("not PSD", "trace", "not Hermitian")
        return
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as clamps, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as checks:
        got = canonical_chain(rho, distinct, layout)
    assert [state.tobytes() for state in got] == [state.tobytes() for state in want]
    assert (clamps.call_count > 0) == (case in ("clamp", "late clamp"))
    # the per-state checks run again from the first state that needs a clamp on
    per_state = sum(call.args[0].ndim == 2 for call in checks.call_args_list)
    assert per_state == {"clean": 0, "repeated steps": 0, "clamp": 12, "late clamp": 12 - 5}[case]


# diagonal entries: populations from 1e-300 to 1, exact zeros, drift that
# canonical_density clamps, and negatives it rejects
DIAGONAL_ENTRIES = st.one_of(
    st.floats(-300.0, 0.0).map(lambda exponent: 10.0**exponent),
    st.sampled_from([0.0, -0.0]),
    st.floats(-PSD_TOL, 0.0, exclude_max=True),
    st.floats(-1.0, -PSD_TOL, exclude_max=True),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.data())
def test_a_diagonal_density_is_checked_in_closed_form_as_through_eigvalsh(dim, data):
    """canonical_density takes the smallest eigenvalue of a diagonal matrix from
    its smallest entry; the bytes, clamps and errors are those of eigvalsh."""
    entries = data.draw(st.lists(DIAGONAL_ENTRIES, min_size=dim - 1, max_size=dim - 1))
    entries.insert(data.draw(st.integers(0, dim - 1)), 1.0 - math.fsum(entries))
    mat = np.diag(entries).astype(complex)
    outcomes = []
    for closed_form in (True, False):
        # the eigvalsh path, which every matrix took before, once the diagonal test is off
        path = (contextlib.nullcontext() if closed_form else
                mock.patch("spinfridge.linalg._is_diagonal", return_value=False))
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as checks, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as clamps, path:
            try:
                outcome = canonical_density(mat).tobytes()
            except ValueError as exc:
                outcome = str(exc)
        outcomes.append((outcome, clamps.call_count))
        assert checks.call_count == (0 if closed_form else 1)
    assert outcomes[0] == outcomes[1]


def test_kron_identity_and_sigma_z():
    assert np.allclose(kron(IDENTITY_2, IDENTITY_2).matrix, np.eye(4), atol=1e-15)
    assert np.allclose(
        kron(PAULI_Z, IDENTITY_2).matrix, np.diag([1, 1, -1, -1]), atol=1e-15
    )


def test_kron_thermal_product_matches_hand_enumeration():
    # tau(T=4, E=2) twice: each joint diagonal entry is the product of
    # single-spin populations, enumerated explicitly
    p = oracles.thermal_population(2.0, 4.0)
    tau = Operator(np.diag([1.0 - p, p]).astype(complex))
    joint = kron(tau, tau)
    for b0 in (0, 1):
        for b1 in (0, 1):
            expected = (p if b0 else 1.0 - p) * (p if b1 else 1.0 - p)
            assert joint.matrix[2 * b0 + b1, 2 * b0 + b1].real == pytest.approx(
                expected, abs=1e-15
            )


def test_kron_dimension_overflow():
    big = Operator(np.eye(8))
    with pytest.raises(ValueError, match="exceeds"):
        kron(big, Operator(np.eye(4)))


def test_partial_trace_product_state_factorizes(rng):
    a = oracles.random_density(rng, 2)
    b = oracles.random_density(rng, 4)
    joint = DensityMatrix(np.kron(a, b))
    assert np.allclose(partial_trace(joint, (0,)).matrix, a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (1, 2)).matrix, b, atol=1e-12)


def test_partial_trace_maximally_mixed():
    rho = DensityMatrix(np.eye(8) / 8.0)
    assert np.allclose(partial_trace(rho, (0,)).matrix, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_post_exchange_population():
    # brute-force oracle: scipy expm + loop partial trace; frozen value below
    rho0 = oracles.product_thermal_matrix((1.0, 3.0, 2.0), (2.0, 2.0, 10.0))
    u = oracles.expm_unitary(oracles.exchange_matrix(), math.pi / 2.0)
    rho1 = u @ rho0 @ u.conj().T
    reduced = oracles.loop_partial_trace(rho1, [0], 3)
    assert reduced[1, 1].real == pytest.approx(0.30102401083742303, abs=1e-13)

    # the library path must land on the same frozen number
    lib = partial_trace(
        evolve(DensityMatrix(rho0), herm_exp(Operator(oracles.exchange_matrix()), math.pi / 2.0)),
        (0,),
    )
    assert lib.populations[1] == pytest.approx(0.30102401083742303, abs=1e-13)


def test_partial_trace_rejects_bad_keep():
    rho = DensityMatrix(np.eye(8) / 8.0)
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (3,))


def test_herm_exp_trivial_cases():
    assert np.allclose(herm_exp(Operator(np.zeros((2, 2))), 3.7).matrix, np.eye(2), atol=1e-15)
    assert np.allclose(herm_exp(PAULI_Z, math.pi).matrix, -np.eye(2), atol=1e-12)


def test_herm_exp_full_exchange_swaps_levels():
    u = herm_exp(Operator(oracles.exchange_matrix()), math.pi / 2.0)
    for basis in range(8):
        vec = np.zeros(8)
        vec[basis] = 1.0
        out = u.matrix @ vec
        target = {0b010: 0b101, 0b101: 0b010}.get(basis, basis)
        assert abs(out[target]) == pytest.approx(1.0, abs=1e-12)


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_exp(Operator(np.array([[0, 1], [0, 0]])), 1.0)


@pytest.mark.parametrize("h, t", [(Operator(np.diag([0.0, 1.0])), math.inf),
                                  (PAULI_X, math.nan), (PAULI_X, -math.inf)],
                         ids=["closed-form-inf", "eigh-nan", "eigh-minus-inf"])
def test_herm_exp_rejects_a_time_that_is_not_finite(h, t):
    # the closed form and eigh each make a nan matrix of a time that is not finite
    with pytest.raises(ValueError, match=f"^herm_exp requires a finite time, got {t}$"):
        herm_exp(h, t)


def test_evolve_trivial_cases(rng):
    rho = DensityMatrix(oracles.random_density(rng, 4))
    assert np.allclose(evolve(rho, Operator(np.eye(4))).matrix, rho.matrix, atol=1e-15)

    ground = DensityMatrix(np.diag([1.0, 0.0]))
    assert np.allclose(
        evolve(ground, PAULI_X).matrix, np.diag([0.0, 1.0]), atol=1e-15
    )


def test_evolve_diagonal_hamiltonian_fixes_diagonal_state():
    rho = DensityMatrix(np.diag([0.5, 0.2, 0.2, 0.1]))
    h = Operator(np.diag([0.0, 1.0, 2.0, 3.0]))
    after = evolve(rho, herm_exp(h, 0.83))
    assert np.allclose(after.populations, rho.populations, atol=1e-14)


def test_evolve_rejects_non_unitary():
    rho = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        evolve(rho, Operator(np.diag([1.0, 2.0])))


def test_evolve_rejects_a_unitary_of_another_dimension():
    with pytest.raises(ValueError, match="^dimension mismatch: state 2, unitary 4$"):
        evolve(DensityMatrix(np.eye(2) / 2.0), Operator(np.eye(4)))


@pytest.mark.parametrize("a, qubit, n_qubits, message", [
    (Operator(np.eye(4)), 0, 2, "embed_single expects a single-qubit operator"),
    (PAULI_X, 3, 3, "qubit index 3 out of range for 3 qubits"),
    (PAULI_X, -1, 3, "qubit index -1 out of range for 3 qubits"),
])
def test_embed_single_rejects_a_wide_operator_and_a_qubit_out_of_range(a, qubit, n_qubits, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        embed_single(a, qubit, n_qubits)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("ABC")
    with pytest.raises(ValueError):
        PauliString("XXXXX")
    with pytest.raises(ValueError):
        PauliString("XX", math.inf)


def test_pauli_to_operator_basics():
    assert np.allclose(
        pauli_to_operator(PauliString("ZII")).matrix,
        np.kron(np.kron(PAULI_Z.matrix, np.eye(2)), np.eye(2)),
        atol=1e-15,
    )
    xxx = pauli_to_operator(PauliString("XXX", 0.25))
    assert np.allclose(
        xxx.matrix,
        0.25 * np.kron(np.kron(PAULI_X.matrix, PAULI_X.matrix), PAULI_X.matrix),
        atol=1e-15,
    )


def test_basis_change_constants():
    assert np.allclose((HADAMARD @ PAULI_Z @ HADAMARD).matrix, PAULI_X.matrix, atol=1e-15)
    assert np.allclose((HADAMARD_Y @ PAULI_Z @ HADAMARD_Y).matrix, PAULI_Y.matrix, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0))
def test_herm_exp_inverse_property(seed, t):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 4, 8, 16]))
    h = Operator(oracles.random_hermitian(rng, dim))
    product = herm_exp(h, t) @ herm_exp(h, -t)
    assert np.max(np.abs(product.matrix - np.eye(dim))) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evolve_preserves_trace_hermiticity_spectrum(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 4, 8]))
    rho = DensityMatrix(oracles.random_density(rng, dim))
    u = Operator(oracles.random_unitary(rng, dim))
    after = evolve(rho, u)
    assert abs(float(np.trace(after.matrix).real) - 1.0) <= 1e-12
    assert np.max(np.abs(after.matrix - after.matrix.conj().T)) <= 1e-12
    assert np.max(np.abs(np.sort(after.eigenvalues()) - np.sort(rho.eigenvalues()))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_of_product_is_first_factor(seed):
    rng = np.random.default_rng(seed)
    a = oracles.random_density(rng, 2)
    b = oracles.random_density(rng, 2)
    joint = DensityMatrix(np.kron(a, b))
    assert np.allclose(partial_trace(joint, (0,)).matrix, a, atol=1e-12)
