"""Dense complex linear algebra and state primitives for up to four qubits.

Conventions used by every module in this package:

* Qubit 0 is the most significant bit of a computational-basis index, so
  for three qubits the basis ket ``|b0 b1 b2>`` sits at index
  ``4*b0 + 2*b1 + b2``.  (Spin q1 of the refrigerator is qubit 0.)
* Energies are dimensionless multiples of the energy unit delta, times are
  in 1/delta, and hbar = k_B = 1.
* Structural checks (hermiticity, unitarity, trace) use a 1e-12 tolerance;
  positivity allows eigenvalue drift down to -1e-10, which is clamped.

Sizes never exceed 16x16, so every operation here is exact dense algebra.
A matrix exponential of a diagonal generator is the diagonal of scalar
exponentials; any other goes through a full eigendecomposition rather than
a series or scaling-and-squaring scheme.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

MAX_DIM = 16  # four qubits


class Record:
    """Base of the package's checked immutable records.

    A subclass names its fields in ``_fields``, and in ``__slots__`` with any
    value it derives; its ``__init__`` checks the values and sets the fields
    once with ``_set``.  Records of one class are equal when their fields
    are, and ``_replace`` builds (and so checks) a new record, as for a
    NamedTuple.  A subclass is made with no generated code, which keeps the
    package's import short.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"a {type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _set(self, *values) -> None:
        """Set the fields to values, in the order of ``_fields``, once at construction."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(pairs)})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes) -> Record:
        """This record with some fields replaced, checked as a new one."""
        return type(self)(**dict(zip(self._fields, self._values())) | changes)


class Operator:
    """Immutable dense complex square matrix on 1..4 qubits.

    A copy of one is the operator itself, as for a tuple, and a pickle
    rebuilds it, read-only, through _of_canonical."""

    __slots__ = ("_mat",)

    def __init__(self, matrix) -> None:
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim < 2 or dim > MAX_DIM or dim & (dim - 1):
            raise ValueError(
                f"operator dimension must be a power of two in [2, {MAX_DIM}], got {dim}"
            )
        mat.setflags(write=False)
        self._mat = mat

    @classmethod
    def _of_canonical(cls, mat: np.ndarray) -> Operator:
        """The operator of a matrix that has passed the checks of cls already (a
        DensityMatrix's is in the canonical form of canonical_density or
        canonical_chain), read-only, built through Operator's checks alone."""
        op = object.__new__(cls)
        Operator.__init__(op, mat)
        return op

    def __copy__(self, memo=None) -> Operator:
        return self

    __deepcopy__ = __copy__

    def __reduce__(self):
        return self._of_canonical, (self._mat,)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the underlying matrix."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self._mat - self._mat.conj().T)) <= HERMITIAN_TOL)

    def is_unitary(self) -> bool:
        probe = self._mat.conj().T @ self._mat
        return bool(np.max(np.abs(probe - np.eye(self.dim))) <= UNITARY_TOL)

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self._mat + other._mat)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self._mat - other._mat)

    def __neg__(self) -> "Operator":
        return Operator(-self._mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self._mat * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self._mat @ other._mat)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


def _is_diagonal(mat: np.ndarray) -> bool:
    """True when the square matrix has no nonzero (or nan) off-diagonal entry."""
    return np.count_nonzero(mat) == np.count_nonzero(mat.diagonal())


def canonical_density(mat: np.ndarray) -> np.ndarray:
    """The canonical form of a density matrix, as DensityMatrix stores it.

    Rejects hermiticity or trace errors above 1e-12 and eigenvalues below
    -1e-10; otherwise symmetrizes, clamps eigenvalue drift in [-1e-10, 0)
    to zero and renormalizes the trace to exactly one.  The positivity check
    takes a matrix with no off-diagonal entry in closed form, any other
    through eigvalsh; a clamp goes through eigh either way.
    """
    adjoint = mat.conj().T
    herm_err = float(np.abs(mat - adjoint).max())
    if not herm_err <= HERMITIAN_TOL:  # a nan fails too
        raise ValueError(f"density matrix not Hermitian: max deviation {herm_err:.3e}")
    tr = complex(mat.trace())
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond tolerance")
    mat = (mat + adjoint) / 2.0
    # the smallest eigenvalue of a diagonal matrix is its smallest entry, exactly
    smallest = mat.diagonal().real.min() if _is_diagonal(mat) else np.linalg.eigvalsh(mat)[0]
    if smallest < -PSD_TOL:
        raise ValueError(f"density matrix not PSD: min eigenvalue {smallest:.3e}")
    if smallest < 0.0:
        # clamp harmless floating-point negativity
        w, v = np.linalg.eigh(mat)
        mat = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return mat / mat.trace().real


def canonical_chain(rho: np.ndarray, unitaries: Sequence[np.ndarray],
                    layout: Sequence[int]) -> np.ndarray:
    """The stack [rho, rho_1, ..., rho_n], n = len(layout), with
    rho_k = canonical_density(u rho_(k-1) u^dag) for u = unitaries[layout[k - 1]].

    Bit for bit that loop.  The loop here only conjugates, symmetrizes and
    divides by the trace, which is all canonical_density does to a state that
    passes its checks, into preallocated buffers (np.dot into a scratch matrix
    and against contiguous adjoints equals the @ of the per-state loop bit for
    bit, which the test suite guards); the hermiticity, trace and positivity
    checks then run stacked over the n raw and symmetrized states (numpy's
    stacked eigvalsh equals the per-matrix call bit for bit, which the test
    suite guards too), the positivity check only where positivity_certified
    cannot rule out a clamp.  The states before the first one that fails a
    check, or needs a clamp, are exact; from that one on the chain runs again
    through canonical_density, which applies the clamps and raises the errors
    exactly.  States after a failing one are thrown away, so the arithmetic on
    them (a zero or non-finite trace) raises no floating-point warning.
    """
    n, dim = len(layout), rho.shape[0]
    unitaries = np.asarray(unitaries, dtype=complex).reshape(-1, dim, dim)
    steps = unitaries[layout]
    adjoints = unitaries.conj().transpose(0, 2, 1)[layout]  # indexing makes them contiguous
    raw = np.empty((n, dim, dim), dtype=complex)
    symmetrized = np.empty_like(raw)
    states = np.empty((n + 1, dim, dim), dtype=complex)
    scratch = np.empty((dim, dim), dtype=complex)
    states[0] = rho
    with np.errstate(all="ignore"):
        for k in range(n):
            mat, sym = raw[k], symmetrized[k]
            np.dot(steps[k], states[k], out=scratch)
            np.dot(scratch, adjoints[k], out=mat)
            np.conjugate(mat.T, out=scratch)
            np.add(mat, scratch, out=sym)
            sym /= 2.0
            np.divide(sym, sym.trace().real, out=states[k + 1])
        herm_err = np.abs(raw - raw.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        trace_err = np.abs(np.trace(raw, axis1=1, axis2=2) - 1.0)
    failed = np.flatnonzero(~((herm_err <= HERMITIAN_TOL) & (trace_err <= TRACE_TOL)))
    first = int(failed[0]) if failed.size else n  # the first state that is not yet exact
    if first and not positivity_certified(rho, unitaries, first):
        negative = np.flatnonzero(np.linalg.eigvalsh(symmetrized[:first])[:, 0] < 0.0)
        first = int(negative[0]) if negative.size else first
    for k in range(first, n):
        states[k + 1] = canonical_density(steps[k] @ states[k] @ steps[k].conj().T)
    return states


def positivity_certified(rho: np.ndarray, unitaries: np.ndarray, n: int) -> bool:
    """True only if no symmetrized state of an n-step canonical_chain from rho,
    each step one of the unitaries, whose raw states pass the trace check can
    have a negative eigvalsh: rho is real diagonal with its smallest entry 1000
    times the bound below, and every unitary is within UNITARY_TOL of unitary
    (max |U^H U - I|, checked stacked, so a chain that repeats a step checks
    it once).

    Derivation.  Let u = 2^-53, d the dimension, n the number of steps,
    gamma_m = m u / (1 - m u) and delta = d * UNITARY_TOL, so every U has
    ||U^H U - I||_2 <= delta (plus gamma_(d+2) for the computed check),
    sigma_min(U)^2 >= 1 - delta and ||U||_2 <= 1.01.  rho is diagonal, so
    its smallest eigenvalue is its smallest entry, a, exactly.  Suppose the
    state A entering a step is PSD with trace below 1.01 (rho is, as the
    first raw state passed the trace check), so ||A||_F <= 1.01.
      * Conjugation: U A U^H has lambda_min >= (1 - delta) lambda_min(A) by
        Ostrowski's theorem (Horn and Johnson, Matrix Analysis, 4.5.9).
        Each of the two complex products errs by at most
        gamma_(d+2) ||X||_F ||Y||_F in the Frobenius norm (Higham, Accuracy
        and Stability of Numerical Algorithms, 2nd ed., §3.5, with
        gamma_(d+2) for complex data, §3.6), so the raw state is
        U A U^H + E with ||E||_F <= e1 = 3 (d + 2) sqrt(d) u.
      * Symmetrizing rounds each entry of the Hermitian part of the raw
        state once (halving is exact), and dividing by the trace t (the
        raw state passed the trace check, so t <= 1 + 2 TRACE_TOL) twice
        (numpy forms 1/t, then multiplies; Higham's Lemma 3.5 bounds complex
        division alike): together at most e2 = 8 u in the 2-norm.  The
        division scales lambda_min by 1/t >= 1 - 2 TRACE_TOL.
      * eigvalsh is backward stable: its smallest value is at least
        lambda_min(S) - p(d) u ||S||_2 (LAPACK Users' Guide, 3rd ed., §4.7,
        with p a modestly growing function), taken as e3 = 3 d^2 u.
    By Weyl's inequality (lambda_min(X + E) >= lambda_min(X) - ||E||_2 for
    Hermitian X, E) the k-th state has lambda_min >= r^k a - k (e1 + e2)
    with r = (1 - delta)(1 - 2 TRACE_TOL), and the computed smallest
    eigenvalue of the k-th symmetrized state is at least that less e3.
    Since r^n >= 1/2 for n below 10^10,
        a > 2 n (3 (d + 2) sqrt(d) + 3 d^2 + 8) u
    keeps every state PD with trace below (1 + gamma_2)/(1 - gamma_d) <
    1.01, as supposed, and every computed smallest eigenvalue positive.  At
    d = 8 and n = 40 the bound is 2.5e-12.  The 1000-fold margin covers a
    p(d) above d^2; underflow adds at most 2^-1074 per entry, far below it.
    """
    dim = rho.shape[0]
    diagonal = rho.diagonal().real
    bound = 2 * n * (3 * (dim + 2) * math.sqrt(dim) + 3 * dim**2 + 8) * 2.0**-53
    if np.count_nonzero(rho - np.diag(diagonal)) or not diagonal.min() > 1000.0 * bound:
        return False
    defect = np.abs(unitaries.conj().transpose(0, 2, 1) @ unitaries - np.eye(dim))
    return bool(defect.max(initial=0.0) <= UNITARY_TOL)


class DensityMatrix(Operator):
    """Hermitian, unit-trace, positive-semidefinite operator, held in the
    canonical form of canonical_density (which rejects invalid input)."""

    __slots__ = ()

    def __init__(self, matrix) -> None:
        op = matrix if isinstance(matrix, Operator) else Operator(matrix)
        super().__init__(canonical_density(op.matrix))

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal in the computational basis."""
        return np.real(np.diag(self._mat))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._mat)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _mat in _PAULI.values():
    _mat.setflags(write=False)  # pauli_matrix hands out the one-letter matrices themselves

IDENTITY_2 = Operator(_PAULI["I"])
PAULI_X = Operator(_PAULI["X"])
PAULI_Y = Operator(_PAULI["Y"])
PAULI_Z = Operator(_PAULI["Z"])
HADAMARD = Operator(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))
# basis change taking sigma_z to sigma_y, the sigma_y analogue of the Hadamard
HADAMARD_Y = Operator(np.array([[1, -1j], [1j, -1]], dtype=complex) / np.sqrt(2.0))


class PauliString(Record):
    """Tensor product of single-qubit Paulis with a real coefficient.

    ``letters`` holds one of I, X, Y, Z per qubit, qubit 0 first.
    """

    __slots__ = _fields = ("letters", "coeff")

    def __init__(self, letters: str, coeff: float = 1.0) -> None:
        if not (1 <= len(letters) <= 4):
            raise ValueError(f"pauli string must cover 1..4 qubits, got {letters!r}")
        bad = set(letters) - set("IXYZ")
        if bad:
            raise ValueError(f"unknown pauli letters {sorted(bad)} in {letters!r}")
        if not np.isfinite(coeff):
            raise ValueError("pauli coefficient must be finite")
        self._set(letters, coeff)


def pauli_matrix(letters: str) -> np.ndarray:
    """The unscaled tensor product of single-qubit Paulis, qubit 0 first."""
    mat = _PAULI[letters[0]]
    for letter in letters[1:]:
        mat = np.kron(mat, _PAULI[letter])
    return mat


def pauli_to_operator(p: PauliString) -> Operator:
    """Coefficient times the tensor product of single-qubit Paulis, qubit 0 first."""
    return Operator(p.coeff * pauli_matrix(p.letters))


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; a's qubits become the most significant ones."""
    if a.dim * b.dim > MAX_DIM:
        raise ValueError(
            f"kron result dimension {a.dim * b.dim} exceeds the 4-qubit limit ({MAX_DIM})"
        )
    return Operator(np.kron(a.matrix, b.matrix))


def embed_single(a: Operator, qubit: int, n_qubits: int) -> Operator:
    """Place a single-qubit operator on one qubit of an n-qubit register."""
    if a.dim != 2:
        raise ValueError("embed_single expects a single-qubit operator")
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {n_qubits} qubits")
    mat = np.array([[1.0 + 0.0j]])
    for q in range(n_qubits):
        mat = np.kron(mat, a.matrix if q == qubit else _PAULI["I"])
    return Operator(mat)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept qubits (original relative order preserved)."""
    keep_list = sorted(set(int(q) for q in keep))
    n = rho.n_qubits
    if not keep_list:
        raise ValueError("keep set must not be empty")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise ValueError(f"keep indices {keep_list} out of range for {n} qubits")
    keep_set = set(keep_list)
    tensor = rho.matrix.reshape((2,) * (2 * n))
    # traced qubits share a summation index between row and column legs
    row_idx = list(range(n))
    col_idx = [q if q not in keep_set else n + q for q in range(n)]
    out_idx = keep_list + [n + q for q in keep_list]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    k = len(keep_list)
    return DensityMatrix(reduced.reshape(2**k, 2**k))


def eigh_exp(eig: tuple[np.ndarray, np.ndarray], t) -> np.ndarray:
    """The matrix exp(-i*h*t), (v * exp(-i w t)) @ v^H, from the eigendecomposition
    (w, v) = np.linalg.eigh(h): one matrix for a float t, and for an array of times
    a stack of them along its leading axes, each equal to its own call bit for bit."""
    w, v = eig
    return (v * np.exp(-1j * w * np.asarray(t)[..., None])[..., None, :]) @ v.conj().T


def herm_exp(h: Operator, t: float) -> Operator:
    """Unitary exp(-i*h*t) for Hermitian h: diag(exp(-i*t*diag(h))), the exact
    exponential, when h has no off-diagonal entry, else through eigh.  At the
    compiler's cores, |t h| from 1e-12 to 1e12, both give the same bytes (a test
    pins that); outside that range eigh rescales the matrix and may not.  A t
    that is not finite raises ValueError."""
    if not math.isfinite(t):
        raise ValueError(f"herm_exp requires a finite time, got {t}")
    if not h.is_hermitian():
        raise ValueError("herm_exp requires a Hermitian generator")
    mat = h.matrix
    if _is_diagonal(mat):
        return Operator(diagonal_exp(mat.diagonal().real, t))
    return Operator(eigh_exp(np.linalg.eigh(mat), t))


def diagonal_exp(diagonals: np.ndarray, t: float) -> np.ndarray:
    """diag(exp(-i*t*d)) for each real diagonal d of a stack, shape (..., dim):
    the exact exponential of each generator with no off-diagonal entry."""
    phases = np.exp(-1j * t * diagonals)
    dim = phases.shape[-1]
    unitaries = np.zeros(phases.shape + (dim,), dtype=complex)
    unitaries[..., np.arange(dim), np.arange(dim)] = phases
    return unitaries


def evolve(rho: DensityMatrix, u: Operator) -> DensityMatrix:
    """Unitary conjugation U rho U^dagger."""
    if u.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, unitary {u.dim}")
    if not u.is_unitary():
        raise ValueError("evolve requires a unitary operator")
    return DensityMatrix(u.matrix @ rho.matrix @ u.matrix.conj().T)
