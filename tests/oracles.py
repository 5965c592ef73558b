"""Independent reference implementations used to freeze expected values.

These deliberately avoid the library's code paths: matrix exponentials go
through scipy.linalg.expm instead of an eigendecomposition, partial traces
through explicit index loops instead of einsum, and thermodynamic
quantities through closed-form expressions instead of operator algebra.
``loop_cycles`` and ``loop_bcs`` are the exceptions: they are the
per-cycle loop that ``spinfridge.cycles`` ran before its closed form, step
for step on products of excited populations, and the uint8 pool that
``spinfridge.cooling.simulate_bcs`` compressed before its bit-pool kernel,
sampled bit by bit with Python ints from the raw PCG64 words.
``decimal_flow`` and ``decimal_cycles`` redo the population products at
DECIMAL_DIGITS significant digits, from the exact values of the float
inputs.
"""

import functools
import math
from decimal import Context, Decimal, localcontext

import numpy as np
from scipy.linalg import expm

from spinfridge import CycleColumns, FridgeConfig, spin_temperature
from spinfridge.cooling import (
    BcsResult,
    BcsRound,
    BiasState,
    bcs_bias,
    check_bias,
    check_bits,
    check_rounds,
)


def thermal_population(E: float, T: float) -> float:
    """Excited-state population e^(-E/T) / (1 + e^(-E/T))."""
    b = math.exp(-E / T)
    return b / (1.0 + b)


def effective_temperature(E: float, p_excited: float) -> float:
    return E / math.log((1.0 - p_excited) / p_excited)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def exchanged_level_populations(
    gaps: tuple[float, float, float], temps: tuple[float, float, float]
) -> tuple[float, float]:
    """Closed-form (P010, P101) of the three-spin thermal product state."""
    z_total = 1.0
    for gap, temp in zip(gaps, temps):
        z_total *= 1.0 + math.exp(-gap / temp)
    p010 = math.exp(-gaps[1] / temps[1]) / z_total
    p101 = math.exp(-gaps[0] / temps[0] - gaps[2] / temps[2]) / z_total
    return p010, p101


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """scipy-based exp(-i h t), independent of the eigendecomposition path."""
    return expm(-1j * np.asarray(h, dtype=complex) * t)


def loop_partial_trace(mat: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Partial trace by explicit enumeration of basis indices (qubit 0 = MSB)."""
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    k = len(keep)
    out = np.zeros((2**k, 2**k), dtype=complex)
    for row in range(2**n):
        for col in range(2**n):
            row_bits = [(row >> (n - 1 - q)) & 1 for q in range(n)]
            col_bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
            if any(row_bits[q] != col_bits[q] for q in traced):
                continue
            r = sum(row_bits[q] << (k - 1 - i) for i, q in enumerate(keep))
            c = sum(col_bits[q] << (k - 1 - i) for i, q in enumerate(keep))
            out[r, c] += mat[row, col]
    return out


def exchange_matrix(g: float = 1.0) -> np.ndarray:
    """The two-entry coupling, written out literally."""
    mat = np.zeros((8, 8), dtype=complex)
    mat[0b010, 0b101] = g
    mat[0b101, 0b010] = g
    return mat


def product_thermal_matrix(
    gaps: tuple[float, float, float], temps: tuple[float, float, float]
) -> np.ndarray:
    """Diagonal 8x8 thermal product state from per-level Boltzmann weights."""
    diag = np.zeros(8)
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        weight = 1.0
        for bit, gap, temp in zip(bits, gaps, temps):
            weight *= math.exp(-gap / temp) if bit else 1.0
        diag[idx] = weight
    diag /= diag.sum()
    return np.diag(diag).astype(complex)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def loop_cycles(cfg: FridgeConfig, n_cycles: int) -> CycleColumns:
    """Spin 1 after each of n_cycles evolve-reset loops, iterating p1 <- p1 + delta."""
    p1, p2, p3 = (float(b / (1.0 + b)) for b in
                  (np.exp(-np.divide(gap, temp)) for gap, temp in zip(cfg.gaps, cfg.temps)))
    rows = []
    delta = 0.0
    for n in range(n_cycles + 1):
        if n:
            p010 = (1.0 - p1) * p2 * (1.0 - p3)
            p101 = p1 * (1.0 - p2) * p3
            delta = math.sin(cfg.theta) ** 2 * (p010 - p101)
            p1 += delta
        temperature = float(spin_temperature(1.0 - p1, p1, cfg.E1))
        rows.append((n, temperature, binary_entropy(p1), cfg.E1 * p1, cfg.E1 * delta))
    return CycleColumns(*map(np.array, zip(*rows)))


DECIMAL_DIGITS = 50


def _decimal_populations(cfg: FridgeConfig) -> list[Decimal]:
    """The excited populations b/(1 + b), b = e^(-E/T), of the three spins;
    call inside a DECIMAL_DIGITS context."""
    boltzmann = [(-Decimal(gap) / Decimal(temp)).exp() for gap, temp in zip(cfg.gaps, cfg.temps)]
    return [b / (1 + b) for b in boltzmann]


def _decimal_levels(p1: Decimal, p2: Decimal, p3: Decimal) -> tuple[Decimal, Decimal]:
    """(P010, P101) of the product of spins with excited populations p1, p2, p3."""
    return (1 - p1) * p2 * (1 - p3), p1 * (1 - p2) * p3


def decimal_flow(cfg: FridgeConfig) -> tuple[Decimal, Decimal, Decimal]:
    """(P010, P101, delta) of one exchange, with sin^2(theta) from the float
    math.sin(theta)."""
    with localcontext(Context(prec=DECIMAL_DIGITS)):
        p010, p101 = _decimal_levels(*_decimal_populations(cfg))
        return p010, p101, Decimal(math.sin(cfg.theta)) ** 2 * (p010 - p101)


def decimal_cycles(cfg: FridgeConfig, n_cycles: int) -> tuple[list[Decimal], list[Decimal]]:
    """Spin 1's excited population p and temperature E1 / ln((1 - p)/p) after
    each of n_cycles evolve-reset loops (n = 0 is the initial state)."""
    with localcontext(Context(prec=DECIMAL_DIGITS)):
        p1, p2, p3 = _decimal_populations(cfg)
        sin2 = Decimal(math.sin(cfg.theta)) ** 2
        populations = [p1]
        for _ in range(n_cycles):
            p010, p101 = _decimal_levels(p1, p2, p3)
            p1 += sin2 * (p010 - p101)
            populations.append(p1)
        return populations, [Decimal(cfg.E1) / ((1 - p) / p).ln() for p in populations]


def _empirical_bias(bits: np.ndarray) -> float:
    if bits.size == 0:
        return 0.0
    return float(1.0 - 2.0 * bits.mean())


@functools.lru_cache(maxsize=1)  # the rounds of one case share its pool
def loop_pool(n_bits: int, epsilon: float, seed: int) -> np.ndarray:
    """The sampled pool as uint8, one Python int per bit.

    Bit i is 1 iff its 56-bit integer reaches ceil((1 + eps)/2 * 2^53) << 3.
    The integer's top byte is byte i, least significant first, of the first
    ceil(n/8) raw words; a bit whose byte equals the threshold's top byte takes
    its low 48 bits from the top of one further raw word, those words drawn in
    bit order after the first ones.  Any other bit keeps low bits 0, which
    cannot change its comparison.
    """
    threshold = math.ceil((1.0 + epsilon) / 2.0 * 2**53) << 3
    raw = np.random.default_rng(seed).bit_generator.random_raw
    words = raw(-(-n_bits // 8)).tolist()
    k56 = [(word >> shift & 0xFF) << 48 for word in words for shift in range(0, 64, 8)][:n_bits]
    ties = [i for i, k in enumerate(k56) if k >> 48 == threshold >> 48]
    for i, word in zip(ties, raw(len(ties)).tolist()):
        k56[i] |= word >> 16
    pool = np.array([k >= threshold for k in k56], dtype=np.uint8)
    pool.flags.writeable = False
    return pool


def loop_bcs(n_bits: int, epsilon: float, rounds: int, seed: int) -> BcsResult:
    """The pool of loop_pool, a strided boolean-mask gather per round, and the
    pool's mean as its bias."""
    check_bits(n_bits)
    check_bias(epsilon)
    check_rounds(rounds)
    bits = loop_pool(n_bits, epsilon, seed)
    analytic = epsilon
    history = [BcsRound(0, analytic, _empirical_bias(bits), int(bits.size))]
    for round_index in range(1, rounds + 1):
        if bits.size % 2:
            bits = bits[:-1]
        if bits.size == 0:
            break  # pool exhausted; remaining rounds are vacuous
        control = bits[0::2]
        target = bits[1::2]
        bits = control[control == target]  # CNOT target reads 0 iff the pair agrees
        if analytic < 1.0:  # a bias that rounded to 1.0 is a fixed point of the map
            analytic = bcs_bias(analytic)
        history.append(BcsRound(round_index, analytic, _empirical_bias(bits), int(bits.size)))
    final = BiasState(epsilon=_empirical_bias(bits), n_bits=int(bits.size))
    return BcsResult(rounds=tuple(history), final=final, seed=seed)
