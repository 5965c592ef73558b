"""Heat-bath algorithmic cooling: the basic compression subroutine.

A pool of classical bits at bias eps (P(0) = (1 + eps)/2) is purified by
pairing bits, applying a CNOT, keeping the control bit of every pair whose
target came out 0, and discarding the rest.  The retained bits have bias
2*eps/(1 + eps^2); iterating the map drives the bias toward 1.  Thermal
contact is modeled as i.i.d. resampling at the bath bias (perfect bath).

The bias of a spin with gap E at temperature T is tanh(E/(2T)), which
bridges these bit-pool statements to the refrigerator's thermal states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermo import check_count, check_positive

# np.random.default_rng read a byte per bit (_sample_pool); seeded runs are bit-reproducible
PRNG_ID = "numpy-pcg64-byte-threshold"
MAX_BITS = 10**9  # a pool holds one byte per bit; a compression round adds about half a byte
SAMPLE_CHUNK = 2**15  # bits per primary draw while sampling a pool, a multiple of 8
COMPRESS_CHUNK = 2**16  # pairs compacted per np.compress call in a compression round


@dataclass(frozen=True)
class BiasState:
    """A pool of n_bits i.i.d. bits at a common bias.

    Compression drives eps toward 1 and a pure pool has eps = 1; an
    empirical estimate from a finite sample may come out negative, down to
    -1 for a pool whose bits are all 1, so [-1, 1] is accepted.
    """

    epsilon: float
    n_bits: int

    def __post_init__(self) -> None:
        if not (-1.0 <= self.epsilon <= 1.0):
            raise ValueError(f"bias must lie in [-1, 1], got {self.epsilon}")
        if self.n_bits < 0:
            raise ValueError(f"bit count must be nonnegative, got {self.n_bits}")


@dataclass(frozen=True)
class BcsRound:
    """Per-round statistics of a stochastic compression run."""

    round_index: int
    analytic_bias: float
    empirical_bias: float
    retained_bits: int


@dataclass(frozen=True)
class BcsResult:
    rounds: tuple[BcsRound, ...]
    final: BiasState
    seed: int
    prng: str = PRNG_ID


def check_bias(epsilon: float) -> None:
    """The rule for a pool's bias: [0, 1)."""
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"bias must lie in [0, 1), got {epsilon}")


def bcs_bias(epsilon: float) -> float:
    """One compression round: eps -> 2*eps/(1 + eps^2)."""
    check_bias(epsilon)
    return 2.0 * epsilon / (1.0 + epsilon * epsilon)


def bcs_outcome_probs(epsilon: float) -> tuple[float, float, float, float]:
    """Probabilities of the four (control, target) pair outcomes after CNOT.

    Order: (0,0)->(0,0), (0,1)->(0,1), (1,0)->(1,1), (1,1)->(1,0).
    They sum to one identically.
    """
    check_bias(epsilon)
    p00 = (1.0 + epsilon) ** 2 / 4.0
    p_mixed = (1.0 - epsilon * epsilon) / 4.0
    p11 = (1.0 - epsilon) ** 2 / 4.0
    return (p00, p_mixed, p_mixed, p11)


def expected_purified(l: int, m: int, epsilon0: float) -> float:
    """Expected purified-bit yield l*m*(1 + eps0^2)/4 after l compression cycles."""
    if l < 1:
        raise ValueError(f"cycle count must be at least 1, got {l}")
    if m < 2 or m % 2:
        raise ValueError(f"segment size must be even and at least 2, got {m}")
    check_bias(epsilon0)
    return l * m * (1.0 + epsilon0 * epsilon0) / 4.0


def rounds_to_bias(epsilon0: float, epsilon_target: float) -> int:
    """Smallest j with the j-th bias iterate reaching epsilon_target.

    Returns 0 when the target is already met.  A zero starting bias is a
    fixed point, so any positive target is unreachable from it.
    """
    check_bias(epsilon0)
    if not (0.0 < epsilon_target < 1.0):
        raise ValueError(f"target bias must lie in (0, 1), got {epsilon_target}")
    if epsilon_target <= epsilon0:
        return 0
    if epsilon0 == 0.0:
        raise ValueError("target unreachable: bias 0 is a fixed point of the recursion")
    rounds = 0
    eps = epsilon0
    while eps < epsilon_target:
        eps = 2.0 * eps / (1.0 + eps * eps)  # strictly increasing on (0, 1)
        rounds += 1
    return rounds


def bias_from_temperature(E: float, T: float) -> float:
    """Bias of a thermal spin: tanh(E / (2T)) with k_B = 1."""
    check_positive("E", E)
    check_positive("T", T)
    return math.tanh(E / (2.0 * T))


def _empirical_bias(bits: np.ndarray) -> float:
    if bits.size == 0:
        return 0.0
    # a count of ones is exact, so this equals 1 - 2 * mean() bit for bit; the
    # count is an np.int64, so it is read as an int to return a Python float
    return 1.0 - 2.0 * (int(np.count_nonzero(bits)) / bits.size)


def check_bits(n_bits: int) -> None:
    """The rule for a pool's size: an even integer, at least 2 and at most MAX_BITS."""
    check_count("bit count", n_bits)
    if n_bits < 2 or n_bits % 2:
        raise ValueError(f"bit count must be even and at least 2, got {n_bits}")
    if n_bits > MAX_BITS:
        raise ValueError(f"bit count must be at most {MAX_BITS}, got {n_bits}")


def check_rounds(rounds: int) -> None:
    """The rule for a round count: a nonnegative integer."""
    check_count("round count", rounds)
    if rounds < 0:
        raise ValueError(f"round count must be nonnegative, got {rounds}")


def check_seed(seed: int) -> None:
    """The rule for a PRNG seed: a nonnegative integer."""
    check_count("seed", seed, "a nonnegative integer")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")


def _threshold(epsilon: float) -> int:
    """K << 3 for K = ceil((1 + epsilon)/2 * 2^53), the least 56-bit integer of a 1 bit.

    PCG64's rng.random() is k * 2^-53 for a uniform 53-bit k, and that is at least
    (1 + epsilon)/2 iff k >= K; for a 56-bit k56 with k56 >> 3 == k, iff k56 >= K << 3.
    The threshold is 2^56, which no 56-bit integer reaches, when (1 + epsilon)/2
    rounds to 1.0.
    """
    return math.ceil((1.0 + epsilon) / 2.0 * 2.0**53) << 3


def _sample_pool(rng: np.random.Generator, n_bits: int, epsilon: float) -> np.ndarray:
    """n_bits bools, each True (a 1 bit) with probability (1 - epsilon)/2.

    Bit i is 1 iff the 56-bit integer (byte_i << 48) | rest_i reaches _threshold(epsilon).
    byte_i is byte i, little-endian, of the ceil(n_bits/8) raw words drawn first.  Where
    byte_i equals the threshold's top byte (a tie, about one bit in 256), rest_i is the
    top 48 bits of one further raw word, drawn in ascending bit order after every
    primary word; elsewhere byte_i alone settles the bit.  The 56-bit integer shifted
    right by 3 is uniform on [0, 2^53), so each bit has exactly the law of
    rng.random() >= (1 + epsilon)/2, which spends a raw word per bit, from an eighth
    of the words.  The primary words come SAMPLE_CHUNK/8 at a time, and the bits do
    not depend on SAMPLE_CHUNK.
    """
    threshold = _threshold(epsilon)
    top, rest = threshold >> 48, threshold & (2**48 - 1)
    if top > 0xFF:  # threshold 2^56: no byte reaches it
        return np.zeros(n_bits, dtype=bool)
    raw = rng.bit_generator.random_raw
    bits = np.empty(n_bits, dtype=bool)
    ties = []
    for start in range(0, n_bits, SAMPLE_CHUNK):
        count = min(SAMPLE_CHUNK, n_bits - start)
        head = raw(-(-count // 8)).astype("<u8", copy=False).view(np.uint8)[:count]
        np.greater(head, top, out=bits[start:start + count])
        ties.append(np.flatnonzero(head == top) + start)
    ties = np.concatenate(ties)
    rests = raw(ties.size)
    np.right_shift(rests, 16, out=rests)
    bits[ties] = rests >= rest
    return bits


def _compress_round(bits: np.ndarray) -> np.ndarray:
    """The control bit of every agreeing (control, target) pair of an even-sized pool, in order.

    A pair of bools read as one uint16 agrees iff it is 0x0000 or 0x0101, when the
    CNOT target reads 0; the kept control bit is then the pair's bit.  np.compress
    forms an int64 index of the kept pairs, so it runs COMPRESS_CHUNK pairs at a
    time into one output of a byte per pair.
    """
    pairs = bits.view(np.uint16)
    kept = np.empty(pairs.size, dtype=bool)
    count = 0
    for start in range(0, pairs.size, COMPRESS_CHUNK):
        chunk = pairs[start:start + COMPRESS_CHUNK]
        agreeing = np.compress((chunk == 0) | (chunk == 0x0101), chunk)
        np.not_equal(agreeing, 0, out=kept[count:count + agreeing.size])
        count += agreeing.size
    return kept[:count]


def simulate_bcs(n_bits: int, epsilon: float, rounds: int, seed: int) -> BcsResult:
    """Stochastic compression of a freshly sampled pool, seeded and exact.

    Round 0 records the sampled pool; each further round pairs adjacent
    bits (dropping a trailing unpaired bit), keeps the control bit of every
    agreeing pair, and discards the rest.  Deterministic for a given seed.
    """
    check_bits(n_bits)
    check_bias(epsilon)
    check_rounds(rounds)
    check_seed(seed)
    bits = _sample_pool(np.random.default_rng(seed), n_bits, epsilon)
    analytic = epsilon
    history = [BcsRound(0, analytic, _empirical_bias(bits), int(bits.size))]
    for round_index in range(1, rounds + 1):
        if bits.size % 2:
            bits = bits[:-1]
        if bits.size == 0:
            break  # pool exhausted; remaining rounds are vacuous
        bits = _compress_round(bits)
        if analytic < 1.0:  # a bias that rounded to 1.0 is a fixed point of the map
            analytic = bcs_bias(analytic)
        history.append(BcsRound(round_index, analytic, _empirical_bias(bits), int(bits.size)))
    final = BiasState(epsilon=_empirical_bias(bits), n_bits=int(bits.size))
    return BcsResult(rounds=tuple(history), final=final, seed=seed)
