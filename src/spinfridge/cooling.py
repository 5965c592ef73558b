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

import itertools
import math
from typing import NamedTuple

import numpy as np

from .linalg import Record
from .thermo import check_count, check_positive

# np.random.default_rng read a byte per bit (_sample); seeded runs are bit-reproducible
PRNG_ID = "numpy-pcg64-byte-threshold"
MAX_BITS = 10**9  # a pool streams through CHUNK bits at a time, so memory does not grow with it
CHUNK = 2**18  # bits sampled at a time, and the bits each round's queue holds; a multiple of 8


class BiasState(Record):
    """A pool of n_bits i.i.d. bits at a common bias.

    Compression drives eps toward 1 and a pure pool has eps = 1; an
    empirical estimate from a finite sample may come out negative, down to
    -1 for a pool whose bits are all 1, so [-1, 1] is accepted.
    """

    __slots__ = _fields = ("epsilon", "n_bits")

    def __init__(self, epsilon: float, n_bits: int) -> None:
        if not (-1.0 <= epsilon <= 1.0):
            raise ValueError(f"bias must lie in [-1, 1], got {epsilon}")
        check_count("bit count", n_bits)
        if n_bits < 0:
            raise ValueError(f"bit count must be nonnegative, got {n_bits}")
        self._set(epsilon, n_bits)


class BcsRound(NamedTuple):
    """Per-round statistics of a stochastic compression run."""

    round_index: int
    analytic_bias: float
    empirical_bias: float
    retained_bits: int


class BcsResult(NamedTuple):
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
    check_count("cycle count", l)
    if l < 1:
        raise ValueError(f"cycle count must be at least 1, got {l}")
    check_count("segment size", m)
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


def _sample(bits: np.ndarray, threshold: int, primary: np.random.PCG64, ties: np.random.PCG64,
            tie_mask: np.ndarray) -> None:
    """The pool's next bits.size bits, in order, into bits; each is True (a 1) with
    probability (1 - epsilon)/2 for threshold = _threshold(epsilon).

    Bit i is 1 iff the 56-bit integer (byte_i << 48) | rest_i reaches the threshold.
    byte_i is byte i, little-endian, of the ceil(n_bits/8) raw words drawn first, from
    primary.  Where byte_i equals the threshold's top byte (a tie, about one bit in
    256), rest_i is the top 48 bits of one further raw word; elsewhere byte_i alone
    settles the bit.  The tie words come in ascending bit order after every primary
    word: ties is a copy of primary moved on past all of them, so each chunk settles
    its own ties.  The bits do not depend on the chunks as long as every chunk but a
    pool's last is a whole number of words, a multiple of 8 bits.  The 56-bit
    integer shifted right by 3 is uniform on [0, 2^53), so each bit has exactly the
    law of rng.random() >= (1 + epsilon)/2, which spends a raw word per bit, from an
    eighth of the words.

    tie_mask holds at least 8 * ceil(bits.size/8) bools.  The ties are found a word
    at a time: the mask's 8-byte words that hold one, about one word in 32, and then
    the tied bytes of those words only.
    """
    top, rest = threshold >> 48, threshold & (2**48 - 1)
    if top > 0xFF:  # threshold 2^56: no byte reaches it
        bits.fill(False)
        return
    words = primary.random_raw(-(-bits.size // 8))
    head = words.astype("<u8", copy=False).view(np.uint8)
    np.greater(head[:bits.size], top, out=bits)
    tied = tie_mask[:head.size]
    np.equal(head, top, out=tied)
    tied[bits.size:] = False  # the bytes of a ragged last word past the pool's end
    tied_words = np.flatnonzero(tied.view(np.uint64) != 0)  # flatnonzero runs fastest on bools
    in_word = np.flatnonzero(tied.view(np.uint64)[tied_words].view(bool))
    at = tied_words[in_word >> 3]
    at <<= 3
    at |= in_word & 7
    rests = ties.random_raw(at.size)
    np.right_shift(rests, 16, out=rests)
    bits[at] = rests >= rest


def _compress(bits: np.ndarray, out: np.ndarray | None, scratch: np.ndarray) -> tuple[int, int]:
    """One round over an even number of bits: how many it keeps and how many of those are 1.

    A pair of bools read as one uint16 agrees iff it is 0x0000 or 0x0101, when the
    CNOT target reads 0; the kept control bit is then 1 iff the pair is 0x0101.  Unless
    out is None, np.compress writes the kept bits, in order, to its start.  It forms
    an int64 index of the kept pairs, so it runs CHUNK/2 bits at a time.
    """
    kept = kept_ones = 0
    for start in range(0, bits.size, CHUNK // 2):
        pairs = bits[start:start + CHUNK // 2].view(np.uint16)
        agree, both_ones = scratch[:pairs.size], scratch[pairs.size:2 * pairs.size]
        np.equal(pairs, 0, out=agree)
        np.equal(pairs, 0x0101, out=both_ones)
        np.logical_or(agree, both_ones, out=agree)
        count = int(np.count_nonzero(agree))
        if out is not None:
            np.compress(agree, both_ones, out=out[kept:kept + count])
        kept += count
        kept_ones += int(np.count_nonzero(both_ones))
    return kept, kept_ones


def _bias(ones: int, size: int) -> float:
    # exact int counts, so this equals 1 - 2 * mean() of the bits, bit for bit
    return 1.0 - 2.0 * (ones / size) if size else 0.0


def simulate_bcs(n_bits: int, epsilon: float, rounds: int, seed: int) -> BcsResult:
    """Stochastic compression of a freshly sampled pool, seeded and exact.

    Round 0 records the sampled pool; each further round pairs adjacent
    bits (dropping a trailing unpaired bit), keeps the control bit of every
    agreeing pair, and discards the rest.  Deterministic for a given seed.

    The pool is never held whole.  It is sampled CHUNK bits at a time into
    round 0's queue, and round r + 1 pairs the bits in round r's queue once at
    least CHUNK/2 wait (every sampled chunk but a pool's last) and once more at
    the end.  An odd bit left in a queue is carried to its front, to pair with
    the first bit of the next batch, or is dropped at the end.  Each round keeps
    only its bit count and its count of ones, and the history and the final
    state come from those counts.
    """
    check_bits(n_bits)
    check_bias(epsilon)
    check_rounds(rounds)
    check_seed(seed)
    # round r keeps at most n_bits >> r bits, and runs only if round r - 1 left 2
    last = min(rounds, int(n_bits).bit_length() - 1)
    sizes = [0] * (last + 1)
    ones = [0] * (last + 1)
    # round r's bits that round r + 1 has not paired yet, never more than it makes,
    # and a chunk's ties, in whole words, or two masks of pairs.  Each is whole
    # cache lines of one block: freed whole, the block stays in glibc's heap for
    # the next call, where parts freed one by one went back to the system and
    # faulted in again
    lengths = [min(CHUNK, n_bits >> r) for r in range(max(last, 1))]
    lengths.append(lengths[0])
    lines = [-(-length // 64) * 64 for length in lengths]
    block = np.empty(sum(lines), dtype=bool)
    parts = [block[end - line:end] for end, line in zip(itertools.accumulate(lines), lines)]
    *queues, scratch = parts
    waiting = [0] * len(queues)

    def pair_rounds(flush: bool) -> None:
        # a queue below CHUNK/2 takes at most CHUNK/2 more from one batch, so it
        # never overflows; every chunk but the last is CHUNK, so round 1 pairs
        # each one before its buffer is sampled over
        for r in range(last):
            count = waiting[r]
            if count < CHUNK // 2 and not flush:
                return
            out = queues[r + 1][waiting[r + 1]:] if r + 1 < last else None
            kept, kept_ones = _compress(queues[r][:count - count % 2], out, scratch)
            sizes[r + 1] += kept
            ones[r + 1] += kept_ones
            if out is not None:
                waiting[r + 1] += kept
            if count % 2:  # the odd bit pairs with the next batch's first
                queues[r][0] = queues[r][count - 1]
            waiting[r] = count % 2

    threshold = _threshold(epsilon)
    primary = np.random.default_rng(seed).bit_generator
    ties = primary.jumped(0).advance(-(-n_bits // 8))

    for start in range(0, n_bits, CHUNK):
        bits = queues[0][:min(CHUNK, n_bits - start)]
        _sample(bits, threshold, primary, ties, scratch)
        sizes[0] += bits.size
        ones[0] += int(np.count_nonzero(bits))
        waiting[0] = bits.size  # every chunk is even, so round 0's queue never carries a bit
        pair_rounds(flush=False)
    pair_rounds(flush=True)

    analytic = epsilon
    history = [BcsRound(0, analytic, _bias(ones[0], sizes[0]), sizes[0])]
    for round_index in range(1, last + 1):
        if sizes[round_index - 1] < 2:
            break  # pool exhausted; remaining rounds are vacuous
        if analytic < 1.0:  # a bias that rounded to 1.0 is a fixed point of the map
            analytic = bcs_bias(analytic)
        history.append(BcsRound(round_index, analytic, _bias(ones[round_index], sizes[round_index]),
                                sizes[round_index]))
    # a pool exhausted before the last round ends with no bits
    final = (BiasState(history[-1].empirical_bias, history[-1].retained_bits)
             if len(history) > rounds else BiasState(0.0, 0))
    return BcsResult(rounds=tuple(history), final=final, seed=seed)
