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

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .linalg import Record
from .thermo import check_count, check_positive

# np.random.default_rng read a byte per bit (_sample); seeded runs are bit-reproducible
PRNG_ID = "numpy-pcg64-byte-threshold"
MAX_BITS = 10**9  # a pool streams through CHUNK bits at a time, so memory does not grow with it
# bits sampled at a time, a multiple of 8.  A round runs once 4 * CHUNK bits wait, so a
# queue holds fewer than 8 * CHUNK, CHUNK bytes; below 2^22, so that a round's agreeing
# pairs, at most 4 * CHUNK, fit the 24 bits _tally counts them in
CHUNK = 2**18


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


_PAD = 0xAAAA_AAAA_AAAA_AAAA  # every pair (control 0, target 1): none agrees, none is kept


@functools.lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The round's rule for eight pairs read as one little-endian uint16 v, pair k
    being (bit 2k, bit 2k + 1) = (control, target), as two tables indexed by v.

    A pair agrees iff control == target, and then its control bit is kept.  In
    fields, a '<u2', entry v is kept | agree << 8: the kept bits, in order from bit
    0, and how many pairs agree.  In counts, a '<u4', it is agree | ones << 24,
    where ones is how many kept bits are 1, so a sum of fewer than 2^21 entries
    holds both counts.  Both come from the rule for the four pairs of a byte, as v's
    low byte holds its first four pairs.
    """
    quad = np.arange(256, dtype=np.uint16)
    kept, agree, ones = (np.zeros(256, dtype=np.uint16) for _ in range(3))
    for k in range(4):
        control, target = quad >> 2 * k & 1, quad >> 2 * k + 1 & 1
        keep = control & (control == target)
        kept |= keep << agree
        agree += control == target
        ones += keep
    low, high = np.s_[None, :], np.s_[:, None]  # entry v = low | high << 8 is [high, low]
    fields = np.left_shift(kept[high], agree[low], dtype=np.uint16)
    fields |= kept[low]
    fields |= (agree[low] + agree[high]) << 8
    counts = np.add(ones[low], ones[high], dtype=np.uint32)
    counts <<= 24
    counts |= agree[low] + agree[high]
    tables = fields.astype("<u2", copy=False).ravel(), counts.astype("<u4", copy=False).ravel()
    for table in tables:
        table.setflags(write=False)
    return tables


def _look_up(queue: np.ndarray, count: int, table: np.ndarray) -> np.ndarray:
    """The entries of table for the first count bits of queue, eight pairs an entry
    and a multiple of eight entries, and queue emptied.

    queue holds packed bits, bit i at bit i % 64 of the little-endian uint64 word
    i // 64, and reads 0 past them.  Pairs past the last whole pair, to the end of
    a 128-bit block, are padded to keep nothing.  Then every word of queue reads 0
    but for an odd last bit, which moves to bit 0.
    """
    pairs = count - count % 2
    if not pairs:
        return table[:0]  # a queue of one bit holds it at bit 0 already
    odd = int(queue[pairs >> 6]) >> (pairs & 63) & 1 if count % 2 else 0
    end = -(-pairs // 128) * 2
    word, offset = divmod(pairs, 64)
    if offset:
        below = (1 << offset) - 1
        queue[word] = int(queue[word]) & below | _PAD & ~below
        word += 1
    queue[word:end] = _PAD
    entries = np.take(table, queue[:end].view("<u2"))
    queue[:end + 1] = 0  # an odd bit after the last whole block sits in word end
    queue[0] = odd
    return entries


def _compress(queue: np.ndarray, count: int, out: np.ndarray, at: int) -> int:
    """One round over the first count bits of queue, which it empties
    (_look_up), writing the kept bits to out from bit at on: how many it keeps.

    out is packed as queue is and reads 0 from bit at on.  The eight 8-bit fields
    of a 128-bit block are joined into one 64-bit field in three levels, and
    np.add.at adds each field to the one or two words of out it lands in; fields
    do not overlap, so add is or.
    """
    entries = _look_up(queue, count, _tables()[0])
    if not entries.size:
        return 0
    # two entries a '<u4': kept0 | agree0 << 8 | kept1 << 16 | agree1 << 24
    both = entries.view("<u4")
    lengths = both >> 8 & 0xFF
    fields = (both >> 16 & 0xFF) << lengths
    fields |= both & 0xFF
    lengths += both >> 24
    for dtype in (np.uint32, np.uint64):
        joined = np.left_shift(fields[1::2], lengths[0::2], dtype=dtype)
        joined |= fields[0::2]
        fields, lengths = joined, lengths[0::2] + lengths[1::2]
    ends = np.cumsum(lengths, dtype=np.uint64)
    starts = ends - lengths + at
    shifts = starts & 63
    np.add.at(out, starts >> 6, fields << shifts)
    np.add.at(out, (starts >> 6) + 1, (fields >> 1) >> (63 - shifts))  # the part past the word
    return int(ends[-1])


def _tally(queue: np.ndarray, count: int) -> tuple[int, int]:
    """The last round over the first count bits of queue, which it empties
    (_look_up): how many bits it keeps and how many of those are 1."""
    total = int(np.add.reduce(_look_up(queue, count, _tables()[1]), dtype=np.uint64))
    return total & (2**24 - 1), total >> 24


def _bias(ones: int, size: int) -> float:
    # exact int counts, so this equals 1 - 2 * mean() of the bits, bit for bit
    return 1.0 - 2.0 * (ones / size) if size else 0.0


def simulate_bcs(n_bits: int, epsilon: float, rounds: int, seed: int) -> BcsResult:
    """Stochastic compression of a freshly sampled pool, seeded and exact.

    Round 0 records the sampled pool; each further round pairs adjacent
    bits (dropping a trailing unpaired bit), keeps the control bit of every
    agreeing pair, and discards the rest.  Deterministic for a given seed.

    The pool is never held whole.  It is sampled CHUNK bits at a time and
    packed into round 0's queue, 64 bits a word, and round r + 1 pairs the bits
    in round r's queue once at least 4 * CHUNK wait and once more at the end.
    Each round but the last writes the bits it keeps to its own queue
    (_compress); the last only counts them (_tally).  An odd bit left in a queue
    is carried to its front, to pair with the first bit of the next batch, or is
    dropped at the end.  Each round keeps only its bit count, the last also its
    count of ones, from which every earlier round's count of ones follows; the
    history and the final state come from those counts.
    """
    check_bits(n_bits)
    check_bias(epsilon)
    check_rounds(rounds)
    check_seed(seed)
    # round r keeps at most n_bits >> r bits, and runs only if round r - 1 left 2
    last = min(rounds, int(n_bits).bit_length() - 1)
    sizes = [0] * (last + 1)
    ones = [0] * (last + 1)
    # a chunk's bits and ties, in whole words, and round r's packed bits that round
    # r + 1 has not paired yet.  A queue below 4 * CHUNK bits takes at most half of
    # one below 8 * CHUNK, so none reaches 8 * CHUNK, and none exceeds n_bits; it
    # has room to pad its last 128-bit block and a word past that.  Each part is
    # whole cache lines of one block: freed whole, the block stays in glibc's heap
    # for the next call, where parts freed one by one went back to the system and
    # faulted in again
    chunk = min(CHUNK, n_bits)
    words = -(-min(8 * CHUNK, n_bits) // 128) * 2 + 1
    lines = [-(-length // 64) * 64 for length in [chunk, chunk] + [8 * words] * last]
    block = np.empty(sum(lines), dtype=np.uint8)
    parts = [block[end - line:end] for end, line in zip(itertools.accumulate(lines), lines)]
    bits, ties_mask = parts[0].view(bool), parts[1].view(bool)
    queues = [part.view("<u8") for part in parts[2:]]
    for queue in queues:
        queue.fill(0)
    waiting = [0] * last

    def pair_rounds(flush: bool) -> None:
        for r in range(last):
            count = waiting[r]
            if count < 4 * CHUNK and not flush:
                return
            if r + 1 < last:
                kept = _compress(queues[r], count, queues[r + 1], waiting[r + 1])
                waiting[r + 1] += kept
            else:
                kept, kept_ones = _tally(queues[r], count)
                ones[last] += kept_ones
            sizes[r + 1] += kept
            waiting[r] = count % 2  # the odd bit pairs with the next batch's first

    threshold = _threshold(epsilon)
    primary = np.random.default_rng(seed).bit_generator
    ties = primary.jumped(0).advance(-(-n_bits // 8))

    for start in range(0, n_bits, CHUNK):
        sampled = bits[:min(CHUNK, n_bits - start)]
        _sample(sampled, threshold, primary, ties, ties_mask)
        sizes[0] += sampled.size
        if last:
            # every chunk but the last is whole bytes, and round 0's queue never
            # carries a bit, so each chunk starts a byte
            packed = np.packbits(sampled, bitorder="little")
            queues[0].view(np.uint8)[waiting[0] // 8:waiting[0] // 8 + packed.size] = packed
            waiting[0] += sampled.size
            pair_rounds(flush=False)
        else:
            ones[0] += int(np.count_nonzero(sampled))
    pair_rounds(flush=True)
    # round r + 1 paired every bit of round r but the odd last one, which is left
    # at bit 0 of round r's emptied queue; an agreeing pair holds two ones or
    # none, a disagreeing pair one
    for r in reversed(range(last)):
        ones[r] = 2 * ones[r + 1] + sizes[r] // 2 - sizes[r + 1] + int(queues[r][0])

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
