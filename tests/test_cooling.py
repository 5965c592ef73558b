"""Basic compression subroutine: recursion, yields, stochastic engine."""

import itertools
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spinfridge import (
    BiasState,
    SpinSpec,
    bcs_bias,
    bcs_outcome_probs,
    bias_from_temperature,
    expected_purified,
    rounds_to_bias,
    simulate_bcs,
    thermal_state,
)
from spinfridge import cooling
from spinfridge.cooling import CHUNK, MAX_BITS, PRNG_ID, _sample, _threshold


def simulate_bcs_on_the_caller(*case):
    """simulate_bcs(*case), once it is seen that the calling thread sampled every chunk."""
    samplers = set()

    def recording(*args):
        samplers.add(threading.current_thread())
        _sample(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cooling, "_sample", recording)
        result = simulate_bcs(*case)
    assert samplers == {threading.current_thread()}  # no other thread samples a chunk
    return result


def test_bcs_bias_examples():
    assert bcs_bias(0.0) == 0.0
    assert bcs_bias(0.5) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        bcs_bias(-0.1)
    with pytest.raises(ValueError):
        bcs_bias(1.0)


def test_bcs_bias_iterates_increase_toward_one():
    # stop once saturated: the float iterate reaches 1.0 exactly, which is
    # outside the open domain of the map
    eps = 0.01
    for _ in range(40):
        nxt = bcs_bias(eps)
        assert nxt > eps
        eps = nxt
        if eps > 0.999999:
            break
    assert eps > 0.999999


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-6, 0.999999))
def test_bcs_bias_strictly_amplifies(eps):
    assert eps < bcs_bias(eps) < 1.0


def test_bcs_bias_is_concave():
    grid = [i / 200.0 for i in range(1, 200)]
    values = [bcs_bias(x) for x in grid]
    second_differences = [
        values[i - 1] - 2.0 * values[i] + values[i + 1] for i in range(1, len(values) - 1)
    ]
    assert all(d <= 1e-12 for d in second_differences)


def test_bcs_outcome_probs():
    assert bcs_outcome_probs(0.0) == pytest.approx((0.25, 0.25, 0.25, 0.25))
    assert bcs_outcome_probs(0.5) == pytest.approx((0.5625, 0.1875, 0.1875, 0.0625))


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 0.999999))
def test_bcs_outcome_probs_sum_to_one_and_match_recursion(eps):
    p00, p01, p10, p11 = bcs_outcome_probs(eps)
    assert p00 + p01 + p10 + p11 == pytest.approx(1.0, abs=1e-15)
    # conditional bias of the retained control bits reproduces the recursion
    kept = p00 + p11
    assert (p00 - p11) / kept == pytest.approx(bcs_bias(eps), abs=1e-12)


def test_expected_purified_examples():
    assert expected_purified(4, 100, 0.5) == pytest.approx(125.0)
    assert expected_purified(4, 100, 0.0) == pytest.approx(100.0)  # exactly m
    assert expected_purified(1, 4, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expected_purified(0, 100, 0.5)
    with pytest.raises(ValueError):
        expected_purified(4, 7, 0.5)
    # the counts follow the count rule: an integer, and not a bool
    for l, m, name in ((1.5, 4, "cycle count"), (True, 4, "cycle count"), (1, 4.0, "segment size"),
                       (1, True, "segment size")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            expected_purified(l, m, 0.5)


def test_rounds_to_bias():
    assert rounds_to_bias(0.5, 0.8) == 1
    assert rounds_to_bias(0.5, 0.75) == 1
    assert rounds_to_bias(0.5, 0.5) == 0  # already satisfied
    assert rounds_to_bias(0.5, 0.81) == 2
    assert rounds_to_bias(0.01, 0.99) > 3
    with pytest.raises(ValueError, match="unreachable"):
        rounds_to_bias(0.0, 0.5)
    for target in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"^target bias must lie in \(0, 1\), got"):
            rounds_to_bias(0.5, target)


def test_bias_bridges_to_thermal_populations():
    for gap, temp in ((1.0, 2.0), (3.0, 2.0), (2.0, 10.0), (0.5, 0.7)):
        pops = thermal_state(SpinSpec(gap, temp)).populations
        assert bias_from_temperature(gap, temp) == pytest.approx(
            float(pops[0] - pops[1]), abs=1e-14
        )


def test_bias_from_temperature_rejects_an_infinite_gap():
    with pytest.raises(ValueError, match="E must be positive and finite, got inf"):
        bias_from_temperature(math.inf, 1.0)


def test_bias_state_domain():
    BiasState(epsilon=-0.001, n_bits=10)  # empirical estimates may dip negative
    BiasState(epsilon=1.0, n_bits=10)  # a pure pool
    BiasState(epsilon=-1.0, n_bits=10)  # a pool whose bits are all 1
    with pytest.raises(ValueError):
        BiasState(epsilon=1.0000001, n_bits=10)
    with pytest.raises(ValueError):
        BiasState(epsilon=-1.0000001, n_bits=10)
    with pytest.raises(ValueError):
        BiasState(epsilon=0.5, n_bits=-1)


def test_simulate_bcs_is_deterministic_per_seed():
    a = simulate_bcs(10_000, 0.3, 3, seed=7)
    b = simulate_bcs(10_000, 0.3, 3, seed=7)
    c = simulate_bcs(10_000, 0.3, 3, seed=8)
    assert a == b
    assert a != c
    assert a.prng == PRNG_ID == "numpy-pcg64-byte-threshold"


def test_empirical_biases_are_python_floats():
    # the all-ones 2-bit pool, a pool that empties and one of 10000 bits
    for result in (simulate_bcs(2, 0.0, 1, 1), simulate_bcs(2, 0.5, 3, 0),
                   simulate_bcs(10_000, 0.3, 3, seed=7)):
        assert all(type(entry.empirical_bias) is float for entry in result.rounds)
        assert type(result.final.epsilon) is float


def test_simulate_bcs_validation():
    with pytest.raises(ValueError):
        simulate_bcs(101, 0.5, 1, seed=0)  # odd pool
    with pytest.raises(ValueError):
        simulate_bcs(0, 0.5, 1, seed=0)
    with pytest.raises(ValueError):
        simulate_bcs(100, 1.0, 1, seed=0)
    # the size cap is checked before any pool is allocated
    with pytest.raises(ValueError, match=f"bit count must be at most {MAX_BITS}, got"):
        simulate_bcs(MAX_BITS + 2, 0.5, 1, seed=0)
    for seed in (-1, 1.5, None):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            simulate_bcs(100, 0.5, 1, seed=seed)


@pytest.mark.parametrize("n_bits, rounds, seed, message", [
    (8, True, 0, "round count must be an integer, got True"),
    (8, 1, True, "seed must be a nonnegative integer, got True"),
    (4.0, 1, 0, "bit count must be an integer, got 4.0"),
    (8, 1.5, 0, "round count must be an integer, got 1.5"),
])
def test_simulate_bcs_counts_follow_the_integer_rule_of_cycles(n_bits, rounds, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_bcs(n_bits, 0.3, rounds, seed)


def test_simulate_bcs_equals_the_uint8_loop(monkeypatch):
    # pools of one and two bit pairs, and pools across the boundaries of 8- to
    # 64-bit chunks, where each round's queue carries odd bits between batches;
    # the bias 1 - 2^-53 rounds the sampling threshold (1 + eps)/2 to 1.0
    sizes = (2, 4, 6, 10, 26, 66, 198, 1030)
    biases = (0.0, 0.3, 0.99, 1.0 - 2.0**-53)
    finals = []
    for n_bits, eps, seed in itertools.product(sizes, biases, range(8)):
        for rounds in range(9):
            case = (n_bits, eps, rounds, seed)
            expected = oracles.loop_bcs(*case)
            for chunk in (8, 16, 24, 64):
                monkeypatch.setattr(cooling, "CHUNK", chunk)
                assert simulate_bcs_on_the_caller(*case) == expected, (case, chunk)
            finals.append(expected)
    # the cases reach every kind of pool the loop can leave
    assert any(r.final.epsilon == -1.0 and r.final.n_bits > 1 for r in finals)  # all ones
    assert any(r.final.epsilon == 1.0 and r.final.n_bits > 1 for r in finals)  # pure
    assert any(r.final.n_bits == 0 for r in finals)  # exhausted
    assert any(row.retained_bits % 2 for r in finals for row in r.rounds[:-1])  # odd, trimmed


def test_simulate_bcs_equals_the_uint8_loop_on_random_cases():
    # at the default chunk the pool is one chunk; then it is split into 1 to 64
    # chunks of whole words, 8 bits or more
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 2**15).map(lambda pairs: 2 * pairs),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 8),
        st.integers(0, 2**64),
        st.integers(1, 64),
    )
    @example(2, 0.0, 0, 0, 1)
    @example(80, 0.3, 3, 0, 10)
    @example(28, 0.3, 2, 0, 4)  # 3.5 chunks of 8 bits: a last chunk of half a word
    @example(30, 0.3, 2, 0, 4)  # 3.75 chunks of 8 bits: a last chunk of 6 bits
    def check(n_bits, eps, rounds, seed, chunks):
        expected = oracles.loop_bcs(n_bits, eps, rounds, seed)
        assert simulate_bcs_on_the_caller(n_bits, eps, rounds, seed) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cooling, "CHUNK", 8 * -(-n_bits // (8 * chunks)))
            assert simulate_bcs_on_the_caller(n_bits, eps, rounds, seed) == expected

    check()


def test_simulate_bcs_does_not_depend_on_the_chunk():
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 2**12).map(lambda pairs: 2 * pairs),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 14),
        st.integers(0, 2**64),
        st.sampled_from([8, 16, 24, 64]) | st.integers(1, 2**10).map(lambda words: 8 * words),
    )
    @example(2, 0.0, 0, 0, 8)
    @example(66, 0.3, 3, 0, 8)
    def check(n_bits, eps, rounds, seed, chunk):
        default = simulate_bcs(n_bits, eps, rounds, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cooling, "CHUNK", chunk)
            assert simulate_bcs_on_the_caller(n_bits, eps, rounds, seed) == default

    check()


def test_each_table_entry_follows_the_pair_rule():
    # eight pairs read as one uint16, pair k at bits 2k (control) and 2k + 1
    # (target): a pair agrees iff control == target, and keeps its control bit
    fields, counts = cooling._tables()
    assert (fields.dtype, counts.dtype, fields.size, counts.size) == (np.dtype("<u2"), np.dtype("<u4"),
                                                                      2**16, 2**16)
    for v in range(2**16):
        pairs = [(v >> 2 * k & 1, v >> 2 * k + 1 & 1) for k in range(8)]
        kept = [control for control, target in pairs if control == target]
        bits = sum(bit << i for i, bit in enumerate(kept))
        assert int(fields[v]) == bits | len(kept) << 8, v
        assert int(counts[v]) == len(kept) | sum(kept) << 24, v


def test_simulate_bcs_equals_the_uint8_loop_at_every_offset_of_a_queue(monkeypatch):
    # a round writes its kept bits to the next queue from where that queue's fill
    # ends, which batch boundaries put at every bit of a word
    offsets = set()
    compress = cooling._compress

    def recording(queue, count, out, at):
        offsets.add(at % 64)
        return compress(queue, count, out, at)

    monkeypatch.setattr(cooling, "_compress", recording)
    for chunk, n_bits, eps, seed in itertools.product((8, 16, 24, 64), (1030, 4098), (0.3, 0.9), range(3)):
        monkeypatch.setattr(cooling, "CHUNK", chunk)
        case = (n_bits, eps, 6, seed)
        assert simulate_bcs_on_the_caller(*case) == oracles.loop_bcs(*case), (case, chunk)
    assert offsets == set(range(64))


class RawWords:
    """A stand-in for a bit generator that hands out given raw words in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.drawn = 0

    def random_raw(self, size):
        self.drawn += size
        return self.words[self.drawn - size:self.drawn].copy()


@pytest.mark.parametrize("n_bits, tied", [
    (64, [0]),  # the first byte
    (64, [63]),  # the last byte
    (64, [7, 8, 15, 16, 31, 32, 33]),  # on both sides of word boundaries
    (64, range(64)),  # every byte
    (10, [1, 9]),  # a ragged last word, whose bytes 10-15 tie too but are past the pool
    (2, [0, 1]),
    (18, []),
])
def test_sample_settles_each_tie_with_the_next_tie_word(n_bits, tied):
    eps = 0.3
    threshold = _threshold(eps)
    top, rest = threshold >> 48, threshold & (2**48 - 1)
    words = -(-n_bits // 8)
    head = np.random.default_rng(n_bits).integers(0, 255, 8 * words, dtype=np.uint8)
    head[head >= top] += 1  # no byte ties but those set here
    head[list(tied)] = top
    head[n_bits:] = top
    # tie words that settle 1, 0, 1, ...: their top 48 bits at rest and just below it
    rests = [(rest - i % 2) << 16 | 0xFFFF for i in range(len(tied))] + [0] * 8
    primary, ties = RawWords(head.view("<u8")), RawWords(rests)
    bits = np.empty(n_bits, dtype=bool)
    _sample(bits, threshold, primary, ties, np.empty(8 * words, dtype=bool))
    expected = head[:n_bits] > top
    expected[list(tied)] = [i % 2 == 0 for i in range(len(tied))]
    assert bits.tolist() == expected.tolist()
    assert (primary.drawn, ties.drawn) == (words, len(tied))


@pytest.mark.parametrize("chunk", [8, 16, 24, 64])
@pytest.mark.parametrize("name, error", [
    # each error with the call that raises it, of the calls a pool of 40 chunks makes
    ("_sample", (RuntimeError("no bits"), 2)),
    ("_compress", (RuntimeError("no round"), 2)),  # round 1, on its third batch
    ("_compress", (KeyboardInterrupt("stopped"), 2)),
    ("_sample", (RuntimeError("no first bits"), 0)),
    ("_tally", (RuntimeError("no last round"), -1)),  # the final flush
])
def test_a_failure_in_sampling_or_compressing_is_raised_on_the_calling_thread(name, error, chunk, monkeypatch):
    # a chunk fails as it is sampled, or a batch as a round runs over it.  The call
    # raises the failure as it is, from the thread that sampled every chunk, and
    # starts no thread
    error, call = error
    calls, samplers = [], set()
    fails = getattr(cooling, name)
    failing_call = None

    def failing(*args):
        calls.append(None)
        if len(calls) - 1 == failing_call:
            raise error
        return fails(*args)

    def recording(*args):
        samplers.add(threading.current_thread())
        return sample(*args)

    monkeypatch.setattr(cooling, "CHUNK", chunk)
    monkeypatch.setattr(cooling, name, failing)
    sample = cooling._sample
    monkeypatch.setattr(cooling, "_sample", recording)
    simulate_bcs(40 * chunk, 0.3, 6, 1)
    failing_call = range(len(calls))[call]
    calls.clear()
    threads = threading.active_count()
    with pytest.raises(type(error)) as raised:
        simulate_bcs(40 * chunk, 0.3, 6, 1)
    assert raised.value is error  # the same exception, with its type and message
    assert threading.active_count() == threads
    assert samplers == {threading.current_thread()}


def test_threshold_edges():
    assert _threshold(0.0) == 2**55
    assert _threshold(1.0 - 2.0**-53) == 2**56  # (1 + eps)/2 rounds to 1.0


@st.composite
def bias_and_word(draw):
    """A bias and a 56-bit integer, anywhere or within 8 of the bias's threshold."""
    eps = draw(st.floats(0.0, 1.0, exclude_max=True))
    threshold = _threshold(eps)
    near = st.integers(threshold - 8, min(threshold + 8, 2**56 - 1))
    return eps, draw(st.integers(0, 2**56 - 1) | near)


@settings(max_examples=500, deadline=None)
@given(bias_and_word())
@example((0.0, 2**55 - 1))
@example((0.0, 2**55))
@example((0.0, 2**55 + 7))
@example((0.3, _threshold(0.3) - 1))
@example((0.3, _threshold(0.3)))
@example((0.3, _threshold(0.3) + 7))
@example((1.0 - 2.0**-53, 2**56 - 1))  # threshold 2^56: below it, as is every 56-bit integer
@example((1.0 - 2.0**-53, 0))
def test_threshold_rule_is_the_float_rule(case):
    # a 56-bit integer reaches the threshold iff the double rng.random() makes of
    # its top 53 bits reaches (1 + eps)/2, so each bit keeps that law exactly
    eps, k56 = case
    assert (k56 >= _threshold(eps)) == ((k56 >> 3) * 2.0**-53 >= (1.0 + eps) / 2.0)


@pytest.mark.parametrize("chunk", [8, 16, 24])
def test_sampled_bits_do_not_depend_on_the_chunk(chunk, monkeypatch):
    # pools across the boundaries of the patched chunk, and across those of the
    # default chunk with a patched chunk 2^10 times larger, so the tie words of
    # every chunk come from the second generator; 12 rounds pair every bit
    small = [(n, chunk) for n in (2, 6, chunk - 2, chunk + 2, 3 * chunk + 6)]
    large = [(n, chunk << 10) for n in (CHUNK - 2, CHUNK + 2, 3 * CHUNK + 6)]
    for (n, patched), eps, seed in itertools.product(small + large, (0.0, 0.3, 0.99), (0, 9)):
        default = simulate_bcs(n, eps, 12, seed)
        with monkeypatch.context() as patch:
            patch.setattr(cooling, "CHUNK", patched)
            assert simulate_bcs(n, eps, 12, seed) == default, (n, eps, seed, patched)


def test_simulate_bcs_peak_memory_is_flat_in_the_pool_size():
    def peak(n_bits):
        tracemalloc.start()
        try:
            simulate_bcs(n_bits, 0.3, 6, 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate_bcs(1000, 0.3, 6, 4)  # first-call imports are not the pool's
    small, large = peak(4_000_000), peak(16_000_000)
    # the pool streams through a chunk's bits and packed queues of CHUNK bytes
    # (fewer than 8 * CHUNK bits), one per round
    assert large < 4_000_000
    assert large <= small + CHUNK
    # and nothing is kept per chunk: with 20 times the chunks, the peak grows by
    # less than a list slot (8 bytes) per added chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cooling, "CHUNK", 64)
        small, large = peak(100 * 64), peak(2000 * 64)
    assert large < small + 1900 * 8


def test_a_billion_rounds_end_as_64_on_an_exhausted_pool():
    # the rounds that can run are bounded by the pool, each keeping at most half
    for n_bits, eps in ((2, 0.3), (1000, 0.3), (2**20, 0.99), (2**20, 1.0 - 2.0**-53)):
        start = time.perf_counter()
        result = simulate_bcs(n_bits, eps, 10**9, 5)
        assert time.perf_counter() - start < 0.19
        assert result == simulate_bcs(n_bits, eps, 64, 5)
        assert result.final == BiasState(0.0, 0) and len(result.rounds) <= n_bits.bit_length()


def test_simulate_bcs_unbiased_pool_stays_unbiased():
    result = simulate_bcs(1_000_000, 0.0, 1, seed=11)
    final = result.rounds[-1]
    sigma = 2.0 * math.sqrt(0.25 / final.retained_bits)
    assert abs(final.empirical_bias) <= 4.0 * sigma


def test_simulate_bcs_matches_analytic_bias_and_retention():
    n_bits = 1_000_000
    result = simulate_bcs(n_bits, 0.5, 1, seed=3)
    final = result.rounds[-1]
    assert final.analytic_bias == pytest.approx(0.8, abs=1e-15)

    # retained-bit bias within 4 sigma of 2*eps/(1+eps^2)
    q = (1.0 + final.analytic_bias) / 2.0
    sigma_bias = 2.0 * math.sqrt(q * (1.0 - q) / final.retained_bits)
    assert abs(final.empirical_bias - final.analytic_bias) <= 4.0 * sigma_bias

    # retained count within 4 sigma of n * eps0/(2*eps1) = n (1+eps0^2)/4
    pairs = n_bits // 2
    keep_probability = (1.0 + 0.25) / 2.0
    expected = pairs * keep_probability
    sigma_count = math.sqrt(pairs * keep_probability * (1.0 - keep_probability))
    assert abs(final.retained_bits - expected) <= 4.0 * sigma_count
    assert expected == pytest.approx(n_bits * 0.5 / (2.0 * 0.8), abs=1e-9)


def test_simulate_bcs_multi_round_tracks_the_recursion():
    result = simulate_bcs(2_000_000, 0.2, 3, seed=21)
    analytic = 0.2
    assert result.rounds[0].analytic_bias == pytest.approx(analytic)
    for row in result.rounds[1:]:
        analytic = bcs_bias(analytic)
        assert row.analytic_bias == pytest.approx(analytic, abs=1e-15)
        q = (1.0 + row.analytic_bias) / 2.0
        sigma = 2.0 * math.sqrt(q * (1.0 - q) / row.retained_bits)
        assert abs(row.empirical_bias - row.analytic_bias) <= 4.0 * sigma
    counts = [row.retained_bits for row in result.rounds]
    assert all(b < a for a, b in zip(counts[:-1], counts[1:]))
    assert result.final.n_bits == counts[-1]
