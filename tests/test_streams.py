import functools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (cached_pi_floor, least_index, logged, machin_pi_digits, race,
                      random_indicator, spike)
from conreal import (CReal, FugitiveCompare, FugitiveSpec, NatStream,
                     RationalInterval, encode, fugitive_compare,
                     fugitive_equal, fugitive_least, identity_map,
                     TooLarge, pattern_indicator, pi_digits, prefix_of_stream, rho0)
from conreal import streams
from conreal.streams import _decimal, _first_index


def test_constant():
    s = NatStream.constant(0)
    assert s[17] == 0
    assert NatStream.constant(3)[0] == 3
    assert prefix_of_stream(NatStream.constant(1), 3) == encode([1, 1, 1])


def test_each_read_runs_the_generator():
    calls = []

    def gen(n):
        calls.append(n)
        return n * n

    s = NatStream(gen)
    rng = random.Random(3)
    order = [rng.randint(0, 30) for _ in range(200)]
    assert [s[i] for i in order] == [i * i for i in order]
    assert calls == order  # a stream keeps no value: a repeated index runs gen again


def test_negative_index_rejected():
    with pytest.raises(IndexError):
        NatStream.constant(0)[-1]


def test_pi_digits_match_machin_oracle(pi_oracle_120):
    d = pi_digits()
    assert [d[i] for i in range(50)] == pi_oracle_120[:50]
    assert d[0] == 1 and d[1] == 4
    assert all(0 <= d[i] <= 9 for i in range(50))


def test_pi_digits_past_the_str_limit():
    # Index 8192 opens the batch of 16384 digits, whose new block of 8192
    # digits is longer than the 4300 Python 3.11 lets str() convert at once;
    # 8600 digits also cross the first chunk boundary inside that block.
    limit = sys.get_int_max_str_digits()
    d = pi_digits()
    assert [d[i] for i in range(8600)] == machin_pi_digits(8600)
    assert sys.get_int_max_str_digits() == limit


def test_decimal_writes_ints_past_the_str_limit():
    # Expected strings built without str() of a long int: 9001 and 12002
    # digits span several chunks, and zero chunks must keep their width.
    assert _decimal(10 ** 9000 + 7) == "1" + "0" * 8999 + "7"
    assert _decimal(-(10 ** 12001) - 10 ** 4000) == "-1" + "0" * 8000 + "1" + "0" * 4000
    assert _decimal(-123) == "-123" and _decimal(0) == "0"


def _str_unlimited(n: int) -> str:
    """str(n) with Python's int-to-str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("limit", [640, 4300])
def test_decimal_matches_str_at_every_chunk_edge(limit):
    # A natural of 12,000-13,300 bits can have fewer than 4000 digits; split
    # into 4000-digit chunks it once printed a top part of 0 and a zero-filled
    # chunk.  So did a longer one whose top part lands in that band after 1-3
    # splits.  The same families are built around 4k bits, where k = limit // 2.
    rnd = random.Random(limit)
    k = limit // 2
    bands = [(12000, 13301, 4000), (4 * k - 50, 4 * k + 500, k)]
    cases = []
    for lo, hi, chunk in bands:
        tops = [rnd.getrandbits(b) | 1 << (b - 1) for b in range(lo, hi, 25)]
        cases += tops
        cases += [top * 10 ** (chunk * j) + rnd.randrange(10 ** (chunk * j))
                  for top in tops[::10] for j in (1, 2, 3)]
    cases += [-n for n in cases[::7]]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        got = [_decimal(n) for n in cases]
    finally:
        sys.set_int_max_str_digits(previous)
    assert got == [_str_unlimited(n) for n in cases]


def test_pi_digit_is_read_from_its_batch_alone(pi_batches):
    assert pi_digits()[1000] == machin_pi_digits(1001)[1000]
    assert pi_batches == [1024]


def test_pi_batches_read_in_order_are_each_computed_once(pi_batches):
    d = pi_digits()
    assert [d[i] for i in range(1024)] == machin_pi_digits(1024)
    assert pi_batches == [64, 128, 256, 512, 1024]


def test_each_pi_stream_computes_its_own_batches(pi_batches):
    first, second = pi_digits(), pi_digits()
    assert first[4] == second[4] == 9
    assert pi_batches == [64, 64]  # no cache shared between streams


def test_pi_digits_at_batch_edges_in_shuffled_order():
    edges = [i for k in range(6, 14) for i in (2 ** k - 1, 2 ** k)] + [2 ** 14 - 1]
    random.Random(7).shuffle(edges)
    d = pi_digits()
    expected = machin_pi_digits(2 ** 14)
    assert [d[i] for i in edges] == [expected[i] for i in edges]


def test_chudnovsky_split_matches_the_closed_form_sum():
    def term(k):
        return Fraction((-1) ** k * math.factorial(6 * k) * (13591409 + 545140134 * k),
                        math.factorial(3 * k) * math.factorial(k) ** 3 * 640320 ** (3 * k))

    def ratio(j):  # p(j) / q(j), with p(0) = q(0) = 1
        if j == 0:
            return 1
        return Fraction(-(6 * j - 5) * (2 * j - 1) * (6 * j - 1), j ** 3 * 640320 ** 3 // 24)

    for b in range(1, 13):
        p, q, t = streams._chudnovsky(0, b)
        assert Fraction(t, q) == sum(term(k) for k in range(b)), b
        assert Fraction(p, q) == math.prod(ratio(j) for j in range(b)), b


def test_pi_floor_matches_the_machin_oracle():
    digits = "".join(map(str, machin_pi_digits(8192)))
    for size in [*range(1, 1101), 2048, 4096, 8192]:
        # Compared as text: int() refuses a string over 4300 digits by default.
        assert _decimal(streams._pi_floor(size)) == "3" + digits[:size], size


def test_pi_floor_doubles_its_guard_until_the_floor_is_certain(monkeypatch):
    # Stand-in sums for size 5, each given once, whose value is exactly the middle term:
    # with guard 20 (N = 3 terms) value -+ 2 straddles a multiple of 10^20, with 40 (N = 5) not.
    middles = {3: (20, 314159 * 10 ** 20 - 1), 5: (40, 314159 * 10 ** 40 + 5 * 10 ** 39)}
    terms = []

    def chudnovsky(a, b):
        terms.append(b)
        guard, middle = middles.pop(b)
        scale = 10 ** (5 + guard)
        return 1, middle, 426880 * math.isqrt(10005 * scale * scale)
    monkeypatch.setattr(streams, "_chudnovsky", chudnovsky)
    assert streams._pi_floor(5) == 314159
    assert terms == [3, 5]


def test_racing_threads_share_one_pi_stream():
    d = pi_digits()

    def worker(k):
        # Each thread starts at its own index, so batches are built under contention.
        return {i: d[i] for i in [*range(k * 90, 700), *range(k * 90)]}

    expected = machin_pi_digits(700)
    for digits in race(worker, 8):
        assert [digits[i] for i in range(700)] == expected


def test_pattern_indicator_first_nine(pi_oracle_120):
    spec = pattern_indicator(pi_digits(), 9, 1)
    assert pi_oracle_120.index(9) == 4
    assert spec.indicator[4] != 0
    assert all(spec.indicator[j] == 0 for j in range(4))


def test_pattern_indicator_immediate():
    spec = pattern_indicator(NatStream.constant(9), 9, 99)
    assert spec.indicator[0] != 0


def test_pattern_indicator_double_one(pi_oracle_120):
    # First index where two consecutive 1s start, from the oracle digits.
    expected = next(j for j in range(100) if pi_oracle_120[j] == pi_oracle_120[j + 1] == 1)
    assert expected == 93
    spec = pattern_indicator(pi_digits(), 1, 2)
    assert fugitive_least(spec, 100) == expected


def test_pattern_indicator_validation():
    with pytest.raises(ValueError):
        pattern_indicator(pi_digits(), 10, 1)
    with pytest.raises(ValueError):
        pattern_indicator(pi_digits(), 9, 0)


def test_fugitive_compare():
    spec = spike(2)
    assert fugitive_compare(spec, 1) is FugitiveCompare.GREATER
    assert fugitive_compare(spec, 2) is FugitiveCompare.AT_MOST
    pi_nine = pattern_indicator(pi_digits(), 9, 1)
    assert fugitive_compare(pi_nine, 3) is FugitiveCompare.GREATER


def test_fugitive_compare_monotone():
    rng = random.Random(11)
    for _ in range(50):
        prefix = [rng.randint(0, 1) for _ in range(rng.randint(1, 20))]
        spec = FugitiveSpec(NatStream.eventually_constant(prefix + [rng.randint(0, 1)]))
        answers = [fugitive_compare(spec, n) for n in range(25)]
        for lo, hi in zip(answers, answers[1:]):
            if lo is FugitiveCompare.AT_MOST:
                assert hi is FugitiveCompare.AT_MOST


def test_fugitive_equal():
    spec = spike(2)
    assert fugitive_equal(spec, 2)
    assert not fugitive_equal(spec, 1)
    assert fugitive_equal(pattern_indicator(pi_digits(), 9, 1), 4)


def test_fugitive_equal_unique():
    rng = random.Random(5)
    for _ in range(30):
        prefix = [rng.randint(0, 2) for _ in range(rng.randint(1, 30))]
        spec = FugitiveSpec(NatStream.eventually_constant(prefix + [rng.randint(0, 1)]))
        hits = [n for n in range(201) if fugitive_equal(spec, n)]
        assert len(hits) <= 1


def test_racing_reads_are_consistent():
    s = NatStream(lambda n: n * 7 + 1)
    results = race(lambda _: [s[i] for i in range(100)], 8)
    expected = [i * 7 + 1 for i in range(100)]
    assert all(r == expected for r in results)


@given(st.integers(0, 2 ** 32), st.lists(st.integers(0, 40), max_size=30))
def test_fugitive_scans_match_linear_scan(seed, queries):
    spec = random_indicator(random.Random(seed))
    for n in queries:
        least = least_index(lambda j: spec.indicator[j] != 0, 0, n)
        assert fugitive_least(spec, n) == least
        expected = FugitiveCompare.GREATER if least is None else FugitiveCompare.AT_MOST
        assert fugitive_compare(spec, n) is expected
        assert fugitive_equal(spec, n) == (least == n)


@pytest.mark.parametrize("fires_at,read", [(None, 201), (50, 51)])
def test_rho0_reads_each_indicator_index_once(fires_at, read):
    indicator = logged(NatStream(lambda j: 1 if j == fires_at else 0))
    x = rho0(FugitiveSpec(indicator))
    for n in range(201):
        x.interval(n)
    assert sorted(indicator.log) == list(range(read))  # once each, never past the firing index


def test_racing_threads_see_the_first_write():
    # A real's memo and a spec's frontier are shared: a lost first write shows as
    # triples that are not the same objects or an indicator index read twice.
    real = CReal(lambda n: RationalInterval(Fraction(-1, n + 1), Fraction(1, n + 1)))
    f = identity_map()
    indicator = logged(NatStream(lambda j: 1 if j == 150 else 0))
    spec = FugitiveSpec(indicator)
    seen = race(lambda _: ([real._ends(i) for i in range(200)],
                           [real.interval(i) for i in range(200)],
                           f.at(Fraction(1, 3)),
                           [fugitive_least(spec, n) for n in range(200)]), 8)
    triples, intervals, point, leasts = seen[0]
    for other_triples, other_intervals, other_point, other_leasts in seen[1:]:
        assert all(a is b for a, b in zip(other_triples, triples))  # a real's one memo
        assert other_intervals == intervals  # built anew on each read
        assert other_point is point
        assert other_leasts == leasts
    assert leasts == [None] * 150 + [150] * 50
    assert len(indicator.log) == len(set(indicator.log))


def _pattern_digits(values):
    """A digit stream repeating values, logging its reads."""
    return logged(NatStream(lambda i: values[i % len(values)]))


_RUNS = st.tuples(st.lists(st.integers(0, 2), min_size=1, max_size=40),
                  st.integers(0, 2), st.integers(1, 4))


@given(_RUNS, st.integers(0, 60), st.integers(0, 60))
def test_pattern_finder_matches_the_indicator_scan(run, lo, hi):
    values, digit, run_length = run
    found, scanned = _pattern_digits(values), _pattern_digits(values)
    spec = pattern_indicator(found, digit, run_length)
    indicator = pattern_indicator(scanned, digit, run_length).indicator
    assert spec.find(lo, hi) == _first_index(indicator.__getitem__, lo, hi, False)
    assert set(found.log) == set(scanned.log)
    assert len(found.log) == len(set(found.log))  # one pass reads each digit once


@given(_RUNS, st.lists(st.integers(0, 80), max_size=12))
def test_pattern_frontier_matches_the_indicator_frontier(run, queries):
    # Increasing queries carry clear and fired over from call to call.
    values, digit, run_length = run
    found, scanned = _pattern_digits(values), _pattern_digits(values)
    spec = pattern_indicator(found, digit, run_length)
    by_indicator = FugitiveSpec(pattern_indicator(scanned, digit, run_length).indicator)
    reference = pattern_indicator(NatStream(lambda i: values[i % len(values)]), digit, run_length)
    for n in sorted(queries):
        least = fugitive_least(spec, n)
        assert least == fugitive_least(by_indicator, n) == least_index(
            lambda j: reference.indicator[j] != 0, 0, n)
        assert set(found.log) == set(scanned.log)


def test_racing_threads_share_one_pattern_spec():
    # A run of three 9s first starts at 150; (7 i) mod 9 is never 9.
    def digit(i):
        return 9 if 150 <= i < 153 else 7 * i % 9

    generated = Counter()

    def counted(i):
        generated[i] += 1
        return digit(i)

    spec = pattern_indicator(NatStream(counted), 9, 3)
    alone = pattern_indicator(NatStream(digit), 9, 3)
    serial = [fugitive_least(alone, n) for n in range(200)]
    assert race(lambda _: [fugitive_least(spec, n) for n in range(200)], 8) == [serial] * 8
    assert serial == [None] * 150 + [150] * 50
    # The threads share one frontier, so each digit is generated once: every digit
    # but the run's is a mismatch, so no call reads past its hi for a later one to re-read.
    assert set(generated) == set(range(153))
    assert max(generated.values()) == 1


# --- the pi batch finder --------------------------------------------------------------

def _floor_of(digit_at):
    """floor(x * 10^size) for x = 3.d0 d1 d2 ..., di = digit_at(i): a stand-in for _pi_floor."""
    return lambda size: int("3" + "".join(str(digit_at(i)) for i in range(size)))


_PI_FLOORS = {
    "pi": cached_pi_floor,
    # Runs of seven 9s cross every multiple of 64; 7 i mod 9 is never 9.
    "nines_across_edges": functools.cache(
        _floor_of(lambda i: 9 if (i + 4) % 64 < 7 else 7 * i % 9)),
}
_NEAR_EDGE = st.builds(lambda edge, offset: max(edge + offset, 0),
                       st.sampled_from([63, 64, 127, 128, 255, 256]), st.integers(-8, 8))
# Digits 63, 127 and 255 are 3, 0 and 5 in pi and 9 in the stand-in: a run of one of
# these is open at a batch end.
_DIGIT = st.one_of(st.sampled_from([0, 3, 5, 9]), st.integers(0, 9))


@pytest.mark.parametrize("floor", sorted(_PI_FLOORS))
@given(_DIGIT, st.integers(1, 8), _NEAR_EDGE, st.lists(_NEAR_EDGE, min_size=1, max_size=4))
@example(3, 2, 63, [63])  # pi: the run of 3s open at 63 ends at 64, in the next batch
@example(9, 6, 0, [62])  # stand-in: the run of 9s from 60 is found in the next batch
@example(9, 6, 62, [63])  # stand-in: that run, entered at 62, is too short from there
@example(1, 10 ** 12, 0, [4, 200])  # a run longer than any batch: no batch-sized needle
def test_pi_batch_finder_matches_the_one_pass_loop(floor, digit, run_length, lo, queries):
    # On pi_digits() the finder searches the batch bytes; on a plain NatStream over the
    # same digits it is the one-pass loop.  Scans carried on from lo agree in answer,
    # frontier and the batches computed, in order.
    seen = []
    for digits_of in (lambda pi: pi, lambda pi: NatStream(pi.__getitem__)):
        sizes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(streams, "_pi_floor",
                          lambda size: sizes.append(size) or _PI_FLOORS[floor](size))
            spec = pattern_indicator(digits_of(pi_digits()), digit, run_length)
            spec._clear = lo  # as if earlier scans had cleared 0..lo-1
            scans = [(fugitive_least(spec, n), spec._clear, spec._fired) for n in sorted(queries)]
        seen.append((scans, sizes))
    assert seen[0] == seen[1]


def test_pi_digit_past_the_limit_raises_before_any_batch(pi_batches):
    d = pi_digits()
    with pytest.raises(TooLarge, match="^needs pi digits past the limit of 65536$"):
        d[65536]
    assert pi_batches == []
    assert d[65535] == 3  # the last digit within the limit
    assert pi_batches == [65536]


def test_real_over_pi_past_the_limit_raises_and_stays_usable(pi_batches):
    spec = pattern_indicator(pi_digits(), 9, 99)  # no such run in the first 65,536 digits
    x = rho0(spec)
    before = x.approx(1000, 1001)
    stored, frontier = dict(x._triples), (spec._clear, spec._fired)
    with pytest.raises(TooLarge, match="^needs pi digits past the limit of 65536$"):
        x.approx(70000, 70001)
    assert max(pi_batches) == 65536
    # The failed read stored nothing: the spec's frontier and the triples the
    # real's scans read are as they were.
    assert (spec._clear, spec._fired) == frontier
    assert x._triples == stored
    assert x.approx(1000, 1001) == before
    h = Fraction(1, 1 << 60001)
    assert x.approx(60000, 60001) == RationalInterval(-h, h)
    assert (spec._clear, spec._fired) == (60002, None)  # interval 60001 read it through 60001
    assert max(pi_batches) == 65536


def test_racing_threads_share_one_pi_pattern_spec(pi_batches):
    # pi's first run of three 9s starts at 761, in the 1,024-digit batch.
    queries = range(0, 800, 3)
    alone = pattern_indicator(pi_digits(), 9, 3)
    serial = {n: fugitive_least(alone, n) for n in queries}
    assert serial[798] == 761 and serial[759] is None
    del pi_batches[:]
    spec = pattern_indicator(pi_digits(), 9, 3)

    def worker(k):
        # Each thread starts at its own query, so batches are sought under contention.
        return {n: fugitive_least(spec, n) for n in [*queries[k * 30:], *queries[:k * 30]]}

    assert race(worker, 8) == [serial] * 8
    assert pi_batches == [64, 128, 256, 512, 1024]  # each batch computed once, in order
