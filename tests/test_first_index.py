"""One search behind every real-number scan: the least index where a predicate holds.

Direct reals (library formulas) are searched by galloping, every other real
one index at a time.  Either way each answer, witness and error must be the
one ``conftest.least_index``, a scan from the start, gives.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apart_oracle, approx_oracle, diagonal_oracle, least_index, logged, lt_oracle,
                      outcome, random_tree, same_interval, slow, spike, split_oracle, tree_graphs,
                      tree_node, tree_reader, tree_real)
from conreal import (Apartness, ContinuousMap, CReal, Direction, FuelExhausted, LtWitness,
                     NatStream, PiecewiseLinearSpec, RationalInterval, approx_ivt, cantor_point,
                     cotrans_split, diagonal, identity_map, pattern_indicator, pi_digits, pwl, rho0,
                     rho1, sqrt2, try_apart, try_lt)
from conreal.real import _first_index, _narrow, _triple_of, _width_scan, half_pow


def _search(threshold, lo, hi, gallop, start=None):
    """_first_index over "n >= threshold" (None: never true); returns (answer, indices read)."""
    reads = []

    def pred(n):
        reads.append(n)
        return threshold is not None and n >= threshold

    return _first_index(pred, lo, hi, gallop, start), reads


@settings(max_examples=800, deadline=None)
@given(lo=st.integers(0, 300), span=st.none() | st.integers(-3, 2000),
       offset=st.none() | st.integers(-5, 2100), probe=st.none() | st.integers(-5, 2400),
       gallop=st.booleans())
def test_first_index_finds_the_least_index(lo, span, offset, probe, gallop):
    # hi None is a search with no end; a probe falls below lo, inside lo..hi or above hi.
    hi = None if span is None else lo + span
    threshold = None if offset is None else lo + offset
    if hi is None and threshold is None:
        threshold = lo + 2100
    start = None if probe is None else lo + probe
    answer, reads = _search(threshold, lo, hi, gallop, start)
    end = max(lo, threshold) if hi is None else hi
    assert answer == least_index(lambda n: threshold is not None and n >= threshold, lo, end)
    assert len(reads) == len(set(reads))
    assert all(lo <= n and (hi is None or n <= hi) for n in reads)
    if start is not None and start <= lo:
        assert (answer, reads) == _search(threshold, lo, hi, gallop)
    first = lo if start is None or start <= lo else start if hi is None else min(start, hi)
    if hi is not None and lo > hi:
        assert reads == []
    elif not gallop:
        assert reads == list(range(lo, (hi if answer is None else answer) + 1))
    else:
        assert reads[0] == first
        if answer is not None:
            assert len(reads) <= 2 * math.ceil(math.log2(abs(answer - first) + 2)) + 2
        else:
            assert len(reads) <= math.ceil(math.log2(hi - first + 2)) + 1


def test_first_index_edge_cases():
    for gallop in (False, True):
        assert _search(0, 5, 4, gallop) == (None, [])
        assert _search(None, 3, 2, gallop) == (None, [])
        assert _search(7, 7, 100, gallop) == (7, [7])
        assert _search(0, 7, 7, gallop) == (7, [7])
        assert _search(None, 7, 7, gallop) == (None, [7])
    assert _search(None, 0, 20, True) == (None, [0, 1, 3, 7, 15, 20])
    assert _search(12, 0, 20, True) == (12, [0, 1, 3, 7, 15, 11, 13, 12])
    assert _search(1000, 0, None, True)[0] == 1000
    assert _search(40, 3, None, False) == (40, list(range(3, 41)))


def test_probe_read_orders():
    # No probe, or one at or below lo: the gallop from lo, read for read.
    from_lo = (80, [0, 1, 3, 7, 15, 31, 63, 127, 95, 79, 87, 83, 81, 80])
    assert _search(80, 0, None, True) == from_lo
    assert _search(80, 0, None, True, 0) == from_lo
    assert _search(80, 0, None, True, -4) == from_lo
    # A miss gallops up from the probe, a hit gallops down, not below lo.
    assert _search(80, 0, None, True, 78) == (80, [78, 79, 81, 80])
    assert _search(80, 0, None, True, 90) == (80, [90, 89, 87, 83, 75, 79, 81, 80])
    assert _search(3, 3, 100, True, 50) == (3, [50, 49, 47, 43, 35, 19, 3])
    # The probe is clamped to hi; lo > hi reads nothing; a linear scan ignores it.
    assert _search(80, 0, 60, True, 90) == (None, [60])
    assert _search(0, 5, 4, True, 7) == (None, [])
    assert _search(5, 3, 9, False, 7) == (5, [3, 4, 5])


@settings(max_examples=60, deadline=None)
@given(pool=tree_graphs(direct=True), i=st.integers(0, 99), j=st.integers(0, 99),
       fuel=st.integers(1, 40))
def test_try_apart_answers_the_same_from_every_probe(pool, i, j, fuel):
    # try_apart probes the index recorded on y, or on x when y has none: a probe
    # below, at or above the answer, past the fuel or far past it gives the answer
    # of no probe, and the answer's index is recorded on both reals.
    made, memo = {}, {}
    x, y = (tree_real(pool[m % len(pool)], made) for m in (i, j))
    expected = apart_oracle(*(tree_reader(pool[m % len(pool)], memo) for m in (i, j)), fuel)
    for start in [None, *range(fuel + 6), 10 ** 6]:
        for owner, other in ((y, x), (x, y)):
            other._witness, owner._witness = None, start
            assert try_apart(x, y, fuel) == expected
            if expected is not None:
                assert x._witness == y._witness == expected.witness.index


def test_try_apart_on_a_real_that_is_not_direct_ignores_the_probe():
    def reads_of(start, on_y):
        reads = []

        def third(n):  # 1/3 -+ 2^-n, read one index at a time
            reads.append(n)
            return RationalInterval(Fraction(1, 3) - half_pow(n), Fraction(1, 3) + half_pow(n))

        x, y = CReal(third), CReal.from_rational(Fraction(1, 3) + half_pow(10))
        (y if on_y else x)._witness = start
        return try_apart(x, y, 40), reads

    linear = reads_of(None, True)
    assert linear == (Apartness(Direction.LESS, LtWitness(12)), list(range(13)))
    for start in (0, 5, 12, 30, 40, 41, 10 ** 6):
        assert reads_of(start, True) == reads_of(start, False) == linear


def test_a_caller_generator_is_read_in_order_under_an_operator_and_as_a_pwl_node():
    # Each scan reads it one index at a time, up to the index the scan answers.
    calls = []

    def third(n):  # 1/3 -+ 2^-n
        calls.append(n)
        return RationalInterval(Fraction(1, 3) - half_pow(n), Fraction(1, 3) + half_pow(n))

    x = CReal(third) + CReal.from_rational(1)  # width 2^(2-n)
    assert x.approx(5, 40).width == half_pow(5) and calls == list(range(8))
    assert try_lt(x, CReal.from_rational(2), 40) == LtWitness(3) and calls == list(range(8))
    del calls[:]
    # f(1/2) at index n reads the node at precision n + 2, its index n + 3.
    f = pwl(PiecewiseLinearSpec((0, 1), (CReal(third), CReal.from_rational(1))))
    assert f.at(Fraction(1, 2)).approx(4, 40).width == half_pow(4) and calls == list(range(6))


@settings(max_examples=60, deadline=None)
@given(pool=tree_graphs(direct=True))
def test_diagonal_of_direct_reals_matches_the_linear_scan(pool):
    made, memo = {}, {}
    # A kernel that stops narrowing would make diagonal gallop into integers too
    # large for the time limit to cut: each real must read as the oracle does first.
    assert all(same_interval(tree_real(t, made).interval(0), tree_reader(t, memo)(0)) for t in pool)
    new = diagonal(lambda n: tree_real(pool[n % len(pool)], made))
    old = diagonal_oracle(lambda n: tree_node(pool[n % len(pool)], memo))
    for n in range(21):
        assert outcome(lambda: new.interval(n)) == outcome(lambda: old.interval(n))


# Probes: a width scan against a bound of about 2^-bits starts a direct real's gallop
# at index max(lo, bits), moved up by the halvings a too-wide probe's width needs.
# A probe far off costs reads, never a different answer or a read past the fuel.

def _direct(real):
    """real scanned as a direct real is: galloping, from a probe placed by its width."""
    real._direct = True
    return real


def test_cotrans_split_probes_the_bits_of_a_gap_above_the_witness():
    # The gap at index 10 is exactly 2^-60: z is read at index 60 first, not at 10.
    x, y = CReal.from_rational(0), CReal.from_rational(Fraction(1, 2 ** 9) + Fraction(1, 2 ** 60))
    w = LtWitness(10)
    assert y.interval(10).lo - x.interval(10).hi == Fraction(1, 2 ** 60)
    z = logged(sqrt2())
    assert cotrans_split(x, y, w, z) == split_oracle(x.interval, y.interval, w, sqrt2().interval)
    assert z.log[0] == 60


def test_diagonal_over_fast_and_slow_reals_matches_the_linear_scan():
    def xs(n):  # j/31 and, 41 indices slower, j/31 * 2^40 * 2^-40
        q = CReal.from_rational(Fraction(n % 31, 31))
        if n % 2:
            q = q * CReal.from_rational(2 ** 40) * CReal.from_rational(Fraction(1, 2 ** 40))
        return q

    new, old = diagonal(xs), diagonal_oracle(xs)
    for n in range(30):
        assert new.interval(n) == old.interval(n)


def test_approx_with_fuel_below_p_reads_nothing_past_the_fuel():
    for make in (sqrt2, lambda: CReal.from_rational(Fraction(2, 7)), lambda: sqrt2() * sqrt2()):
        for p, fuel in ((30, 10), (30, 29), (5, 1), (60, 40)):
            x = logged(make())
            got = outcome(lambda: x.approx(p, fuel))
            assert got == outcome(lambda: approx_oracle(make().interval, p, fuel))
            assert got[0] is FuelExhausted and max(x.log) <= fuel
            # Again after a coarser call: the probe p is still clamped to the fuel.
            x.approx(p - 20, None)
            del x.log[:]
            assert outcome(lambda: x.approx(p, fuel)) == got and all(n <= fuel for n in x.log)


def test_unresolved_rho0_reads_no_pi_digit_past_the_fuel():
    for p, fuel in ((40, 12), (40, 39), (200, 60), (20, 5)):
        spec = pattern_indicator(pi_digits(), 9, 99)
        with pytest.raises(FuelExhausted, match=f"within {fuel} indices"):
            rho0(spec).approx(p, fuel)
        assert spec._clear <= fuel + 1


def _late_point(n):  # [0, 1] up to index 39, then the point 1/2
    return RationalInterval(Fraction(0), Fraction(1)) if n < 40 else RationalInterval(
        Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("make", [lambda: _direct(CReal(slow(Fraction(1, 3), 4))),
                                  lambda: _direct(CReal(_late_point)), lambda: rho0(spike(45))],
                         ids=["slow", "late_point", "rho0"])
def test_a_width_that_does_not_halve_per_index_moves_only_the_reads(make):
    # The jump from the probe assumes one halving per index; these widths break
    # that rule, so the scans must still find the least index and stay within the fuel.
    for p, fuel in ((4, 60), (10, 60), (30, 200), (60, 200), (10, 30), (30, 41), (-2, 5)):
        x = logged(make())
        got = outcome(lambda: x.approx(p, fuel))
        assert got == outcome(lambda: approx_oracle(make().interval, p, fuel))
        assert max(x.log) <= fuel and len(x.log) == len(set(x.log))
    for lo, hi in ((Fraction(-1), Fraction(1, 3) - half_pow(20)), (Fraction(-3), Fraction(-1, 1000))):
        x, y = CReal.from_rational(lo).interval, CReal.from_rational(hi).interval
        w = lt_oracle(x, y, 40)
        assert cotrans_split(CReal.from_rational(lo), CReal.from_rational(hi), w, make()) == \
            split_oracle(x, y, w, make().interval)
    new, old = diagonal(lambda n: make()), diagonal_oracle(lambda n: make())
    for n in range(12):
        assert new.interval(n) == old.interval(n)


@settings(max_examples=300, deadline=None)
@given(kind=st.integers(0, 5), lo=st.integers(0, 80), span=st.none() | st.integers(0, 120),
       t=st.integers(-4, 70), bits=st.integers(-40, 400), strict=st.booleans())
def test_width_scan_finds_the_least_index_from_any_probe(kind, lo, span, t, bits, strict):
    # bits is only where the gallop starts: below lo, inside lo..hi, past hi or
    # negative, and far from the bound 2^-t that ok tests.
    make = [lambda: CReal.from_rational(Fraction(2, 7)), sqrt2,
            lambda: sqrt2() * CReal.from_rational(Fraction(1000, 3)),
            lambda: _direct(CReal(slow(Fraction(1, 3), 4))), lambda: _direct(CReal(_late_point)),
            lambda: rho0(spike(45))][kind]
    hi = None if span is None else lo + span

    def ok(diff, den):
        return diff * (1 << max(t, 0)) < den << max(-t, 0) if strict else _narrow(diff, den, t)

    def width(iv):
        lo_num, hi_num, den = _triple_of(iv)
        return hi_num - lo_num, den

    x, fresh = logged(make()), make()
    assert _width_scan(x, ok, lo, hi, bits) == least_index(lambda n: ok(*width(fresh.interval(n))),
                                                           lo, hi)
    assert all(lo <= n and (hi is None or n <= hi) for n in x.log)
    assert len(x.log) == len(set(x.log))


# Read counts, deterministic: the distinct indices of a real's triple reads.  Galloping
# from 0 with no probe, diagonal to step 48 read 534 input intervals, a cold approx up
# to 16 and each of the falling precisions 4 to 12.

def test_diagonal_reads_half_the_input_intervals_of_a_search_from_zero():
    made = []

    def xs(n):  # the benchmark's kind of input, each built fresh: every read is a generation
        q = CReal.from_rational(Fraction(n % 31, 31))
        made.append(logged(q if n % 2 == 0 else sqrt2() * q))
        return made[-1]

    diagonal(xs).interval(48)
    # The last step's index as probe read 146; moving it by its width's halvings, 129;
    # probing index bits, the bit length of 3^(n+1), as every width scan does, 120
    # (168 reads, counting repeats); no probe, 160.
    assert sum(len(set(x.log)) for x in made) <= 120


# Trees over + - * abs neg whose leaves are rationals up to 240 and sqrt2.
_WIDE_LEAVES = (lambda rng: ("q", Fraction(rng.randint(0, 240), rng.randint(1, 40))),) * 7 + (
    lambda rng: ("sqrt2",),) * 3
_WIDE_OPS = ("+", "+", "-", "*", "abs", "neg")


def test_cold_approx_of_a_wide_tree_reads_three_root_intervals():
    # Width constants up to 2^80: probing index p alone read 6.9 intervals on average, up to 10.
    for seed in range(60):
        rng = random.Random(seed)
        depth, p, tree_seed = rng.randint(3, 4), rng.randint(180, 240), rng.random()
        t = random_tree(random.Random(tree_seed), depth, _WIDE_LEAVES, _WIDE_OPS)
        x = logged(tree_real(t))
        assert x.approx(p, p + 256) == approx_oracle(tree_real(t).interval, p, p + 256)
        assert len(set(x.log)) <= 3


def test_cold_approx_of_a_rational_reads_at_most_four_intervals():
    for q in (Fraction(0), Fraction(2, 7), Fraction(-355, 113), Fraction(10 ** 9, 3)):
        for p in range(-3, 200, 7):
            x = logged(CReal.from_rational(q))
            x.approx(p, None)
            assert len(set(x.log)) <= 4


def test_falling_precisions_read_a_few_intervals_a_call():
    x = logged(sqrt2() * CReal.from_rational(Fraction(5, 3)))
    fresh = sqrt2() * CReal.from_rational(Fraction(5, 3))
    x.approx(40, None)
    for p in range(39, -1, -1):
        del x.log[:]
        assert x.approx(p, None) == approx_oracle(fresh.interval, p, 64)
        assert len(x.log) <= 4  # index p, then a gallop down of one or two


def test_approx_at_a_coarser_precision_probes_index_p():
    x = logged(sqrt2())
    x.approx(40, 64)
    del x.log[:]
    assert x.approx(10, 64) == sqrt2().interval(10)
    # Index p is narrow enough and p - 1 is not.
    assert x.log == [10, 9]


def test_approx_of_a_caller_generator_reads_from_index_0_on_every_call():
    # Interval n is [n/7, n/7 + 2^-n], so the least index of width <= 2^-p is p; whatever
    # earlier calls found or raised, each call reads 0, 1, ... up to p or the fuel.
    def generate(n):
        return RationalInterval(Fraction(n, 7), Fraction(n, 7) + half_pow(n))

    x = logged(CReal(generate))
    for p, fuel in ((30, 64), (31, 20), (40, 64), (10, 64), (40, 64)):
        del x.log[:]
        got = outcome(lambda: x.approx(p, fuel))
        assert got == outcome(lambda: approx_oracle(generate, p, fuel))
        assert isinstance(got, RationalInterval) is (fuel >= p)
        assert x.log == list(range(min(p, fuel) + 1))


def test_approx_ivt_gallops_to_the_level_of_a_direct_y():
    y = logged(CReal.from_rational(Fraction(1, 3)))
    x = approx_ivt(identity_map(), y, 8, 64)
    plain = approx_ivt(identity_map(), CReal.from_rational(Fraction(1, 3)), 8, 64)
    assert [x.interval(n) for n in range(20)] == [plain.interval(n) for n in range(20)]
    # y's level 11, the least index narrower than 2^-9, is found from index 9 up.
    assert min(y.log) == 9


# Sequential reals: a read past the answer may raise, so they are scanned in order.

def _bits():
    return NatStream(lambda i: 2 if i == 12 else 0)


def test_cantor_point_is_read_in_order():
    x = cantor_point(_bits())
    assert not x._direct
    # Galloping would read interval 15, which reads bit 12 and raises.
    assert x.approx(5, 60) == RationalInterval(Fraction(0), Fraction(512, 19683))
    assert try_apart(cantor_point(_bits()), CReal.from_rational(1), 60) == Apartness(
        Direction.LESS, LtWitness(2))
    with pytest.raises(ValueError, match="binary values, got 2 at index 12"):
        x.interval(13)


def test_diagonal_and_cantor_point_run_each_step_once_across_repeated_reads():
    # Step n reads input real n, or bit n, once: reading the intervals again, in
    # any order, reads neither again.
    made = []

    def xs(n):
        made.append(n)
        return CReal.from_rational(Fraction(n % 7, 7))
    bits = logged(NatStream(lambda i: i % 3 % 2))
    d, c = diagonal(xs), cantor_point(bits)
    for n in [*range(30), *range(30, -1, -1), 17, 30, 0]:
        for x in (d, c):
            x.interval(n)
            x.approx(n // 2, 30)
    assert made == bits.log == list(range(30))


def test_sums_with_a_sequential_part_are_not_direct():
    def shrinking_until_11(n):
        if n >= 12:
            raise ValueError(f"no interval at index {n}")
        return RationalInterval(-half_pow(n), half_pow(n))

    user = CReal(shrinking_until_11)
    total = CReal.from_rational(1) + user
    assert not user._direct and not total._direct
    assert total.approx(5, 60) == RationalInterval(1 - half_pow(6), 1 + half_pow(6))
    # A map built by hand has no nodes: its point values are running intersections.
    by_hand = ContinuousMap(lambda iv, p: RationalInterval(iv.lo - half_pow(p), iv.hi + half_pow(p)),
                            lambda p: p)
    point = by_hand.at(Fraction(1, 3))
    assert not point._direct and not (sqrt2() * point)._direct
    # A pwl point value is the raw enclosure, direct when every node is.
    point = identity_map().at(Fraction(1, 3))
    assert point._direct and (sqrt2() * point)._direct
    assert (sqrt2() * abs(-CReal.from_rational(2)) - rho1(spike(3)))._direct
