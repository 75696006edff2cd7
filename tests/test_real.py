import math
import sys
from fractions import Fraction

import pytest

from conreal import (CReal, Direction, FugitiveSpec, FuelExhausted, LtWitness, NatStream,
                     RationalInterval, SplitSide, cantor_point, cotrans_split, diagonal,
                     identity_map, interval, pattern_indicator, pi_digits, rho0, rho1, rho2,
                     sqrt2, sqrt2_irrationality_witness, try_apart, try_lt, verify_lt,
                     zero)
from conftest import race, same_interval, spike

half = Fraction(1, 2)


def test_from_rational_examples():
    x = CReal.from_rational(half)
    assert x.interval(3) == (Fraction(3, 8), Fraction(5, 8))
    assert CReal.from_rational(0).interval(0) == (-1, 1)
    for n in range(12):
        assert x.interval(n).width == Fraction(2, 2 ** n)


def test_add_contains_exact_sum():
    s = CReal.from_rational(Fraction(1, 3)) + CReal.from_rational(Fraction(1, 6))
    assert s.approx(10, 64).contains(half)
    assert s.approx(20, 64).contains(half)
    assert s.approx(20, 64).width <= Fraction(1, 2 ** 20)


def test_add_zero_keeps_every_point():
    x = sqrt2()
    s = x + zero()
    for n in range(16):
        xi, si = x.interval(n), s.interval(n)
        assert si.lo <= xi.lo and xi.hi <= si.hi
        assert si.contains((xi.lo + xi.hi) / 2)


def test_neg_involution():
    x = sqrt2() + CReal.from_rational(Fraction(-3, 7))
    y = -(-x)
    for n in range(12):
        assert x.interval(n) == y.interval(n)


def test_mul_examples():
    p = CReal.from_rational(2) * CReal.from_rational(3)
    assert p.approx(10, 64).contains(Fraction(6))
    z = sqrt2() * zero()
    assert z.approx(10, 64).contains(Fraction(0))
    a = abs(CReal.from_rational(-half))
    assert a.approx(10, 64).contains(half)


def test_approx_examples():
    assert CReal.from_rational(half).approx(3, 10) == (Fraction(7, 16), Fraction(9, 16))
    quiet = rho0(FugitiveSpec(NatStream.constant(0)))
    assert quiet.approx(5, 10) == (Fraction(-1, 64), Fraction(1, 64))


def test_approx_fuel_exhausted():
    wide = CReal(lambda n: CReal.from_rational(0).interval(0))
    with pytest.raises(FuelExhausted):
        wide.approx(4, 16)
    with pytest.raises(ValueError):
        CReal.from_rational(0).approx(4, 0)


def test_try_lt():
    w = try_lt(zero(), CReal.from_rational(1), 8)
    assert w is not None and w.index <= 2
    assert verify_lt(zero(), CReal.from_rational(1), w)
    x = sqrt2()
    assert try_lt(x, x, 16) is None


def test_try_lt_oscillating():
    # The nine hunt fires at position 4 (even), pinning the oscillator to +1/16.
    r1 = rho1(pattern_indicator(pi_digits(), 9, 1))
    assert try_lt(r1, zero(), 10) is None
    w = try_lt(zero(), r1, 10)
    assert w is not None
    assert verify_lt(zero(), r1, w)


def test_try_apart():
    found = try_apart(zero(), CReal.from_rational(1), 8)
    assert found is not None and found.direction is Direction.LESS
    assert try_apart(sqrt2(), sqrt2(), 64) is None
    flipped = try_apart(CReal.from_rational(1), zero(), 8)
    assert flipped is not None and flipped.direction is Direction.GREATER


def _checked_split(x, y, w, z):
    split = cotrans_split(x, y, w, z)
    if split.side is SplitSide.LEFT_IS_LESS:
        assert verify_lt(x, z, split.witness)
    else:
        assert verify_lt(z, y, split.witness)
    return split


def test_cotrans_split_examples():
    x, y = zero(), CReal.from_rational(1)
    w = try_lt(x, y, 8)
    # Both answers are mathematically true for z = 1/4 and z = 7/8; the
    # algorithm picks per scan order and the carried witness must verify.
    _checked_split(x, y, w, CReal.from_rational(Fraction(1, 4)))
    _checked_split(x, y, w, CReal.from_rational(Fraction(7, 8)))
    quiet = rho0(FugitiveSpec(NatStream.constant(0)))
    split = _checked_split(x, y, w, quiet)
    assert split.side is SplitSide.RIGHT_IS_LESS


def test_cotrans_split_rejects_bogus_witness():
    x, y = zero(), CReal.from_rational(1)
    with pytest.raises(ValueError):
        cotrans_split(x, y, LtWitness(0), CReal.from_rational(half))


@pytest.mark.parametrize("build", [
    lambda: CReal.from_rational(half),
    sqrt2,
    lambda: identity_map().at(Fraction(1, 3)),  # its triple formula answers at index -1
    lambda: sqrt2() + CReal.from_rational(half),
    lambda: CReal(lambda n: RationalInterval(Fraction(-1, n + 1), Fraction(1, n + 1))),
], ids=["rational", "sqrt2", "pwl point", "sum", "caller generator"])
def test_a_negative_witness_index_is_an_error(build):
    x, w = build(), LtWitness(-1)
    for call in (lambda: verify_lt(x, x, w), lambda: cotrans_split(x, x, w, x)):
        with pytest.raises(IndexError, match="^interval indices are naturals$"):
            call()


def test_diagonal_all_zeros():
    d = diagonal(lambda n: zero())
    assert d.interval(0) == (0, 1)
    assert d.interval(1) == (Fraction(2, 3), Fraction(1))
    for n in range(11):
        assert d.interval(n).width == Fraction(1, 3 ** n)
    found = try_apart(d, zero(), 10)
    assert found is not None


def test_diagonal_stays_apart_from_distant_reals():
    d = diagonal(lambda n: CReal.from_rational(n + 2))
    for n in range(10):
        found = try_apart(d, CReal.from_rational(n + 2), 20)
        assert found is not None and found.direction is Direction.LESS


def test_diagonal_budget_error():
    never_narrow = CReal(lambda n: CReal.from_rational(0).interval(0))
    d = diagonal(lambda n: never_narrow)
    with pytest.raises(FuelExhausted):
        d.interval(1)


def test_diagonal_reads_a_direct_input_with_no_cap():
    # 200 * 1/100 is 2; it narrows below 3^-1 only at index 11, past step 0's cap of 8.
    two = CReal.from_rational(200) * CReal.from_rational(Fraction(1, 100))
    d = diagonal(lambda n: two)
    for n in range(11):
        # Every step takes the lower third, the one that avoids 2, so the width is 3^-n.
        assert d.interval(n) == (0, Fraction(1, 3 ** n))
    found = try_apart(d, two, 20)
    assert found is not None and found.direction is Direction.LESS


def test_sqrt2_against_integer_sqrt_oracle():
    # 20 decimal digits of sqrt(2) by integer square root.
    scaled = math.isqrt(2 * 10 ** 40)
    lo_oracle = Fraction(scaled, 10 ** 20)
    hi_oracle = Fraction(scaled + 1, 10 ** 20)
    iv = sqrt2().approx(10, 64)
    assert iv.lo <= hi_oracle and lo_oracle <= iv.hi
    tight = sqrt2().approx(50, 80)
    assert tight.lo <= hi_oracle and lo_oracle <= tight.hi


def test_sqrt2_square_brackets_two():
    sq = sqrt2() * sqrt2()
    assert sq.approx(20, 64).contains(Fraction(2))


def test_one_below_sqrt2():
    assert try_lt(CReal.from_rational(1), sqrt2(), 8) is not None


def test_sqrt2_irrationality_witness_examples():
    assert sqrt2_irrationality_witness(7, 5) == 100
    assert sqrt2_irrationality_witness(3, 1) == 2
    assert sqrt2_irrationality_witness(1, 1) == 4
    with pytest.raises(ValueError):
        sqrt2_irrationality_witness(0, 1)


def test_sqrt2_witness_certified_by_intervals():
    for m, n in [(7, 5), (3, 1), (1, 1), (17, 12), (99, 70)]:
        p = sqrt2_irrationality_witness(m, n)
        gap = abs(sqrt2() - CReal.from_rational(Fraction(m, n)))
        bits = p.bit_length() + 5
        iv = gap.approx(bits, bits + 8)
        assert iv.lo >= Fraction(1, p)


def test_rho0_immediate_firing():
    r = rho0(spike(0))
    assert r.approx(5, 8) == (1, 1)


def test_rho1_even_firing():
    r = rho1(spike(2))
    for n in range(2):
        h = Fraction(1, 2 ** n)
        assert r.interval(n) == (-h, h)
    for n in range(2, 8):
        assert r.interval(n) == (Fraction(1, 4), Fraction(1, 4))


def test_rho1_odd_firing():
    r = rho1(spike(3))
    for n in range(3, 8):
        assert r.interval(n) == (Fraction(-1, 8), Fraction(-1, 8))


def test_rho2_odd_firing_is_zero():
    r = rho2(spike(3))
    assert r.approx(10, 16).contains(Fraction(0))


def test_rho2_even_firing_is_twice_rho0():
    r = rho2(spike(2))
    assert r.approx(10, 16).contains(Fraction(1, 2))


def test_rho_shrinking_through_transition():
    for spec in [spike(0), spike(1), spike(4)]:
        for build in (rho0, rho1):
            r = build(spec)
            for n in range(10):
                a, b = r.interval(n), r.interval(n + 1)
                assert a.lo <= b.lo <= b.hi <= a.hi


def test_cantor_point_examples():
    zeros = cantor_point(NatStream.constant(0))
    assert zeros.interval(1) == (0, Fraction(2, 3))
    assert zeros.interval(2) == (0, Fraction(4, 9))
    ones = cantor_point(NatStream.constant(1))
    assert ones.approx(5, 32).contains(Fraction(1))
    spiked = cantor_point(NatStream.eventually_constant([1, 0]))
    assert spiked.interval(1) == (Fraction(1, 3), Fraction(1))
    for n in range(10):
        assert zeros.interval(n).width == Fraction(2, 3) ** n


def test_cantor_point_rejects_non_binary():
    bad = cantor_point(NatStream.constant(2))
    with pytest.raises(ValueError):
        bad.interval(1)


def test_racing_interval_reads_agree():
    x = sqrt2() * sqrt2() + CReal.from_rational(Fraction(1, 3))
    seen = race(lambda _: [x.interval(n) for n in range(40)], 6)
    assert all(r == seen[0] for r in seen)


def test_interval_constructor_converts_ends_to_fractions():
    for lo, hi in [(1, "3/2"), ("-1/3", Fraction(1, 3)), (Fraction(5, 7), 1), ("2", "2")]:
        iv = interval(lo, hi)
        assert iv == RationalInterval(Fraction(lo), Fraction(hi))
        assert type(iv) is RationalInterval and {type(iv.lo), type(iv.hi)} == {Fraction}


def test_interval_constructor_rejects_ends_out_of_order():
    with pytest.raises(ValueError, match=r"^interval endpoints out of order: 2 > 1/2$"):
        interval(2, "1/2")
    with pytest.raises(ValueError, match=r"^interval endpoints out of order: -1/3 > -2/3$"):
        interval(Fraction(-1, 3), "-2/3")


def _steps_one():
    """A from_steps real with the intervals of from_rational(1): (1 - 2^-n, 1 + 2^-n)."""
    return CReal.from_steps(interval(0, 2),
                            lambda iv, n: RationalInterval((iv.lo + 1) / 2, (iv.hi + 1) / 2))


@pytest.mark.parametrize("shape", ["sum", "mix"])
def test_deep_direct_reals_answer_under_the_default_recursion_limit(shape):
    # A read recurses once per level of the tree.  Under the default limit of 1000
    # frames a read of 329-330 levels fails on Python 3.10 to 3.13, so 300 levels
    # pass only while each level costs no more frames than the interval reads did.
    # Over a from_steps leaf with the same intervals the tree is not direct: each
    # operator reads the leaf's triple through its interval, scanned one index at
    # a time, and must answer alike.
    assert sys.getrecursionlimit() == 1000
    answers = []
    for leaf in (CReal.from_rational(1), _steps_one()):
        x, value = leaf, Fraction(1)
        for i in range(1, 300):
            q = Fraction(1, i + 1)
            if shape == "sum" or i % 3 == 0:
                x, value = x + CReal.from_rational(q), value + q
            elif i % 3 == 1:
                x, value = x * CReal.from_rational(1 + q), value * (1 + q)
            else:
                x, value = -x, -value
        assert x._direct is leaf._direct
        iv = x.approx(4, 64)
        assert iv.contains(value) and iv.width <= Fraction(1, 16)
        answers.append(iv)
    assert same_interval(*answers)


def test_racing_threads_read_one_operator_real_over_parts_that_are_not_direct():
    # Over a from_steps leaf and a caller generator with int ends: every read agrees
    # with a serial run by value and by type, whichever thread computes it first.
    def build():
        steps, ints = _steps_one(), CReal(lambda n: RationalInterval(-3, -3))
        return abs(-(steps * ints) + steps) * (ints + abs(ints * steps)) - steps

    def reads(x, order):
        got = {n: x.interval(n) for n in order}
        return [x.approx(12, 64)] + [got[n] for n in range(40)]

    expected = reads(build(), range(40))
    assert all(type(iv.lo) is type(iv.hi) is Fraction for iv in expected)
    x = build()
    assert not x._direct
    seen = race(lambda k: reads(x, [*range(5 * k, 40), *range(5 * k)]), 8)
    assert all(same_interval(a, b) for got in seen for a, b in zip(got, expected))
