"""The IVT bisection loops against the per-step code they replaced.

The references below are the former forms, kept here: ``approx_ivt``
rescanning y from level 0 on every step, ``pwl``'s enclosure guard as a
chain of ``Fraction`` comparisons, the bisection points as ``Fraction``
sums and quotients, and ``_clamp01`` by ``max`` and ``min``.  The new code
must give the same intervals, the same objects where the old code handed
its inputs through, the same enclosure calls and the same exceptions.
"""

import bisect
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same, same_interval
from conreal import (CReal, ContinuousMap, FuelExhausted, PiecewiseLinearSpec, RationalInterval,
                     approx_ivt, certified_within, identity_map, pwl, sqrt2)
from conreal import ivt
from conreal.ivt import _clamp01, require_range
from conreal.real import _mix, half_pow

_ZERO, _ONE = Fraction(0), Fraction(1)


# --- references -------------------------------------------------------------------

def _old_approx_ivt(f, y, p, fuel):
    """approx_ivt with every step's level search starting at level 0."""
    require_range(f, y, p, fuel)
    eps = half_pow(p + 1)

    def step(prev, _n):
        lo, hi = prev
        m = (lo + hi) / 2
        point = RationalInterval(m, m)
        for level in range(fuel + 1):
            yl = y.interval(level)
            if yl.width < eps:
                s = f.enclose(point, level)
                if s.width < eps:
                    return RationalInterval(m, hi) if s.hi < yl.lo + eps else RationalInterval(lo, m)
        raise FuelExhausted("enclosures did not narrow; malformed map or real")

    x = CReal.from_steps(RationalInterval(_ZERO, _ONE), step)
    x.interval(max(f.modulus(p + 1) + 2, 0))
    if not certified_within(f, x, y, p, fuel):
        raise FuelExhausted("result could not be certified at the requested precision")
    return x


def _old_enclose(values, bps, iv, p):
    """pwl's enclosure with its guard and point test as Fraction comparisons,
    and two-term interpolation."""
    def eval_point(t, q):
        i = bisect.bisect_right(bps, t, 1, len(bps) - 1) - 1
        lam = (t - bps[i]) / (bps[i + 1] - bps[i])
        a, b = values[i].approx(q, None), values[i + 1].approx(q, None)
        return RationalInterval((1 - lam) * a.lo + lam * b.lo, (1 - lam) * a.hi + lam * b.hi)

    if not (_ZERO <= iv.lo <= iv.hi <= _ONE):
        raise ValueError("enclose input must lie within [0, 1]")
    if iv.lo == iv.hi:
        return eval_point(iv.lo, p + 2)
    points = [iv.lo] + [t for t in bps if iv.lo < t < iv.hi] + [iv.hi]
    parts = [eval_point(t, p + 2) for t in points]
    return RationalInterval(min(part.lo for part in parts), max(part.hi for part in parts))


def _old_clamp01(iv):
    # The clamp ends are the very constants _clamp01 returns.
    lo, hi = max(iv.lo, ivt._ZERO), min(iv.hi, ivt._ONE)
    if lo > hi:
        raise ValueError("interval lies outside [0, 1]")
    return RationalInterval(lo, hi)


def _outcome(call):
    try:
        return call()
    except (ValueError, FuelExhausted) as e:
        return type(e), str(e)


# --- approx_ivt finds y's narrow level once per call -------------------------------

class _CountedReal(CReal):
    """A real that logs the index of every interval and triple read."""

    def __init__(self, generate, log):
        super().__init__(generate)
        self._log = log

    def interval(self, n):
        self._log.append(n)
        return super().interval(n)

    def _ends(self, n):
        self._log.append(n)
        return super()._ends(n)


def _slow(v, rate):
    """v as a real of width 2^(1 - n // rate) at index n."""
    return lambda n: RationalInterval(v - half_pow(n // rate), v + half_pow(n // rate))


def _recorded(f):
    """f behind a map that records every (interval, level) it is asked to enclose."""
    calls = []

    def enclose(iv, level):
        calls.append((iv, level))
        return f.enclose(iv, level)
    return ContinuousMap(enclose, f.modulus), calls


def _slow_pwl():
    bps = (_ZERO, Fraction(1, 3), Fraction(3, 5), _ONE)
    values = (Fraction(-1, 4), Fraction(1, 2), Fraction(5, 9), Fraction(3, 2))
    return pwl(PiecewiseLinearSpec(bps, tuple(CReal(_slow(v, 2)) for v in values)))


_MAPS = {"identity": identity_map, "slow pwl": _slow_pwl}
_YS = {
    "slow rational": lambda: _slow(Fraction(5, 13), 2),
    "sqrt2 / 3": lambda: (sqrt2() * CReal.from_rational(Fraction(1, 3))).interval,
}


@pytest.mark.parametrize("map_name", sorted(_MAPS))
@pytest.mark.parametrize("y_name", sorted(_YS))
@pytest.mark.parametrize("p", [0, 3, 7])
def test_approx_ivt_reads_y_below_its_narrow_level_once_per_call(map_name, y_name, p):
    fuel = 128

    def run(procedure):
        log = []
        f, calls = _recorded(_MAPS[map_name]())
        x = procedure(f, _CountedReal(_YS[y_name](), log), p, fuel)
        depth = max(f.modulus(p + 1) + 2, 0)
        intervals = [x.interval(n) for n in range(depth + 6)]
        return intervals, calls, Counter(log)

    new_ivs, new_calls, new_reads = run(approx_ivt)
    old_ivs, old_calls, old_reads = run(_old_approx_ivt)
    assert all(same_interval(a, b) for a, b in zip(new_ivs, old_ivs))
    assert new_calls == old_calls
    # Every step encloses one new midpoint; require_range encloses 0 and 1.
    steps = len({iv.lo for iv, _ in new_calls if iv.lo == iv.hi and 0 < iv.lo < 1})
    eps = half_pow(p + 1)
    least = next(n for n in range(fuel + 1) if _YS[y_name]()(n).width < eps)
    assert least > 0 and steps > 1
    # The old loop read each level below the least narrow one on every step;
    # now one scan reads them before the bisection and re-reads that level once.
    assert all(old_reads[n] - new_reads[n] == steps - 1 for n in range(least))
    assert new_reads[least] == old_reads[least] + 1
    assert all(new_reads[n] == old_reads[n] for n in old_reads.keys() | new_reads.keys() if n > least)
    assert sum(new_reads.values()) < sum(old_reads.values())


class _NeverNarrow(CReal):
    """Intervals of width 2 around c at every index, logged; approx claims the point c."""

    def __init__(self, c, log):
        super().__init__(lambda n: RationalInterval(c - 1, c + 1))
        self._c, self._log = c, log

    def interval(self, n):
        self._log.append(n)
        return super().interval(n)

    def approx(self, p, fuel):
        return RationalInterval(self._c, self._c)


def test_y_never_narrowing_raises_before_bisecting():
    # y's level scan runs before the bisection: it reads y's indices 0..fuel
    # once and raises, so no point is returned on which a later read retries it.
    c, fuel, log = Fraction(1, 3), 12, []
    f = ContinuousMap(lambda iv, p: RationalInterval(c, c), lambda p: -10)
    with pytest.raises(FuelExhausted, match="^enclosures did not narrow; malformed map or real$"):
        approx_ivt(f, _NeverNarrow(c, log), 4, fuel)
    assert log == list(range(fuel + 1))


@pytest.mark.parametrize("procedure", [_old_approx_ivt])
def test_y_never_narrowing_raises_on_every_read(procedure):
    # A negative modulus makes the eager depth 0 and certification read only
    # x's interval 0, so the first step runs on the first read of x's
    # interval 1.  A failed level scan is not kept: a retry scans y again.
    c, fuel, log = Fraction(1, 3), 12, []
    f = ContinuousMap(lambda iv, p: RationalInterval(c, c), lambda p: -10)
    x = procedure(f, _NeverNarrow(c, log), 4, fuel)
    for _ in range(2):
        del log[:]
        with pytest.raises(FuelExhausted, match="^enclosures did not narrow; malformed map or real$"):
            x.interval(1)
        assert log == list(range(fuel + 1))


# --- pwl's enclosure guard and its point reads ------------------------------------

def _twin(a):
    """An equal end of the other type (int for an integral Fraction), or an
    equal Fraction that is another object."""
    if isinstance(a, int):
        return Fraction(a)
    return a.numerator if a.denominator == 1 else Fraction(a.numerator, a.denominator)


_BPS = (_ZERO, Fraction(1, 4), Fraction(2, 3), _ONE)
_VALUES = (Fraction(1, 5), Fraction(-2, 7), Fraction(3, 4), Fraction(1, 9))

_ends = st.one_of(
    st.sampled_from([0, 1, -1, 2, _ZERO, _ONE, Fraction(1, 4), Fraction(2, 3), Fraction(-1, 7),
                     Fraction(9, 8)]),
    st.integers(-3, 3),
    st.fractions(min_value=-1, max_value=2, max_denominator=1 << 20))


@settings(max_examples=400, deadline=None)
@given(a=_ends, b=_ends, shape=st.sampled_from(["as drawn", "ordered", "reversed", "equal",
                                                "equal twin"]),
       p=st.integers(-2, 12))
def test_enclose_guard_matches_the_fraction_chain(a, b, shape, p):
    lo, hi = {
        "as drawn": (a, b),
        "ordered": (min(a, b), max(a, b)),
        "reversed": (max(a, b), min(a, b)),
        "equal": (a, a),
        "equal twin": (a, _twin(a)),
    }[shape]
    iv = RationalInterval(lo, hi)
    values = tuple(CReal.from_rational(v) for v in _VALUES)
    new = _outcome(lambda: pwl(PiecewiseLinearSpec(_BPS, values)).enclose(iv, p))
    old = _outcome(lambda: _old_enclose(values, _BPS, iv, p))
    if isinstance(old[0], type):
        assert new == old, (iv, p)
    else:
        assert same_interval(new, old), (iv, p)


def test_a_point_value_finds_its_piece_once():
    # The piece and place are found when f.at(q) is built, not per index read,
    # and equal points of other types share one point value.
    lookups = []
    values = tuple(CReal.from_rational(v) for v in _VALUES)
    f = pwl(PiecewiseLinearSpec(_BPS, values))
    find = f._point

    def counted(t):
        lookups.append(t)
        return find(t)

    f._point = counted
    for first, second in [(0, _ZERO), (_ONE, 1), (Fraction(2, 3), Fraction(4, 6)),
                          (Fraction(1, 7), Fraction(2, 14))]:
        del lookups[:]
        a = f.at(first)
        reads = [a.interval(n) for n in range(30)] + [a.approx(20, 40), a.interval(7)]
        assert len(lookups) == 1, (first, second)
        assert f.at(second) is a, (first, second)
        assert len(lookups) == 1, (first, second)
        point = RationalInterval(Fraction(first), Fraction(first))
        assert all(same_interval(reads[n], _old_enclose(values, _BPS, point, n))
                   for n in range(30)), first


# --- bisection points and the clamp -----------------------------------------------

_fractions = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200)))


@settings(max_examples=600, deadline=None)
@given(lo=_fractions, hi=_fractions, shape=st.sampled_from(["as drawn", "zero width", "negative"]),
       num=st.integers(1, 7))
def test_mix_matches_the_fraction_expressions(lo, hi, shape, num):
    if shape == "zero width":
        hi = lo
    elif shape == "negative":
        lo, hi = -abs(lo) - abs(hi), -abs(lo)
    for new, old in [(_mix(1, 2, lo, hi), (lo + hi) / 2),
                     (_mix(1, 3, lo, hi), (2 * lo + hi) / 3),
                     (_mix(2, 3, lo, hi), (lo + 2 * hi) / 3),
                     (_mix(num, 8, lo, hi), lo + (hi - lo) * Fraction(num, 8))]:
        assert same(new, old), (lo, hi, num)


_clamp_ends = st.one_of(
    st.sampled_from([0, 1, -1, 2]),
    st.builds(lambda n: Fraction(n), st.integers(-1, 2)),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=3, max_denominator=1 << 30))


@settings(max_examples=600, deadline=None)
@given(lo=_clamp_ends, hi=_clamp_ends)
def test_clamp01_returns_the_objects_max_and_min_did(lo, hi):
    iv = RationalInterval(lo, hi)
    new, old = _outcome(lambda: _clamp01(iv)), _outcome(lambda: _old_clamp01(iv))
    if isinstance(old[0], type):
        assert new == old, iv
    else:
        assert new.lo is old.lo and new.hi is old.hi, iv
