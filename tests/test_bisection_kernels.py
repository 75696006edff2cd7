"""The kernels of the IVT bisection against ``conftest``'s oracles.

``approx_ivt``'s point against the oracle bisection with its pick rule,
``pwl``'s enclosure guard and point reads against the interpolation of its
node intervals, and ``_clamp01`` against the clamp it means.  Where the
library hands its inputs through, the very objects are compared.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (approx_pick, ivt_oracle, least_index, logged, outcome, pwl_oracle, recording,
                      same_interval, slow, tree_node)
from conreal import (CReal, ContinuousMap, FuelExhausted, PiecewiseLinearSpec, RationalInterval,
                     approx_ivt, pwl, sqrt2)
from conreal import ivt
from conreal.ivt import _clamp01
from conreal.real import half_pow

_ZERO, _ONE = Fraction(0), Fraction(1)


# --- approx_ivt finds y's narrow level once per call -------------------------------

# Breakpoints, node values and node reals of each map.
_MAPS = {
    "identity": ((_ZERO, _ONE), (_ZERO, _ONE), CReal.from_rational),
    "slow pwl": ((_ZERO, Fraction(1, 3), Fraction(3, 5), _ONE),
                 (Fraction(-1, 4), Fraction(1, 2), Fraction(5, 9), Fraction(3, 2)),
                 lambda v: CReal(slow(v, 2))),
}


def _nodes(name):
    """The breakpoints of a map of _MAPS and fresh node reals."""
    bps, values, node = _MAPS[name]
    return bps, tuple(node(v) for v in values)


_YS = {
    "slow rational": lambda: slow(Fraction(5, 13), 2),
    "sqrt2 / 3": lambda: (sqrt2() * CReal.from_rational(Fraction(1, 3))).interval,
}


@pytest.mark.parametrize("map_name", sorted(_MAPS))
@pytest.mark.parametrize("y_name", sorted(_YS))
@pytest.mark.parametrize("p", [0, 3, 7])
def test_approx_ivt_reads_y_below_its_narrow_level_once_per_call(map_name, y_name, p):
    fuel = 128
    f, calls = recording(pwl(PiecewiseLinearSpec(*_nodes(map_name))))
    y = logged(CReal(_YS[y_name]()))
    x = approx_ivt(f, y, p, fuel)
    depth = max(f.modulus(p + 1) + 2, 0)
    called, read = len(calls), len(y.log)
    intervals = [x.interval(n) for n in range(depth + 6)]
    bps, nodes = _nodes(map_name)
    expected = ivt_oracle(approx_pick(pwl_oracle(bps, nodes).value, _YS[y_name](), p, fuel), depth)
    assert all(same_interval(iv, expected.interval(n)) for n, iv in enumerate(intervals))
    # y's least level narrower than eps is found once, before the bisection: every
    # step encloses its new midpoint from that level up, and reads y there and above.
    eps = half_pow(p + 1)
    least = least_index(lambda n: _YS[y_name]()(n).width < eps, 0, fuel)
    midpoints = [(iv.lo, level) for iv, level in calls if iv.lo == iv.hi and 0 < iv.lo < 1]
    assert least > 0 and len({m for m, _ in midpoints}) > 1
    assert all(level >= least for _, level in midpoints)
    assert len({iv.lo for iv, _ in calls[called:]}) == 5
    assert y.log[read:] and all(n >= least for n in y.log[read:])


class _NeverNarrow(CReal):
    """Intervals of width 2 around c at every index; approx claims the point c."""

    def __init__(self, c):
        super().__init__(lambda n: RationalInterval(c - 1, c + 1))
        self._c = c

    def approx(self, p, fuel):
        return RationalInterval(self._c, self._c)


def test_y_never_narrowing_raises_before_bisecting():
    # y's level scan runs before the bisection: it reads y's indices 0..fuel
    # once and raises, so no point is returned on which a later read retries it.
    c, fuel = Fraction(1, 3), 12
    f = ContinuousMap(lambda iv, p: RationalInterval(c, c), lambda p: -10)
    y = logged(_NeverNarrow(c))
    with pytest.raises(FuelExhausted, match="^enclosures did not narrow; malformed map or real$"):
        approx_ivt(f, y, 4, fuel)
    assert y.log == list(range(fuel + 1))


# --- pwl's enclosure guard and its point reads ------------------------------------

def _twin(a):
    """An equal end of the other type (int for an integral Fraction), or an
    equal Fraction that is another object."""
    if isinstance(a, int):
        return Fraction(a)
    return a.numerator if a.denominator == 1 else Fraction(a.numerator, a.denominator)


_BPS = (_ZERO, Fraction(1, 4), Fraction(2, 3), _ONE)
_VALUES = (Fraction(1, 5), Fraction(-2, 7), Fraction(3, 4), Fraction(1, 9))
_ORACLE = pwl_oracle(_BPS, [tree_node(("q", v)) for v in _VALUES])

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
    new = outcome(lambda: pwl(PiecewiseLinearSpec(_BPS, values)).enclose(iv, p))
    if not 0 <= lo <= hi <= 1:
        assert new == (ValueError, "enclose input must lie within [0, 1]"), (iv, p)
    else:
        assert same_interval(new, _ORACLE.enclose(iv, p)), (iv, p)


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
        assert all(same_interval(reads[n], _ORACLE.value(Fraction(first), n)) for n in range(30)), first


# --- the clamp -------------------------------------------------------------------

_clamp_ends = st.one_of(
    st.sampled_from([0, 1, -1, 2]),
    st.builds(lambda n: Fraction(n), st.integers(-1, 2)),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=3, max_denominator=1 << 30))


@settings(max_examples=600, deadline=None)
@given(lo=_clamp_ends, hi=_clamp_ends)
def test_clamp01_returns_the_objects_max_and_min_did(lo, hi):
    # [lo, hi] meets [0, 1] in [max(lo, 0), min(hi, 1)], those very objects, the clamp
    # ends being the constants _clamp01 returns; when that is empty, an error.
    new = outcome(lambda: _clamp01(RationalInterval(lo, hi)))
    lo, hi = max(lo, ivt._ZERO), min(hi, ivt._ONE)
    if lo > hi:
        assert new == (ValueError, "interval lies outside [0, 1]"), (lo, hi)
    else:
        assert new.lo is lo and new.hi is hi, (lo, hi)
