import bisect
import inspect
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import least_index, logged, race, recording, same_interval, spike
from conreal import (Apartness, ContinuousMap, CReal, Direction, FugitiveSpec, FuelExhausted, LtWitness,
                     NatStream, PiecewiseLinearSpec, PreconditionFailed, RationalInterval,
                     approx_ivt, certified_within, diagonal, distance_bound,
                     enumerated_witnesses, f0, f1, f2, identity_map,
                     ivt_countable_exceptions, ivt_locally_nonconstant,
                     middle_third_oracle, pattern_indicator, pi_digits, pwl,
                     sqrt2, try_apart, zero)

from conreal import ivt
from conreal.ivt import _ceil_log2
from conreal.streams import _decimal

half = Fraction(1, 2)


def _point(q) -> RationalInterval:
    q = Fraction(q)
    return RationalInterval(q, q)


def _rational_pwl(nodes):
    bps = tuple(Fraction(t) for t, _ in nodes)
    vals = tuple(CReal.from_rational(v) for _, v in nodes)
    return pwl(PiecewiseLinearSpec(bps, vals)), nodes


def _interpolate(nodes, t):
    t = Fraction(t)
    for (t0, v0), (t1, v1) in zip(nodes, nodes[1:]):
        if t0 <= t <= t1:
            lam = (t - t0) / (t1 - t0)
            return (1 - lam) * Fraction(v0) + lam * Fraction(v1)
    raise AssertionError("point outside breakpoints")


def test_identity_enclosure():
    f = identity_map()
    iv = f.enclose(RationalInterval(Fraction(1, 4), half), 10)
    assert iv.lo <= Fraction(1, 4) and half <= iv.hi
    assert iv.lo >= Fraction(1, 4) - Fraction(1, 2 ** 10)
    assert iv.hi <= half + Fraction(1, 2 ** 10)


def test_constant_map_width():
    f, _ = _rational_pwl([(0, half), (1, half)])
    for p in (4, 8, 12):
        iv = f.enclose(RationalInterval(Fraction(1, 8), Fraction(7, 8)), p)
        assert iv.width <= Fraction(2, 2 ** p)


def test_pwl_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearSpec((Fraction(0), Fraction(1, 2)), (zero(), zero()))
    with pytest.raises(ValueError):
        PiecewiseLinearSpec((Fraction(0), Fraction(0), Fraction(1)),
                            (zero(), zero(), zero()))


def test_pwl_enclosure_soundness_random():
    rng = random.Random(17)
    for _ in range(40):
        count = rng.randint(2, 5)
        cuts = sorted(rng.sample(range(1, 16), count - 2)) if count > 2 else []
        bps = [Fraction(0)] + [Fraction(c, 16) for c in cuts] + [Fraction(1)]
        nodes = [(t, Fraction(rng.randint(-8, 8), rng.randint(1, 8))) for t in bps]
        f, _ = _rational_pwl(nodes)
        for _ in range(6):
            t = Fraction(rng.randint(0, 64), 64)
            exact = _interpolate(nodes, t)
            for p in (6, 13, 20):
                assert f.enclose(_point(t), p).contains(exact)


def test_pwl_modulus_honesty_random():
    rng = random.Random(18)
    for _ in range(20):
        nodes = [(Fraction(0), Fraction(rng.randint(-4, 4))),
                 (Fraction(rng.randint(1, 7), 8), Fraction(rng.randint(-4, 4))),
                 (Fraction(1), Fraction(rng.randint(-4, 4)))]
        f, spec_nodes = _rational_pwl(nodes)
        for p in (3, 6):
            m = f.modulus(p)
            step = Fraction(1, 2 ** m)
            for _ in range(8):
                a = Fraction(rng.randint(0, 2 ** m - 1), 2 ** m)
                b = min(a + step * Fraction(rng.randint(0, 7), 8), Fraction(1))
                va, vb = _interpolate(spec_nodes, a), _interpolate(spec_nodes, b)
                assert abs(va - vb) <= Fraction(1, 2 ** p)


def test_pwl_reads_each_node_once_per_precision():
    nodes = tuple(logged(CReal.from_rational(q)) for q in (0, Fraction(1, 3), 1))
    f = pwl(PiecewiseLinearSpec((Fraction(0), half, Fraction(1)), nodes))
    point = RationalInterval(Fraction(1, 5), Fraction(3, 4))
    first = f.enclose(point, 12)
    reads = [len(node.log) for node in nodes]
    assert all(reads)
    for _ in range(49):
        assert f.enclose(point, 12) == first
    assert [len(node.log) for node in nodes] == reads


def _random_rational_nodes(rng):
    count = rng.randint(2, 5)
    cuts = sorted(rng.sample(range(1, 16), count - 2)) if count > 2 else []
    bps = [Fraction(0)] + [Fraction(c, 16) for c in cuts] + [Fraction(1)]
    return [(t, Fraction(rng.randint(-8, 8), rng.randint(1, 8))) for t in bps]


def _random_input(rng):
    a, b = sorted(Fraction(rng.randint(0, 64), 64) for _ in range(2))
    return RationalInterval(a, b)


def test_pwl_memo_matches_fresh_map_random():
    rng = random.Random(19)
    for _ in range(20):
        nodes = _random_rational_nodes(rng)
        f, _ = _rational_pwl(nodes)
        for p in [3, 9, 3, 17, 9, 0, 17, 3] + [rng.randint(0, 24) for _ in range(8)]:
            iv = _random_input(rng)
            fresh, _ = _rational_pwl(nodes)
            assert f.enclose(iv, p) == fresh.enclose(iv, p)


def test_pwl_stuck_node_raises_every_time():
    stuck = CReal(lambda n: RationalInterval(Fraction(0), Fraction(1)))
    f = pwl(PiecewiseLinearSpec((Fraction(0), Fraction(1)), (zero(), stuck)))
    messages = set()
    for _ in range(3):
        for p in (4, 6):
            with pytest.raises(FuelExhausted) as caught:
                f.enclose(_point(half), p)
            messages.add((p, str(caught.value)))
    assert messages == {(4, "no interval of width <= 2^-6 within 96 indices"),
                        (6, "no interval of width <= 2^-8 within 96 indices")}


def test_pwl_racing_enclosures_match_serial_run():
    def build():
        return f0(spike(6))

    rng = random.Random(23)
    queries = [(_random_input(rng), rng.choice((2, 5, 8, 11, 14))) for _ in range(60)]
    serial = build()
    expected = [serial.enclose(iv, p) for iv, p in queries]
    shared = build()

    def worker(k):
        order = queries[10 * k:] + queries[:10 * k]
        got = [shared.enclose(iv, p) for iv, p in order]
        return got[len(queries) - 10 * k:] + got[:len(queries) - 10 * k]

    assert all(got == expected for got in race(worker, 6))


# Point values of pwl maps: the raw enclosure, read directly.  It equals apply's
# running intersection of the enclosures of [q, q], the path of a map with no nodes.

def _assert_point_values_match(f, points, rng):
    for q in points:
        q = Fraction(q)
        new, old = f.at(q), f.apply(CReal(lambda n: RationalInterval(q, q)))
        levels = list(range(61))
        rng.shuffle(levels)  # direct reads come in any order, as galloping makes them
        got = {n: new.interval(n) for n in levels}
        assert [got[n] for n in range(61)] == [old.interval(n) for n in range(61)]


def test_pwl_point_values_equal_running_intersections_random():
    rng = random.Random(29)
    for _ in range(12):
        nodes = _random_rational_nodes(rng)
        f, _ = _rational_pwl(nodes)
        bps = [t for t, _ in nodes]
        middles = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        inner = [Fraction(rng.randint(0, 64), 64) for _ in range(2)]
        assert f.at(half)._direct
        _assert_point_values_match(f, bps + middles + inner, rng)


@pytest.mark.parametrize("build,bps", [
    (lambda s: f0(spike(s)), (0, Fraction(1, 3), Fraction(2, 3), 1)),
    (lambda s: f1(spike(s)), (0, half, 1)),
    (lambda s: f2(spike(s), spike(s + 1)),
     (0, Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5), 1)),
])
@pytest.mark.parametrize("position", [0, 1, 6, 31, 64])
def test_fugitive_map_point_values_equal_running_intersections(build, bps, position):
    f = build(position)
    middles = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    _assert_point_values_match(f, list(bps) + middles + [Fraction(7, 19)], random.Random(position))


@pytest.mark.parametrize("fuel", [94, 128, 200])
def test_pwl_point_value_reads_ahead_past_the_node_cap(fuel):
    # The least witness is 71; galloping reads on toward the fuel, so nodes are
    # read at precisions past 96, which a capped node read could not reach.
    q = Fraction(1, 3)
    y = CReal.from_rational(q + Fraction(1, 2 ** 70))
    assert try_apart(identity_map().at(q), y, fuel) == Apartness(Direction.LESS, LtWitness(71))


def test_pwl_racing_point_values_match_serial_run():
    def build():
        return f0(spike(6))

    rng = random.Random(31)
    points = [Fraction(k, 12) for k in range(13)] + [Fraction(1, 7), Fraction(5, 9)]
    queries = [(rng.choice(points), rng.randint(0, 40)) for _ in range(90)]
    serial = build()
    expected = [serial.at(q).interval(n) for q, n in queries]
    shared = build()
    assert shared.at(half)._direct

    def worker(k):
        order = queries[15 * k:] + queries[:15 * k]
        got = [shared.at(q).interval(n) for q, n in order]
        return got[len(queries) - 15 * k:] + got[:len(queries) - 15 * k]

    assert all(got == expected for got in race(worker, 6))


def test_racing_reads_of_pwl_points_share_each_node_triple():
    # Point triples read the map's node memo by a plain get first; a miss stores through
    # setdefault, so every thread gets the node triple stored first, one object per key.
    points = [Fraction(k, 9) for k in range(10)] + [Fraction(1, 7), Fraction(5, 11)]
    queries = [(q, n) for n in range(0, 30, 3) for q in points]
    serial = f0(spike(6))
    expected = [serial._point(q)(n) for q, n in queries]
    shared = f0(spike(6))
    node_ends = inspect.getclosurevars(shared._point).nonlocals["node_ends"]

    def worker(k):
        got, nodes = {}, {}
        for q, n in queries[11 * k:] + queries[:11 * k]:
            got[q, n] = shared._point(q)(n)
            nodes.update(((i, n + 2), node_ends(i, n + 2)) for i in range(4))
        return [got[query] for query in queries], nodes

    outcomes = race(worker, 8)
    _, first = outcomes[0]
    for reads, nodes in outcomes:
        assert reads == expected
        assert nodes.keys() == first.keys()
        assert all(nodes[key] is first[key] for key in first)


def test_racing_at_calls_with_equal_points_of_other_types_share_one_real():
    # Equal points of other types are one memo key, so every thread gets the real stored first.
    points = [0, Fraction(0), Fraction(2, 4), half]
    serial = f0(spike(6))
    expected = [serial.at(q).interval(n) for q in points for n in range(30)]
    shared = f0(spike(6))

    def worker(k):
        order = points[k % 4:] + points[:k % 4]
        reals = {q: shared.at(q) for q in order}
        return [reals[q] for q in points], [reals[q].interval(n) for q in points for n in range(30)]

    outcomes = race(worker, 8)
    first, _ = outcomes[0]
    assert first[0] is first[1] and first[2] is first[3]
    for reals, reads in outcomes:
        assert all(got is want for got, want in zip(reals, first))
        assert reads == expected


# pwl point triples from the definition: the piece by bisect_right, the place as a
# reduced Fraction.

def _unit_rationals(max_den):
    return st.integers(1, max_den).flatmap(lambda d: st.integers(0, d).map(lambda n: Fraction(n, d)))


_dyadics = st.integers(0, 3000).flatmap(
    lambda e: st.integers(0, 1 << e).map(lambda n: Fraction(n, 1 << e)))


@st.composite
def _pwl_points(draw):
    inner = draw(st.lists(_unit_rationals(1 << 200).filter(lambda t: 0 < t < 1),
                          max_size=4, unique=True))
    bps = (Fraction(0), *sorted(inner), Fraction(1))
    values = draw(st.lists(st.fractions(), min_size=len(bps), max_size=len(bps)))
    ts = draw(st.lists(st.one_of(st.sampled_from(bps), st.sampled_from((Fraction(0), Fraction(1))),
                                 _unit_rationals(1 << 200), _dyadics), min_size=1, max_size=5))
    return bps, tuple(CReal.from_rational(v) for v in values), ts, draw(st.integers(0, 40))


def _defined_triple(bps, values, t, p):
    i = bisect.bisect_right(bps, t, 1, len(bps) - 1) - 1
    lam = (t - bps[i]) / (bps[i + 1] - bps[i])
    u, v = lam.numerator, lam.denominator
    al, ah, ad = values[i]._ends(values[i]._least(p + 2, None))
    bl, bh, bd = values[i + 1]._ends(values[i + 1]._least(p + 2, None))
    s, r = (v - u) * bd, u * ad
    return s * al + r * bl, s * ah + r * bh, v * ad * bd


@settings(max_examples=200, deadline=None)
@given(_pwl_points())
def test_pwl_point_triples_and_enclosures_follow_the_definition(case):
    bps, values, ts, p = case
    f = pwl(PiecewiseLinearSpec(bps, values))
    for t in ts:
        assert f._point(t)(p) == _defined_triple(bps, values, t, p), t
    for lo, hi in zip(ts, ts[1:] + ts[:1]):
        lo, hi = min(lo, hi), max(lo, hi)
        points = [lo] + [t for t in bps if lo < t < hi] + [hi]
        triples = [_defined_triple(bps, values, t, p) for t in points]
        want = RationalInterval(min(Fraction(a, d) for a, _, d in triples),
                                max(Fraction(b, d) for _, b, d in triples))
        assert same_interval(f.enclose(RationalInterval(lo, hi), p), want), (lo, hi)


def test_f0_plateau_value():
    # Fires at 12 (the first 7 in the pi expansion), even, so the plateau is 1/2 + 2^-12.
    f = f0(pattern_indicator(pi_digits(), 7, 1))
    iv = f.enclose(_point(Fraction(1, 3)), 10)
    assert iv.contains(half + Fraction(1, 4096))


def test_f0_odd_firing_hits_zero():
    f = f0(spike(1))  # odd: plateau is 1/2 - 1/2 = 0
    assert f.enclose(_point(Fraction(1, 3)), 10).contains(Fraction(0))


def test_f1_quiet_midpoint_near_zero():
    f = f1(FugitiveSpec(NatStream.constant(0)))
    iv = f.enclose(_point(half), 5)
    assert iv.contains(Fraction(0))
    assert iv.width <= Fraction(1, 16)


def test_f2_endpoints():
    f = f2(spike(1), spike(2))
    assert f.enclose(_point(0), 8).contains(Fraction(0))
    assert f.enclose(_point(1), 8).contains(Fraction(1))


def test_map_apply_tracks_value():
    f = identity_map()
    x = sqrt2() - CReal.from_rational(1)  # sqrt2 - 1 lies in [0, 1]
    z = f.apply(x)
    iv = z.approx(12, 64)
    gap = abs((sqrt2() - CReal.from_rational(1)) - z)
    assert gap.approx(10, 64).contains(Fraction(0))
    assert iv.width <= Fraction(1, 4096)


def test_approx_ivt_identity():
    y = CReal.from_rational(Fraction(1, 3))
    x = approx_ivt(identity_map(), y, 10, 128)
    xi = x.approx(12, 64)
    assert abs((xi.lo + xi.hi) / 2 - Fraction(1, 3)) < Fraction(1, 1024)
    assert certified_within(identity_map(), x, y, 10, 64)


def test_certified_within_stops_at_the_first_precision_out_of_fuel():
    # y = 1/3 is 2^-7 wide first at index 8: at q = 7 f encloses, then y.approx(7, 7)
    # runs out of fuel, and no finer q is tried.
    f, calls = recording(identity_map())
    y = CReal.from_rational(Fraction(1, 3))
    assert not certified_within(f, CReal.from_rational(0), y, 4, 7)
    assert [p for _, p in calls] == [5, 6, 7]


def test_approx_ivt_f0():
    f = f0(pattern_indicator(pi_digits(), 7, 1))
    y = CReal.from_rational(half)
    x = approx_ivt(f, y, 8, 128)
    # Independent certificate, built only from enclose and approx.
    assert certified_within(f, x, y, 8, 64)
    assert distance_bound(f, x, y, 11, 64) < Fraction(1, 256)


def test_approx_ivt_boundary():
    f = identity_map()
    y = CReal.from_rational(1)
    x = approx_ivt(f, y, 4, 128)
    xi = x.approx(8, 64)
    assert xi.hi > Fraction(15, 16)
    assert certified_within(f, x, y, 4, 64)


def test_approx_ivt_precondition():
    with pytest.raises(PreconditionFailed):
        approx_ivt(identity_map(), CReal.from_rational(2), 6, 128)


def test_approx_ivt_keeps_bisecting_lazily():
    x = approx_ivt(identity_map(), CReal.from_rational(Fraction(1, 3)), 6, 128)
    assert x.interval(40).width == Fraction(1, 2 ** 40)


def test_lnc_identity():
    f = identity_map()
    y = CReal.from_rational(Fraction(1, 4))
    x = ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=20)
    assert x.interval(20).width <= Fraction(2, 3) ** 20
    assert certified_within(f, x, y, 10, 64, 20)
    xi = x.approx(10, 20)
    assert abs((xi.lo + xi.hi) / 2 - Fraction(1, 4)) < Fraction(1, 1024)


def test_lnc_thirds_width_law():
    f = identity_map()
    y = CReal.from_rational(Fraction(2, 7))
    x = ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=12)
    for n in range(12):
        a, b = x.interval(n), x.interval(n + 1)
        assert b.width <= Fraction(2, 3) * a.width


def test_lnc_strictly_increasing_pwl():
    f, _ = _rational_pwl([(0, Fraction(0)), (half, Fraction(1, 8)), (1, Fraction(1))])
    y = CReal.from_rational(Fraction(1, 16))
    x = ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=16)
    assert certified_within(f, x, y, 6, 64, 16)


def test_lnc_value_below_range():
    f = identity_map()
    y = CReal.from_rational(Fraction(-1, 4))
    x = ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=12)
    # x converges to 0, where |f(x) - y| = 1/4: no bound below 2^-2 is sound.
    assert x.interval(12).hi <= Fraction(2, 3) ** 12
    assert not certified_within(f, x, y, 2, 64, 12)
    assert not certified_within(f, x, y, 3, 64, 12)


def test_lnc_rejects_lying_oracle():
    from conreal import Apartness, LtWitness
    f = identity_map()
    y = CReal.from_rational(Fraction(1, 4))

    def liar(a, b):
        return (a + b) / 2, Apartness(Direction.LESS, LtWitness(0))

    with pytest.raises(ValueError):
        ivt_locally_nonconstant(f, y, liar, depth=3)


def test_middle_third_oracle_tries_the_seven_eighths_in_order():
    # f0 whose fugitive never fires is 1/2 on its middle third: no point there is
    # apart from y = 1/2, so the oracle tries every eighth of (a, b) and gives up.
    f, y = f0(spike(None)), CReal.from_rational(half)
    tried, at = [], f.at

    def logged_at(q):
        tried.append(q)
        return at(q)

    f.at = logged_at
    a, b = Fraction(3, 7), Fraction(5, 9)
    with pytest.raises(FuelExhausted, match="^no apartness witness found in the middle third$"):
        middle_third_oracle(f, y, 16)(a, b)
    assert tried == [a + (b - a) * num / 8 for num in (4, 3, 5, 2, 6, 1, 7)]
    assert all(type(q) is Fraction for q in tried)


def test_countable_identity_tracks_sqrt2_minus_one():
    f = identity_map()
    y = sqrt2() - CReal.from_rational(1)
    x = ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, 64), depth=20)
    xi = x.interval(20)
    yi = y.approx(24, 64)
    assert xi.lo - Fraction(1, 2 ** 19) <= yi.hi and yi.lo <= xi.hi + Fraction(1, 2 ** 19)
    assert certified_within(f, x, y, 12, 64, 20)


def test_countable_passes_midpoint_indices():
    f = identity_map()
    y = sqrt2() - CReal.from_rational(1)
    seen = []
    base = enumerated_witnesses(f, y, 64)

    def recording(q):
        seen.append(q)
        return base(q)

    ivt_countable_exceptions(f, y, recording, depth=6)
    assert seen[0] == half
    assert all(q.denominator <= 2 ** 6 for q in seen)


def test_countable_deep_bisection_stays_cheap():
    # Each witness is asked at the midpoint a/2^d itself, so step d costs d-bit
    # integers: 100 steps finish at once.
    f = identity_map()
    y = CReal.from_rational(Fraction(1, 3))
    x = ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, 200), depth=100)
    assert certified_within(f, x, y, 60, 200, 100)


def test_countable_hypothesis_violation():
    # y = 1/3 is a value of f at a rational; midpoints approach it and the
    # fixed-fuel witness search must eventually fail: the procedure's
    # hypothesis is violated, reported as an error.
    f = identity_map()
    y = CReal.from_rational(Fraction(1, 3))
    with pytest.raises(FuelExhausted):
        ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, 12), depth=24)


def test_countable_strictly_increasing_pwl():
    f, _ = _rational_pwl([(0, Fraction(0)), (1, Fraction(1))])
    y = (sqrt2() - CReal.from_rational(1)) * CReal.from_rational(half)
    x = ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, 64), depth=18)
    assert certified_within(f, x, y, 10, 64, 18)


def test_apartness_of_plateau_from_target():
    # Plateau of f0 over the 7-hunt is 1/2 + 2^-12, apart from 1/2.
    f = f0(pattern_indicator(pi_digits(), 7, 1))
    found = try_apart(f.at(Fraction(1, 2)), CReal.from_rational(half), 20)
    assert found is not None and found.direction is Direction.GREATER


def test_approx_ivt_malformed_map_exhausts():
    from conreal import ContinuousMap
    stuck = ContinuousMap(
        lambda iv, p: RationalInterval(Fraction(0), Fraction(1)),
        lambda p: p)
    with pytest.raises(FuelExhausted):
        approx_ivt(stuck, CReal.from_rational(half), 4, fuel=16)


@pytest.mark.parametrize("build", [
    lambda f, y: ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=4),
    lambda f, y: ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, 64), depth=4),
], ids=["lnc", "countable"])
def test_certification_ends_on_a_constant_hand_built_map(build):
    # A modulus that never grows once sent the certification's precision search
    # past every bound.  |f(x) - y| = 1/6 here: below 2^-2, not below 2^-4.
    from conreal import ContinuousMap
    started = time.perf_counter()
    f = ContinuousMap(lambda iv, p: RationalInterval(half, half), lambda p: 0)
    y = CReal.from_rational(Fraction(1, 3))
    x = build(f, y)
    assert certified_within(f, x, y, 2, 64, 4)
    assert not certified_within(f, x, y, 4, 64, 4)
    assert time.perf_counter() - started < 1.0


def _fallback_cases():
    nodes = st.lists(st.tuples(st.integers(1, 15), st.fractions(-4, 4, max_denominator=8)),
                     min_size=0, max_size=3, unique_by=lambda node: node[0])
    return st.tuples(
        nodes, st.fractions(-4, 4, max_denominator=8), st.fractions(-4, 4, max_denominator=8),
        st.fractions(0, 1, max_denominator=32), st.fractions(-4, 4, max_denominator=16),
        st.integers(1, 6), st.integers(1, 4))


@given(_fallback_cases())
def test_distance_bound_from_the_x_fuel_interval_is_sound(case):
    # q > x_fuel: x's widths are at least 2^-n, so no interval up to x_fuel is
    # within 2^-modulus(q) and the bound is read from interval x_fuel.
    inner, v0, v1, t, yv, x_fuel, extra = case
    nodes = [(Fraction(0), v0)] + sorted((Fraction(c, 16), v) for c, v in inner) + [(Fraction(1), v1)]
    f, _ = _rational_pwl(nodes)
    x = CReal(lambda n: RationalInterval(max(t - half ** n, Fraction(0)), min(t + half ** n, Fraction(1))))
    q = x_fuel + extra
    bound = distance_bound(f, x, CReal.from_rational(yv), q, 64, x_fuel)
    lo, hi = x.interval(x_fuel)
    # |f - y| is convex on each piece: its supremum is at an end or a breakpoint.
    points = [lo, hi] + [b for b, _ in nodes if lo < b < hi]
    assert bound >= max(abs(_interpolate(nodes, s) - yv) for s in points)


@given(st.fractions(min_value=-4, max_value=1 << 70, max_denominator=1 << 40))
def test_ceil_log2_matches_doubling_loop(q):
    # The least s >= 0 with 2^s >= q.
    assert _ceil_log2(q) == least_index(lambda s: 2 ** s >= q, 0, None)


# The oracles start each scan at the index of their last witness.  A probe changes
# which intervals are read, never the witness.

def _recording_oracles(f, y, fuel, seen):
    """Both oracle builders, recording each point q and the witness returned for it."""
    oracle, apart_at = middle_third_oracle(f, y, fuel), enumerated_witnesses(f, y, fuel)

    def recording_oracle(a, b):
        q, w = oracle(a, b)
        seen.append((q, w))
        return q, w

    def recording_apart_at(q):
        w = apart_at(q)
        seen.append((q, w))
        return w

    return recording_oracle, recording_apart_at


@pytest.mark.parametrize("make", [identity_map, lambda: f0(spike(5)), lambda: f0(spike(None))],
                         ids=["id", "f0_spike5", "f0_unresolved"])
@pytest.mark.parametrize("y", [Fraction(1, 5), Fraction(2, 7), Fraction(7, 9), None],
                         ids=["1/5", "2/7", "7/9", "sqrt2-1"])
def test_oracle_witnesses_equal_a_scan_with_no_probe(make, y):
    def target():
        return sqrt2() - CReal.from_rational(1) if y is None else CReal.from_rational(y)

    f, fy, seen = make(), target(), []
    oracle, apart_at = _recording_oracles(f, fy, 64, seen)
    ivt_locally_nonconstant(f, fy, oracle, depth=16)
    ivt_countable_exceptions(f, fy, apart_at, depth=16)
    assert len(seen) == 2 * 16  # one witness a forced round
    fresh, fresh_y = make(), target()
    for q, w in seen:
        assert w == try_apart(fresh.at(q), fresh_y, 64)


def _counting_encloses(f):
    """Counts enclosures and point-triple builds, one per index of a point value."""
    calls = []
    enclose, point = f.enclose, f._point

    def counting(iv, p):
        calls.append(p)
        return enclose(iv, p)

    def counting_point(q):
        ends = point(q)

        def counted(p):
            calls.append(p)
            return ends(p)
        return counted

    f.enclose = counting
    f._point = counting_point  # point values read f._point when first built
    return calls


def test_oracle_probes_halve_the_enclosures():
    # Each scan starting from index 0, these runs made 171 and 169 enclosures,
    # counting the one that certifies the point.
    f = identity_map()
    calls = _counting_encloses(f)
    y = CReal.from_rational(Fraction(1, 4))
    x = ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=20)
    assert certified_within(f, x, y, 10, 64, 20)
    assert len(calls) == 88
    f = identity_map()
    calls = _counting_encloses(f)
    y = sqrt2() - CReal.from_rational(1)
    x = ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, 64), depth=20)
    assert certified_within(f, x, y, 12, 64, 20)
    assert len(calls) == 75


def test_racing_callers_of_one_oracle_get_the_serial_witnesses():
    # Threads sharing one apart_at overwrite each other's last witness index:
    # each gets a worse probe, never another witness.
    def build():
        return f0(spike(5)), CReal.from_rational(Fraction(7, 9))

    points = [Fraction(k, 64) for k in range(1, 64, 3)]
    f, y = build()
    expected = [try_apart(f.at(q), y, 64) for q in points]
    shared = enumerated_witnesses(*build(), 64)

    def worker(k):
        order = points[3 * k:] + points[:3 * k]
        got = [shared(q) for q in order]
        return got[len(points) - 3 * k:] + got[:len(points) - 3 * k]

    assert all(got == expected for got in race(worker, 6))


@pytest.mark.parametrize("make", [identity_map, lambda: f0(spike(5))], ids=["id", "f0_spike5"])
@pytest.mark.parametrize("mode", ["lnc", "countable"])
def test_each_oracle_scan_reads_the_last_witness_index_first(monkeypatch, make, mode):
    # y records each witness found against it; the next scan of y reads that index first.
    f, y = make(), sqrt2() - CReal.from_rational(1)
    ends, scans, scan = y._ends, [], None

    def reading(n):
        if scan is not None:
            scan.append(n)
        return ends(n)

    def scanning(x, target, fuel):
        nonlocal scan
        scan = []
        w = try_apart(x, target, fuel)
        scans.append((scan, w))
        scan = None
        return w

    y._ends = reading
    monkeypatch.setattr(ivt, "try_apart", scanning)
    if mode == "lnc":
        ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=16)
    else:
        ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, 64), depth=16)
    assert len(scans) >= 16
    last = None
    for reads, w in scans:
        assert reads[0] == (0 if last is None else last)
        if w is not None:
            last = w.witness.index
    assert last > 0


@pytest.mark.parametrize("kind", ["diagonal", "lnc"])
def test_racing_reads_of_one_sequential_real_run_each_step_once(kind):
    # Eight threads read one diagonal or lnc bisection real, each in its own order:
    # every step runs once, under the sequence's lock, and every read equals a
    # serial run's.
    def build():
        steps = []
        if kind == "diagonal":
            def xs(n):
                steps.append(n)
                return sqrt2() * CReal.from_rational(Fraction(n % 5, 8))
            return diagonal(xs), steps
        f, y = identity_map(), sqrt2() - CReal.from_rational(1)
        oracle = middle_third_oracle(f, y, 64)

        def counted(a, b):
            steps.append((a, b))
            return oracle(a, b)
        return ivt_locally_nonconstant(f, y, counted, depth=0), steps

    def reads(x, order):
        got = {n: x.interval(n) for n in order}
        return [got[n] for n in range(40)]

    x, steps = build()
    expected = reads(x, range(40))
    x, steps = build()
    seen = race(lambda k: reads(x, [*range(5 * k, 40), *range(5 * k)]), 8)
    assert len(steps) == 39
    assert all(same_interval(a, b) for got in seen for a, b in zip(got, expected))


def test_racing_scans_against_one_shared_y_match_a_serial_run():
    # Eight threads scan their own direct x against one y and race to record their
    # witnesses on it: a scan can only get a worse probe, never another witness.
    threads_n = 8

    def build():
        y = sqrt2() - CReal.from_rational(1)
        return y, [[y + CReal.from_rational(Fraction((-1) ** k, 2 ** (3 * k + t + 1)))
                    for k in range(12)] for t in range(threads_n)]

    y, xs = build()
    expected = [[try_apart(x, y, 80) for x in row] for row in xs]
    y, xs = build()
    assert race(lambda t: [try_apart(x, y, 80) for x in xs[t]], threads_n) == expected
    assert None not in sum(expected, [])


@pytest.mark.parametrize("q,text", [
    (Fraction(1, 3 ** 10000), "1/" + _decimal(3 ** 10000)),  # over 4,300 digits
    (5, "5"), (Fraction(5), "5"), (Fraction(1, 9), "1/9"), (Fraction(-1, 9), "-1/9"),
], ids=["huge", "int", "whole", "ninth", "negative"])
def test_an_oracle_point_outside_the_middle_third_is_named_in_full(q, text):
    # Printed as str(q) prints it, with no limit on the digits of its integers.
    f, y = identity_map(), CReal.from_rational(half)
    w = Apartness(Direction.LESS, LtWitness(0))
    with pytest.raises(ValueError) as info:
        ivt_locally_nonconstant(f, y, lambda a, b: (q, w), depth=1)
    assert str(info.value) == f"oracle point {text} outside the middle third (1/3, 2/3)"
