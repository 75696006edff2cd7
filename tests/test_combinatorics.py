import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import avoiding_oracle, relatively_large
from conreal import (Coloring, DicksonInstance, NatStream, TooLarge,
                     almost_full_witness, arrow_check, arrow_star_check,
                     avoiding_coloring, dickson_witness, euclid_extend,
                     monochromatic_witness)
from conreal.combinatorics import _colorings_exceed_guard


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_euclid_examples():
    assert euclid_extend([2, 3, 5]) == 31
    assert euclid_extend([2, 3, 5, 7, 11, 13]) == 59  # 30031 = 59 * 509
    assert euclid_extend([2]) == 3


def test_euclid_rejects_composites():
    with pytest.raises(ValueError):
        euclid_extend([2, 4])
    with pytest.raises(ValueError):
        euclid_extend([])


def test_euclid_output_is_new_prime():
    rng = random.Random(13)
    primes = [p for p in range(2, 200) if _is_prime(p)]
    for _ in range(25):
        qs = rng.sample(primes, rng.randint(1, 6))
        q = euclid_extend(qs)
        assert _is_prime(q)
        assert all(math.gcd(q, given) == 1 for given in qs)
        assert q not in qs


def _streams(*lists):
    return tuple(NatStream.eventually_constant(v) for v in lists)


def test_dickson_examples():
    inst = DicksonInstance(_streams([3, 2, 1, 0, 0]))
    assert dickson_witness(inst, 16) == (3, 4)
    inst = DicksonInstance(_streams([0, 1, 2, 3], [0, 1, 2, 3]))
    assert dickson_witness(inst, 16) == (0, 1)
    inst = DicksonInstance(_streams([1, 0, 1, 0, 1], [0, 1, 0, 1, 0]))
    assert dickson_witness(inst, 16) == (0, 2)


def test_dickson_validation():
    with pytest.raises(ValueError):
        DicksonInstance(())
    with pytest.raises(ValueError):
        dickson_witness(DicksonInstance(_streams([0])), 1)


def _dickson_oracle(lists, fuel):
    # Independent scan over explicit lists in the documented order.
    def value(seq, i):
        return seq[i] if i < len(seq) else seq[-1]
    for j in range(1, fuel):
        for i in range(j):
            if all(value(seq, i) <= value(seq, j) for seq in lists):
                return i, j
    return None


@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=30), min_size=1, max_size=4),
       st.integers(2, 40))
def test_dickson_matches_brute_force(lists, fuel):
    inst = DicksonInstance(_streams(*lists))
    assert dickson_witness(inst, fuel) == _dickson_oracle(lists, fuel)


def test_arrow_one_color():
    for n in range(1, 5):
        assert arrow_check(n, n, min(n, 2), 1) is True


def test_arrow_validation_and_guard():
    with pytest.raises(ValueError):
        arrow_check(3, 4, 2, 2)
    with pytest.raises(TooLarge):
        arrow_check(20, 3, 2, 2)


def test_coloring_guard_matches_the_count():
    # r^C > 2^30 exactly when r^min(C, 31) > 2^30, as 2^31 > 2^30: the full power
    # would have up to 10^11 digits.
    for M in range(1, 41):
        for k in range(1, M + 1):
            for r in range(1, 6):
                expected = r ** min(math.comb(M, k), 31) > 2 ** 30
                assert _colorings_exceed_guard(M, k, r) is expected, (M, k, r)
    assert not _colorings_exceed_guard(10 ** 9, 10 ** 9, 2 ** 30)
    assert _colorings_exceed_guard(10 ** 9, 10 ** 9, 2 ** 30 + 1)


def _pentagon_coloring():
    # Edges of the 5-cycle get color 0, diagonals color 1: no mono triangle.
    def assign(t):
        a, b = t
        return 0 if (b - a) % 5 in (1, 4) else 1
    return Coloring(2, 2, assign)


def test_monochromatic_witness_examples():
    constant = Coloring(2, 2, lambda t: 0)
    assert monochromatic_witness(constant, 5, 3) == ((0, 1, 2), 0)
    assert monochromatic_witness(_pentagon_coloring(), 5, 3) is None


def test_k6_always_has_mono_triangle():
    rng = random.Random(37)
    for _ in range(30):
        table = {t: rng.randint(0, 1) for t in itertools.combinations(range(6), 2)}
        c = Coloring(2, 2, lambda t, tab=table: tab[t])
        found = monochromatic_witness(c, 6, 3)
        assert found is not None
        t, color = found
        assert all(table[u] == color for u in itertools.combinations(t, 2))


def test_arrow_star_smallest_for_one():
    # The least M with the relatively-large property at (n, k, r) = (1, 1, 2),
    # computed by the independent oracle, is 2.
    verdicts = [avoiding_oracle(M, 1, 1, 2, True) is None for M in range(1, 5)]
    assert verdicts == [False, True, True, True]
    assert [arrow_star_check(M, 1, 1, 2) for M in range(1, 5)] == verdicts


def test_arrow_star_direct_instance():
    assert arrow_star_check(3, 1, 1, 1) is True
    assert avoiding_oracle(3, 1, 1, 1, True) is None


def test_arrow_star_monotone_in_M():
    for n, k, r in [(1, 1, 2), (2, 1, 2), (2, 2, 2)]:
        held = False
        for M in range(k, 7):
            if n > M:
                continue
            holds = arrow_star_check(M, n, k, r)
            if held:
                assert holds
            held = held or holds


def test_almost_full_examples():
    identity = NatStream(lambda n: n)
    found = almost_full_witness(lambda values: len(values) >= 1, identity, 3)
    assert found == (0,)
    evens = NatStream(lambda n: 2 * n)
    found = almost_full_witness(_pair_first_even, evens, 4)
    assert found == (0, 1)
    assert almost_full_witness(lambda values: False, identity, 4) is None


def _pair_first_even(values):
    return len(values) == 2 and values[0] % 2 == 0


def test_almost_full_requires_increasing():
    decreasing = NatStream(lambda n: 10 - n if n < 10 else n)
    with pytest.raises(ValueError):
        almost_full_witness(lambda values: True, decreasing, 5)


def test_almost_full_found_reverifies():
    rng = random.Random(41)
    member_table = {}

    def member(values):
        if values not in member_table:
            member_table[values] = rng.random() < 0.1
        return member_table[values]

    zeta = NatStream(lambda n: 3 * n + 1)
    found = almost_full_witness(member, zeta, 6)
    if found is not None:
        assert member(tuple(zeta[i] for i in found))


def test_arrow_monotone_in_M():
    # Once the plain arrow relation holds it keeps holding as M grows.
    for n, k, r in [(2, 1, 2), (2, 2, 2), (3, 2, 2)]:
        held = False
        for M in range(n, 7):
            holds = arrow_check(M, n, k, r)
            if held:
                assert holds
            held = held or holds


def test_monochromatic_witness_matches_counterexample_status():
    # NotFound exactly characterizes counterexample colorings: cross-check
    # against a direct search over all n-subsets.
    rng = random.Random(53)
    M, n, k = 5, 3, 2
    for _ in range(60):
        table = {t: rng.randint(0, 1) for t in itertools.combinations(range(M), k)}
        c = Coloring(2, k, lambda t, tab=table: tab[t])
        found = monochromatic_witness(c, M, n)
        brute = any(
            len({table[u] for u in itertools.combinations(t, k)}) == 1
            for t in itertools.combinations(range(M), n)
        )
        assert (found is not None) == brute


def test_ramsey_search_matches_enumeration():
    cases = 0
    for M in range(1, 13):
        for k in range(1, M + 1):
            for r in range(1, 5):
                if r ** math.comb(M, k) > 2 ** 12:
                    continue
                for n in range(k, M + 1):
                    for star, check in ((False, arrow_check), (True, arrow_star_check)):
                        first = avoiding_oracle(M, n, k, r, star)
                        assert check(M, n, k, r) is (first is None), (M, n, k, r, star)
                        assert avoiding_coloring(M, n, k, r, star) == first, (M, n, k, r, star)
                        cases += 1
    assert cases == 1156


def test_ramsey_search_beyond_enumeration():
    assert arrow_check(7, 3, 2, 2) is True
    assert arrow_star_check(8, 3, 2, 2) is False
    # One color and 3160 slots: the search walks every slot without recursing.
    assert arrow_check(80, 3, 2, 1) is True


def _as_coloring(M, k, r, colors):
    table = dict(zip(itertools.combinations(range(M), k), colors, strict=True))
    return Coloring(r, k, table.__getitem__)


def test_avoiding_colorings_have_no_monochromatic_witness():
    # The evidence for "holds: false" is checked again by the independent witness
    # search: over every increasing n-tuple, or under --star over each relatively
    # large tuple t alone (the coloring read through t, as a coloring of range(len(t))).
    found = {False: 0, True: 0}
    instances = [(M, n, k, r) for M in range(1, 9) for k in range(1, M + 1) for r in range(1, 4)
                 if r ** math.comb(M, k) <= 2 ** 16 for n in range(k, M + 1)]
    for (M, n, k, r), star in itertools.product(instances + [(8, 3, 2, 2)], (False, True)):
        colors = avoiding_coloring(M, n, k, r, star)
        if colors is None:
            continue
        found[star] += 1
        c = _as_coloring(M, k, r, colors)
        if not star:
            assert monochromatic_witness(c, M, n) is None, (M, n, k, r)
            continue
        for t in relatively_large(M, n):
            through_t = Coloring(r, k, lambda u, t=t: c.assign(tuple(t[i] for i in u)))
            assert monochromatic_witness(through_t, len(t), len(t)) is None, (M, n, k, r, t)
    assert found[False] > 50 and found[True] > 50
    # The pentagon, as ramsey --M 5 --n 3 --k 2 --r 2 --format json prints it.
    assert avoiding_coloring(5, 3, 2, 2) == [0, 0, 1, 1, 1, 0, 1, 1, 0, 0]
