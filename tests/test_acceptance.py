"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either pinned from an independent oracle computed
here (Machin pi digits, exhaustive coverage/coloring checks, integer square
roots) or re-verified against raw interval data.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import io
import itertools
import math
import pathlib
import random
import time
from fractions import Fraction

from cli_cases import CASES
from conftest import (avoiding_oracle, coverage_oracle, fuel_for, machin_pi_digits,
                      random_real_tree)
from conreal import (CReal, DecidableBar, Direction, DicksonInstance,
                     GameSpecOmega2, NatStream, NotBarWithinDepth,
                     WinningMove, arrow_check, arrow_star_check, certified_within,
                     concat, cotrans_split, decode, diagonal, dickson_witness,
                     encode, f0, finite_subbar, fugitive_least, identity_map,
                     is_prefix, ivt_locally_nonconstant, middle_third_oracle,
                     pair, pattern_indicator, pi_digits, solve_omega2, sqrt2,
                     sqrt2_irrationality_witness, try_apart, try_lt, unpair,
                     verify_lt)
from conreal.cli import run as cli_run
from conreal.real import SplitSide


def _report(label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS  {label} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s over the {budget}s budget"


def test_c01_interval_invariants():
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(500):
        x, rate, _ = random_real_tree(rng, rng.randint(0, 5))
        previous = x.interval(0)
        for n in range(21):
            iv = x.interval(n)
            assert previous.lo <= iv.lo <= iv.hi <= previous.hi
            assert iv.width <= rate * Fraction(1, 2 ** n)
            previous = iv
        x.approx(20, fuel_for(rate, 20))  # never exhausts at the computed rate
    _report("1. interval invariants: 500 random trees, indices 0..20", started, 10.0)


def test_c02_rational_homomorphism():
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(200):
        p = Fraction(rng.randint(-100, 100), rng.randint(1, 30))
        q = Fraction(rng.randint(-100, 100), rng.randint(1, 30))
        op = rng.choice(("add", "sub", "mul"))
        if op == "add":
            real, exact = CReal.from_rational(p) + CReal.from_rational(q), p + q
        elif op == "sub":
            real, exact = CReal.from_rational(p) - CReal.from_rational(q), p - q
        else:
            real, exact = CReal.from_rational(p) * CReal.from_rational(q), p * q
        assert real.approx(20, 64).contains(exact)
    _report("2. rational homomorphism: 200 triples at p=20", started)


def test_c03_cotransitivity():
    started = time.perf_counter()
    rng = random.Random(303)
    for _ in range(500):
        x, cx, _ = random_real_tree(rng, 2)
        delta = Fraction(rng.randint(1, 16), rng.randint(1, 8))
        y = x + CReal.from_rational(delta)
        w = try_lt(x, y, fuel_for(2 * cx + 2, 8) + 10)
        assert w is not None and verify_lt(x, y, w)
        z, _, _ = random_real_tree(rng, 2)
        split = cotrans_split(x, y, w, z)
        if split.side is SplitSide.LEFT_IS_LESS:
            assert verify_lt(x, z, split.witness)
        else:
            assert verify_lt(z, y, split.witness)
    _report("3. co-transitivity: 500 splits, carried witnesses re-verified", started)


def test_c04_cantor_diagonal():
    started = time.perf_counter()
    rng = random.Random(44)
    for _ in range(50):
        reals = [random_real_tree(rng, 2)[0] for _ in range(50)]
        d = diagonal(lambda n, rs=reals: rs[n])
        for n in range(50):
            found = try_apart(d, reals[n], 60)
            assert found is not None
            if found.direction is Direction.LESS:
                assert verify_lt(d, reals[n], found.witness)
            else:
                assert verify_lt(reals[n], d, found.witness)
    _report("4. Cantor diagonal: 50 sequences x 50 reals, fuel 60", started, 30.0)


def test_c05_sqrt2_positive_irrationality():
    started = time.perf_counter()
    rng = random.Random(55)
    root = sqrt2()
    for _ in range(100):
        n = rng.randint(1, 10 ** 6)
        m = rng.randint(1, 3 * 10 ** 6)
        p = sqrt2_irrationality_witness(m, n)
        gap = abs(root - CReal.from_rational(Fraction(m, n)))
        bits = p.bit_length() + 6
        iv = gap.approx(bits, bits + 10)
        assert iv.lo >= Fraction(1, p)
    _report("5. sqrt2 positively irrational: 100 witnesses interval-certified", started, 5.0)


def test_c06_pi_digits():
    started = time.perf_counter()
    oracle = machin_pi_digits(50)
    stream = pi_digits()
    assert [stream[i] for i in range(50)] == oracle
    _report("6. pi digits: first 50 match the Machin oracle", started)


def test_c07_approximate_ivt():
    from conreal import approx_ivt
    started = time.perf_counter()
    f = f0(pattern_indicator(pi_digits(), 7, 1))
    y = CReal.from_rational(Fraction(1, 2))
    x = approx_ivt(f, y, 8, 128)
    assert certified_within(f, x, y, 8, 64)
    mid = time.perf_counter()
    assert mid - started < 5.0
    g = identity_map()
    y2 = CReal.from_rational(Fraction(1, 3))
    x2 = approx_ivt(g, y2, 12, 128)
    assert certified_within(g, x2, y2, 12, 64)
    assert time.perf_counter() - mid < 5.0
    _report("7. approximate IVT: f0(7,1) at p=8 and identity at p=12, certified", started)


def test_c08_thirds_ivt():
    started = time.perf_counter()
    f = identity_map()
    y = CReal.from_rational(Fraction(1, 4))
    x = ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, 64), depth=20)
    assert x.interval(20).width <= Fraction(2, 3) ** 20
    assert certified_within(f, x, y, 10, 64, 20)
    _report("8. thirds IVT: identity, y=1/4, depth 20, certificate passes", started)


def test_c09_fan_extraction():
    started = time.perf_counter()
    rng = random.Random(909)
    for _ in range(200):
        depth = rng.randint(1, 6)
        table = {}

        def pred(s, t=table):
            key = tuple(s)
            if key not in t:
                t[key] = rng.random() < 0.25
            return t[key]

        outcome = finite_subbar(DecidableBar(pred, depth))
        if isinstance(outcome, NotBarWithinDepth):
            assert not coverage_oracle(pred, depth)
            assert not any(pred(list(outcome.path[:i])) for i in range(depth + 1))
        else:
            assert coverage_oracle(pred, depth)
            assert all(pred(element) for element in outcome)
            for bits in itertools.product((0, 1), repeat=depth):
                assert any(bits[:len(element)] == element for element in outcome)
    uniform = finite_subbar(DecidableBar(lambda path: len(path) == 3, 4))
    assert isinstance(uniform, list) and len(uniform) == 8
    empty = finite_subbar(DecidableBar(lambda path: False, 5))
    assert isinstance(empty, NotBarWithinDepth) and empty.path == (0,) * 5
    _report("9. fan extraction: 200 bars vs coverage oracle, uniform and empty cases", started)


def test_c10_games():
    started = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(200):
        bound = rng.randint(1, 16)
        table = {(n, i): rng.random() < 0.35 for n in range(bound) for i in (0, 1)}
        outcome = solve_omega2(GameSpecOmega2(lambda n, i, t=table: t[(n, i)], bound))
        if isinstance(outcome, WinningMove):
            assert table[(outcome.move, 0)] and table[(outcome.move, 1)]
        else:
            assert all(not table[(n, reply)] for n, reply in enumerate(outcome.moves))
    spec = pattern_indicator(pi_digits(), 9, 1)
    k = fugitive_least(spec, 64)
    assert k == 4
    fugitive_game = GameSpecOmega2(lambda n, i, kk=k: n == kk, 10)
    assert solve_omega2(fugitive_game) == WinningMove(4)
    _report("10. games: 200 dichotomies re-verified, fugitive example wins at 4", started)


def test_c11_ramsey_boundary_and_star():
    started = time.perf_counter()
    assert arrow_check(6, 3, 2, 2) is True
    assert arrow_check(5, 3, 2, 2) is False
    # Star checker vs the independent oracle on a documented guard-sized family:
    # all k <= n <= M with M <= 6 for r = 2 and M <= 4 for r = 3, instances
    # with r^C(M,k) <= 2^16.
    checked = 0
    for r, m_cap in ((2, 6), (3, 4)):
        for M in range(1, m_cap + 1):
            for k in range(1, M + 1):
                if r ** math.comb(M, k) > 2 ** 16:
                    continue
                for n in range(k, M + 1):
                    assert arrow_star_check(M, n, k, r) is (avoiding_oracle(M, n, k, r, True) is None)
                    checked += 1
    assert checked >= 50
    _report(f"11. Ramsey: boundary 6->(3) vs 5-/>(3), star agrees on {checked} instances",
            started, 60.0)


def test_c12_dickson():
    started = time.perf_counter()
    rng = random.Random(1212)
    for _ in range(100):
        p = rng.choice((2, 3))
        lists = [[rng.randint(0, 10) for _ in range(rng.randint(1, 10))] for _ in range(p)]
        inst = DicksonInstance(tuple(NatStream.eventually_constant(v) for v in lists))
        first = dickson_witness(inst, 64)
        assert first is not None
        again = dickson_witness(
            DicksonInstance(tuple(NatStream.eventually_constant(v) for v in lists)), 64)
        assert first == again  # pinned scan order, deterministic
        i, j = first
        assert i < j and all(s[i] <= s[j] for s in inst.sequences)
    _report("12. Dickson: 100 instances, witnesses re-verified, deterministic", started)


def test_c13_coding():
    started = time.perf_counter()
    rng = random.Random(1313)
    for _ in range(1000):
        values = [rng.randint(0, 6) for _ in range(rng.randint(0, 8))]
        assert decode(encode(values)) == values
    for _ in range(100):
        a, b, c = (encode([rng.randint(0, 4) for _ in range(rng.randint(0, 4))])
                   for _ in range(3))
        assert concat(concat(a, b), c) == concat(a, concat(b, c))
        assert concat(0, a) == a and concat(a, 0) == a
        assert is_prefix(a, a)
        if is_prefix(a, b) and is_prefix(b, a):
            assert a == b
        if is_prefix(a, b) and is_prefix(b, c):
            assert is_prefix(a, c)
    for m in range(64):
        for n in range(64):
            assert unpair(pair(m, n)) == (m, n)
    _report("13. coding: 1000 round trips, monoid and order laws, pairs to 64", started)


def test_c14_cli_determinism():
    started = time.perf_counter()
    golden_dir = pathlib.Path(__file__).parent / "golden"
    # Every case forward, then backward, in one process: the parser built for the
    # first call serves all the others, and no call leaves state that changes another.
    for name, argv, expected_code in CASES + CASES[::-1]:
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(argv, out, err)
        assert code == expected_code, (name, err.getvalue())
        assert out.getvalue() == (golden_dir / f"{name}.txt").read_text(), name
    # One golden file per case: a file whose case is gone would never be read.
    assert sorted(p.stem for p in golden_dir.glob("*.txt")) == sorted(name for name, _, _ in CASES)
    covered = {argv[0] for _, argv, _ in CASES} | {argv[1] for _, argv, _ in CASES
                                                   if argv[0].startswith("--")}
    assert {"eval", "pi", "hunt", "encode", "decode", "ivt", "subbar", "game",
            "euclid", "dickson", "ramsey"} <= covered
    _report("14. CLI determinism: all subcommands golden, byte-identical twice", started)
