import itertools
import random

import pytest

from conftest import coverage_oracle
from conreal import (CounterStrategyPrefix, DecidableBar, GameSpec2Omega,
                     GameSpecOmega2, NotBarWithinDepth, TooLarge, WinningMove,
                     answer_strategy_2omega, fans, finite_subbar, solve_omega2)


def _is_prefix(s, t):
    return t[:len(s)] == s


def test_uniform_bar():
    outcome = finite_subbar(DecidableBar(lambda s: len(s) == 3, 4))
    expected = list(itertools.product((0, 1), repeat=3))
    assert outcome == expected


def test_not_a_bar_reports_all_zero_path():
    # "Contains a 1 among the first 4 entries" misses the all-zero sequence.
    outcome = finite_subbar(DecidableBar(lambda s: 1 in s[:4], 6))
    assert isinstance(outcome, NotBarWithinDepth)
    assert outcome.path == (0,) * 6


def test_empty_bar():
    outcome = finite_subbar(DecidableBar(lambda s: False, 2))
    assert isinstance(outcome, NotBarWithinDepth)
    assert outcome.path == (0, 0)


def test_root_in_bar():
    outcome = finite_subbar(DecidableBar(lambda s: True, 5))
    assert outcome == [()]


def _random_predicate(rng):
    table = {}

    def pred(s):
        key = tuple(s)
        if key not in table:
            table[key] = rng.random() < 0.22
        return table[key]

    return pred


def test_subbar_against_coverage_oracle():
    rng = random.Random(71)
    for _ in range(120):
        depth = rng.randint(1, 6)
        pred = _random_predicate(rng)
        outcome = finite_subbar(DecidableBar(pred, depth))
        if isinstance(outcome, NotBarWithinDepth):
            assert not coverage_oracle(pred, depth)
            path = list(outcome.path)
            assert len(path) == depth
            assert not any(pred(path[:i]) for i in range(depth + 1))
        else:
            assert coverage_oracle(pred, depth)
            for element in outcome:
                assert pred(element)
            for a, b in itertools.combinations(outcome, 2):
                assert not _is_prefix(a, b) and not _is_prefix(b, a)
            for bits in itertools.product((0, 1), repeat=depth):
                assert any(_is_prefix(element, bits) for element in outcome)


def test_solve_omega2_examples():
    g = GameSpecOmega2(lambda n, i: n == 3, 5)
    assert solve_omega2(g) == WinningMove(3)
    g = GameSpecOmega2(lambda n, i: i == 0, 4)
    assert solve_omega2(g) == CounterStrategyPrefix((1, 1, 1, 1))
    g = GameSpecOmega2(lambda n, i: False, 3)
    assert solve_omega2(g) == CounterStrategyPrefix((0, 0, 0))


def test_solve_omega2_dichotomy_random():
    rng = random.Random(5)
    for _ in range(120):
        bound = rng.randint(1, 16)
        table = {(n, i): rng.random() < 0.3 for n in range(bound) for i in (0, 1)}
        g = GameSpecOmega2(lambda n, i, t=table: t[(n, i)], bound)
        outcome = solve_omega2(g)
        if isinstance(outcome, WinningMove):
            assert table[(outcome.move, 0)] and table[(outcome.move, 1)]
        else:
            assert len(outcome.moves) == bound
            for n, reply in enumerate(outcome.moves):
                assert not table[(n, reply)]


def test_answer_strategy_examples():
    g = GameSpec2Omega(lambda i, n: n % 2 == 0)
    assert answer_strategy_2omega(g, 2, 3) == 0
    g = GameSpec2Omega(lambda i, n: False)
    assert answer_strategy_2omega(g, 7, 9) is None
    g = GameSpec2Omega(lambda i, n: i == 1)
    assert answer_strategy_2omega(g, 0, 0) == 1


def test_bad_depth():
    with pytest.raises(ValueError):
        finite_subbar(DecidableBar(lambda path: True, -1))


def test_work_budget_boundary(monkeypatch):
    # A bar with no elements walks straight down: the k-th member test counts
    # k, so depth d costs (d+1)(d+2)/2, which is 105 at depth 13.
    monkeypatch.setattr(fans, "_WORK_BUDGET", 105)
    calls = []

    def member(path):
        calls.append(path)
        return False

    assert finite_subbar(DecidableBar(member, 13)) == NotBarWithinDepth((0,) * 13)
    calls.clear()
    with pytest.raises(TooLarge, match="budget of 105 path entries"):
        finite_subbar(DecidableBar(member, 14))
    assert len(calls) == 14


def test_work_budget_of_a_full_bar(monkeypatch):
    # Every sequence of length K is in the bar: K * 2^(K+1) + 1 in all.
    k = 6
    bar = DecidableBar(lambda s: len(s) == k, k)
    monkeypatch.setattr(fans, "_WORK_BUDGET", k * 2 ** (k + 1) + 1)
    assert len(finite_subbar(bar)) == 2 ** k
    monkeypatch.setattr(fans, "_WORK_BUDGET", k * 2 ** (k + 1))
    with pytest.raises(TooLarge):
        finite_subbar(bar)
