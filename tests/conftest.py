"""Shared test oracles and generators.

The pi oracle is an independent fixed-precision Machin computation (the
library stream sums the Chudnovsky series by binary splitting in doubling
batches, so the two methods cross-check).
The expression-tree generator produces random constructive reals together
with exact dwindling-rate and magnitude bounds derived from the tree shape.

Every test runs under a time limit of 60 s: a test that hangs fails with
``TimeoutError`` instead of stalling the run.  Every threaded test runs its
threads through ``race`` and has "racing" in its name, so that ``-k racing``
selects them all.
"""

from __future__ import annotations

import functools
import itertools
import random
import signal
import sys
import threading
from fractions import Fraction

import pytest

from conreal import CReal, FugitiveSpec, NatStream, rho0, rho1, sqrt2, streams

_TIME_LIMIT_S = 60  # about 20 times the slowest test


@pytest.fixture(autouse=True)
def _time_limit():
    """Arm a real-time timer for the test and disarm it after.  Only where
    SIGALRM exists, and only in the main thread, which receives the signal."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(_signum, _frame):
        raise TimeoutError(f"test ran past its time limit of {_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def race(work, threads_n: int) -> list:
    """[work(0), ..., work(threads_n - 1)], each run in its own thread.

    One barrier releases the threads together, under a switch interval of
    1 us, restored after, so that the interpreter switches threads often.
    Each thread gets 30 s to finish.  A worker's exception is raised again
    here, the first in thread order.
    """
    barrier = threading.Barrier(threads_n)
    outcomes = [None] * threads_n

    def run(k):
        try:
            barrier.wait()
            outcomes[k] = (True, work(k))
        except BaseException as error:  # raised again in the test's thread
            outcomes[k] = (False, error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for done, value in outcomes:
        if not done:
            raise value
    return [value for _, value in outcomes]


cached_pi_floor = functools.cache(streams._pi_floor)  # each batch computed once per session


@pytest.fixture
def pi_batches(monkeypatch) -> list[int]:
    """The sizes streams._pi_floor is called with during the test, in call order.
    Each size is served from ``cached_pi_floor``."""
    sizes = []
    monkeypatch.setattr(streams, "_pi_floor", lambda size: sizes.append(size) or cached_pi_floor(size))
    return sizes


def coverage_oracle(pred, depth) -> bool:
    """Brute force: does every binary sequence of length depth meet the bar?"""
    for bits in itertools.product((0, 1), repeat=depth):
        if not any(pred(list(bits[:i])) for i in range(depth + 1)):
            return False
    return True


def arrow_star_oracle(M, n, k, r) -> bool:
    """Independent per-coloring check using tuple colorings and direct search."""
    slots = list(itertools.combinations(range(M), k))
    for colors in itertools.product(range(r), repeat=len(slots)):
        table = dict(zip(slots, colors))
        if not any(
            len({table[u] for u in itertools.combinations(t, k)}) <= 1
            for p in range(n, M)
            for rest in itertools.combinations(range(p + 1, M), p - 1)
            for t in [(p,) + rest]
        ):
            return False
    return True


def machin_pi_digits(n: int) -> list[int]:
    """First n decimal digits of pi after the point, by Machin's formula."""
    scale = 10 ** (n + 10)

    def atan_inv(x: int) -> int:
        # power is scale // x^(2k+1): floor(floor(a / b) / c) == floor(a / (b * c)).
        total, power, k = 0, scale // x, 0
        while power // (2 * k + 1):
            term = power // (2 * k + 1)
            total += term if k % 2 == 0 else -term
            k += 1
            power //= x * x
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    return [int(c) for c in _decimal(pi)[1:n + 1]]


def _decimal(n: int) -> str:
    """str(n) for a natural n of any length: Python 3.11 refuses str() of an
    int over 4300 digits, so this converts 4000 digits at a time."""
    chunk = 10 ** 4000
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(str(low).zfill(4000))
    parts.append(str(n))
    return "".join(reversed(parts))


@pytest.fixture(scope="session")
def pi_oracle_120() -> list[int]:
    return machin_pi_digits(120)


def random_indicator(rng: random.Random) -> FugitiveSpec:
    """Indicator with a random 0/1 prefix and a constant tail (may never fire)."""
    prefix = [rng.randint(0, 1) if rng.random() < 0.4 else 0 for _ in range(rng.randint(1, 12))]
    tail = rng.choice([0, 1])
    return FugitiveSpec(NatStream.eventually_constant(prefix, tail))


def spike(position: int | None) -> FugitiveSpec:
    """The fugitive firing at ``position`` alone, or never for None."""
    return FugitiveSpec(NatStream.from_function(
        lambda j: 1 if position is not None and j == position else 0))


def same(new, old) -> bool:
    """Equal rationals with the same numerator, denominator and type."""
    return (new == old and type(new) is type(old)
            and (new.numerator, new.denominator) == (old.numerator, old.denominator))


def same_interval(new, old) -> bool:
    """Intervals of one type whose ends are the ``same``."""
    return type(new) is type(old) and all(same(u, v) for u, v in zip(new, old))


def random_real_tree(rng: random.Random, depth: int) -> tuple[CReal, Fraction, Fraction]:
    """A random expression tree; returns (real, rate, magnitude).

    ``rate`` bounds the width at index n by rate * 2^-n, ``magnitude``
    bounds both endpoints of every interval in absolute value.
    """
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(["rational", "rational", "rho0", "rho1", "sqrt2"])
        if kind == "rational":
            q = Fraction(rng.randint(-16, 16), rng.randint(1, 16))
            return CReal.from_rational(q), Fraction(2), abs(q) + 1
        if kind == "rho0":
            return rho0(random_indicator(rng)), Fraction(2), Fraction(1)
        if kind == "rho1":
            return rho1(random_indicator(rng)), Fraction(2), Fraction(1)
        return sqrt2(), Fraction(1), Fraction(2)
    op = rng.choice(["add", "sub", "mul", "abs"])
    x, cx, mx = random_real_tree(rng, depth - 1)
    if op == "abs":
        return abs(x), cx, mx
    y, cy, my = random_real_tree(rng, depth - 1)
    if op == "add":
        return x + y, cx + cy, mx + my
    if op == "sub":
        return x - y, cx + cy, mx + my
    return x * y, mx * cy + my * cx, mx * my


def fuel_for(rate: Fraction, p: int) -> int:
    """Fuel making approx at precision p safe for a real of the given rate."""
    extra = 0
    scaled = Fraction(1)
    while scaled < rate:
        scaled *= 2
        extra += 1
    return p + extra + 1
