"""Shared test oracles and generators.

Each layer of the library has one oracle here, written from what the layer
means, not from how it is computed: ``least_index`` for scans, ``tree_reader``
(exact interval arithmetic over the trees that ``tree_real`` builds) for
arithmetic, ``pwl_oracle`` for pwl maps, ``ivt_oracle`` for the three
intermediate-value procedures, ``subbar_oracle`` and ``coverage_oracle`` for
subbars, ``avoiding_oracle`` for colorings, ``decode_oracle`` for sequence
codes.  The pi oracle is an independent fixed-precision Machin computation
(the library stream sums the Chudnovsky series by binary splitting in
doubling batches, so the two methods cross-check).  ``logged`` records the
reads of a real or a stream, and ``outcome`` turns a call into its value or
its error.  Random reals come from one hypothesis strategy, ``tree_graphs``:
a pool of such trees with shared subtrees, which ``tree_real`` and
``tree_reader`` read.

Every test runs under a time limit of 60 s, or of the seconds its
``time_limit`` marker gives: a test that hangs fails with ``TimeoutError``
instead of stalling the run.  Every threaded test runs its
threads through ``race`` and has "racing" in its name, so that ``-k racing``
selects them all.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import signal
import sys
import threading
import types
from fractions import Fraction

import pytest
from hypothesis import event
from hypothesis import strategies as st

from conreal import (Apartness, ContinuousMap, CReal, Direction, FuelExhausted, FugitiveSpec,
                     LtWitness, NatStream, NotBarWithinDepth, PiecewiseLinearSpec, RationalInterval,
                     Split, SplitSide, TooLarge, pwl, rho0, rho1, sqrt2, streams)
from conreal.real import half_pow, half_pow_text

_TIME_LIMIT_S = 60  # about 20 times the slowest test


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Arm a real-time timer for the test, of the seconds of its ``time_limit``
    marker or else 60, and disarm it after.  Only where SIGALRM exists, and only
    in the main thread, which receives the signal."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return
    marker = request.node.get_closest_marker("time_limit")
    seconds = marker.args[0] if marker else _TIME_LIMIT_S

    def expire(_signum, _frame):
        raise TimeoutError(f"test ran past its time limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
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


def subbar_oracle(in_bar, depth: int, budget: int):
    """``finite_subbar`` by enumerating paths: its walk visits, in lexicographic order (a
    path before its extensions), the paths of length <= depth with no proper prefix in the
    bar, up to the first one of full length not in it.  Returns (answer, visits): the visited
    paths in the bar, or that uncovered path as NotBarWithinDepth, or TooLarge when a visit,
    each costing its length + 1, would pass the budget; the visits then end before it."""
    paths = [path for d in range(depth + 1) for path in itertools.product((0, 1), repeat=d)]
    open_ = {(): True}  # no proper prefix in the bar; paths come shortest first
    for path in paths[1:]:
        open_[path] = open_[path[:-1]] and not in_bar(path[:-1])
    visits, work = [], 0
    for path in sorted(path for path in paths if open_[path]):
        work += len(path) + 1
        if work > budget:
            return TooLarge, visits
        visits.append(path)
        if len(path) == depth and not in_bar(path):
            return NotBarWithinDepth(path), visits
    return [path for path in visits if in_bar(path)], visits


def relatively_large(M: int, n: int) -> list[tuple[int, ...]]:
    """The increasing tuples t of range(M) at least n long whose length is their least entry."""
    return [(p,) + rest for p in range(n, M) for rest in itertools.combinations(range(p + 1, M), p - 1)]


def avoiding_oracle(M: int, n: int, k: int, r: int, star: bool) -> list[int] | None:
    """By enumeration: the first coloring, in the lexicographic order of its list of r
    colors, one per k-subset of range(M) in combinations order, under which no n-subset
    (star: no relatively large tuple) has all its k-subsets of one color; None when every
    coloring has one, that is, when the arrow (star) relation holds."""
    slots = list(itertools.combinations(range(M), k))
    index = {s: i for i, s in enumerate(slots)}
    tuples = relatively_large(M, n) if star else itertools.combinations(range(M), n)
    candidates = [[index[u] for u in itertools.combinations(t, k)] for t in tuples]
    for colors in itertools.product(range(r), repeat=len(slots)):
        if not any(len({colors[s] for s in subs}) == 1 for subs in candidates):
            return list(colors)
    return None


_PRIMES = [2]


def decode_oracle(s: int) -> list[int]:
    """The list coded by s, by definition: divide s + 1 by 2, 3, 5, ... one factor
    at a time, count each prime's factors until nothing is left, and take one from
    the last count.  Primes come from trial division by the primes before them."""
    remaining, exponents = s + 1, []
    while remaining > 1:
        if len(exponents) == len(_PRIMES):
            c = _PRIMES[-1] + 1
            while any(c % p == 0 for p in itertools.takewhile(lambda p: p * p <= c, _PRIMES)):
                c += 1
            _PRIMES.append(c)
        p = _PRIMES[len(exponents)]
        exponents.append(0)
        while remaining % p == 0:
            remaining //= p
            exponents[-1] += 1
    if exponents:
        exponents[-1] -= 1
    return exponents


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
    """str(n) for a natural n of any length, 300 digits at a time: str() refuses
    an int over the int-to-str digit limit, 640 digits at its lowest."""
    chunk = 10 ** 300
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(str(low).zfill(300))
    parts.append(str(n))
    return "".join(reversed(parts))


@pytest.fixture(scope="session")
def pi_oracle_120() -> list[int]:
    return machin_pi_digits(120)


def random_indicator(rng: random.Random) -> FugitiveSpec:
    """Indicator with a random 0/1 prefix and a constant tail (may never fire)."""
    prefix = [rng.randint(0, 1) if rng.random() < 0.4 else 0 for _ in range(rng.randint(1, 12))]
    tail = rng.choice([0, 1])
    return FugitiveSpec(NatStream.eventually_constant(prefix + [tail]))


def spike(position: int | None) -> FugitiveSpec:
    """The fugitive firing at ``position`` alone, or never for None."""
    return FugitiveSpec(NatStream(lambda j: 1 if position is not None and j == position else 0))


def slow(v, rate: int):
    """A caller generator of v -+ 2^-(n // rate): its width halves every rate indices."""
    return lambda n: RationalInterval(v - half_pow(n // rate), v + half_pow(n // rate))


def same(new, old) -> bool:
    """Equal rationals with the same numerator, denominator and type."""
    return (new == old and type(new) is type(old)
            and (new.numerator, new.denominator) == (old.numerator, old.denominator))


def same_interval(new, old) -> bool:
    """Intervals of one type whose ends are the ``same``."""
    return type(new) is type(old) and all(same(u, v) for u, v in zip(new, old))


def outcome(call):
    """call()'s value, or the (type, message) of the exception it raises."""
    try:
        return call()
    except Exception as error:  # compared, so a wrong error fails the test that compares it
        return type(error), str(error)


def logged(x, log: list | None = None):
    """x, a CReal or a NatStream, now appending to ``x.log`` (``log``, or a new list)
    the index of each of its reads: a real's triple reads ``_ends(n)``, which every
    scan and comparison makes, or a stream's ``x[n]``.  Returns x."""
    x.__class__ = _logging(type(x))
    x.log = [] if log is None else log
    return x


@functools.cache
def _logging(base: type) -> type:
    """The subclass of base that logs each read."""
    name = "_ends" if issubclass(base, CReal) else "__getitem__"
    read = getattr(base, name)

    def logging(self, n):
        self.log.append(n)
        return read(self, n)
    return type("Logged" + base.__name__, (base,), {name: logging})


def recording(f):
    """f behind a map built by hand (so a point is read by ``enclose``), and the list of
    the (interval, precision) pairs it encloses."""
    calls = []

    def enclose(iv, p):
        calls.append((iv, p))
        return f.enclose(iv, p)
    return ContinuousMap(enclose, f.modulus), calls


# --- scans: the least index, by brute force ------------------------------------------

def least_index(pred, lo: int, hi: int | None) -> int | None:
    """The least n in lo..hi (hi None: no end) with pred(n), read in order, or None."""
    return next((n for n in (itertools.count(lo) if hi is None else range(lo, hi + 1)) if pred(n)),
                None)


def approx_oracle(read, p: int, fuel: int | None) -> RationalInterval:
    """``approx``: the first of the intervals read(0), ..., read(fuel) of width <= 2^-p."""
    if fuel is not None and fuel < 1:
        raise ValueError("fuel must be >= 1")
    bound = half_pow(p)
    n = least_index(lambda n: read(n).width <= bound, 0, fuel)
    if n is None:
        raise FuelExhausted(f"no interval of width <= {half_pow_text(p)} within {fuel} indices")
    return read(n)


def lt_oracle(x, y, fuel: int) -> LtWitness | None:
    """``try_lt`` over the interval reads x and y: the least index where x lies below y."""
    n = least_index(lambda n: x(n).hi < y(n).lo, 0, fuel)
    return None if n is None else LtWitness(n)


def apart_oracle(x, y, fuel: int) -> Apartness | None:
    """``try_apart`` over the interval reads x and y: the least index where one lies below the other."""
    n = least_index(lambda n: x(n).hi < y(n).lo or y(n).hi < x(n).lo, 0, fuel)
    if n is None:
        return None
    return Apartness(Direction.LESS if x(n).hi < y(n).lo else Direction.GREATER, LtWitness(n))


def split_oracle(x, y, w: LtWitness, z) -> Split:
    """``cotrans_split``: the least index from w's where z is narrower than the gap w shows
    between x and y, and the side of the gap z's interval there lies on."""
    x_hi, y_lo = x(w.index).hi, y(w.index).lo
    n = least_index(lambda n: z(n).width < y_lo - x_hi, w.index, None)
    return Split(SplitSide.LEFT_IS_LESS if x_hi < z(n).lo else SplitSide.RIGHT_IS_LESS, LtWitness(n))


def diagonal_oracle(xs) -> CReal:
    """``diagonal``: interval n + 1 is the third of interval n that avoids input real n, read
    at its least index narrower than 3^-(n+1), within 4(n+2) indices unless it is direct."""
    def step(prev, n):
        lo, hi = prev
        one_third, two_thirds = (2 * lo + hi) / 3, (lo + 2 * hi) / 3
        x = xs(n)
        budget = None if x._direct else 4 * (n + 2)
        m = least_index(lambda m: x.interval(m).width < Fraction(1, 3 ** (n + 1)), 0, budget)
        if m is None:
            raise FuelExhausted(
                f"input real {n} did not dwindle below 3^-{n + 1} within {budget} indices")
        lower = one_third < x.interval(m).lo
        return RationalInterval(lo, one_third) if lower else RationalInterval(two_thirds, hi)
    return CReal.from_steps(RationalInterval(Fraction(0), Fraction(1)), step)


def cantor_oracle(bits) -> CReal:
    """``cantor_point``: interval n + 1 is the lower two thirds of interval n when bit n is 0,
    the upper two thirds when it is 1; a bit of 2 or more is an error."""
    def step(prev, n):
        lo, hi = prev
        b = bits[n]
        if b >= 2:
            raise ValueError(f"cantor_point needs binary values, got {b} at index {n}")
        if b == 0:
            return RationalInterval(lo, (lo + 2 * hi) / 3)
        return RationalInterval((2 * lo + hi) / 3, hi)
    return CReal.from_steps(RationalInterval(Fraction(0), Fraction(1)), step)


# --- interval arithmetic: expression trees, evaluated exactly ----------------------------
#
# A tree is a nested tuple: ("q", q) a rational; ("sqrt2",); ("rho0", spec) or ("rho1", spec)
# over a FugitiveSpec; ("iv", lo, hi) the caller generator of [lo, hi] at every index, its ends
# of any type; ("gen", v, s) the caller generator of [v - s 2^-n, v + s 2^-n], reversed for
# s = -1; ("at", bps, nodes, t) the value at t of the pwl map through the node trees ``nodes``
# at the breakpoints ``bps``; and ("neg", a), ("abs", a), ("+", a, b), ("-", a, b), ("*", a, b).

_UNARY = {"neg": operator.neg, "abs": abs}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_OPERATORS = {**_UNARY, **_BINARY}


def tree_real(t: tuple, made: dict | None = None) -> CReal:
    """The library's real of a tree.  ``made`` holds the reals built so far by the id of
    their subtree, so that a subtree met twice (and a map's nodes) is one real."""
    made = {} if made is None else made
    if id(t) in made:
        return made[id(t)]
    kind, *args = t
    if kind == "q":
        real = CReal.from_rational(args[0])
    elif kind == "sqrt2":
        real = sqrt2()
    elif kind in ("rho0", "rho1"):
        real = (rho0 if kind == "rho0" else rho1)(args[0])
    elif kind in ("iv", "gen"):  # the caller generator of the leaf's intervals
        real = CReal(lambda n: _tree_interval(t, n, None))
    elif kind == "at":
        bps, nodes, point = args
        if id(nodes) not in made:
            made[id(nodes)] = pwl(PiecewiseLinearSpec(bps, tuple(tree_real(u, made) for u in nodes)))
        real = made[id(nodes)].at(point)
    else:
        real = _OPERATORS[kind](*(tree_real(u, made) for u in args))
    made[id(t)] = real
    return real


def tree_direct(t: tuple) -> bool:
    """Whether a tree's real is direct: it has no caller generator."""
    kind, *args = t
    parts = args[1] if kind == "at" else [u for u in args if isinstance(u, tuple)]
    return kind not in ("iv", "gen") and all(map(tree_direct, parts))


def tree_reader(t: tuple, memo: dict | None = None):
    """n -> interval n of a tree's real, by exact rational interval arithmetic on the
    intervals that define its leaves: what the library's integer kernels must compute.
    Memoized per (subtree, n) in ``memo``; an operator's ends are Fractions."""
    memo = {} if memo is None else memo
    return lambda n: _read(t, n, memo)


def _read(t, n, memo):
    key = id(t), n
    if key not in memo:
        memo[key] = _tree_interval(t, n, memo)
    return memo[key]


def tree_node(t: tuple, memo: dict | None = None):
    """A tree as the oracles read a real: its exact ``interval`` reads and ``_direct``."""
    return types.SimpleNamespace(interval=tree_reader(t, memo), _direct=tree_direct(t))


def _tree_interval(t, n, memo):
    kind, *args = t
    if kind == "q":
        q, h = Fraction(args[0]), half_pow(n)
        return RationalInterval(q - h, q + h)
    if kind == "sqrt2":  # the dyadic interval of width 2^-n holding sqrt2
        a = math.isqrt(2 * 4 ** n)
        return RationalInterval(Fraction(a, 2 ** n), Fraction(a + 1, 2 ** n))
    if kind in ("rho0", "rho1"):  # pinned to +-2^-k once the fugitive k is seen
        k = least_index(lambda j: args[0].indicator[j] != 0, 0, n)
        if k is None:
            return RationalInterval(-half_pow(n), half_pow(n))
        v = half_pow(k) if kind == "rho0" or k % 2 == 0 else -half_pow(k)
        return RationalInterval(v, v)
    if kind == "iv":
        return RationalInterval(*args)
    if kind == "gen":
        return RationalInterval(args[0] - args[1] * half_pow(n), args[0] + args[1] * half_pow(n))
    if kind == "at":
        bps, nodes, point = args
        if id(nodes) not in memo:
            memo[id(nodes)] = pwl_oracle(bps, [tree_node(u, memo) for u in nodes])
        return memo[id(nodes)].value(point, n)
    a = _read(args[0], n, memo)
    b = _read(args[1], n, memo) if kind in _BINARY else None
    if kind == "neg":
        lo, hi = -a.hi, -a.lo
    elif kind == "abs":  # {|v| : v in a}
        lo, hi = max(0, a.lo, -a.hi), max(abs(a.lo), abs(a.hi))
    elif kind == "+":
        lo, hi = a.lo + b.lo, a.hi + b.hi
    elif kind == "-":
        lo, hi = a.lo - b.hi, a.hi - b.lo
    else:
        products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        lo, hi = min(products), max(products)
    return RationalInterval(Fraction(lo), Fraction(hi))


_REAL_LEAVES = (lambda rng: ("q", Fraction(rng.randint(-16, 16), rng.randint(1, 16))),) * 2 + (
    lambda rng: ("rho0", random_indicator(rng)),
    lambda rng: ("rho1", random_indicator(rng)),
    lambda rng: ("sqrt2",))


def random_tree(rng: random.Random, depth: int, leaves=_REAL_LEAVES,
                ops=("+", "-", "*", "abs")) -> tuple:
    """A random tree of at most ``depth`` operator levels: a node is a leaf, drawn by one
    of ``leaves``, at depth 0 and otherwise with probability 0.3, else one of ``ops``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)(rng)
    op = rng.choice(ops)
    return (op, *(random_tree(rng, depth - 1, leaves, ops) for _ in range(1 if op in _UNARY else 2)))


def random_real_tree(rng: random.Random, depth: int) -> tuple[CReal, Fraction, Fraction]:
    """A random tree's real, with (rate, magnitude): ``rate`` bounds the width at index
    n by rate * 2^-n, ``magnitude`` bounds both endpoints of every interval in absolute value."""
    t = random_tree(rng, depth)
    return (tree_real(t), *_bounds(t))


def _bounds(t):
    kind, *args = t
    if kind == "q":
        return Fraction(2), abs(args[0]) + 1
    if kind == "sqrt2":
        return Fraction(1), Fraction(2)
    if kind in ("rho0", "rho1"):
        return Fraction(2), Fraction(1)
    (cx, mx), *rest = map(_bounds, args)
    if not rest:
        return cx, mx
    cy, my = rest[0]
    return (mx * cy + my * cx, mx * my) if kind == "*" else (cx + cy, mx + my)


# --- pwl maps: interpolation of node intervals ---------------------------------------

def pwl_oracle(bps, nodes):
    """The pwl map through ``nodes`` at the breakpoints ``bps``, as ``value(t, p)`` and
    ``enclose(iv, p)``.  The value at the rational t and precision p: at t's place lam on a
    piece [b_i, b_i+1] holding it, each end is (1 - lam) and lam of those of the two nodes'
    intervals of width <= 2^-(p+2).  The enclosure: the hull of the values at iv's ends and
    at the breakpoints inside it, the image of iv, as the map is linear between them.  A
    node has ``interval(n)`` and ``_direct``; one that is not direct is read within 96
    indices.  Each node interval is found once per precision."""
    @functools.cache
    def node(k, q):
        return approx_oracle(nodes[k].interval, q, None if nodes[k]._direct else 96)

    def value(t, p):
        i = max(k for k in range(len(bps) - 1) if bps[k] <= t)
        lam = (t - bps[i]) / (bps[i + 1] - bps[i])
        a, b = node(i, p + 2), node(i + 1, p + 2)
        return RationalInterval((1 - lam) * a.lo + lam * b.lo, (1 - lam) * a.hi + lam * b.hi)

    def enclose(iv, p):
        parts = [value(t, p) for t in (iv.lo, *(t for t in bps if iv.lo < t < iv.hi), iv.hi)]
        return RationalInterval(min(part.lo for part in parts), max(part.hi for part in parts))
    return types.SimpleNamespace(value=value, enclose=enclose)


# --- the intermediate-value procedures: one bisection ------------------------------------

def ivt_oracle(pick, depth: int) -> CReal:
    """The point the three procedures build: [0, 1] bisected, [lo, hi] becoming [q, hi] when
    pick(lo, hi) = (q, True), f(q) below y, and [lo, q] when it is (q, False); the first
    ``depth`` steps are taken at once, the others when read."""
    def step(prev, _n):
        q, below = pick(*prev)
        return RationalInterval(q, prev.hi) if below else RationalInterval(prev.lo, q)
    x = CReal.from_steps(RationalInterval(Fraction(0), Fraction(1)), step)
    x.interval(depth)
    return x


def approx_pick(f_at, y, p: int, fuel: int):
    """``approx_ivt``'s pick over f_at(q, n), f(q) at precision n, and y's interval reads:
    the midpoint m, read at the least level in 0..fuel where f(m) and y are both narrower
    than eps = 2^-(p+1); f(m) is below y when f(m).hi < y.lo + eps there."""
    eps = half_pow(p + 1)

    def pick(lo, hi):
        m = (lo + hi) / 2
        level = least_index(lambda n: y(n).width < eps and f_at(m, n).width < eps, 0, fuel)
        if level is None:
            raise FuelExhausted("enclosures did not narrow; malformed map or real")
        return m, f_at(m, level).hi < y(level).lo + eps
    return pick


def witness_pick(f_at, y, ask, thirds: bool):
    """The pick of ``ivt_locally_nonconstant`` (thirds: ask(a, b) gives q strictly inside the
    middle third (a, b) and a witness w of f(q) # y) or of ``ivt_countable_exceptions`` (ask(m)
    gives w at the midpoint m): f(q) is below y as w says, once w's index shows it."""
    source = "oracle" if thirds else "apartness"

    def pick(lo, hi):
        if thirds:
            a, b = (2 * lo + hi) / 3, (lo + 2 * hi) / 3
            q, w = ask(a, b)
            if not a < q < b:
                raise ValueError(f"oracle point {q} outside the middle third ({a}, {b})")
        else:
            q = (lo + hi) / 2
            w = ask(q)
        less, z, v = w.direction is Direction.LESS, f_at(q, w.witness.index), y(w.witness.index)
        if not (z.hi < v.lo if less else v.hi < z.lo):
            raise ValueError(f"{source} witness failed verification")
        return q, less
    return pick


# Rationals as ints and as Fractions, some with numerators and denominators of 200 bits.
_INTS = st.integers(-2 ** 80, 2 ** 80)
_WIDE = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))
rationals = st.one_of(_INTS, st.fractions(), _WIDE)
_ENDS = st.sampled_from(["fraction", "int", "mixed"])
_SHAPES = st.sampled_from(["negative", "zero", "point", "straddling", "nonnegative", "ordered",
                           "reversed"])


@st.composite
def caller_intervals(draw):
    """Negative, zero, point, straddling, nonnegative, ordered and reversed
    intervals, as a caller generator may return them.  Both ends are Fractions,
    as library reals give, or both ints, or one of each."""
    ends = draw(_ENDS)
    values = rationals if ends == "fraction" else _INTS
    x, y = draw(values), draw(values)
    a, b = abs(x), abs(y)
    lo, hi = {
        "negative": lambda: (-a - b, -a),
        "zero": lambda: (0 * x, 0 * y),
        "point": lambda: (x, x),
        "straddling": lambda: (-a, b),
        "nonnegative": lambda: (a, a + b),
        "ordered": lambda: (min(x, y), max(x, y)),
        "reversed": lambda: (max(x, y), min(x, y)),
    }[draw(_SHAPES)]()
    if ends == "fraction":
        lo, hi = Fraction(lo), Fraction(hi)
    elif ends == "mixed":
        lo, hi = (Fraction(lo), hi) if draw(st.booleans()) else (lo, Fraction(hi))
    return RationalInterval(lo, hi)


# --- random reals: one graph of trees with shared subtrees ------------------------------

# Small rationals: 0, up to 320 over up to 40, and within 2^-19 of 0.
_SMALL = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-320, 320), st.integers(1, 40)),
                   st.builds(Fraction, st.integers(-2 ** 10, 2 ** 10), st.integers(2 ** 29, 2 ** 30)))
_DIRECT_LEAVES = st.one_of(
    st.tuples(st.just("q"), _SMALL | _WIDE),
    st.just(("sqrt2",)),
    # rho0/rho1 before and after the fugitive fires, or never firing
    st.tuples(st.sampled_from(["rho0", "rho1"]),
              (st.none() | st.integers(0, 24) | st.integers(0, 300)).map(spike)))
_CALLER_LEAVES = st.one_of(
    caller_intervals().map(lambda iv: ("iv", *iv)),
    st.tuples(st.just("gen"), _SMALL, st.sampled_from([1, -1])))
_STEPS = st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*"]), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.sampled_from(["neg", "abs"]), st.integers(0, 99), st.none()),
    st.tuples(st.just("at"), st.integers(0, 1),
              st.sampled_from(sorted({Fraction(a, d) for d in range(1, 13) for a in range(d + 1)}))))
# A pwl map: breakpoints inside (0, 1), and picks of its node trees.
_MAPS = st.tuples(st.sets(st.sampled_from(sorted({Fraction(a, d) for d in range(2, 9) for a in range(1, d)})),
                          max_size=2),
                  st.lists(st.integers(0, 99), min_size=4, max_size=4))
_STEP_LISTS = st.lists(_STEPS, max_size=8)
_POOLS = {direct: st.lists(_DIRECT_LEAVES if direct else _DIRECT_LEAVES | _CALLER_LEAVES,
                           min_size=1, max_size=4) for direct in (False, True)}


@st.composite
def tree_graphs(draw, direct: bool = False) -> list[tuple]:
    """A pool of trees with shared subtrees: leaves, then steps over earlier trees.

    A leaf is a small or 200-bit rational, sqrt2, rho0 or rho1 over a spike, or
    (unless ``direct``) a caller generator: "iv" with ends as ``caller_intervals``
    draws them, or "gen".  A step is + - * neg abs over earlier trees, or the value
    at a point of one of two pwl maps, each built at its first use through earlier
    trees.  So every subtree of a tree in the pool is in the pool, and with
    ``direct`` every tree is one that ``tree_direct`` holds.  ``event`` records what
    the pool holds, for ``--hypothesis-show-statistics``."""
    pool = draw(_POOLS[direct])
    maps = {}
    for op, i, j in draw(_STEP_LISTS):
        if op == "at":
            if i not in maps:
                cuts, picks = draw(_MAPS)
                bps = (Fraction(0), *sorted(cuts), Fraction(1))
                maps[i] = bps, tuple(pool[k % len(pool)] for k in picks[:len(bps)])
            pool.append(("at", *maps[i], j))
        else:
            pool.append((op, *(pool[k % len(pool)] for k in (i, j) if k is not None)))
    kinds = {t[0] for t in pool}
    for held, name in ((kinds & {"iv", "gen"}, "a caller generator"), ("at" in kinds, "a pwl point value"),
                       (kinds & {"rho0", "rho1"}, "a rho leaf"),
                       (any(t[0] not in ("iv", "gen") and not tree_direct(t) for t in pool),
                        "an operator or point value that is not direct")):
        if held:
            event(name)
    return pool


def fuel_for(rate: Fraction, p: int) -> int:
    """Fuel making approx at precision p safe for a real of the given rate."""
    extra = 0
    scaled = Fraction(1)
    while scaled < rate:
        scaled *= 2
        extra += 1
    return p + extra + 1
