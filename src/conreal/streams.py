"""Total lazy sequences of naturals, digit streams and fugitive predicates.

A ``NatStream`` is an infinite sequence of naturals given by a pure, total
generator function, which every read runs.  A ``FugitiveSpec``
interprets a 0/1-ish stream as "the least index that fires": comparisons
against a bound n are decidable (read indices 0..n), existence in general
is not, which is exactly the point.
"""

from __future__ import annotations

import enum
import math
import sys
import threading
from typing import Callable, Sequence

from .errors import TooLarge


def _memo(cache: dict, key, compute: Callable):
    """The cached value at key, computing and storing it on a miss.

    No lock: compute runs outside any lock (it may read other memoized
    objects), and ``dict.setdefault`` is atomic under CPython, so when two
    threads race on one key both get the value stored first.
    """
    value = cache.get(key)
    if value is None:
        value = cache.setdefault(key, compute(key))
    return value


def _in_order(first, step: Callable) -> Callable[[int], object]:
    """Index -> term of the sequence first, step(first, 0), step(term 1, 1), ...

    It builds only sequential reals and the prime table; pi digits are read by index.
    Terms are built in order under one lock, so each step runs once even when
    threads race; a step that raises leaves the terms built so far in place.
    A term already built is read without the lock: the list only grows and
    ``list.append`` is atomic under CPython, so an index below ``len(built)``
    always names a finished term that no thread will change.
    """
    built = [first]
    lock = threading.Lock()

    def term(n: int):
        if n < len(built):
            return built[n]
        with lock:
            while len(built) <= n:
                built.append(step(built[-1], len(built) - 1))
            return built[n]

    return term


def _first_index(pred: Callable[[int], bool], lo: int, hi: int | None,
                 gallop: bool, start: int | None = None) -> int | None:
    """Least n in lo..hi (hi None: no end) with pred(n), or None; nothing read if
    lo > hi.  Reads lo, lo+1, lo+2, ... in order, or with gallop (for a pred that
    stays true once true) lo, lo+1, lo+3, lo+7, ... capped at hi, then bisects the
    last gap: O(log(n - lo)) reads, Bentley and Yao's unbounded search.

    A gallop reads ``start`` first when it is above lo (clamped to hi), then
    gallops down from it (start-1, start-3, start-7, ... not below lo) if pred
    holds there, else up as from lo: O(log |n - start|) reads."""
    below, n, step = lo - 1, lo, 1  # pred is false at every index in lo..below
    if gallop and start is not None and lo < start and (hi is None or lo <= hi):
        n = start if hi is None else min(start, hi)
        if pred(n):  # gallop down until pred fails, then bisect (step 0)
            while n - below > 1:
                m = max(below + 1, n - step) if step else (below + n) // 2
                n, below, step = (m, below, step * 2) if pred(m) else (n, m, 0)
            return n
        below, n, step = n, n + 1, 2
    while hi is None or n <= hi:
        if pred(n):
            while n - below > 1:
                mid = (below + n) // 2
                below, n = (below, mid) if pred(mid) else (mid, n)
            return n
        below, n = n, n + step
        if gallop:  # a step of 1 never passes hi
            step *= 2
            if hi is not None and below < hi < n:
                n = hi
    return None


class NatStream:
    """A total, lazily evaluated infinite sequence of naturals: its generator.

    The generator must be pure: repeated evaluation at the same index has to
    produce the same value.  Each read runs it, so reads keep nothing and
    need no lock: threads racing on an index agree because the generator does.
    """

    def __init__(self, generate: Callable[[int], int]):
        self._generate = generate

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise IndexError("stream indices are naturals")
        value = self._generate(n)
        if value < 0:
            raise ValueError("stream produced a negative value")
        return value

    @classmethod
    def constant(cls, n: int) -> "NatStream":
        return cls(lambda _i: n)

    @classmethod
    def eventually_constant(cls, prefix: Sequence[int]) -> "NatStream":
        """Stream listing ``prefix`` then repeating its last value; for another
        tail value t, pass ``prefix + [t]``."""
        values = list(prefix)
        if not values:
            raise ValueError("an eventually constant stream needs a nonempty prefix")
        last = len(values) - 1
        return cls(lambda i: values[min(i, last)])


def _decimal(n: int) -> str:
    """str(n) for an int of any size, under whatever digit limit Python puts on
    int to str (``sys.set_int_max_str_digits``, 4300 by default; 0 is none)."""
    if n < 0:
        return "-" + _decimal(-n)
    # Digits per chunk; Pythons before 3.10.7 have no limit and no such function.
    k = sys.get_int_max_str_digits() // 2 if hasattr(sys, "get_int_max_str_digits") else 0
    chunks = []  # the low k digits while n has over 4k bits: then n >= 16^k, its top part > 0
    while k and n.bit_length() > 4 * k:
        n, low = divmod(n, 10 ** k)
        chunks.append(str(low).zfill(k))
    return str(n) + "".join(reversed(chunks))  # n < 16^k: at most 2k digits


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) of the Chudnovsky terms a <= k < b by binary splitting: P and Q
    multiply p(k) = -(6k-5)(2k-1)(6k-1) and q(k) = k^3 640320^3 / 24, p(0) = q(0) = 1,
    and T / Q sums p(a)..p(k) / q(a)..q(k) * (13591409 + 545140134k).  From a = 0 that
    is the sum of t_k = (-1)^k (6k)! (13591409 + 545140134k) / ((3k)! (k!)^3 640320^(3k)).
    """
    if b - a == 1:
        if a == 0:
            return 1, 1, 13591409
        p = -(6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        return p, a * a * a * 10939058860032000, p * (13591409 + 545140134 * a)
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _pi_floor(size: int) -> int:
    """floor(pi * 10^size), proved digit for digit.

    pi = 426880 sqrt(10005) / S, S the Chudnovsky sum of the t_k.  With T / Q its
    first N = (size + guard) // 14 + 2 terms, value = 426880 isqrt(10005 scale^2) Q // T
    is within E = 2 of pi * scale, scale = 10^(size + guard): the isqrt floor costs
    under 426880 / 13591408 < 0.032 (T / Q > 13591408), the last floor under 1, and the
    tail, alternating with each term over 10^14 times the next, under |t_N| < 10^9 (N+1)
    10^(-14N), far below 10^-5 as 14N >= size + guard + 15.  The floor is released only
    when value - E and value + E agree without the guard digits, else the guard doubles.
    """
    guard = 20
    while True:
        scale = 10 ** (size + guard)
        _, q, t = _chudnovsky(0, (size + guard) // 14 + 2)
        value = 426880 * math.isqrt(10005 * scale * scale) * q // t
        low, high = (value - 2) // 10 ** guard, (value + 2) // 10 ** guard
        if low == high:
            return low
        guard *= 2


# The digits of pi a read may reach: the 65,536-digit batch takes under 1 s.
_PI_DIGITS_LIMIT = 65536


class _PiDigits(NatStream):
    """The stream of ``pi_digits``; ``_batch(n)`` is the batch that holds digit n."""

    def __init__(self):
        self._batches: dict[int, bytes] = {}
        super().__init__(lambda n: self._batch(n)[n + 1] - 48)

    def _batch(self, n: int) -> bytes:
        """The batch for the least size in 64, 128, 256, ... above n: byte i + 1 is
        the ASCII of digit i for every i below that size, byte 0 the leading 3."""
        if n >= _PI_DIGITS_LIMIT:
            raise TooLarge(f"needs pi digits past the limit of {_PI_DIGITS_LIMIT}")
        return _memo(self._batches, 64 << (n // 64).bit_length(),
                     lambda size: _decimal(_pi_floor(size)).encode())


def pi_digits() -> NatStream:
    """Decimal digits of pi after the point: index 0 is 1, index 1 is 4, ...

    Digit n is read from floor(pi * 10^size) for the least size in 64, 128,
    256, ... above n, so no precision is fixed up front and no earlier index
    is read.  A batch is bytes, that floor in ASCII digits as ``_decimal`` prints it;
    ``pattern_indicator`` searches these bytes directly.  No read computes a digit
    past index 65,535: reading one raises ``TooLarge`` before its batch is computed,
    and leaves the stream, and any spec or real reading it, as it was.
    Each batch is computed once per stream by ``_pi_floor``: the Chudnovsky
    series summed exactly, then one division, within E = 2 (isqrt floor < 0.032, last
    floor < 1, tail < 10^-5), and released only when both ends agree above the guard.
    """
    return _PiDigits()


class FugitiveSpec:
    """A fugitive number: the least index j with ``indicator[j] != 0``, if any.
    ``find(lo, hi)`` is the least firing index in lo..hi or None; by default it
    reads the indicator from lo up.  The spec also keeps how far its scans
    have read: indices below ``_clear`` do not fire, and ``_fired`` is the
    least firing index once read."""

    def __init__(self, indicator: NatStream,
                 find: Callable[[int, int], int | None] | None = None):
        self.indicator = indicator
        # a value is true exactly when it is nonzero, that is, when the index fires
        self.find = find or (lambda lo, hi: _first_index(indicator.__getitem__, lo, hi, False))
        self._clear = 0
        self._fired: int | None = None
        self._lock = threading.Lock()


class FugitiveCompare(enum.Enum):
    AT_MOST = "at_most"
    GREATER = "greater"


def pattern_indicator(digits: NatStream, digit: int, run_length: int) -> FugitiveSpec:
    """Fugitive spec firing at j when digits[j..j+run_length-1] all equal ``digit``.

    Its finder reads any stream digit by digit in one pass; called again from hi + 1,
    as ``fugitive_least`` does, it re-reads the up to run_length - 1 digits past hi
    that its last call read.  On a ``pi_digits()`` stream it instead searches the
    batch bytes with ``bytes.find``, and computes exactly the batches the one pass reads.
    """
    if not 0 <= digit <= 9:
        raise ValueError("digit must be in 0..9")
    if run_length < 1:
        raise ValueError("run_length must be >= 1")

    def hit(j: int) -> int:
        return 1 if all(digits[j + i] == digit for i in range(run_length)) else 0

    def find(lo: int, hi: int) -> int | None:
        # One pass, start being where the current run began: it reads the digits
        # hit(lo..hi) would, each once per call, up to a full run or a mismatch at or past hi.
        start = i = lo
        while start <= hi:
            if digits[i] != digit:
                start = i + 1
            elif i - start + 1 == run_length:
                return start
            i += 1
        return None

    def find_in_batches(lo: int, hi: int) -> int | None:
        # The batches the one pass would read, in its order: the next one only
        # while the run of the digit open at this batch's end (it starts at the
        # batch's size when the last digit is another) starts at or below hi.
        run, start, n = bytes([48 + digit]) * min(run_length, _PI_DIGITS_LIMIT + 2), lo, lo
        while start <= hi:
            batch = digits._batch(n)
            at = batch.find(run, start + 1, hi + run_length + 1)
            if at >= 0:
                return at - 1
            start, n = max(start, len(batch.rstrip(run[:1])) - 1), len(batch) - 1
        return None

    return FugitiveSpec(NatStream(hit), find_in_batches if isinstance(digits, _PiDigits) else find)


def fugitive_least(f: FugitiveSpec, n: int) -> int | None:
    """Least firing index among 0..n, or None if none fires there.

    The spec carries the scan over from earlier calls, so each index is
    tested at most once per spec, in increasing order, and never past n or
    the firing index, always by the spec's finder.
    """
    with f._lock:
        if f._fired is None and f._clear <= n:
            f._fired = f.find(f._clear, n)
            if f._fired is None:
                f._clear = n + 1
        return f._fired if f._fired is not None and f._fired <= n else None


def fugitive_compare(f: FugitiveSpec, n: int) -> FugitiveCompare:
    """AT_MOST iff some j <= n fires; GREATER iff none does.  Reads indices 0..n only."""
    return FugitiveCompare.GREATER if fugitive_least(f, n) is None else FugitiveCompare.AT_MOST


def fugitive_equal(f: FugitiveSpec, n: int) -> bool:
    """True iff n is the least firing index."""
    return fugitive_least(f, n) == n
