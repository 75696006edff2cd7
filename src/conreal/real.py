"""Constructive reals as shrinking, dwindling streams of rational intervals.

A real is an infinite sequence of nested rational intervals whose widths
fall below every 2^-m.  Arithmetic is componentwise interval arithmetic.
Order and apartness are *positive* relations: a comparison either produces
an index at which the two interval streams separate (a checkable witness)
or reports Unknown within the given fuel — never a proof of the negation.
Equality and <= are negative notions and deliberately get no decision
operation here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import FuelExhausted
from .streams import FugitiveSpec, NatStream, _first_index, _in_order, _memo, fugitive_least


class RationalInterval(NamedTuple):
    """A closed rational interval; point intervals (lo == hi) are legal."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi


def interval(lo, hi) -> RationalInterval:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
    return RationalInterval(lo, hi)


def half_pow(p: int) -> Fraction:
    """2^-p as an exact fraction, for any integer p."""
    return Fraction(1, 1 << p) if p >= 0 else Fraction(1 << -p)


def _narrow(diff: int, den: int, p: int) -> bool:
    """Whether the width diff/den is <= 2^-p, by cross-multiplying: no Fraction is built.
    A shift that would pass den's or diff's bit length is decided by the lengths
    alone, so a huge |p| builds no huge integer."""
    if p >= 0:
        return diff <= 0 or (p < den.bit_length() and diff << p <= den)
    return -p >= diff.bit_length() or diff <= den << -p


def _narrower(diff: int, den: int, bound) -> bool:
    """Whether the width diff/den is < bound, by cross-multiplying: no Fraction is built."""
    return diff * bound.denominator < bound.numerator * den


def _lt(x, y) -> bool:
    """x < y for rationals (Fraction or int), by cross-multiplying."""
    return x.numerator * y.denominator < y.numerator * x.denominator


def half_pow_text(p: int) -> str:
    """2^-p as messages print it: ``2^-p`` for p >= 0, ``2^|p|`` for p < 0."""
    return f"2^-{p}" if p >= 0 else f"2^{-p}"


class CReal:
    """A constructive real: an index -> RationalInterval stream.

    Library constructors guarantee the shrinking and dwindling invariants;
    a caller-supplied generator is trusted to do the same (approx raises
    FuelExhausted when a malformed real never narrows).  It must also be
    pure: it runs once for the triple of an index and again on each
    ``interval`` read there, so two reads give equal intervals, not one
    object.  Reads take no lock: when threads race on an index the
    generator may run more than once, but the first triple stored wins.

    Reals from ``from_rational``, ``sqrt2``, ``rho0/1/2`` (a ``NatStream`` is
    total by contract), ``pwl`` point values ``f.at(q)`` whose nodes are direct
    and ``+ - * abs neg`` of such reals are *direct*: total index formulas, so
    scans gallop and may read ahead up to the fuel.  Others (sequential
    reals, caller generators) are scanned one index at a time, as a read past
    the answer may raise.  Answers are least indices either way.

    Every real also has a private integer form of interval n, ``_ends(n)``:
    a triple (lo_num, hi_num, den) with den > 0, not reduced, and the one memo
    a real keeps: ``_memo``'s rule in one frame, a hit one ``dict.get`` and a miss
    stored through ``setdefault``, so a read of a tree takes two frames a level.
    ``from_rational``, ``sqrt2``, ``rho0/1/2`` and ``pwl`` point values compute it
    by a formula, ``+ - * abs neg`` from their parts', and ``diagonal``,
    ``cantor_point`` and the IVT bisection from triple n - 1 (``_sequential``);
    none builds a ``Fraction``.  Interval n is the triple's ends reduced, built on
    each ``interval(n)`` read.  Only public ``from_steps`` reals (whose intervals
    ``_in_order`` keeps) and caller generators derive a triple from an interval.

    Every comparison reads triples and cross-multiplies: the width scans behind
    ``approx``, ``try_lt`` and ``try_apart``, ``verify_lt`` and the side tests of
    ``cotrans_split`` and ``diagonal``.  An interval is built only where one leaves
    the library: returned (``interval``, ``approx``) or handed to a map's ``enclose``.
    """

    _direct = False
    _witness: int | None = None  # index of the last apartness witness found against this real

    def __init__(self, generate: Callable[[int], RationalInterval]):
        self._generate = generate
        self._triples: dict[int, tuple[int, int, int]] = {}

    def interval(self, n: int) -> RationalInterval:
        if n < 0:
            raise IndexError("interval indices are naturals")
        return self._generate(n)

    def _ends(self, n: int) -> tuple[int, int, int]:
        """Interval n as (lo_num, hi_num, den) over one denominator den > 0."""
        return self._triples.get(n) or self._triples.setdefault(n, self._triple(n))

    def _triple(self, n: int) -> tuple[int, int, int]:
        # From the generator's interval; a real built by _from_ends has its own formula instead.
        return _triple_of(self._generate(n))

    def approx(self, p: int, fuel: int | None) -> RationalInterval:
        """First interval (among indices 0..fuel; fuel None: no end, for direct
        reals only) of width <= 2^-p: ``interval(_least(p, fuel))``.

        Each call searches from index 0 and keeps nothing for the next: a
        direct real is probed at index p first, as every width scan is
        (``_width_scan``); any other real is read one index at a time.
        """
        return self.interval(self._least(p, fuel))

    def _least(self, p: int, fuel: int | None) -> int:
        """The index of ``approx(p, fuel)``, found over triples: no interval is built."""
        if fuel is not None and fuel < 1:
            raise ValueError("fuel must be >= 1")
        n = _width_scan(self, lambda diff, den: _narrow(diff, den, p), 0, fuel, p)
        if n is None:
            raise FuelExhausted(f"no interval of width <= {half_pow_text(p)} within {fuel} indices")
        return n

    @classmethod
    def from_rational(cls, q) -> "CReal":
        q = Fraction(q)
        qn, qd = q.numerator, q.denominator
        # q -+ 2^-n over qd 2^n.
        return _from_ends(cls, lambda n: ((qn << n) - qd, (qn << n) + qd, qd << n))

    @classmethod
    def from_steps(cls, first: RationalInterval,
                   step: Callable[[RationalInterval, int], RationalInterval]) -> "CReal":
        """Real built sequentially: interval 0 is ``first``, interval n+1 is step(interval n, n)."""
        return cls(_in_order(first, step))

    # Arithmetic: componentwise interval formulas.

    def __add__(self, other: "CReal") -> "CReal":
        def ends(n: int) -> tuple[int, int, int]:
            al, ah, ad = self._ends(n)
            bl, bh, bd = other._ends(n)
            g = math.gcd(ad, bd)
            s, t = ad // g, bd // g  # over the least common denominator ad t = bd s
            return al * t + bl * s, ah * t + bh * s, ad * t
        return _from_ends(CReal, ends, self, other)

    def __neg__(self) -> "CReal":
        def ends(n: int) -> tuple[int, int, int]:
            lo, hi, den = self._ends(n)
            return -hi, -lo, den
        return _from_ends(CReal, ends, self)

    def __sub__(self, other: "CReal") -> "CReal":
        return self + (-other)

    def __mul__(self, other: "CReal") -> "CReal":
        def ends(n: int) -> tuple[int, int, int]:
            al, ah, ad = self._ends(n)
            bl, bh, bd = other._ends(n)
            if 0 <= al <= ah and 0 <= bl <= bh:
                return al * bl, ah * bh, ad * bd
            products = (al * bl, al * bh, ah * bl, ah * bh)
            return min(products), max(products), ad * bd
        return _from_ends(CReal, ends, self, other)

    def __abs__(self) -> "CReal":
        def ends(n: int) -> tuple[int, int, int]:
            lo, hi, den = self._ends(n)
            return max(0, lo, -hi), max(abs(lo), abs(hi)), den
        return _from_ends(CReal, ends, self)


def _triple_of(iv: RationalInterval) -> tuple[int, int, int]:
    """iv as a triple over the product of its ends' denominators."""
    lo, hi = iv
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return ln * hd, hn * ld, ld * hd


def _reduced(lo: int, hi: int, den: int) -> RationalInterval:
    """The interval of a triple, its ends reduced."""
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def _from_ends(cls: type[CReal], ends: Callable[[int], tuple[int, int, int]],
               *parts: CReal) -> CReal:
    """The real whose triple n is ends(n), direct when all its parts are (or it
    has none); its interval n is built from that triple on each read."""
    triples: dict[int, tuple[int, int, int]] = {}  # gen holds the memo, not the real: no cycle

    def gen(n: int) -> RationalInterval:
        return _reduced(*_memo(triples, n, ends))
    real = cls(gen)
    real._triples, real._triple = triples, ends
    real._direct = all(part._direct for part in parts)
    return real


def _sequential(first: tuple[int, int, int],
                step: Callable[[tuple[int, int, int], int], tuple[int, int, int]]) -> CReal:
    """The real whose triple 0 is ``first`` and triple n+1 is step(triple n, n), each
    step run once (``_in_order``); not direct, as a step may raise past the answer."""
    real = _from_ends(CReal, _in_order(first, step))
    real._direct = False
    return real


def _width_scan(x: CReal, ok: Callable[[int, int], bool], lo: int, hi: int | None,
                bits: int) -> int | None:
    """Least n in lo..hi (hi None: no end) with ok(diff, den), diff/den the width
    of interval n of x, read from its triple ``x._ends(n)``, or None; ok tests
    against a bound of about 2^-bits.

    A direct real's widths are about c * 2^-n, so its gallop reads index
    max(lo, bits) first, once.  If ok holds there it gallops down below it; if
    not, that width diff/den needs about diff.bit_length() - den.bit_length() +
    bits more halvings, and the gallop restarts that many indices higher (at
    least one).  Bit lengths only: a huge |bits| builds no huge integer.  A
    probe past hi is clamped to hi, so nothing past hi is read.  Any other real
    is read one index at a time from lo.  The answer does not depend on the probe.
    """
    ends = x._ends

    def pred(n: int) -> bool:
        lo_num, hi_num, den = ends(n)
        return ok(hi_num - lo_num, den)

    start = max(lo, bits)
    if x._direct and (hi is None or start <= hi):
        lo_num, hi_num, den = ends(start)
        diff = hi_num - lo_num
        if ok(diff, den):
            n = _first_index(pred, lo, start - 1, True, start - 1)
            return start if n is None else n
        lo, start = start + 1, start + max(1, diff.bit_length() - den.bit_length() + bits)
    return _first_index(pred, lo, hi, x._direct, start)


def zero() -> CReal:
    return CReal.from_rational(0)


# Positive comparisons.

@dataclass(frozen=True)
class LtWitness:
    """An index at which the left stream's upper end lies below the right's lower end."""

    index: int


class Direction(enum.Enum):
    LESS = "less"        # first argument < second
    GREATER = "greater"  # second argument < first


@dataclass(frozen=True)
class Apartness:
    direction: Direction
    witness: LtWitness


def verify_lt(x: CReal, y: CReal, w: LtWitness) -> bool:
    """Check a witness: x's upper end below y's lower end at its index, read as triples."""
    if w.index < 0:
        raise IndexError("interval indices are naturals")
    return _ends_lt(x._ends(w.index), y._ends(w.index))


def _ends_lt(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether the triple a lies wholly below the triple b: a's upper end below b's lower end."""
    return a[1] * b[2] < b[0] * a[2]


def try_lt(x: CReal, y: CReal, fuel: int) -> LtWitness | None:
    """The least index in 0..fuel that proves x < y; None means unknown, not refuted."""
    n = _first_index(lambda n: _ends_lt(x._ends(n), y._ends(n)), 0, fuel,
                     x._direct and y._direct)
    return None if n is None else LtWitness(n)


def try_apart(x: CReal, y: CReal, fuel: int) -> Apartness | None:
    """The least index in 0..fuel that proves x < y or y < x, and which one it proves.

    The index is recorded on both reals.  When both are direct the gallop reads
    first y's recorded index, or x's if y has none (the IVT oracles scan one y
    again and again), as separated nested intervals stay separated; otherwise
    the scan runs from 0.  The probe changes the reads, never the answer: a
    racing thread can only leave a worse one.
    """
    x_ends, y_ends = x._ends, y._ends

    def apart(n: int) -> bool:
        a, b = x_ends(n), y_ends(n)
        return _ends_lt(a, b) or _ends_lt(b, a)
    n = _first_index(apart, 0, fuel, x._direct and y._direct,
                     x._witness if y._witness is None else y._witness)
    if n is None:
        return None
    x._witness = y._witness = n
    less = _ends_lt(x._ends(n), y._ends(n))
    return Apartness(Direction.LESS if less else Direction.GREATER, LtWitness(n))


class SplitSide(enum.Enum):
    LEFT_IS_LESS = "left_is_less"    # x < z
    RIGHT_IS_LESS = "right_is_less"  # z < y


@dataclass(frozen=True)
class Split:
    side: SplitSide
    witness: LtWitness


def cotrans_split(x: CReal, y: CReal, w: LtWitness, z: CReal) -> Split:
    """Given a witness of x < y, decide x < z or z < y.  Total: no fuel needed.

    Finds the least index from the witness index on where z's interval is
    narrower than the witnessed gap; dwindling guarantees termination (a
    direct z is probed as ``_width_scan`` says).  The returned witness
    certifies the chosen side at that index.
    """
    if not verify_lt(x, y, w):
        raise ValueError("supplied witness does not certify x < y")
    a, b = x._ends(w.index), y._ends(w.index)
    gap = Fraction(b[0] * a[2] - a[1] * b[2], a[2] * b[2])  # reduced: the probe reads its bits
    bits = gap.denominator.bit_length() - gap.numerator.bit_length()
    n = _width_scan(z, lambda diff, den: _narrower(diff, den, gap), w.index, None, bits)
    side = SplitSide.LEFT_IS_LESS if _ends_lt(a, z._ends(n)) else SplitSide.RIGHT_IS_LESS
    return Split(side, LtWitness(n))


def diagonal(xs: Callable[[int], CReal]) -> CReal:
    """A real in (0, 1) apart from every real in the sequence.

    Starts from (0, 1); at step n the real of index n is inspected at its
    least index whose interval is narrower than 3^-(n+1) (galloping when that
    real is direct), and the construction takes the lower or upper third of
    its current interval, whichever avoids it.
    Widths are exactly 3^-n.  A direct real is read with no cap (a total,
    dwindling formula has such an index); any other real is scanned from 0
    with 4*(n+2) indices at step n, and one that never narrows that far
    raises instead of hanging.
    """
    def step(prev: tuple[int, int, int], n: int) -> tuple[int, int, int]:
        lo, hi, den = prev
        target = Fraction(1, 3 ** (n + 1))
        xn = xs(n)
        budget = None if xn._direct else 4 * (n + 2)
        m = _width_scan(xn, lambda diff, den: _narrower(diff, den, target), 0, budget,
                        target.denominator.bit_length())
        if m is None:
            raise FuelExhausted(
                f"input real {n} did not dwindle below 3^-{n + 1} within {budget} indices")
        x_lo, _, x_den = xn._ends(m)
        if (2 * lo + hi) * x_den < x_lo * 3 * den:  # x lies above the lower third
            return 3 * lo, 2 * lo + hi, 3 * den
        return lo + 2 * hi, 3 * hi, 3 * den

    return _sequential((0, 1, 1), step)


def sqrt2() -> CReal:
    """The square root of 2: interval n is [a/2^n, (a+1)/2^n] with a = isqrt(2 * 4^n),
    the n-th interval of the dyadic bisection of q^2 - 2 on [1, 2]; width 2^-n."""
    def ends(n: int) -> tuple[int, int, int]:
        a = math.isqrt(2 << 2 * n)
        return a, a + 1, 1 << n
    return _from_ends(CReal, ends)


def sqrt2_irrationality_witness(m: int, n: int) -> int:
    """A positive p with |sqrt(2) - m/n| >= 1/p: 2 if m/n > 2, else 4*n^2."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if Fraction(m, n) > 2:
        return 2
    return 4 * n * n


# Oscillating reals driven by a fugitive number.

def _pinned(f: FugitiveSpec, sign: Callable[[int], int]) -> CReal:
    """(-2^-n, 2^-n) while the fugitive is unseen at n, then the point
    sign(k) 2^-k once the fugitive k is found."""
    def ends(n: int) -> tuple[int, int, int]:
        k = fugitive_least(f, n)
        if k is None:
            return -1, 1, 1 << n
        s = sign(k)
        return s, s, 1 << k
    return _from_ends(CReal, ends)


def rho0(f: FugitiveSpec) -> CReal:
    """Oscillates above zero: (-2^-n, 2^-n) before the fugitive k, then pinned to 2^-k."""
    return _pinned(f, lambda k: 1)


def rho1(f: FugitiveSpec) -> CReal:
    """Oscillates around zero: pinned to +2^-k for even k, -2^-k for odd k."""
    return _pinned(f, lambda k: 1 if k % 2 == 0 else -1)


def rho2(f: FugitiveSpec) -> CReal:
    """Oscillates between zero and twice rho0: the sum rho0 + rho1."""
    return rho0(f) + rho1(f)


def cantor_point(bits: NatStream) -> CReal:
    """Embed a binary stream into [0, 1] by the two-thirds interval recursion.

    Interval 0 is (0, 1); bit 0 keeps the lower two thirds, bit 1 the upper
    two thirds, so interval n has width (2/3)^n.  Reads with value >= 2 are
    rejected.
    """
    def step(prev: tuple[int, int, int], n: int) -> tuple[int, int, int]:
        b = bits[n]
        if b >= 2:
            raise ValueError(f"cantor_point needs binary values, got {b} at index {n}")
        lo, hi, den = prev
        if b == 0:
            return 3 * lo, lo + 2 * hi, 3 * den
        return 2 * lo + hi, 3 * hi, 3 * den

    return _sequential((0, 1, 1), step)
