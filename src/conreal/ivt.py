"""Continuous maps on [0, 1] and constructive intermediate-value procedures.

A map carries two pieces of data: an ``enclose`` function producing a
rational interval that covers the image of any input subinterval at a
requested precision, and a modulus of uniform continuity (inputs within
2^-modulus(p) have images within 2^-p).  The modulus is required data:
an executable artifact cannot derive it, so the representation assumes it.

Three intermediate-value procedures are provided: the approximate version
(bisection to a uniform depth), the thirds construction for locally
non-constant maps (driven by a caller-supplied apartness oracle whose every
witness ``verify_lt`` checks), and bisection with apartness witnesses at its
rational midpoints.  One interval check, ``certified_within``, certifies the
point each of them builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import FuelExhausted, PreconditionFailed
from .real import (Apartness, CReal, Direction, RationalInterval, _from_ends, _lt, _narrower,
                   _sequential, _triple_of, _width_scan, half_pow, rho0, rho1, rho2, try_apart,
                   verify_lt)
from .streams import FugitiveSpec, _decimal, _first_index, _memo

_ZERO = Fraction(0)
_ONE = Fraction(1)

_UNCERTIFIED = "result could not be certified at the requested precision"
_NODE_FUEL = 96  # caps reads of non-direct node reals only


def _clamp01(iv: RationalInterval) -> RationalInterval:
    lo, hi = iv
    lo, hi = lo if lo.numerator >= 0 else _ZERO, hi if hi.numerator <= hi.denominator else _ONE
    if _lt(hi, lo):
        raise ValueError("interval lies outside [0, 1]")
    return RationalInterval(lo, hi)


class ContinuousMap:
    """A continuous function on [0, 1] given by enclosures plus a modulus.

    ``_nodes`` are the node reals of a ``pwl`` map, whose point enclosures are
    nested in the precision; ``pwl`` sets them beside its ``_point``, and a map
    built by hand has none.
    """

    _nodes: tuple[CReal, ...] | None = None

    def __init__(self, enclose: Callable[[RationalInterval, int], RationalInterval],
                 modulus: Callable[[int], int]):
        self.enclose = enclose
        self.modulus = modulus
        # (numerator, denominator, denominator bit length) of a point -> its value (``at``)
        self._points: dict[tuple[int, int, int], CReal] = {}

    def apply(self, x: CReal) -> CReal:
        """The image f(x) as a constructive real.

        Interval n is the running intersection of the enclosures of x's
        intervals at rising precision; every one contains the true value,
        so the intersections are nonempty, nested and dwindling.
        """
        enclose = self.enclose

        def raw(n: int) -> RationalInterval:
            return enclose(_clamp01(x.interval(n)), n)

        def step(prev: RationalInterval, n: int) -> RationalInterval:
            nxt = raw(n + 1)
            lo, hi = max(prev.lo, nxt.lo), min(prev.hi, nxt.hi)
            if lo > hi:
                raise ValueError("enclosures drifted apart; map violates its contract")
            return RationalInterval(lo, hi)

        return CReal.from_steps(raw(0), step)

    def at(self, q) -> CReal:
        """The value at a rational point, cached per point: every call with
        an equal point returns the same real, the first one stored.

        On a ``pwl`` map, the real's triple n is ``_point(q)(n)``, the map's
        one read at a point: the interpolation of the node triples at
        precision n + 2 over one common denominator, with no ``Fraction``
        built.  Its interval n is that triple reduced, the raw enclosure of
        [q, q] at precision n, and the real is direct when every node is.  It
        equals ``apply``'s running intersection: a node approximation at a
        finer precision comes from a later index of a nested real, and
        interpolation with lam in [0, 1] is monotone in both node ends, so each
        enclosure already lies inside the one before.  On a map built by hand,
        the real is that running intersection of the enclosures of [q, q].

        The memo key is q's reduced (numerator, denominator, denominator bit
        length), unique per value, so equal points of any type share one entry.
        A ``Fraction`` hashes to its value mod 2^61 - 1, where 2^61 is 1, so
        dyadic points near a/b would repeat hashes every 61 bits; the bit
        length spreads them.
        """
        if not isinstance(q, Fraction):
            q = Fraction(q)
        n, d = q.numerator, q.denominator
        if n < 0 or n > d:
            raise ValueError("point outside [0, 1]")
        return _memo(self._points, (n, d, d.bit_length()), lambda _key: self._point_value(q))

    def _point_value(self, q: Fraction) -> CReal:
        if self._nodes is None:
            point = RationalInterval(q, q)
            return self.apply(CReal(lambda n: point))
        return _from_ends(CReal, self._point(q), *self._nodes)

    def _point(self, q: Fraction) -> Callable[[int], tuple[int, int, int]]:
        # The value at q, precision n -> triple: the enclosure of [q, q]; pwl sets its own formula.
        point = RationalInterval(q, q)
        return lambda n: _triple_of(self.enclose(point, n))


@dataclass(frozen=True)
class PiecewiseLinearSpec:
    """Breakpoints 0 = t0 < ... < tr = 1 with a constructive real value at each."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[CReal, ...]

    def __post_init__(self):
        bps = tuple(Fraction(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) != len(self.values):
            raise ValueError("breakpoints and values must have equal length")
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")


def _ceil_log2(q: Fraction) -> int:
    # Smallest s >= 0 with 2^s >= q, which is 2^s >= ceil(q).
    return (math.ceil(q) - 1).bit_length() if q > 1 else 0


def pwl(spec: PiecewiseLinearSpec) -> ContinuousMap:
    """The piecewise-linear map through the given nodes.

    Enclosures evaluate the endpoints of each covered piece by linear
    interpolation over node approximations at precision p+2 and take the
    hull; on a linear piece the endpoint hull is an exact image enclosure,
    and the hull of [t, t] is t's value.  A point t at u/v of the way along
    the piece between nodes a and b has the value triple
    ((v-u) lo_a bd + u lo_b ad, (v-u) hi_a bd + u hi_b ad, v ad bd) from the
    node triples (lo_a, hi_a, ad) and (lo_b, hi_b, bd).  ``f._point(t)``
    finds t's piece and place once, by cross products with the breakpoints
    and one ``gcd`` for u/v in lowest terms, and returns that formula of the
    precision, which ``f.at(t)``, ``approx_ivt`` and ``enclose`` read.
    ``enclose`` takes its hull over the point triples by cross-multiplying
    and reduces only the two hull ends.  Each node triple is read once per
    map and precision; a direct node is read with no index cap, since a
    total, dwindling formula always has a least index.  The modulus comes
    from a slope bound over all pieces.
    """
    bps = spec.breakpoints
    values = spec.values
    pairs = [(b.numerator, b.denominator) for b in bps]
    node_triples: dict[tuple[int, int], tuple[int, int, int]] = {}
    fuels = [None if value._direct else _NODE_FUEL for value in values]

    def node_ends(i: int, p: int) -> tuple[int, int, int]:
        node = values[i]
        return _memo(node_triples, (i, p), lambda key: node._ends(node._least(p, fuels[i])))

    def point(t: Fraction) -> Callable[[int], tuple[int, int, int]]:
        # Rightmost piece i starting at or before t (the inner breakpoints searched by
        # halves), and t's place u/v = (t - b_i) / (b_{i+1} - b_i) on it in lowest terms.
        tn, td = t.numerator, t.denominator
        i, j = 0, len(pairs) - 2
        while i < j:
            mid = (i + j + 1) // 2
            if pairs[mid][0] * td <= tn * pairs[mid][1]:
                i = mid
            else:
                j = mid - 1
        (sn, sd), (en, ed) = pairs[i], pairs[i + 1]
        u, v = (tn * sd - sn * td) * ed, td * (en * sd - sn * ed)
        g = math.gcd(u, v)
        u, v = u // g, v // g

        def ends(p: int) -> tuple[int, int, int]:
            # The value at t at precision p, from the node triples at precision p + 2.
            al, ah, ad = node_ends(i, p + 2)
            bl, bh, bd = node_ends(i + 1, p + 2)
            s, r = (v - u) * bd, u * ad
            return s * al + r * bl, s * ah + r * bh, v * ad * bd
        return ends

    def enclose(iv: RationalInterval, p: int) -> RationalInterval:
        lo, hi = iv
        if lo.numerator < 0 or _lt(hi, lo) or hi.numerator > hi.denominator:
            raise ValueError("enclose input must lie within [0, 1]")
        least = most = point(lo)(p)
        for t in [t for t in bps[1:-1] if _lt(lo, t) and _lt(t, hi)] + [hi]:
            ends = point(t)(p)
            if ends[0] * least[2] < least[0] * ends[2]:
                least = ends
            if ends[1] * most[2] > most[1] * ends[2]:
                most = ends
        return RationalInterval(Fraction(least[0], least[2]), Fraction(most[1], most[2]))

    slope: dict[None, int] = {}

    def slope_exp(_key) -> int:
        bound = Fraction(0)
        for i in range(len(bps) - 1):
            al, ah, ad = node_ends(i, 4)
            bl, bh, bd = node_ends(i + 1, 4)
            rise = max(abs(bh * ad - al * bd), abs(ah * bd - bl * ad))
            bound = max(bound, Fraction(rise, ad * bd) / (bps[i + 1] - bps[i]))
        return _ceil_log2(bound)

    def modulus(p: int) -> int:
        return p + _memo(slope, None, slope_exp)

    f = ContinuousMap(enclose, modulus)
    f._point, f._nodes = point, values
    return f


def identity_map() -> ContinuousMap:
    return pwl(PiecewiseLinearSpec((_ZERO, _ONE),
                                   (CReal.from_rational(0), CReal.from_rational(1))))


def f0(f: FugitiveSpec) -> ContinuousMap:
    """Linear through 0, flat at 1/2 + rho1 on the middle third, up to 1."""
    half = CReal.from_rational(Fraction(1, 2))
    mid = half + rho1(f)
    return pwl(PiecewiseLinearSpec(
        (_ZERO, Fraction(1, 3), Fraction(2, 3), _ONE),
        (CReal.from_rational(0), mid, mid, CReal.from_rational(1))))


def f1(f: FugitiveSpec) -> ContinuousMap:
    """Linear through 0, rho0 at the midpoint and rho2 at 1."""
    return pwl(PiecewiseLinearSpec(
        (_ZERO, Fraction(1, 2), _ONE),
        (CReal.from_rational(0), rho0(f), rho2(f))))


def f2(f: FugitiveSpec, g: FugitiveSpec) -> ContinuousMap:
    """Two flat plateaus, 1/2 + rho1 over f on [1/5, 2/5] and over g on [3/5, 4/5]."""
    half = CReal.from_rational(Fraction(1, 2))
    mid_f = half + rho1(f)
    mid_g = half + rho1(g)
    return pwl(PiecewiseLinearSpec(
        (_ZERO, Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5), _ONE),
        (CReal.from_rational(0), mid_f, mid_f, mid_g, mid_g, CReal.from_rational(1))))


# Certification: an upper bound on |f(x) - y| computed from enclosures alone.

def distance_bound(f: ContinuousMap, x: CReal, y: CReal, q: int, fuel: int,
                   x_fuel: int | None = None) -> Fraction:
    """A certified upper bound on |f(x) - y|, inspecting at precision q.

    x is read at its first interval of width <= 2^-modulus(q) among indices
    0..x_fuel (default ``fuel``), or at x_fuel when none is that narrow: any
    interval that holds x gives a sound bound.
    """
    x_fuel = fuel if x_fuel is None else x_fuel
    try:
        xi = x.approx(f.modulus(q), x_fuel)
    except FuelExhausted:
        xi = x.interval(x_fuel)
    img = f.enclose(_clamp01(xi), q)
    yi = y.approx(q, fuel)
    return max(img.hi - yi.lo, yi.hi - img.lo)


def certified_within(f: ContinuousMap, x: CReal, y: CReal, p: int, fuel: int,
                     x_fuel: int | None = None) -> bool:
    """Try inspection precisions q = p+1, ..., p+6 for a bound below 2^-p."""
    target = half_pow(p)
    for q in range(p + 1, p + 7):
        try:
            if distance_bound(f, x, y, q, fuel, x_fuel) < target:
                return True
        except FuelExhausted:
            break
    return False


def require_range(f: ContinuousMap, y: CReal, p: int, fuel: int) -> None:
    """Raise PreconditionFailed unless f(0) <= y <= f(1) can hold, judged from
    enclosures of f(0), f(1) and y at precision p + 4."""
    guard = p + 4
    y_iv = y.approx(guard, fuel)
    at0 = f.enclose(RationalInterval(_ZERO, _ZERO), guard)
    at1 = f.enclose(RationalInterval(_ONE, _ONE), guard)
    if not (at0.lo <= y_iv.hi and y_iv.lo <= at1.hi):
        raise PreconditionFailed("need f(0) <= y <= f(1) in the enclosure sense")


def _bisection(pick: Callable[[int, int, int], tuple[int, int, bool]], depth: int) -> CReal:
    """The point of [0, 1] the three procedures build, on triples from (0, 1, 1):
    ``pick(lo, hi, den)`` names a point q = qn / (c den) and whether f(q) lies below y;
    the next interval is [q, hi] if it does, else [lo, q], over den c in lowest terms.
    ``depth`` steps are forced eagerly, later ones lazily."""
    def step(prev: tuple[int, int, int], _n: int) -> tuple[int, int, int]:
        lo, hi, den = prev
        qn, c, below = pick(lo, hi, den)
        lo, hi, den = (qn, hi * c, den * c) if below else (lo * c, qn, den * c)
        g = math.gcd(lo, hi, den)
        return lo // g, hi // g, den // g

    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = _sequential((0, 1, 1), step)
    x._ends(depth)
    return x


def _below(f: ContinuousMap, q: Fraction, y: CReal, w: Apartness, source: str) -> bool:
    """Whether f(q) < y, as the witness w of f(q) # y claims; w is first checked by
    ``verify_lt`` in the direction it claims, on the ends of f(q) and y as triples."""
    z = f.at(q)
    below = w.direction is Direction.LESS
    if not (verify_lt(z, y, w.witness) if below else verify_lt(y, z, w.witness)):
        raise ValueError(f"{source} witness failed verification")
    return below


def approx_ivt(f: ContinuousMap, y: CReal, p: int, fuel: int) -> CReal:
    """A point x with certified |f(x) - y| < 2^-p, for f(0) <= y <= f(1).

    Bisection: at each midpoint m the enclosure of f(m) and the current
    approximation of y are narrowed below 2^-(p+1), at the least level
    where both are, and the half keeping the crossing is selected.  y's
    least narrow level is found once, before the bisection, by a width scan
    (a direct y is probed at index p + 1).  A real's intervals are nested, so y
    stays narrow above it, and each step reads f(m)'s triples (``f._point``)
    from that level up and decides by cross-multiplying.  The bisection steps on
    triples; m is built as a ``Fraction`` only to hand it to ``f._point``.
    The uniform modulus gives an a-priori depth of modulus(p+1) + 2, or 0
    where that is negative.  The returned real keeps bisecting lazily
    beyond that depth.
    """
    require_range(f, y, p, fuel)
    eps = half_pow(p + 1)
    en, ed = eps.numerator, eps.denominator
    y_level = _width_scan(y, lambda diff, den: _narrower(diff, den, eps), 0, fuel, p + 1)
    if y_level is None:  # y's approx claimed a width that its intervals never reach
        raise FuelExhausted("enclosures did not narrow; malformed map or real")

    def pick(lo: int, hi: int, den: int) -> tuple[int, int, bool]:
        at_m = f._point(Fraction(lo + hi, 2 * den))
        for level in range(y_level, fuel + 1):
            s_lo, s_hi, s_den = at_m(level)
            if _narrower(s_hi - s_lo, s_den, eps):
                y_lo, _, y_den = y._ends(level)
                # f(m).hi < y.lo + eps, over the common denominator s_den y_den ed.
                return lo + hi, 2, s_hi * y_den * ed < (y_lo * ed + en * y_den) * s_den
        raise FuelExhausted("enclosures did not narrow; malformed map or real")

    x = _bisection(pick, max(f.modulus(p + 1) + 2, 0))
    if not certified_within(f, x, y, p, fuel):
        raise FuelExhausted(_UNCERTIFIED)
    return x


def ivt_locally_nonconstant(f: ContinuousMap, y: CReal,
                            oracle: Callable[[Fraction, Fraction], tuple[Fraction, Apartness]],
                            depth: int) -> CReal:
    """The thirds construction: the oracle supplies, for any current interval,
    a middle-third rational whose value is apart from y; the construction keeps
    the side where the crossing must lie.  Widths obey width(n) <= (2/3)^n.

    Oracle answers are re-verified by ``verify_lt`` on the ends as triples; a
    lying oracle is an error.  ``depth`` rounds are forced eagerly; the returned
    real keeps consulting the oracle lazily.
    """
    def pick(lo: int, hi: int, den: int) -> tuple[int, int, bool]:
        a, b = Fraction(2 * lo + hi, 3 * den), Fraction(lo + 2 * hi, 3 * den)
        q, w = oracle(a, b)
        if not (_lt(a, q) and _lt(q, b)):
            raise ValueError(f"oracle point {_text(q)} outside the middle third "
                             f"({_text(a)}, {_text(b)})")
        g = math.gcd(q.denominator, den)  # q over lcm(q.denominator, den): c stays small
        return q.numerator * (den // g), q.denominator // g, _below(f, q, y, w, "oracle")

    return _bisection(pick, depth)


def _text(q) -> str:
    """str(q) for a Fraction or int q of any size (``_decimal``)."""
    return _decimal(q.numerator) + ("" if q.denominator == 1 else "/" + _decimal(q.denominator))


def _thirds_depth(target: int) -> int:
    # Smallest d with (2/3)^d <= 2^-target, 0 when target <= 0; once true it stays true: gallop.
    target = max(target, 0)
    return _first_index(lambda d: 3 ** d >= 1 << (d + target), 0, None, True)


def ivt_countable_exceptions(f: ContinuousMap, y: CReal,
                             apart_at: Callable[[Fraction], Apartness],
                             depth: int) -> CReal:
    """Bisection driven by apartness witnesses for f at its rational midpoints.

    At step n ``apart_at(m)`` is asked for a witness of f(m) # y at the
    midpoint m itself; the witness is re-verified, then the half keeping the
    crossing is selected.  Width at step n is exactly 2^-n.
    """
    def pick(lo: int, hi: int, den: int) -> tuple[int, int, bool]:
        m = Fraction(lo + hi, 2 * den)
        return lo + hi, 2, _below(f, m, y, apart_at(m), "apartness")

    return _bisection(pick, depth)


# Convenience oracle builders (the procedures re-verify whatever these claim).

def middle_third_oracle(f: ContinuousMap, y: CReal, fuel: int):
    """Searches a fixed grid of middle-third rationals q for a witness of f(q) # y."""
    def oracle(a: Fraction, b: Fraction) -> tuple[Fraction, Apartness]:
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        for num in (4, 3, 5, 2, 6, 1, 7):  # eighths of the span, midpoint first
            q = Fraction(an * bd * (8 - num) + bn * ad * num, 8 * ad * bd)
            w = try_apart(f.at(q), y, fuel)
            if w is not None:
                return q, w
        raise FuelExhausted("no apartness witness found in the middle third")
    return oracle


def enumerated_witnesses(f: ContinuousMap, y: CReal, fuel: int):
    """apart_at for ivt_countable_exceptions: a witness of f(q) # y at the rational q."""
    def apart_at(q: Fraction) -> Apartness:
        w = try_apart(f.at(q), y, fuel)
        if w is None:
            raise FuelExhausted(f"no apartness witness at q = "
                                f"{_decimal(q.numerator)}/{_decimal(q.denominator)}")
        return w
    return apart_at
