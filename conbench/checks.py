"""Independent oracles for the benchmark's output checks.

Nothing here imports conreal.  Every expected value is recomputed by a
different method (Machin's formula for pi, exact arithmetic in Q(sqrt 2),
exact evaluation of piecewise-linear maps, exhaustive enumeration, trial
division), or the output is tested against a property the method must have.
Each ``check_*`` function returns None when the answer is right and a short
reason string when it is wrong.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# --- pi -------------------------------------------------------------------


def machin_pi_digits(n: int) -> list[int]:
    """First n decimal digits of pi after the point, by Machin's formula."""
    scale = 10 ** (n + 10)

    def atan_inv(x: int) -> int:
        total, term, k = 0, scale // x, 0
        while term:
            total += term if k % 2 == 0 else -term
            k += 1
            term = scale // (x ** (2 * k + 1)) // (2 * k + 1)
        return total

    pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    return [int(c) for c in str(pi)[1:n + 1]]


def first_run(digits: list[int], digit: int, run: int, limit: int) -> int | None:
    """Least j < limit with digits[j..j+run-1] all equal to ``digit``."""
    if limit + run > len(digits):
        raise ValueError("oracle digits too short for this query")
    for j in range(limit):
        if all(digits[j + i] == digit for i in range(run)):
            return j
    return None


# --- exact arithmetic in Q(sqrt 2) ------------------------------------------


class QS:
    """An element a + b*sqrt(2) with rational a, b; order is decided exactly."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o: "QS") -> "QS":
        return QS(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "QS") -> "QS":
        return QS(self.a - o.a, self.b - o.b)

    def __neg__(self) -> "QS":
        return QS(-self.a, -self.b)

    def __mul__(self, o: "QS") -> "QS":
        return QS(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def sign(self) -> int:
        a, b = self.a, self.b
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sb == 0 or sa == sb:
            return sa if sa != 0 else sb
        if sa == 0:
            return sb
        # Opposite signs: compare a^2 with 2 b^2 (never equal, sqrt 2 is irrational).
        return sa if a * a > 2 * b * b else sb

    def __abs__(self) -> "QS":
        return -self if self.sign() < 0 else self

    def cmp(self, q) -> int:
        """Sign of self - q for a rational or QS q."""
        return (self - (q if isinstance(q, QS) else QS(q))).sign()


SQRT2 = QS(0, 1)


# --- expression trees ----------------------------------------------------------
# A tree is a nested tuple: ("q", Fraction) | ("s",) | ("neg", t) | ("abs", t)
# | ("+", t, u) | ("-", t, u) | ("*", t, u).


def tree_text(t) -> str:
    """Render a tree in the CLI expression syntax, fully parenthesised."""
    op = t[0]
    if op == "q":
        q = t[1]
        return f"{q.numerator}/{q.denominator}" if q >= 0 else f"(-{-q.numerator}/{q.denominator})"
    if op == "s":
        return "sqrt2"
    if op == "neg":
        return f"(-{tree_text(t[1])})"
    if op == "abs":
        return f"abs({tree_text(t[1])})"
    return f"({tree_text(t[1])} {op} {tree_text(t[2])})"


def tree_value(t) -> QS:
    """Exact value of a tree in Q(sqrt 2)."""
    op = t[0]
    if op == "q":
        return QS(t[1])
    if op == "s":
        return SQRT2
    if op == "neg":
        return -tree_value(t[1])
    if op == "abs":
        return abs(tree_value(t[1]))
    a, b = tree_value(t[1]), tree_value(t[2])
    return a + b if op == "+" else a - b if op == "-" else a * b


# --- output parsing ---------------------------------------------------------------

_FRAC = r"(-?\d+)/(\d+)"
_IV = re.compile(rf"^{_FRAC} \.\. {_FRAC}$")


def parse_interval(line: str) -> tuple[Fraction, Fraction] | None:
    m = _IV.match(line.strip())
    if not m:
        return None
    a, b, c, d = (int(g) for g in m.groups())
    return Fraction(a, b), Fraction(c, d)


def _expect_exit(answer, code: int) -> str | None:
    rc, out, err = answer
    if rc != code:
        return f"exit {rc}, expected {code}: {(err or out).strip()[:80]}"
    return None


def check_unresolved(answer) -> str | None:
    """The only correct answer is 'unknown within fuel': exit 3 and an error line."""
    bad = _expect_exit(answer, 3)
    if bad:
        return bad
    if not answer[2].startswith("error:"):
        return "unknown answer without an 'error:' line"
    return None


# --- eval ---------------------------------------------------------------------------


def check_eval_value(answer, value: QS, p: int) -> str | None:
    """The printed interval contains the exact value and has width <= 2^-p."""
    bad = _expect_exit(answer, 0)
    if bad:
        return bad
    iv = parse_interval(answer[1])
    if iv is None:
        return "unparsable interval"
    lo, hi = iv
    if hi - lo > Fraction(1, 1 << p):
        return "interval wider than 2^-p"
    if value.cmp(lo) < 0 or value.cmp(hi) > 0:
        return "interval misses the exact value"
    return None


def check_eval_fugitive(answer, k: int, offset: Fraction, p: int, clear: int) -> str | None:
    """rhoK(D,L) + offset with no run of the pattern starting below ``clear``.

    The fugitive then fires at some j >= clear or never, so rho0 is 0 or 2^-j,
    rho1 is 0 or +-2^-j and rho2 = rho0 + rho1 is 0 or 2^(1-j).  The interval
    must cover every value rhoK can take: [0, 2^-clear], [-2^-clear, 2^-clear]
    or [0, 2^(1-clear)], shifted by the offset.
    """
    bad = _expect_exit(answer, 0)
    if bad:
        return bad
    iv = parse_interval(answer[1])
    if iv is None:
        return "unparsable interval"
    lo, hi = iv
    if hi - lo > Fraction(1, 1 << p):
        return "interval wider than 2^-p"
    low, high = {0: (0, Fraction(1, 1 << clear)),
                 1: (-Fraction(1, 1 << clear), Fraction(1, 1 << clear)),
                 2: (0, Fraction(2, 1 << clear))}[k]
    if not (lo <= offset + low and offset + high <= hi):
        return "interval does not cover every value the fugitive allows"
    return None


# --- witnesses on raw intervals -------------------------------------------------------


def check_lt_witness(x_iv, y_iv, x_val: QS, y_val: QS) -> str | None:
    """x_iv, y_iv are the raw intervals read at the witness index."""
    if not x_iv.hi < y_iv.lo:
        return "witness does not separate the raw intervals"
    if x_val.cmp(y_val) >= 0:
        return "witness direction contradicts the exact values"
    return None


# --- piecewise-linear maps -----------------------------------------------------------


def pwl_image(bps, lo_vals, hi_vals, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Exact range of every piecewise-linear map through the breakpoints whose
    node values lie in [lo_vals[i], hi_vals[i]], over x in [a, b]."""
    def at(t: Fraction, vals) -> Fraction:
        i = 0
        while i + 2 < len(bps) and bps[i + 1] <= t:
            i += 1
        lam = (t - bps[i]) / (bps[i + 1] - bps[i])
        return (1 - lam) * vals[i] + lam * vals[i + 1]

    points = [a] + [t for t in bps if a < t < b] + [b]
    ends = [at(t, v) for t in points for v in (lo_vals, hi_vals)]
    return min(ends), max(ends)


_IVT_OUT = re.compile(
    rf"^x in {_FRAC} \.\. {_FRAC}\nf\(x\) - y in {_FRAC} \.\. {_FRAC}\n"
    r"certified: \|f\(x\) - y\| < 1/(\d+)\n$")


def check_ivt(answer, bps, lo_vals, hi_vals, y: Fraction, p: int) -> str | None:
    """Re-evaluate the map exactly over the returned x interval: the interval
    must hold a point where |f(x) - y| < 2^-p, and the printed enclosure of
    f(x) - y must cover the exact range of f - y over it."""
    bad = _expect_exit(answer, 0)
    if bad:
        return bad
    m = _IVT_OUT.match(answer[1])
    if not m:
        return "unparsable ivt output"
    g = [int(v) for v in m.groups()]
    xa, xb = Fraction(g[0], g[1]), Fraction(g[2], g[3])
    da, db = Fraction(g[4], g[5]), Fraction(g[6], g[7])
    eps = Fraction(1, 1 << p)
    if g[8] != 1 << p:
        return "certified bound is not 2^-p"
    if not (0 <= xa <= xb <= 1) or xb - xa > eps:
        return "x interval outside [0, 1] or wider than 2^-p"
    flo, fhi = pwl_image(bps, lo_vals, hi_vals, xa, xb)
    if not (flo - y < eps and y - fhi < eps):
        return "no point of the x interval has |f(x) - y| < 2^-p"
    if not (da <= flo - y and fhi - y <= db):
        return "printed f(x) - y enclosure misses the exact range"
    return None


# --- discrete -------------------------------------------------------------------------


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i, v in enumerate(sieve) if v]


PRIMES = primes_upto(2000)


def code_of(xs: list[int]) -> int:
    """Sequence code p(k-1) * prod p(i)^x_i - 1, from this module's prime list."""
    if not xs:
        return 0
    code = PRIMES[len(xs) - 1]
    for p, v in zip(PRIMES, xs):
        code *= p ** v
    return code - 1


def check_pi(answer, digits: list[int], n: int) -> str | None:
    return check_output(answer, "".join(map(str, digits[:n])))


def check_output_exit(answer, text: str, code: int) -> str | None:
    bad = _expect_exit(answer, code)
    if bad:
        return bad
    if answer[1] != text + "\n":
        return f"output {answer[1].strip()[:40]!r} != expected {text[:40]!r}"
    return None


def check_output(answer, text: str) -> str | None:
    return check_output_exit(answer, text, 0)


def check_hunt(answer, digits: list[int], digit: int, run: int, budget: int) -> str | None:
    pos = first_run(digits, digit, run, budget)
    if pos is None:
        return check_output_exit(answer, f"unresolved after {budget} digits", 3)
    return check_output(answer, f"found: {pos}")


def least_divisor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def check_euclid(answer, primes: list[int]) -> str | None:
    bad = _expect_exit(answer, 0)
    if bad:
        return bad
    q = int(answer[1])
    if q < 2 or least_divisor(q) != q:
        return "result is not prime"
    if q in primes:
        return "result is one of the given primes"
    if q != least_divisor(math.prod(primes) + 1):
        return "result is not the least prime factor of lcm + 1"
    return None


def dickson_pairs(seqs: list[list[int]], fuel: int) -> tuple[int, int] | None:
    """Brute force: first i < j < fuel by (j, then i) dominating in every list
    (each list continues with its last value)."""
    def val(s, i):
        return s[i] if i < len(s) else s[-1]
    for j in range(1, fuel):
        for i in range(j):
            if all(val(s, i) <= val(s, j) for s in seqs):
                return i, j
    return None


def check_dickson(answer, seqs: list[list[int]], fuel: int) -> str | None:
    pair = dickson_pairs(seqs, fuel)
    if pair is None:
        return check_output_exit(answer, f"exhausted after {fuel} indices", 3)
    return check_output(answer, f"found: i={pair[0]} j={pair[1]}")


def bar_member(spec: tuple[str, int], xs: list[int]) -> bool:
    kind, k = spec
    if kind == "len":
        return len(xs) == k
    if kind == "has1":
        return 1 in xs[:k]
    return sum(xs) >= k


def expected_subbar(spec: tuple[str, int], depth: int) -> tuple[bool, list[tuple[int, ...]]]:
    """By enumeration of all 0/1 words up to ``depth``: (True, minimal bar elements
    in lexicographic order) if every word of length depth has a prefix in the
    bar, else (False, [leftmost uncovered word])."""
    elements = []
    for word in itertools.product((0, 1), repeat=depth):
        hits = [n for n in range(depth + 1) if bar_member(spec, list(word[:n]))]
        if not hits:
            return False, [word]
        elements.append(word[:hits[0]])
    unique = sorted(set(elements))
    for u, v in itertools.combinations(unique, 2):
        if v[:len(u)] == u:
            raise AssertionError("minimal elements are not pairwise incompatible")
    return True, unique


def _fmt(word) -> str:
    return "[" + ",".join(map(str, word)) + "]"


def check_subbar(answer, spec: tuple[str, int], depth: int) -> str | None:
    covered, words = expected_subbar(spec, depth)
    if not covered:
        return check_output(answer, f"not a bar within depth {depth}: {_fmt(words[0])}")
    return check_output(answer, "\n".join(_fmt(w) for w in words) if words else "(empty bar)")


def ramsey_holds(M: int, n: int, k: int, r: int, star: bool) -> bool:
    """Does every r-coloring of the k-subsets of range(M) admit a monochromatic
    candidate?  Decided by backtracking over slot colors, independent of the
    library's exhaustive numeral enumeration."""
    slots = list(itertools.combinations(range(M), k))
    index = {s: i for i, s in enumerate(slots)}
    if star:
        sets = [(p,) + rest for p in range(n, M) for rest in itertools.combinations(range(p + 1, M), p - 1)]
    else:
        sets = list(itertools.combinations(range(M), n))
    cands = [[index[u] for u in itertools.combinations(t, k)] for t in sets]
    by_last: list[list[list[int]]] = [[] for _ in slots]
    for c in cands:
        by_last[max(c)].append(c)
    colors = [0] * len(slots)

    def avoid(i: int) -> bool:
        if i == len(slots):
            return True
        for col in range(r):
            colors[i] = col
            if not any(all(colors[s] == col for s in c) for c in by_last[i]) and avoid(i + 1):
                return True
        return False

    return not avoid(0)


def check_ramsey(answer, M: int, n: int, k: int, r: int, star: bool) -> str | None:
    if not star and k == 1:
        expected = M >= r * (n - 1) + 1  # pigeonhole
    elif not star and (n, k, r) == (3, 2, 2):
        expected = M >= 6  # R(3,3) = 6
    else:
        expected = ramsey_holds(M, n, k, r, star)
    return check_output(answer, f"holds: {'true' if expected else 'false'}")


def check_game_omega2(answer, var: str, value: int | None, bound: int) -> str | None:
    def in_c(n, i):
        return var != "none" and (n if var == "n" else i) == value
    win = [n for n in range(bound) if in_c(n, 0) and in_c(n, 1)]
    if win:
        return check_output(answer, f"winning move: {win[0]}")
    return check_output(answer, f"counter strategy: {_fmt(0 if not in_c(n, 0) else 1 for n in range(bound))}")


def check_game_2omega(answer, var: str, value: int | None, p0: int, p1: int) -> str | None:
    def in_c(i, n):
        return var != "none" and (i if var == "i" else n) == value
    if in_c(0, p0):
        return check_output(answer, "answer: 0")
    if in_c(1, p1):
        return check_output(answer, "answer: 1")
    return check_output(answer, "no answer")
