"""The three workloads as fixed, seeded lists of operations.

An operation is a closure that calls conreal (through ``conreal.cli.run`` or a
public library name) and returns its answer, plus a check that judges the
answer with the oracles in ``checks``.  Every operation builds its reals, maps
and streams afresh, so no operation profits from another's caches.

A run is a whole number of rounds.  Each round holds the same op classes in the
same counts, drawn from a generator seeded by (workload, seed, round) and
shuffled with it, so the same seed gives the same list in the same order.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks
from checks import tree_text, tree_value

DIGITS_LIMIT = 1000
"""Fugitive patterns in the workloads are checked clear of pi below this index."""


@dataclass
class Op:
    cls: str                        # op class, e.g. "eval_tree"
    call: Callable[[Any], Any]      # conreal package -> answer
    check: Callable[[Any], str | None]
    unresolved: bool                # the correct answer is "unknown within fuel"


def cli_call(argv: list[str]) -> Callable[[Any], tuple[int, str, str]]:
    def call(cr):
        out, err = io.StringIO(), io.StringIO()
        rc = cr.cli.run(argv, out, err)
        return rc, out.getvalue(), err.getvalue()
    return call


def _rat(rng: random.Random, lo: int = 1, hi: int = 40) -> Fraction:
    return Fraction(rng.randint(0, 6 * hi), rng.randint(lo, hi))


def _tree(rng: random.Random, leaves: int, sqrt_share: float):
    """A random expression tree with ``leaves`` leaves over + - * abs neg."""
    if leaves == 1:
        return ("s",) if rng.random() < sqrt_share else ("q", _rat(rng))
    left = rng.randint(1, leaves - 1)
    op = rng.choice("++-*")
    node = (op, _tree(rng, left, sqrt_share), _tree(rng, leaves - left, sqrt_share))
    wrap = rng.random()
    if wrap < 0.15:
        return ("abs", node)
    if wrap < 0.25:
        return ("neg", node)
    return node


def build(cr, t):
    """The conreal real of a tree, built from the public constructors."""
    op = t[0]
    if op == "q":
        return cr.CReal.from_rational(t[1])
    if op == "s":
        return cr.sqrt2()
    if op == "neg":
        return -build(cr, t[1])
    if op == "abs":
        return abs(build(cr, t[1]))
    a, b = build(cr, t[1]), build(cr, t[2])
    return a + b if op == "+" else a - b if op == "-" else a * b


def _equal_twin(rng: random.Random, t):
    """A different tree with exactly the same value as t."""
    q = ("q", _rat(rng))
    return rng.choice((("-", ("+", t, q), q),
                       ("+", q, ("-", t, q)),
                       ("*", t, ("q", Fraction(1))),
                       ("neg", ("neg", t))))


class Oracle:
    """Expected values shared by the checks of one run, computed once."""

    def __init__(self):
        self.digits = checks.machin_pi_digits(DIGITS_LIMIT + 200)

    def clear_below(self, digit: int, run: int) -> int:
        """DIGITS_LIMIT if no run of the pattern starts below it, else fail loudly."""
        if checks.first_run(self.digits, digit, run, DIGITS_LIMIT) is not None:
            raise ValueError(f"pattern {digit}x{run} fires inside the oracle range")
        return DIGITS_LIMIT

    def fugitive_first(self, digit: int, run: int) -> int:
        k = checks.first_run(self.digits, digit, run, DIGITS_LIMIT)
        if k is None:
            raise ValueError(f"pattern {digit}x{run} does not fire inside the oracle range")
        return k


def _unresolved_pattern(rng: random.Random) -> tuple[int, int]:
    # Runs of ten or more equal digits: none starts in pi's first DIGITS_LIMIT digits.
    return rng.randint(0, 9), rng.randint(10, 99)


# --- reals ------------------------------------------------------------------------


def _eval_tree(rng, orc) -> Op:
    t = _tree(rng, rng.randint(6, 9), 0.3)
    p = rng.randint(180, 240)
    # Leaves below 241 in size make a width below 482^leaves * 2^-n at index n: 256 spare indices cover it.
    argv = ["eval", tree_text(t), "-p", str(p), "--fuel", str(p + 256)]
    value = tree_value(t)
    return Op("eval_tree", cli_call(argv), lambda a: checks.check_eval_value(a, value, p), False)


def _eval_fugitive(rng, orc) -> Op:
    d, run = _unresolved_pattern(rng)
    clear = orc.clear_below(d, run)
    offset = _rat(rng)
    k = rng.randrange(3)
    p = rng.randint(150, 190)
    argv = ["eval", f"rho{k}({d},{run}) + {offset.numerator}/{offset.denominator}",
            "-p", str(p), "--fuel", str(p + 16)]
    return Op("eval_rho", cli_call(argv),
              lambda a: checks.check_eval_fugitive(a, k, offset, p, clear), False)


def _eval_unresolved(rng, orc) -> Op:
    # Widths at indices up to the fuel stay above 2^-fuel > 2^-p: exit 3 is the only answer.
    d, run = _unresolved_pattern(rng)
    orc.clear_below(d, run)
    fuel = 170
    argv = ["eval", f"rho{rng.randrange(2)}({d},{run})", "-p", str(fuel + 2), "--fuel", str(fuel)]
    return Op("eval_unknown", cli_call(argv), checks.check_unresolved, True)


def _apart_pair(rng):
    t = _tree(rng, rng.randint(3, 5), 0.4)
    gap = Fraction(rng.choice((1, -1)), 1 << rng.randint(30, 60))
    return t, ("+", t, ("q", gap))


def _try_apart(rng, orc) -> Op:
    tx, ty = _apart_pair(rng)
    vx, vy = tree_value(tx), tree_value(ty)
    fuel = 160

    def call(cr):
        x, y = build(cr, tx), build(cr, ty)
        return x, y, cr.try_apart(x, y, fuel)

    def check(a):
        x, y, w = a
        if w is None:
            return "no witness for reals 2^-60 apart or more"
        n = w.witness.index
        lo_first = (x, y) if w.direction.value == "less" else (y, x)
        va, vb = (vx, vy) if w.direction.value == "less" else (vy, vx)
        bad = checks.check_lt_witness(lo_first[0].interval(n), lo_first[1].interval(n), va, vb)
        if bad:
            return bad
        if n > 0:
            a0, b0 = x.interval(n - 1), y.interval(n - 1)
            if a0.hi < b0.lo or b0.hi < a0.lo:
                return "witness index is not the least separating index"
        return None

    return Op("try_apart", call, check, False)


def _try_equal(rng, orc) -> Op:
    t = _tree(rng, 3, 0.4)
    twin = _equal_twin(rng, t)
    use_lt = rng.random() < 0.5
    fuel = 110

    def call(cr):
        x, y = build(cr, t), build(cr, twin)
        return cr.try_lt(x, y, fuel) if use_lt else cr.try_apart(x, y, fuel)

    return Op("try_equal", call,
              lambda w: None if w is None else "witness claimed for equal reals", True)


def _cotrans(rng, orc) -> Op:
    tx, ty = _apart_pair(rng)
    if tree_value(tx).cmp(tree_value(ty)) > 0:
        tx, ty = ty, tx
    tz = _tree(rng, rng.randint(2, 4), 0.5)
    vx, vy, vz = tree_value(tx), tree_value(ty), tree_value(tz)

    def call(cr):
        x, y, z = build(cr, tx), build(cr, ty), build(cr, tz)
        w = cr.try_lt(x, y, 160)
        return x, y, z, cr.cotrans_split(x, y, w, z)

    def check(a):
        x, y, z, s = a
        n = s.witness.index
        if s.side.value == "left_is_less":
            return checks.check_lt_witness(x.interval(n), z.interval(n), vx, vz)
        return checks.check_lt_witness(z.interval(n), y.interval(n), vz, vy)

    return Op("cotrans", call, check, False)


def _diagonal_real(rng):
    # Values in [0, 2) with width at most 4 * 2^-m at index m, inside the default step budget.
    q = Fraction(rng.randint(0, 30), 31)
    return ("q", q) if rng.random() < 0.5 else ("*", ("s",), ("q", q))


def _diagonal(rng, orc) -> Op:
    trees = [_diagonal_real(rng) for _ in range(8)]
    values = [tree_value(t) for t in trees]
    n = 48

    def call(cr):
        d = cr.diagonal(lambda i: build(cr, trees[i % len(trees)]))
        return d, d.interval(n)

    def check(a):
        d, iv = a
        if iv.hi - iv.lo != Fraction(1, 3 ** n) or not (0 <= iv.lo and iv.hi <= 1):
            return "diagonal interval is not a width-3^-n subinterval of [0, 1]"
        for i in range(n):
            step = d.interval(i + 1)
            if not (d.interval(i).lo <= step.lo and step.hi <= d.interval(i).hi):
                return "diagonal intervals are not nested"
            v = values[i % len(values)]
            if v.cmp(step.lo) >= 0 and v.cmp(step.hi) <= 0:
                return f"diagonal step {i + 1} does not avoid real {i}"
        return None

    return Op("diagonal", call, check, False)


# --- ivt ------------------------------------------------------------------------------

_DENOMS = (7, 11, 13, 17, 19, 23, 29, 31)
"""Target denominators prime to 6: no dyadic midpoint or thirds grid point hits them."""


def _target(rng, lo: Fraction, hi: Fraction, avoid: tuple[Fraction, Fraction] | None = None) -> Fraction:
    while True:
        b = rng.choice(_DENOMS)
        y = lo + (hi - lo) * Fraction(rng.randint(1, b - 1), b)
        if avoid is None or not (avoid[0] <= y <= avoid[1]):
            return y


def _plateau(orc, d: int, run: int) -> tuple[Fraction, Fraction]:
    eps = Fraction(1, 1 << orc.clear_below(d, run))
    return Fraction(1, 2) - eps, Fraction(1, 2) + eps


def _ivt_map(rng, orc, name: str):
    """(map argument, breakpoints, node lower values, node upper values, target range)."""
    if name == "id":
        return "id", (0, 1), (0, 1), (0, 1), (Fraction(0), Fraction(1))
    if name == "f0":
        d, run = _unresolved_pattern(rng)
        lo, hi = _plateau(orc, d, run)
        return (f"f0:{d},{run}", (0, Fraction(1, 3), Fraction(2, 3), 1),
                (0, lo, lo, 1), (0, hi, hi, 1), (Fraction(0), Fraction(1)))
    if name == "f1":
        # Patterns that fire early at an even index k: rho0 = 2^-k and rho2 = 2^(1-k).
        d, run = rng.choice(((1, 1), (9, 1), (6, 1), (3, 1), (8, 1), (7, 1)))
        k = orc.fugitive_first(d, run)
        r0, r2 = Fraction(1, 1 << k), (Fraction(2, 1 << k) if k % 2 == 0 else Fraction(0))
        return (f"f1:{d},{run}", (0, Fraction(1, 2), 1), (0, r0, r2), (0, r0, r2), (Fraction(0), r2))
    d1, run1 = _unresolved_pattern(rng)
    d2, run2 = _unresolved_pattern(rng)
    lo1, hi1 = _plateau(orc, d1, run1)
    lo2, hi2 = _plateau(orc, d2, run2)
    bps = (0, Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5), 1)
    return (f"f2:{d1},{run1},{d2},{run2}", bps, (0, lo1, lo1, lo2, lo2, 1),
            (0, hi1, hi1, hi2, hi2, 1), (Fraction(0), Fraction(1)))


def _ivt(mode: str, precisions: tuple[int, int]):
    def make(rng, orc) -> Op:
        arg, bps, lo_vals, hi_vals, (ylo, yhi) = _ivt_map(rng, orc, rng.choice(("id", "f0", "f1", "f2")))
        bps = tuple(Fraction(b) for b in bps)
        lo_vals = tuple(Fraction(v) for v in lo_vals)
        hi_vals = tuple(Fraction(v) for v in hi_vals)
        # Keep targets off the plateau value 1/2 of f0 and f2 by a margin.
        avoid = None if arg == "id" or arg.startswith("f1") else (Fraction(3, 8), Fraction(5, 8))
        y = _target(rng, ylo, yhi, avoid)
        p = rng.randint(*precisions)
        argv = ["ivt", "--map", arg, "--y", f"{y.numerator}/{y.denominator}", "-p", str(p),
                "--mode", mode]
        return Op(f"ivt_{mode}", cli_call(argv),
                  lambda a: checks.check_ivt(a, bps, lo_vals, hi_vals, y, p), False)
    return make


def _ivt_lnc_plateau(rng, orc) -> Op:
    # y = 1/2 on an unresolved plateau: no middle-third point is apart from y.
    d, run = _unresolved_pattern(rng)
    orc.clear_below(d, run)
    argv = ["ivt", "--map", f"f0:{d},{run}", "--y", "1/2", "-p", str(rng.randint(6, 9)),
            "--mode", "lnc", "--fuel", "16"]
    return Op("ivt_lnc_plateau", cli_call(argv), checks.check_unresolved, True)


def _ivt_countable_hit(rng, orc) -> Op:
    # A dyadic target met by a bisection midpoint: f(m) = y has no apartness witness.
    p = rng.randint(6, 9)
    j = rng.randint(2, 6)
    y = Fraction(2 * rng.randrange(1 << (j - 1)) + 1, 1 << j)
    argv = ["ivt", "--map", "id", "--y", f"{y.numerator}/{y.denominator}", "-p", str(p),
            "--mode", "countable", "--fuel", "48"]
    return Op("ivt_countable_hit", cli_call(argv), checks.check_unresolved, True)


# --- discrete -------------------------------------------------------------------------


def _pi(rng, orc) -> Op:
    n = rng.randint(420, 480)
    return Op("pi", cli_call(["pi", "--digits", str(n)]),
              lambda a: checks.check_pi(a, orc.digits, n), False)


def _hunt_found(rng, orc) -> Op:
    while True:
        d, run = rng.randint(0, 9), rng.randint(1, 3)
        if checks.first_run(orc.digits, d, run, 500) is not None:
            break
    argv = ["hunt", "--digit", str(d), "--run", str(run), "--budget", "500"]
    return Op("hunt_found", cli_call(argv),
              lambda a: checks.check_hunt(a, orc.digits, d, run, 500), False)


def _hunt_unresolved(rng, orc) -> Op:
    d, run = _unresolved_pattern(rng)
    budget = 450
    argv = ["hunt", "--digit", str(d), "--run", str(run), "--budget", str(budget)]
    return Op("hunt_unknown", cli_call(argv),
              lambda a: checks.check_hunt(a, orc.digits, d, run, budget), True)


def _encode(rng, orc) -> Op:
    xs = [rng.randint(0, 30) for _ in range(rng.randint(5, 40))]
    return Op("encode", cli_call(["encode", *map(str, xs)]),
              lambda a: checks.check_output(a, str(checks.code_of(xs))), False)


def _decode(rng, orc) -> Op:
    xs = [rng.randint(0, 30) for _ in range(rng.randint(5, 40))]
    return Op("decode", cli_call(["decode", str(checks.code_of(xs))]),
              lambda a: checks.check_output(a, "[" + ",".join(map(str, xs)) + "]"), False)


_BAR_SYNTAX = {"len": "len={}", "has1": "has1@{}", "sum": "sum>={}"}


def _subbar_bar(rng, orc) -> Op:
    spec = ("len", rng.randint(6, 7))
    return _subbar("subbar_bar", spec, spec[1] + rng.randint(0, 2))


def _subbar_open(rng, orc) -> Op:
    # The all-zero path never meets these bars, so the answer is an uncovered path.
    return _subbar("subbar_open", (rng.choice(("has1", "sum")), rng.randint(3, 9)), rng.randint(6, 10))


def _subbar(cls: str, spec: tuple[str, int], depth: int) -> Op:
    argv = ["subbar", "--spec", _BAR_SYNTAX[spec[0]].format(spec[1]), "--depth", str(depth)]
    return Op(cls, cli_call(argv), lambda a: checks.check_subbar(a, spec, depth), False)


def _game(rng, orc) -> Op:
    var = rng.choice(("n", "i", "none"))
    value = None if var == "none" else rng.randint(0, 3 if var == "i" else 60)
    c = "none" if var == "none" else f"{var}={value}"
    if rng.random() < 0.5:
        bound = rng.randint(1, 80)
        argv = ["game", "--mode", "omega2", "--c", c, "--bound", str(bound)]
        return Op("game", cli_call(argv),
                  lambda a: checks.check_game_omega2(a, var, value, bound), False)
    p0, p1 = rng.randint(0, 60), rng.randint(0, 60)
    argv = ["game", "--mode", "2omega", "--c", c, "--p0", str(p0), "--p1", str(p1)]
    return Op("game", cli_call(argv),
              lambda a: checks.check_game_2omega(a, var, value, p0, p1), False)


def _euclid(rng, orc) -> Op:
    primes = sorted(rng.sample(checks.PRIMES[:12], rng.randint(2, 6)))
    return Op("euclid", cli_call(["euclid", *map(str, primes)]),
              lambda a: checks.check_euclid(a, primes), False)


def _dickson_found(rng, orc) -> Op:
    seqs = [[rng.randint(0, 60) for _ in range(rng.randint(3, 30))] for _ in range(rng.randint(1, 3))]
    return _dickson(seqs, 120, "dickson_found")


def _dickson_exhausted(rng, orc) -> Op:
    # Strictly decreasing lists longer than the fuel: no pair below the fuel dominates.
    fuel = 130
    seqs = [sorted(rng.sample(range(1000), fuel + 5), reverse=True) for _ in range(2)]
    return _dickson(seqs, fuel, "dickson_exhausted")


def _dickson(seqs: list[list[int]], fuel: int, cls: str) -> Op:
    text = ";".join(",".join(map(str, s)) for s in seqs)
    unresolved = checks.dickson_pairs(seqs, fuel) is None
    return Op(cls, cli_call(["dickson", "--seqs", text, "--fuel", str(fuel)]),
              lambda a: checks.check_dickson(a, seqs, fuel), unresolved)


def _ramsey_small(rng, orc) -> Op:
    return _ramsey("ramsey_small", *rng.choice((
        (4, 3, 2, 2, False), (5, 3, 2, 2, False), (6, 3, 1, 3, False), (7, 4, 1, 2, False),
        (5, 2, 2, 2, True), (4, 2, 2, 2, True))))


def _ramsey_large(M: int, n: int, k: int, r: int, star: bool):
    # Fixed instances: R(3,3) = 6 and the relatively-large variant at M = 6.
    return lambda rng, orc: _ramsey("ramsey_large", M, n, k, r, star)


def _ramsey(cls: str, M: int, n: int, k: int, r: int, star: bool) -> Op:
    argv = ["ramsey", "--M", str(M), "--n", str(n), "--k", str(k), "--r", str(r)] + (["--star"] if star else [])
    return Op(cls, cli_call(argv), lambda a: checks.check_ramsey(a, M, n, k, r, star), False)


WORKLOADS: dict[str, list[tuple[Callable, int]]] = {
    "reals": [(_eval_tree, 24), (_eval_fugitive, 20), (_eval_unresolved, 24), (_try_apart, 20),
              (_try_equal, 16), (_cotrans, 16), (_diagonal, 10)],
    "ivt": [(_ivt("approx", (9, 11)), 36), (_ivt("lnc", (7, 8)), 28), (_ivt("countable", (7, 8)), 16),
            (_ivt_lnc_plateau, 10), (_ivt_countable_hit, 14)],
    "discrete": [(_encode, 48), (_decode, 48), (_game, 48), (_euclid, 32), (_dickson_found, 32),
                 (_hunt_found, 48), (_subbar_open, 32), (_ramsey_small, 32), (_subbar_bar, 32),
                 (_pi, 32), (_hunt_unresolved, 48), (_dickson_exhausted, 24),
                 (_ramsey_large(6, 3, 2, 2, False), 2), (_ramsey_large(6, 2, 2, 2, True), 2)],
}


def make_ops(workload: str, seed: int, rounds: int, orc: Oracle) -> list[Op]:
    ops: list[Op] = []
    for r in range(rounds):
        rng = random.Random(f"{workload}:{seed}:{r}")
        batch = [make(rng, orc) for make, count in WORKLOADS[workload] for _ in range(count)]
        rng.shuffle(batch)
        ops.extend(batch)
    return ops
