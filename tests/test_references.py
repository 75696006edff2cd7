"""The library against the earlier code it replaced, kept here as references.

Each reference is the former implementation, written over public names:
the three step bodies of the intermediate-value procedures, the game
predicates of the CLI, the recursive subbar walk, the bisection that defined
sqrt2, the two-term interpolation of pwl, its enclosure with lam recomputed
on every call, the Fraction expressions that real.py's integer kernels
replaced (from_rational's ends, the four products of ``*``, the comparisons
and width tests of the order scans), and the hand-written least-index loops
that ``streams._first_index`` replaced (the thirds depth, the omega2 move
search, the fugitive frontier and pwl's piece lookup).  The new code must give the same
intervals, answers, call orders and exceptions.
"""

import bisect
import io
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_interval, spike
from conreal import (Apartness, CReal, ContinuousMap, Direction, FuelExhausted, FugitiveSpec,
                     LtWitness, NatStream, PiecewiseLinearSpec, RationalInterval, Split, SplitSide,
                     TooLarge, approx_ivt, certified_within, cotrans_split, diagonal,
                     enumerated_witnesses, fans, fugitive_least, identity_map,
                     ivt_countable_exceptions, ivt_locally_nonconstant, middle_third_oracle, pwl,
                     rho0, rho1, sqrt2, try_apart, try_lt, verify_lt)
from conreal.cli import run
from conreal.ivt import _thirds_depth, require_range
from conreal.real import _lt, _mix, _narrower, _triple_of, half_pow

_ZERO, _ONE = Fraction(0), Fraction(1)


# --- references -------------------------------------------------------------------

def _old_verify_apart(z, y, w):
    if w.direction is Direction.LESS:
        return verify_lt(z, y, w.witness)
    return verify_lt(y, z, w.witness)


def _old_approx_ivt(f, y, p, fuel):
    """approx_ivt as first written: each step encloses f on [m, m] and reads y at one level, both from 0."""
    require_range(f, y, p, fuel)
    eps = half_pow(p + 1)

    def step(prev, _n):
        lo, hi = prev
        m = (lo + hi) / 2
        point = RationalInterval(m, m)
        for level in range(fuel + 1):
            s = f.enclose(point, level)
            yl = y.interval(level)
            if s.width < eps and yl.width < eps:
                break
        else:
            raise FuelExhausted("enclosures did not narrow; malformed map or real")
        if s.hi < yl.lo + eps:
            return RationalInterval(m, hi)
        return RationalInterval(lo, m)

    x = CReal.from_steps(RationalInterval(_ZERO, _ONE), step)
    depth = f.modulus(p + 1) + 2
    x.interval(depth)
    if not certified_within(f, x, y, p, fuel):
        raise FuelExhausted("result could not be certified at the requested precision")
    return x


def _old_lnc(f, y, oracle, depth):
    def step(prev, _n):
        lo, hi = prev
        a = (2 * lo + hi) / 3
        b = (lo + 2 * hi) / 3
        q, w = oracle(a, b)
        if not (a < q < b):
            raise ValueError(f"oracle point {q} outside the middle third ({a}, {b})")
        if not _old_verify_apart(f.at(q), y, w):
            raise ValueError("oracle witness failed verification")
        if w.direction is Direction.LESS:
            return RationalInterval(q, hi)
        return RationalInterval(lo, q)

    x = CReal.from_steps(RationalInterval(_ZERO, _ONE), step)
    x.interval(depth)
    return x


def _old_countable(f, y, apart_at, depth):
    def step(prev, _n):
        lo, hi = prev
        m = (lo + hi) / 2
        w = apart_at(m)
        if not _old_verify_apart(f.at(m), y, w):
            raise ValueError("apartness witness failed verification")
        if w.direction is Direction.LESS:
            return RationalInterval(m, hi)
        return RationalInterval(lo, m)

    x = CReal.from_steps(RationalInterval(_ZERO, _ONE), step)
    x.interval(depth)
    return x


def _old_game_predicates(c):
    if c == "none":
        var, value = "none", None
    else:
        var, value = c[0], int(c[2:])

    def in_c(n, i):
        if var == "none":
            return False
        return (n if var == "n" else i) == value

    def in_c2(i, n):
        if var == "none":
            return False
        return (i if var == "i" else n) == value

    return in_c, in_c2


class _OldUncovered(Exception):
    def __init__(self, path):
        self.path = path


def _old_finite_subbar(bar):
    work = 0

    def visit(path):
        nonlocal work
        work += len(path) + 1  # the budget rule: a member test costs its path length + 1
        if work > fans._WORK_BUDGET:
            raise TooLarge("over the budget")
        if bar.member(tuple(path)):
            return [tuple(path)]
        if len(path) == bar.max_depth:
            raise _OldUncovered(path)
        return visit(path + [0]) + visit(path + [1])

    try:
        return visit([])
    except _OldUncovered as u:
        return fans.NotBarWithinDepth(tuple(u.path))


def _bisection_sqrt2():
    def step(prev, _n):
        lo, hi = prev
        mid = (lo + hi) / 2
        if mid * mid <= 2:
            return RationalInterval(mid, hi)
        return RationalInterval(lo, mid)

    return CReal.from_steps(RationalInterval(Fraction(1), Fraction(2)), step)


# --- intermediate-value procedures -------------------------------------------------

def _random_case(rng):
    """Nodes and a target of a random rational piecewise-linear map; the target
    lies outside [f(0), f(1)] now and then."""
    inner = sorted({Fraction(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 3))})
    bps = [_ZERO] + inner + [_ONE]
    vals = [Fraction(rng.randint(0, 8), 16)]
    vals += [Fraction(rng.randint(0, 16), 16) for _ in inner]
    vals += [Fraction(rng.randint(8, 16), 16)]
    y = Fraction(rng.randint(-1, 17), rng.choice([16, 7, 5]))
    return list(zip(bps, vals)), y


def _build(nodes, y):
    """A fresh map and target, so that no two runs share a cache."""
    spec = PiecewiseLinearSpec(tuple(t for t, _ in nodes),
                               tuple(CReal.from_rational(v) for _, v in nodes))
    return pwl(spec), CReal.from_rational(y)


def _flipped(w):
    other = Direction.GREATER if w.direction is Direction.LESS else Direction.LESS
    return Apartness(other, w.witness)


def _lying_oracle(f, y, fuel):
    honest = middle_third_oracle(f, y, fuel)

    def oracle(a, b):
        q, w = honest(a, b)
        return q, _flipped(w)
    return oracle


def _edge_oracle(f, y, fuel):
    return lambda a, b: (a, middle_third_oracle(f, y, fuel)(a, b)[1])


def _lying_witnesses(f, y, fuel):
    honest = enumerated_witnesses(f, y, fuel)
    return lambda i: _flipped(honest(i))


def _outcome(run_procedure, depth):
    """Intervals 0..depth of the constructed point, or the exception raised,
    as a comparable value."""
    try:
        x = run_procedure()
    except (ValueError, FuelExhausted) as e:
        return type(e), str(e)
    return [x.interval(n) for n in range(depth + 1)]


def _compare(new, old, variants, cases):
    """Run ``new`` and ``old`` on fresh copies of each case and variant and
    return the kinds of outcome seen: "ok" or the first words of the error."""
    kinds = set()
    for nodes, target, depth, args in cases:
        for variant in variants:
            outcomes = []
            for procedure in (new, old):
                f, y = _build(nodes, target)
                outcomes.append(_outcome(lambda: procedure(f, y, variant, depth, *args), depth))
            assert outcomes[0] == outcomes[1], (nodes, target, depth, args, variant)
            out = outcomes[0]
            kinds.add(" ".join(out[1].split()[:3]) if isinstance(out[0], type) else "ok")
    return kinds


def _cases(seed, draw_depth):
    rng = random.Random(seed)
    for _ in range(40):
        nodes, target = _random_case(rng)
        depth, args = draw_depth(rng, nodes)
        yield nodes, target, depth, args


def _approx_case(rng, nodes):
    p, fuel = rng.randint(-3, 10), rng.choice([12, 40])
    return _build(nodes, 0)[0].modulus(p + 1) + 2, (p, fuel)


def _bisection_case(rng, _nodes):
    return rng.randint(0, 14), (rng.choice([12, 40]),)


def test_approx_ivt_matches_reference():
    def new(f, y, _variant, _depth, p, fuel):
        return approx_ivt(f, y, p, fuel)

    def old(f, y, _variant, _depth, p, fuel):
        return _old_approx_ivt(f, y, p, fuel)

    kinds = _compare(new, old, [None], _cases(601, _approx_case))
    assert {"ok", "need f(0) <="} <= kinds


@pytest.mark.parametrize("p", range(9))
def test_approx_ivt_keeps_the_lower_half_when_f_m_hi_is_exactly_y_lo_plus_eps(p):
    # For the identity and a rational y the level found is p + 3; y is chosen so
    # that f(1/2).hi == y.lo + eps there, which is not below: x keeps [0, 1/2].
    eps, level, half = half_pow(p + 1), p + 3, Fraction(1, 2)
    s = identity_map().enclose(RationalInterval(half, half), level)
    target = s.hi - eps + half_pow(level)
    assert s.hi == CReal.from_rational(target).interval(level).lo + eps
    depth = identity_map().modulus(p + 1) + 2
    outcomes = [_outcome(lambda: procedure(identity_map(), CReal.from_rational(target), p, 40),
                         depth) for procedure in (approx_ivt, _old_approx_ivt)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == RationalInterval(_ZERO, half)


def test_locally_nonconstant_matches_reference():
    def run_with(procedure):
        def go(f, y, make_oracle, depth, fuel):
            return procedure(f, y, make_oracle(f, y, fuel), depth)
        return go

    kinds = _compare(run_with(ivt_locally_nonconstant), run_with(_old_lnc),
                     [middle_third_oracle, _lying_oracle, _edge_oracle],
                     _cases(602, _bisection_case))
    assert {"ok", "oracle witness failed", "no apartness witness"} <= kinds
    assert any(kind.startswith("oracle point") for kind in kinds)


def test_countable_exceptions_matches_reference():
    def run_with(procedure):
        def go(f, y, make_witnesses, depth, fuel):
            return procedure(f, y, make_witnesses(f, y, fuel), depth)
        return go

    kinds = _compare(run_with(ivt_countable_exceptions), run_with(_old_countable),
                     [enumerated_witnesses, _lying_witnesses], _cases(603, _bisection_case))
    assert {"ok", "apartness witness failed", "no apartness witness"} <= kinds


# --- the CLI's game predicates -----------------------------------------------------

def _game_plain(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0
    return out.getvalue()


def test_game_predicate_matches_old_closures():
    predicates = ["none"] + [f"{v}={k}" for v in "ni" for k in range(4)]
    for c in predicates:
        in_c, in_c2 = _old_game_predicates(c)
        for bound in range(5):
            outcome = fans.solve_omega2(fans.GameSpecOmega2(in_c, bound))
            if isinstance(outcome, fans.WinningMove):
                expected = f"winning move: {outcome.move}\n"
            else:
                expected = "counter strategy: [" + ",".join(map(str, outcome.moves)) + "]\n"
            argv = ["game", "--mode", "omega2", "--c", c, "--bound", str(bound)]
            assert _game_plain(argv) == expected, argv
        for p0 in range(4):
            for p1 in range(4):
                answer = fans.answer_strategy_2omega(fans.GameSpec2Omega(in_c2), p0, p1)
                expected = "no answer\n" if answer is None else f"answer: {answer}\n"
                argv = ["game", "--mode", "2omega", "--c", c, "--p0", str(p0), "--p1", str(p1)]
                assert _game_plain(argv) == expected, argv


# --- the subbar walk ----------------------------------------------------------------

def _random_cut(rng, path, depth):
    """Prefixes that cover the subtree below ``path``, but for a rare gap."""
    if len(path) == depth or rng.random() < 0.25:
        return set() if rng.random() < 0.03 else {path}
    return _random_cut(rng, path + (0,), depth) | _random_cut(rng, path + (1,), depth)


def test_finite_subbar_matches_recursive_walk(monkeypatch):
    rng = random.Random(604)
    outcomes_seen = set()
    for _ in range(300):
        depth = rng.randint(0, 8)
        prefixes = _random_cut(rng, (), depth)
        # At the real budget, then at a small one: both walks raise after the same visits.
        for budget in (fans._WORK_BUDGET, rng.randint(1, 80)):
            monkeypatch.setattr(fans, "_WORK_BUDGET", budget)
            outcomes = []
            for walk in (fans.finite_subbar, _old_finite_subbar):
                visits = []

                def member(path, visits=visits):
                    visits.append(path)
                    return path in prefixes

                try:
                    outcome = walk(fans.DecidableBar(member, depth))
                except TooLarge:
                    outcome = TooLarge
                outcomes.append((outcome, visits))
            assert outcomes[0] == outcomes[1], (depth, prefixes, budget)
            outcomes_seen.add(outcome if outcome is TooLarge else type(outcome))
    assert outcomes_seen == {list, fans.NotBarWithinDepth, TooLarge}


# --- sqrt2 ------------------------------------------------------------------------

def test_sqrt2_closed_form_matches_bisection():
    closed, bisection = sqrt2(), _bisection_sqrt2()
    for n in range(2000):
        assert closed.interval(n) == bisection.interval(n), n


# --- the approx_ivt level search and pwl enclosures ------------------------------

def _slow(v):
    """v as a real that narrows three times slower than from_rational."""
    return CReal(lambda n: RationalInterval(v - half_pow(n // 3), v + half_pow(n // 3)))


_TARGETS = {
    "sqrt2": lambda t, k: sqrt2() * CReal.from_rational(t * Fraction(5, 7)),
    "rho": lambda t, k: CReal.from_rational(t) + rho1(spike(k)),
    "point": lambda t, k: CReal(lambda n: RationalInterval(t, t)),
}


def test_approx_ivt_matches_reference_on_irrational_targets():
    # Slow nodes and point targets make y narrow before the map does.  Targets
    # run from f(0) to f(1), which the scaling by 5/7 sqrt2 or rho may leave.
    rng = random.Random(605)
    kinds = set()
    for _ in range(30):
        nodes, _target = _random_case(rng)
        target = nodes[0][1] + (nodes[-1][1] - nodes[0][1]) * Fraction(rng.randint(0, 14), 14)
        p, fuel, k = rng.randint(1, 8), rng.choice([12, 40]), rng.randint(0, 12)
        for name, make_y in _TARGETS.items():
            for node in (CReal.from_rational, _slow):
                def build():
                    spec = PiecewiseLinearSpec(tuple(t for t, _ in nodes),
                                               tuple(node(v) for _, v in nodes))
                    return pwl(spec), make_y(target, k)

                depth = build()[0].modulus(p + 1) + 2
                outcomes = [_outcome(lambda: procedure(*build(), p, fuel), depth)
                            for procedure in (approx_ivt, _old_approx_ivt)]
                assert outcomes[0] == outcomes[1], (nodes, target, name, node, p, fuel, k)
                out = outcomes[0]
                kinds.add(" ".join(out[1].split()[:3]) if isinstance(out[0], type) else "ok")
    assert {"ok", "need f(0) <=", "no interval of"} <= kinds


def _counting(f):
    calls = []

    def enclose(iv, p):
        calls.append(p)
        return f.enclose(iv, p)
    return ContinuousMap(enclose, f.modulus), calls


@pytest.mark.parametrize("procedure, per_step", [(approx_ivt, 1), (_old_approx_ivt, 14)])
def test_level_search_encloses_once_per_step(procedure, per_step):
    # For a rational y the width 2^(1-n) of y binds, so the least level is
    # p + 3; the linear search enclosed at every level 0..p+3 on the way.
    nodes = [(_ZERO, Fraction(1, 8)), (Fraction(1, 3), Fraction(3, 4)), (_ONE, Fraction(7, 8))]
    f, calls = _counting(_build(nodes, 0)[0])
    y = CReal.from_rational(Fraction(3, 7))
    p = 10
    x = procedure(f, y, p, 128)
    depth = f.modulus(p + 1) + 2
    before = len(calls)
    x.interval(depth + 20)
    assert len(calls) - before == 20 * per_step
    assert calls[-1] == p + 3


def _old_enclose(spec, iv, p, node_fuel=96):
    bps, values = spec.breakpoints, spec.values

    def eval_point(t, q):
        i = 0
        while i + 2 < len(bps) and bps[i + 1] <= t:
            i += 1
        lam = (t - bps[i]) / (bps[i + 1] - bps[i])
        a, b = values[i].approx(q, node_fuel), values[i + 1].approx(q, node_fuel)
        return RationalInterval((1 - lam) * a.lo + lam * b.lo, (1 - lam) * a.hi + lam * b.hi)

    points = [iv.lo] + [t for t in bps if iv.lo < t < iv.hi] + [iv.hi]
    parts = [eval_point(t, p + 2) for t in points]
    return RationalInterval(min(part.lo for part in parts), max(part.hi for part in parts))


def test_pwl_enclose_matches_two_term_interpolation():
    rng = random.Random(606)
    for _ in range(60):
        nodes, _target = _random_case(rng)
        spec = PiecewiseLinearSpec(tuple(t for t, _ in nodes),
                                   tuple(CReal.from_rational(v) for _, v in nodes))
        f = pwl(spec)
        inputs = [RationalInterval(t, t) for t, _ in nodes]
        for _ in range(8):
            a, b = sorted(Fraction(rng.randint(0, 48), 48) for _ in range(2))
            inputs += [RationalInterval(a, a), RationalInterval(a, b)]
        for iv in inputs:
            p = rng.randint(-2, 14)
            assert f.enclose(iv, p) == _old_enclose(spec, iv, p), (nodes, iv, p)


def test_enclose_raising_only_where_y_is_wide_now_answers():
    # The one behaviour change of the y-first search: levels where y is still
    # wider than 2^-(p+1) are never enclosed, so a map that raises only there
    # no longer aborts approx_ivt.
    def flaky():
        base = identity_map()

        def enclose(iv, level):
            if level < 3:
                raise FuelExhausted("map not ready below level 3")
            return base.enclose(iv, level)
        return ContinuousMap(enclose, base.modulus)

    y = CReal.from_rational(Fraction(1, 3))
    f = flaky()
    x = approx_ivt(f, y, 4)
    assert certified_within(f, x, y, 4, 64)
    with pytest.raises(FuelExhausted, match="map not ready below level 3"):
        _old_approx_ivt(flaky(), y, 4, 128)


# --- least-index loops now routed through streams._first_index ------------------

def _old_thirds_depth(target):
    d = 0
    while 3 ** d < (1 << (d + target)):
        d += 1
    return d


def _value_or_error(call):
    try:
        return call()
    except (ValueError, FuelExhausted) as e:
        return type(e), str(e)


def test_thirds_depth_matches_loop():
    # The loop raised "negative shift count" below 0; (2/3)^0 <= 2^-t there, so depth 0.
    for t in range(-3, 0):
        assert _thirds_depth(t) == 0, t
    for t in range(0, 301):
        assert _value_or_error(lambda: _thirds_depth(t)) == \
            _value_or_error(lambda: _old_thirds_depth(t)), t
    # The gallop at a target the loop takes seconds over: checked by the two
    # inequalities that define the least depth d.
    t = 20000
    d = _thirds_depth(t)
    assert 3 ** d >= 1 << (d + t) and 3 ** (d - 1) < 1 << (d - 1 + t)


def _old_solve_omega2(g):
    if g.n_bound < 0:
        raise ValueError("n_bound must be a natural")
    for n in range(g.n_bound):
        if g.in_c(n, 0) and g.in_c(n, 1):
            return fans.WinningMove(n)
    return fans.CounterStrategyPrefix(tuple(0 if not g.in_c(n, 0) else 1
                                            for n in range(g.n_bound)))


def test_solve_omega2_asks_in_c_as_the_loop_did():
    rng = random.Random(612)
    kinds = set()
    for _ in range(400):
        bound = rng.randint(-1, 8)
        table = {(n, i): rng.random() < 0.6 for n in range(max(bound, 0)) for i in (0, 1)}
        got = []
        for solve in (fans.solve_omega2, _old_solve_omega2):
            calls = []

            def in_c(n, i, calls=calls):
                calls.append((n, i))
                return table[n, i]
            got.append((_value_or_error(lambda: solve(fans.GameSpecOmega2(in_c, bound))),
                        calls))
        assert got[0] == got[1], (bound, table)
        kinds.add(type(got[0][0]))
    assert kinds == {fans.WinningMove, fans.CounterStrategyPrefix, tuple}


class _RecordingStream(NatStream):
    def __init__(self, generate, reads):
        super().__init__(generate)
        self._reads = reads

    def __getitem__(self, n):
        self._reads.append(n)
        return super().__getitem__(n)


def _old_fugitive_least(f, front, n):
    while front["fired"] is None and front["clear"] <= n:
        if f.indicator[front["clear"]] != 0:
            front["fired"] = front["clear"]
        else:
            front["clear"] += 1
    fired = front["fired"]
    return fired if fired is not None and fired <= n else None


def test_fugitive_least_reads_the_indicator_as_the_loop_did():
    rng = random.Random(613)
    for _ in range(300):
        prefix = [rng.randint(0, 1) if rng.random() < 0.3 else 0
                  for _ in range(rng.randint(1, 20))]
        tail = rng.choice([0, 1])
        queries = [rng.randint(-1, 25) for _ in range(rng.randint(1, 8))]
        new_reads, old_reads = [], []

        def value(i, prefix=prefix, tail=tail):
            return prefix[i] if i < len(prefix) else tail
        new = FugitiveSpec(_RecordingStream(value, new_reads))
        old = FugitiveSpec(_RecordingStream(value, old_reads))
        front = {"clear": 0, "fired": None}
        answers = [(fugitive_least(new, n), _old_fugitive_least(old, front, n)) for n in queries]
        assert all(a == b for a, b in answers), (prefix, tail, queries)
        assert new_reads == old_reads, (prefix, tail, queries)


class _LoggedReal(CReal):
    """The rational v, logging every least-index search as (tag, p, fuel)."""

    def __init__(self, v, tag, log):
        super().__init__(lambda n: RationalInterval(v - half_pow(n), v + half_pow(n)))
        self._tag, self._log = tag, log

    def _least(self, p, fuel):
        self._log.append((self._tag, p, fuel))
        return super()._least(p, fuel)


def _old_eval_point(values, bps, t, q):
    i = 0
    while i + 2 < len(bps) and bps[i + 1] <= t:
        i += 1
    lam = (t - bps[i]) / (bps[i + 1] - bps[i])
    a, b = values[i].approx(q, 96), values[i + 1].approx(q, 96)
    return RationalInterval(a.lo + lam * (b.lo - a.lo), a.hi + lam * (b.hi - a.hi))


def test_pwl_point_enclosures_pick_the_piece_the_loop_did():
    rng = random.Random(614)
    for _ in range(60):
        nodes, _target = _random_case(rng)
        bps = tuple(t for t, _ in nodes)
        points = set(bps) | {Fraction(rng.randint(0, 60), 60) for _ in range(4)}
        for t in sorted(points):
            p = rng.randint(-2, 14)
            new_log, old_log = [], []
            f = pwl(PiecewiseLinearSpec(bps, tuple(_LoggedReal(v, k, new_log)
                                                   for k, (_, v) in enumerate(nodes))))
            old_values = [_LoggedReal(v, k, old_log) for k, (_, v) in enumerate(nodes)]
            assert f.enclose(RationalInterval(t, t), p) == \
                _old_eval_point(old_values, bps, t, p + 2), (nodes, t, p)
            assert new_log == old_log, (nodes, t, p)


def _old_pwl_enclose(values, bps, node_ivs, iv, p):
    """The enclosure before points kept their piece: lam is recomputed on every
    call, node approximations are memoized per (node, precision) as pwl does."""
    def node_iv(k, q):
        if (k, q) not in node_ivs:
            node_ivs[k, q] = values[k].approx(q, 96)
        return node_ivs[k, q]

    def eval_point(t, q):
        i = 0
        while i + 2 < len(bps) and bps[i + 1] <= t:
            i += 1
        lam = (t - bps[i]) / (bps[i + 1] - bps[i])
        a, b = node_iv(i, q), node_iv(i + 1, q)
        return RationalInterval(a.lo + lam * (b.lo - a.lo), a.hi + lam * (b.hi - a.hi))

    points = [iv.lo] + [t for t in bps if iv.lo < t < iv.hi]
    if iv.hi != iv.lo:
        points.append(iv.hi)
    parts = [eval_point(t, p + 2) for t in points]
    return RationalInterval(min(part.lo for part in parts), max(part.hi for part in parts))


def test_pwl_enclose_matches_lam_recomputed_each_call():
    # One map per case answers a shuffled run of queries: points asked again at
    # other precisions (their piece comes from the cache), and subintervals
    # spanning breakpoints.  Answers and the (tag, p, fuel) approx log match.
    rng = random.Random(615)
    spans = 0
    for _ in range(60):
        nodes, _target = _random_case(rng)
        bps = tuple(t for t, _ in nodes)
        new_log, old_log = [], []
        f = pwl(PiecewiseLinearSpec(bps, tuple(_LoggedReal(v, k, new_log)
                                               for k, (_, v) in enumerate(nodes))))
        old_values = [_LoggedReal(v, k, old_log) for k, (_, v) in enumerate(nodes)]
        old_nodes = {}
        points = sorted(set(bps) | {Fraction(rng.randint(0, 48), 48) for _ in range(4)})
        queries = [(RationalInterval(t, t), rng.randint(-2, 14)) for t in points for _ in range(3)]
        for _ in range(6):
            a, b = sorted(Fraction(rng.randint(0, 48), 48) for _ in range(2))
            queries.append((RationalInterval(a, b), rng.randint(-2, 14)))
            spans += any(a < t < b for t in bps)
        rng.shuffle(queries)
        for iv, p in queries:
            assert f.enclose(iv, p) == _old_pwl_enclose(old_values, bps, old_nodes, iv, p), \
                (nodes, iv, p)
            assert new_log == old_log, (nodes, iv, p)
    assert spans > 50


# --- integer kernels of real.py against the Fraction expressions they replaced -----

def _old_from_rational(q, n):
    h = Fraction(1, 1 << n)
    return RationalInterval(q - h, q + h)


def _old_mul(a, b):
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RationalInterval(min(products), max(products))


def _as_fractions(iv):
    """iv with Fraction ends: an operator real's ends are Fractions, whatever its parts' are."""
    return RationalInterval(Fraction(iv.lo), Fraction(iv.hi))


_rationals = st.one_of(
    st.integers(-2 ** 80, 2 ** 80),
    st.fractions(),
    st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200)))


@st.composite
def _intervals(draw):
    """Negative, zero, point, straddling, nonnegative, ordered and reversed
    intervals.  Both ends are Fractions, as library reals give, or both ints,
    as a caller generator may return, or one of each."""
    ends = draw(st.sampled_from(["fraction", "int", "mixed"]))
    values = _rationals if ends == "fraction" else st.integers(-2 ** 80, 2 ** 80)
    x, y = draw(values), draw(values)
    a, b = abs(x), abs(y)
    lo, hi = {
        "negative": (-a - b, -a),
        "zero": (0 * x, 0 * y),
        "point": (x, x),
        "straddling": (-a, b),
        "nonnegative": (a, a + b),
        "ordered": (min(x, y), max(x, y)),
        "reversed": (max(x, y), min(x, y)),
    }[draw(st.sampled_from(["negative", "zero", "point", "straddling", "nonnegative",
                            "ordered", "reversed"]))]
    if ends == "fraction":
        lo, hi = Fraction(lo), Fraction(hi)
    elif ends == "mixed":
        lo, hi = draw(st.sampled_from([(Fraction(lo), hi), (lo, Fraction(hi))]))
    return RationalInterval(lo, hi)


@settings(max_examples=600, deadline=None)
@given(x=_rationals, y=_rationals, pick=st.sampled_from(["other", "same", "same value"]))
def test_lt_kernel_is_the_comparison(x, y, pick):
    y = {"other": y, "same": x, "same value": Fraction(x)}[pick]
    assert _lt(x, y) is (x < y)


@settings(max_examples=600, deadline=None)
@given(iv=_intervals(), bound=_rationals, at=st.sampled_from(["any", "width"]),
       nudge=st.integers(-1, 1))
def test_width_kernel_is_the_width_test(iv, bound, at, nudge):
    if at == "width":
        bound = iv.width + Fraction(nudge, 1 << 300)
    lo, hi, den = _triple_of(iv)
    assert _narrower(hi - lo, den, bound) is (iv.width < bound)


@settings(max_examples=1500, deadline=None)
@given(a=_intervals(), b=_intervals())
def test_mul_matches_four_products(a, b):
    # Through CReal.__mul__, so both its nonnegative fast path and the
    # four products are compared; reversed intervals come from caller
    # generators that break the nesting contract.
    new = (CReal(lambda n: a) * CReal(lambda n: b)).interval(0)
    assert same_interval(new, _as_fractions(_old_mul(a, b))), (a, b)


@settings(max_examples=1000, deadline=None)
@given(a=_intervals(), b=_intervals())
def test_add_neg_abs_over_caller_generators_match_the_fraction_formulas(a, b):
    # A caller generator is not direct: each operator reads its triple from its
    # interval, reversed ones included, and gives the Fraction formula's value.
    x, y = CReal(lambda n: a), CReal(lambda n: b)
    old = {"+": RationalInterval(a.lo + b.lo, a.hi + b.hi),
           "-": RationalInterval(a.lo - b.hi, a.hi - b.lo),
           "neg": RationalInterval(-a.hi, -a.lo),
           "abs": RationalInterval(max(_ZERO, a.lo, -a.hi), max(abs(a.lo), abs(a.hi)))}
    new = {"+": x + y, "-": x - y, "neg": -x, "abs": abs(x)}
    for op, real in new.items():
        assert not real._direct
        assert same_interval(real.interval(0), _as_fractions(old[op])), (op, a, b)


@settings(max_examples=600, deadline=None)
@given(q=_rationals, n=st.integers(0, 300))
def test_from_rational_kernel_matches_fraction_sums(q, n):
    assert same_interval(CReal.from_rational(q).interval(n), _old_from_rational(Fraction(q), n))


def _old_sqrt2(n):
    a = math.isqrt(2 << 2 * n)
    return RationalInterval(Fraction(a, 1 << n), Fraction(a + 1, 1 << n))


def _old_pinned(fires, n, value):
    if fires is None or fires > n:
        h = Fraction(1, 1 << n)
        return RationalInterval(-h, h)
    v = value(fires)
    return RationalInterval(v, v)


def _pwl_point(a, b, t):
    return pwl(PiecewiseLinearSpec((0, 1), (CReal.from_rational(a), CReal.from_rational(b)))).at(t)


_small = st.one_of(st.just(Fraction(0)), st.fractions(-8, 8, max_denominator=40),
                   st.fractions(Fraction(-1, 2 ** 20), Fraction(1, 2 ** 20), max_denominator=2 ** 30))
_fires = st.one_of(st.none(), st.integers(0, 300))
_direct_leaves = st.one_of(
    st.tuples(st.just("q"), _small),
    st.just(("sqrt2",)),
    st.tuples(st.sampled_from(["rho0", "rho1"]), _fires),
    st.tuples(st.just("pwl"), _small, _small, st.fractions(0, 1, max_denominator=16)))
_direct_trees = st.recursive(_direct_leaves, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["neg", "abs"]), sub),
    st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub)), max_leaves=5)


def _direct_real(t):
    """The library real of a tree, with every subtree's real as (tree, real) pairs."""
    kind = t[0]
    if kind == "q":
        real = CReal.from_rational(t[1])
    elif kind == "sqrt2":
        real = sqrt2()
    elif kind in ("rho0", "rho1"):
        real = (rho0 if kind == "rho0" else rho1)(spike(t[1]))
    elif kind == "pwl":
        real = _pwl_point(*t[1:])
    else:
        parts = [_direct_real(u) for u in t[1:]]
        reals = [r for r, _ in parts]
        real = {"neg": operator.neg, "abs": abs, **_BINARY}[kind](*reals)
        return real, [pair for _, pairs in parts for pair in pairs] + [(t, real)]
    return real, [(t, real)]


def _old_direct_interval(t, n):
    """Interval n of a tree by the Fraction formulas real.py used before triples."""
    kind = t[0]
    if kind == "q":
        return _old_from_rational(t[1], n)
    if kind == "sqrt2":
        return _old_sqrt2(n)
    if kind == "rho0":
        return _old_pinned(t[1], n, lambda k: Fraction(1, 1 << k))
    if kind == "rho1":
        return _old_pinned(t[1], n, lambda k: Fraction(1 if k % 2 == 0 else -1, 1 << k))
    if kind == "pwl":
        return _pwl_point(*t[1:]).interval(n)  # a fresh map: pwl's own formula, unchanged
    a = _old_direct_interval(t[1], n)
    if kind == "neg":
        return RationalInterval(-a.hi, -a.lo)
    if kind == "abs":
        return RationalInterval(max(_ZERO, a.lo, -a.hi), max(abs(a.lo), abs(a.hi)))
    b = _old_direct_interval(t[2], n)
    if kind == "-":
        kind, b = "+", RationalInterval(-b.hi, -b.lo)
    if kind == "+":
        return RationalInterval(a.lo + b.lo, a.hi + b.hi)
    return _old_mul(a, b)


@settings(max_examples=800, deadline=None)
@given(t=_direct_trees, n=st.one_of(st.integers(0, 24), st.integers(0, 300)))
def test_direct_triple_kernels_match_fraction_formulas(t, n):
    # Every leaf and operator of a direct real against its Fraction formula: rationals
    # below, at and above 0, sqrt2, rho0/rho1 before and after they fire (points),
    # and a pwl point value, whose triple is derived from its interval.
    real, subtrees = _direct_real(t)
    assert real._direct
    for u, sub in reversed(subtrees):
        assert same_interval(sub.interval(n), _old_direct_interval(u, n)), (u, n)


def _random_tree(rng, depth):
    """A real as a tuple tree: rationals (negative, zero and positive, so that
    intervals straddle 0), sqrt2, int points from a caller generator, and
    + - * neg abs."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(["q", "q", "q", "sqrt2", "int"])
        if leaf == "q":
            return "q", Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 7, 8]))
        return ("int", rng.randint(-2, 2)) if leaf == "int" else ("sqrt2",)
    op = rng.choice(["+", "-", "*", "*", "*", "neg", "abs"])
    if op in ("neg", "abs"):
        return op, _random_tree(rng, depth - 1)
    return op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _new_real(t):
    kind = t[0]
    if kind == "q":
        return CReal.from_rational(t[1])
    if kind == "int":
        return CReal(lambda n, k=t[1]: RationalInterval(k, k))
    if kind == "sqrt2":
        return sqrt2()
    if kind == "neg":
        return -_new_real(t[1])
    if kind == "abs":
        return abs(_new_real(t[1]))
    return _BINARY[kind](_new_real(t[1]), _new_real(t[2]))


def _old_reader():
    """Interval n of a tree by the Fraction formulas real.py used before its
    integer kernels, memoized per (subtree, n)."""
    cache = {}
    root2 = sqrt2()

    def formula(t, n):
        kind = t[0]
        if kind == "q":
            return _old_from_rational(t[1], n)
        if kind == "int":
            return RationalInterval(t[1], t[1])
        if kind == "sqrt2":
            return root2.interval(n)
        a = read(t[1], n)
        if kind == "neg":
            return RationalInterval(-a.hi, -a.lo)
        if kind == "abs":
            return RationalInterval(max(_ZERO, a.lo, -a.hi), max(abs(a.lo), abs(a.hi)))
        b = read(t[2], n)
        if kind == "-":
            kind, b = "+", RationalInterval(-b.hi, -b.lo)
        if kind == "+":
            return RationalInterval(a.lo + b.lo, a.hi + b.hi)
        return _old_mul(a, b)

    def read(t, n):
        if (t, n) not in cache:
            iv = formula(t, n)
            cache[t, n] = iv if t[0] in ("q", "int", "sqrt2") else _as_fractions(iv)
        return cache[t, n]
    return read


def _old_least(pred, lo, hi):
    return next((n for n in range(lo, hi + 1) if pred(n)), None)


def _old_diagonal_step(prev, n, t, read):
    """Interval n + 1 of the diagonal by the old width and order tests."""
    lo, hi = prev
    one_third, two_thirds = (2 * lo + hi) / 3, (lo + 2 * hi) / 3
    m = _old_least(lambda m: read(t, m).width < Fraction(1, 3 ** (n + 1)), 0, 4 * (n + 2))
    return RationalInterval(lo, one_third) if one_third < read(t, m).lo else RationalInterval(two_thirds, hi)


def test_order_scans_pick_the_least_indices_the_fraction_tests_did():
    rng = random.Random(1344)
    read = _old_reader()
    seen = {"lt": 0, "apart": 0, "greater": 0, "split": set()}
    for _ in range(150):
        x, y, z = (_random_tree(rng, rng.randint(0, 3)) for _ in range(3))
        fuel = rng.choice([0, 6, 40])
        reals = [_new_real(t) for t in (x, y, z)]
        for n in range(fuel + 1):
            for t, real in zip((x, y, z), reals):
                assert same_interval(real.interval(n), read(t, n)), (t, n)
            assert verify_lt(reals[0], reals[1], LtWitness(n)) is (read(x, n).hi < read(y, n).lo)
        old_lt = _old_least(lambda n: read(x, n).hi < read(y, n).lo, 0, fuel)
        w = try_lt(_new_real(x), _new_real(y), fuel)
        assert w == (None if old_lt is None else LtWitness(old_lt)), (x, y, fuel)
        old_apart = _old_least(lambda n: read(x, n).hi < read(y, n).lo or read(y, n).hi < read(x, n).lo,
                               0, fuel)
        a = try_apart(_new_real(x), _new_real(y), fuel)
        if old_apart is None:
            assert a is None, (x, y, fuel)
        else:
            less = read(x, old_apart).hi < read(y, old_apart).lo
            assert (a.witness.index, a.direction) == \
                (old_apart, Direction.LESS if less else Direction.GREATER), (x, y, fuel)
            seen["apart"] += 1
            seen["greater"] += not less
        if w is None:
            continue
        seen["lt"] += 1
        x_hi, y_lo = read(x, w.index).hi, read(y, w.index).lo
        m = _old_least(lambda n: read(z, n).width < y_lo - x_hi, w.index, w.index + 400)
        side = SplitSide.LEFT_IS_LESS if x_hi < read(z, m).lo else SplitSide.RIGHT_IS_LESS
        split = cotrans_split(_new_real(x), _new_real(y), w, _new_real(z))
        assert (split.side, split.witness) == (side, LtWitness(m)), (x, y, z, w)
        seen["split"].add(side)
    assert seen["lt"] > 30 and seen["greater"] > 10 and seen["apart"] > seen["lt"]
    assert seen["split"] == set(SplitSide)


def test_diagonal_matches_the_fraction_width_test():
    # Input real n sits within 3^-(n+1) of the lower third point of interval n,
    # so the side taken depends on which index first has width below 3^-(n+1).
    rng = random.Random(4813)
    read = _old_reader()
    for _ in range(8):
        trees, old = [], [RationalInterval(_ZERO, _ONE)]
        for n in range(48):
            lo, hi = old[-1]
            step = Fraction(1, 3 ** (n + 1))
            near = (2 * lo + hi) / 3 + step * Fraction(rng.randint(-8, 8), 8)
            trees.append(("+", ("q", near), ("*", ("q", step), _random_tree(rng, 2))))
            old.append(_old_diagonal_step(old[-1], n, trees[-1], read))
        d = diagonal(lambda i: _new_real(trees[i]))
        assert all(same_interval(d.interval(n), old[n]) for n in range(49)), trees


# --- scans and pwl point values over triples, against the interval reads they replaced ---

def _old_scan(pred, lo, hi):
    """Least n in lo..hi (hi None: no end) with pred(n), read in order, or None."""
    return next((n for n in (itertools.count(lo) if hi is None else range(lo, hi + 1)) if pred(n)),
                None)


def _old_narrow(x, p):
    return lambda n: x.interval(n).width <= half_pow(p)


def _old_below(x, y):
    return lambda n: x.interval(n).hi < y.interval(n).lo


def _old_approx(x, p, fuel):
    n = _old_scan(_old_narrow(x, p), 0, fuel)
    if n is None:
        raise FuelExhausted(f"no interval of width <= 2^-{p} within {fuel} indices")
    return x.interval(n)


def _old_point_values(bps, values):
    """``f.at`` of a pwl map as it was before triples: interval n is ``_mix`` over
    the node approximations at precision n + 2, cached per (node, precision)."""
    node_ivs, points = {}, {}

    def node_iv(k, p):
        if (k, p) not in node_ivs:
            node_ivs[k, p] = _old_approx(values[k], p, None if values[k]._direct else 96)
        return node_ivs[k, p]

    def at(t):
        if t not in points:
            i = bisect.bisect_right(bps, t, 1, len(bps) - 1) - 1
            lam = (t - bps[i]) / (bps[i + 1] - bps[i])
            u, v = lam.numerator, lam.denominator

            def gen(n):
                a, b = node_iv(i, n + 2), node_iv(i + 1, n + 2)
                return RationalInterval(_mix(u, v, a.lo, b.lo), _mix(u, v, a.hi, b.hi))
            points[t] = CReal(gen)
        return points[t]
    return at


_TRIPLE_LEAVES = st.one_of(
    st.tuples(st.just("q"), st.fractions(-3, 3, max_denominator=4)),
    st.tuples(st.just("sqrt2")),
    st.tuples(st.sampled_from(["rho0", "rho1"]), st.none() | st.integers(0, 12)),
    # A caller generator: the int point [k, k], or k -+ 2^-n with its ends reversed.
    st.tuples(st.sampled_from(["int", "reversed"]), st.integers(-2, 2)))
# A pwl node: a leaf real, a caller generator with Fraction ends or with int points.
_TRIPLE_NODES = st.one_of(
    st.tuples(st.just("leaf"), st.integers(0, 99)),
    st.tuples(st.just("gen"), st.fractions(-3, 3, max_denominator=4)),
    st.tuples(st.just("int"), st.integers(-2, 2)))
_TRIPLE_MAPS = st.tuples(st.sets(st.fractions(Fraction(1, 8), Fraction(7, 8), max_denominator=8),
                                 max_size=2),
                         st.lists(_TRIPLE_NODES, min_size=4, max_size=4))
_TRIPLE_STEPS = st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*"]), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.sampled_from(["neg", "abs"]), st.integers(0, 99), st.none()),
    st.tuples(st.just("at"), st.integers(0, 99), st.fractions(0, 1, max_denominator=12)))


def _triple_pool(leaves, maps, steps, log, point_values):
    """The reals of one drawn graph: leaves, pwl point values (through
    ``point_values(bps, values)``) and operators over earlier reals.  Every
    caller generator call is logged as (map, node, index), or ("leaf", leaf, index)."""
    def logged(tag, interval):
        def gen(n):
            log.append((*tag, n))
            return interval(n)
        return CReal(gen)

    pool = []
    for i, leaf in enumerate(leaves):
        if leaf[0] == "q":
            pool.append(CReal.from_rational(leaf[1]))
        elif leaf[0] == "sqrt2":
            pool.append(sqrt2())
        elif leaf[0] == "int":
            pool.append(logged(("leaf", i), lambda n, k=leaf[1]: RationalInterval(k, k)))
        elif leaf[0] == "reversed":
            pool.append(logged(("leaf", i), lambda n, k=leaf[1]: RationalInterval(
                k + half_pow(n), k - half_pow(n))))
        else:
            pool.append((rho0 if leaf[0] == "rho0" else rho1)(spike(leaf[1])))

    ats = []
    for m, (cuts, nodes) in enumerate(maps):
        bps = (_ZERO, *sorted(cuts), _ONE)
        values = []
        for k, (kind, arg) in enumerate(nodes[:len(bps)]):
            if kind == "leaf":
                values.append(pool[arg % len(leaves)])
            elif kind == "gen":
                values.append(logged((m, k), lambda n, v=arg: RationalInterval(v - half_pow(n),
                                                                                 v + half_pow(n))))
            else:
                values.append(logged((m, k), lambda n, k=arg: RationalInterval(k, k)))
        ats.append(point_values(bps, tuple(values)))
    for op, i, j in steps:
        if op == "at":
            pool.append(ats[i % len(ats)](j))
        elif op in ("neg", "abs"):
            pool.append((operator.neg if op == "neg" else abs)(pool[i % len(pool)]))
        else:
            pool.append(_BINARY[op](pool[i % len(pool)], pool[j % len(pool)]))
    return pool


@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(leaves=st.lists(_TRIPLE_LEAVES, min_size=1, max_size=4),
       maps=st.lists(_TRIPLE_MAPS, min_size=1, max_size=2),
       steps=st.lists(_TRIPLE_STEPS, min_size=1, max_size=6),
       picks=st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
       p=st.integers(-2, 30), fuel=st.none() | st.integers(1, 30), scan_fuel=st.integers(0, 30))
def test_scans_and_point_values_over_triples_match_interval_reads(leaves, maps, steps, picks, p,
                                                                  fuel, scan_fuel):
    # The same graph twice: the library's, and one whose point values are the _mix
    # references, scanned by the interval predicates.  Both must answer alike and
    # call the caller generators in the same order, and verify_lt must agree with
    # the comparison of reduced ends at every index the scans may reach.
    new_log, old_log = [], []
    new = _triple_pool(leaves, maps, steps, new_log,
                       lambda bps, values: pwl(PiecewiseLinearSpec(bps, values)).at)
    old = _triple_pool(leaves, maps, steps, old_log, _old_point_values)
    x, y, z = (new[i % len(new)] for i in picks)
    ox, oy, oz = (old[i % len(old)] for i in picks)
    if fuel is None and not x._direct:
        fuel = 30
    got = _value_or_error(lambda: x.approx(p, fuel))
    want = _value_or_error(lambda: _old_approx(ox, p, fuel))
    assert got == want if isinstance(want, tuple) else same_interval(got, want)

    w = try_lt(x, y, scan_fuel)
    n = _old_scan(_old_below(ox, oy), 0, scan_fuel)
    assert w == (None if n is None else LtWitness(n))
    for a, b, oa, ob in ((x, y, ox, oy), (z, y, oz, oy), (x, z, ox, oz)):
        apart = try_apart(a, b, scan_fuel)
        n = _old_scan(lambda n: _old_below(oa, ob)(n) or _old_below(ob, oa)(n), 0, scan_fuel)
        if n is None:
            assert apart is None
        else:
            less = _old_below(oa, ob)(n)
            assert apart == Apartness(Direction.LESS if less else Direction.GREATER, LtWitness(n))
    if w is not None:
        x_hi, y_lo = ox.interval(w.index).hi, oy.interval(w.index).lo
        m = _old_scan(lambda n: oz.interval(n).width < y_lo - x_hi, w.index, None)
        side = SplitSide.LEFT_IS_LESS if x_hi < oz.interval(m).lo else SplitSide.RIGHT_IS_LESS
        assert cotrans_split(x, y, w, z) == Split(side, LtWitness(m))
    assert new_log == old_log
    # After the log check, so that the scans above read cold caches.
    for a, b, oa, ob in ((x, y, ox, oy), (z, y, oz, oy), (x, z, ox, oz)):
        for n in range(scan_fuel + 1):
            assert verify_lt(a, b, LtWitness(n)) == _old_below(oa, ob)(n), n
    for real, ref in zip(new, old):
        for n in range(4):
            assert same_interval(real.interval(n), ref.interval(n)), n
    assert new_log == old_log
