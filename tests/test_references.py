"""The library against the oracles of ``conftest``, one per layer, written from meaning.

Scans against ``least_index``, a brute-force least index read in order;
``+ - * abs neg`` and the leaves they combine against exact ``Fraction``
interval arithmetic over expression trees; ``pwl`` maps against the
interpolation of their node intervals; the three intermediate-value
procedures against one bisection with each one's pick rule; the subbar walk
against an enumeration of paths.  Read orders that the library promises are
pinned as lists of the indices or calls they read.
"""

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apart_oracle, approx_oracle, approx_pick, caller_intervals, cantor_oracle,
                      diagonal_oracle, ivt_oracle, least_index, logged, lt_oracle, outcome,
                      pwl_oracle, random_tree, rationals, recording, same_interval, slow, spike,
                      split_oracle, subbar_oracle, tree_direct, tree_graphs, tree_node, tree_reader,
                      tree_real, witness_pick)
from conreal import (Apartness, CReal, ContinuousMap, Direction, FuelExhausted, FugitiveSpec,
                     LtWitness, NatStream, PiecewiseLinearSpec, RationalInterval, SplitSide,
                     TooLarge, approx_ivt, cantor_point, certified_within, cotrans_split, diagonal,
                     enumerated_witnesses, fans, fugitive_least, identity_map,
                     ivt_countable_exceptions, ivt_locally_nonconstant, middle_third_oracle, pwl,
                     sqrt2, try_apart, try_lt, verify_lt)
from conreal.cli import run
from conreal.ivt import _thirds_depth, require_range
from conreal.real import _lt, _narrower, _triple_of, half_pow

_ZERO, _ONE = Fraction(0), Fraction(1)


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


def _map(nodes, node=CReal.from_rational):
    """A fresh pwl map through nodes, and f(q) at precision n by the pwl oracle over other
    fresh node reals, so that no two runs share a cache."""
    bps = tuple(t for t, _ in nodes)
    f = pwl(PiecewiseLinearSpec(bps, tuple(node(v) for _, v in nodes)))
    return f, pwl_oracle(bps, [node(v) for _, v in nodes]).value


def _approx_ivt_oracle(f, f_at, y, y_read, p, fuel):
    """approx_ivt's meaning: the oracle bisection between the library's range check and
    its certification."""
    require_range(f, y, p, fuel)
    x = ivt_oracle(approx_pick(f_at, y_read, p, fuel), max(f.modulus(p + 1) + 2, 0))
    if not certified_within(f, x, y, p, fuel):
        raise FuelExhausted("result could not be certified at the requested precision")
    return x


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


def _intervals(x, depth):
    return [x.interval(n) for n in range(depth + 1)]


def _kind(out):
    """"ok", or the first words of the error of an outcome."""
    return " ".join(out[1].split()[:3]) if isinstance(out[0], type) else "ok"


def _approx_ivt_outcomes(nodes, y, p, fuel, node=CReal.from_rational):
    """approx_ivt and its oracle, each on a fresh map through nodes and the target tree y:
    their intervals 0..depth, or their errors."""
    depth = _map(nodes, node)[0].modulus(p + 1) + 2
    f, _ = _map(nodes, node)
    new = outcome(lambda: _intervals(approx_ivt(f, tree_real(y), p, fuel), depth))
    f, f_at = _map(nodes, node)
    old = outcome(lambda: _intervals(
        _approx_ivt_oracle(f, f_at, tree_real(y), tree_reader(y), p, fuel), depth))
    return new, old


def test_approx_ivt_matches_reference():
    rng, kinds = random.Random(601), set()
    for _ in range(40):
        nodes, target = _random_case(rng)
        p, fuel = rng.randint(-3, 10), rng.choice([12, 40])
        new, old = _approx_ivt_outcomes(nodes, ("q", target), p, fuel)
        assert new == old, (nodes, target, p, fuel)
        kinds.add(_kind(new))
    assert {"ok", "need f(0) <="} <= kinds


@pytest.mark.parametrize("p", range(9))
def test_approx_ivt_keeps_the_lower_half_when_f_m_hi_is_exactly_y_lo_plus_eps(p):
    # For the identity and a rational y the level found is p + 3; y is chosen so
    # that f(1/2).hi == y.lo + eps there, which is not below: x keeps [0, 1/2].
    eps, level, half = half_pow(p + 1), p + 3, Fraction(1, 2)
    s = identity_map().enclose(RationalInterval(half, half), level)
    target = s.hi - eps + half_pow(level)
    assert s.hi == CReal.from_rational(target).interval(level).lo + eps
    new, old = _approx_ivt_outcomes([(_ZERO, _ZERO), (_ONE, _ONE)], ("q", target), p, 40)
    assert new == old
    assert new[1] == RationalInterval(_ZERO, half)


def _compare_bisections(procedure, thirds, variants, seed):
    """ivt_locally_nonconstant (thirds) or ivt_countable_exceptions against the oracle
    bisection with its pick, each on a fresh map and target, with each oracle or witness
    builder of ``variants``; returns the kinds of outcome seen."""
    rng, kinds = random.Random(seed), set()
    for _ in range(40):
        nodes, target = _random_case(rng)
        depth, fuel = rng.randint(0, 14), rng.choice([12, 40])
        for make in variants:
            f, _ = _map(nodes)
            y = tree_real(("q", target))
            x = outcome(lambda: procedure(f, y, make(f, y, fuel), depth))
            new = _intervals(x, depth) if isinstance(x, CReal) else x
            f, f_at = _map(nodes)
            y = tree_real(("q", target))
            pick = witness_pick(f_at, tree_reader(("q", target)), make(f, y, fuel), thirds)
            old = outcome(lambda: _intervals(ivt_oracle(pick, depth), depth))
            assert new == old, (nodes, target, depth, fuel, make)
            kinds.add(_kind(new))
            if not isinstance(x, CReal):
                continue
            for n in range(depth + 1):  # each triple in lowest terms, reducing to the oracle's
                lo, hi, den = x._ends(n)
                assert math.gcd(lo, hi, den) == 1, (nodes, target, depth, n)
                assert same_interval(RationalInterval(Fraction(lo, den), Fraction(hi, den)),
                                     old[n]), (nodes, target, depth, n)
    return kinds


def test_locally_nonconstant_matches_reference():
    kinds = _compare_bisections(ivt_locally_nonconstant, True,
                                [middle_third_oracle, _lying_oracle, _edge_oracle], 602)
    assert {"ok", "oracle witness failed", "no apartness witness"} <= kinds
    assert any(kind.startswith("oracle point") for kind in kinds)


def test_countable_exceptions_matches_reference():
    kinds = _compare_bisections(ivt_countable_exceptions, False,
                                [enumerated_witnesses, _lying_witnesses], 603)
    assert {"ok", "apartness witness failed", "no apartness witness"} <= kinds


# --- the CLI's game predicates -----------------------------------------------------

def _game_plain(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0
    return out.getvalue()


def _plays(c):
    """The set C that ``--c`` names, as a test of a play (n, i): empty for "none", else the
    plays whose n, or whose i, is k for "n=k" or "i=k"."""
    if c == "none":
        return lambda n, i: False
    return lambda n, i: (n if c[0] == "n" else i) == int(c[2:])


def test_game_c_names_the_set_of_plays():
    predicates = ["none"] + [f"{v}={k}" for v in "ni" for k in range(4)]
    for c in predicates:
        in_c = _plays(c)
        for bound in range(5):
            solved = fans.solve_omega2(fans.GameSpecOmega2(in_c, bound))
            if isinstance(solved, fans.WinningMove):
                expected = f"winning move: {solved.move}\n"
            else:
                expected = "counter strategy: [" + ",".join(map(str, solved.moves)) + "]\n"
            argv = ["game", "--mode", "omega2", "--c", c, "--bound", str(bound)]
            assert _game_plain(argv) == expected, argv
        for p0 in range(4):
            for p1 in range(4):
                answer = fans.answer_strategy_2omega(fans.GameSpec2Omega(lambda i, n: in_c(n, i)),
                                                     p0, p1)
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
        # At the real budget, then at a small one: the walk raises before the visit past it.
        for budget in (fans._WORK_BUDGET, rng.randint(1, 80)):
            monkeypatch.setattr(fans, "_WORK_BUDGET", budget)
            visits = []

            def member(path):
                visits.append(path)
                return path in prefixes

            try:
                got = fans.finite_subbar(fans.DecidableBar(member, depth))
            except TooLarge:
                got = TooLarge
            assert (got, visits) == subbar_oracle(prefixes.__contains__, depth, budget), \
                (depth, prefixes, budget)
            outcomes_seen.add(got if got is TooLarge else type(got))
    assert outcomes_seen == {list, fans.NotBarWithinDepth, TooLarge}


# --- sqrt2 ------------------------------------------------------------------------

def test_sqrt2_closed_form_matches_bisection():
    # The bisection of [1, 2] at q^2 = 2: interval n is [a/2^n, (a+1)/2^n], a^2 <= 2 4^n < (a+1)^2.
    x = sqrt2()
    for n in range(2000):
        lo, hi = x.interval(n)
        a = lo * 2 ** n
        assert a.denominator == 1 and hi - lo == half_pow(n) and a * a <= 2 * 4 ** n < (a + 1) ** 2, n


# --- the approx_ivt level search and pwl enclosures ------------------------------

_TARGETS = {
    "sqrt2": lambda t, k: ("*", ("sqrt2",), ("q", t * Fraction(5, 7))),
    "rho": lambda t, k: ("+", ("q", t), ("rho1", spike(k))),
    "point": lambda t, k: ("iv", t, t),
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
            for node in (CReal.from_rational, lambda v: CReal(slow(v, 3))):
                new, old = _approx_ivt_outcomes(nodes, make_y(target, k), p, fuel, node)
                assert new == old, (nodes, target, name, node, p, fuel, k)
                kinds.add(_kind(new))
    assert {"ok", "need f(0) <=", "no interval of"} <= kinds


@pytest.mark.parametrize("procedure, per_step", [(approx_ivt, 1)])
def test_level_search_encloses_once_per_step(procedure, per_step):
    # For a rational y the width 2^(1-n) of y binds, so the least level is
    # p + 3; a search from level 0 would enclose at every level 0..p+3.
    nodes = [(_ZERO, Fraction(1, 8)), (Fraction(1, 3), Fraction(3, 4)), (_ONE, Fraction(7, 8))]
    f, calls = recording(_map(nodes)[0])
    y = CReal.from_rational(Fraction(3, 7))
    p = 10
    x = procedure(f, y, p, 128)
    depth = f.modulus(p + 1) + 2
    before = len(calls)
    x.interval(depth + 20)
    assert len(calls) - before == 20 * per_step
    assert calls[-1][1] == p + 3


def _oracle(nodes):
    """The pwl oracle through rational nodes, read exactly."""
    return pwl_oracle(tuple(t for t, _ in nodes), [tree_node(("q", v)) for _, v in nodes])


def test_pwl_enclose_matches_two_term_interpolation():
    rng = random.Random(606)
    for _ in range(60):
        nodes, _target = _random_case(rng)
        f, _ = _map(nodes)
        oracle = _oracle(nodes)
        inputs = [RationalInterval(t, t) for t, _ in nodes]
        for _ in range(8):
            a, b = sorted(Fraction(rng.randint(0, 48), 48) for _ in range(2))
            inputs += [RationalInterval(a, a), RationalInterval(a, b)]
        for iv in inputs:
            p = rng.randint(-2, 14)
            assert f.enclose(iv, p) == oracle.enclose(iv, p), (nodes, iv, p)


def test_enclose_raising_only_where_y_is_wide_now_answers():
    # Levels where y is still wider than 2^-(p+1) are never enclosed, so a map
    # that raises only there does not abort approx_ivt.
    base = identity_map()

    def enclose(iv, level):
        if level < 3:
            raise FuelExhausted("map not ready below level 3")
        return base.enclose(iv, level)

    f, y = ContinuousMap(enclose, base.modulus), CReal.from_rational(Fraction(1, 3))
    x = approx_ivt(f, y, 4, 128)
    assert certified_within(f, x, y, 4, 64)


# --- least-index searches: the thirds depth, the omega2 move, the fugitive ----------

def test_thirds_depth_matches_loop():
    # The least d with (2/3)^d <= 2^-t, cleared of denominators; d = 0 for t <= 0.
    for t in range(-3, 301):
        assert _thirds_depth(t) == least_index(
            lambda d: 2 ** d << max(t, 0) <= 3 ** d << max(-t, 0), 0, None), t
    # The gallop at a target a search from 0 takes seconds over: checked by the two
    # inequalities that define the least depth d.
    t = 20000
    d = _thirds_depth(t)
    assert 3 ** d >= 1 << (d + t) and 3 ** (d - 1) < 1 << (d - 1 + t)


def _omega2(table, bound):
    """solve_omega2 over the set C of the plays (n, i) that table holds true, and the calls it makes."""
    calls = []

    def in_c(n, i):
        calls.append((n, i))
        return table[n, i]
    return outcome(lambda: fans.solve_omega2(fans.GameSpecOmega2(in_c, bound))), calls


def test_solve_omega2_asks_in_c_as_the_loop_did():
    rng = random.Random(612)
    kinds = set()
    for _ in range(400):
        bound = rng.randint(-1, 8)
        table = {(n, i): rng.random() < 0.6 for n in range(max(bound, 0)) for i in (0, 1)}
        move = least_index(lambda n: table[n, 0] and table[n, 1], 0, bound - 1)
        want = (ValueError, "n_bound must be a natural") if bound < 0 else \
            fans.CounterStrategyPrefix(tuple(int(table[n, 0]) for n in range(bound))) \
            if move is None else fans.WinningMove(move)
        got, _ = _omega2(table, bound)
        assert got == want, (bound, table)
        kinds.add(type(got))
    assert kinds == {fans.WinningMove, fans.CounterStrategyPrefix, tuple}
    # One move at a time, (n, 1) only when (n, 0) is in C; with no winning move the
    # counter strategy asks each (n, 0) again.
    table = {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): False, (2, 0): True, (2, 1): True}
    assert _omega2(table, 3) == (fans.WinningMove(2), [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)])
    assert _omega2(table, 2) == (fans.CounterStrategyPrefix((0, 1)),
                                 [(0, 0), (1, 0), (1, 1), (0, 0), (1, 0)])


def test_fugitive_least_reads_the_indicator_as_the_loop_did():
    rng = random.Random(613)
    for _ in range(300):
        prefix = [rng.randint(0, 1) if rng.random() < 0.3 else 0
                  for _ in range(rng.randint(1, 20))]
        tail = rng.choice([0, 1])
        queries = [rng.randint(-1, 25) for _ in range(rng.randint(1, 8))]

        def fires(j, prefix=prefix, tail=tail):
            return (prefix[j] if j < len(prefix) else tail) != 0
        spec = FugitiveSpec(logged(NatStream(lambda j: int(fires(j)))))
        for n in queries:
            assert fugitive_least(spec, n) == least_index(fires, 0, n), (prefix, tail, queries)
        # Each index is read once, in order, up to the last query or the fugitive.
        last = max(queries)
        least = least_index(fires, 0, last)
        assert spec.indicator.log == list(range((last if least is None else least) + 1))


# --- pwl point values: the piece and the node reads ----------------------------------

def test_pwl_point_enclosures_pick_the_piece_the_loop_did():
    # The value at t reads the two nodes of the last piece starting at or before t.
    rng = random.Random(614)
    for _ in range(60):
        nodes, _target = _random_case(rng)
        bps = tuple(t for t, _ in nodes)
        points = set(bps) | {Fraction(rng.randint(0, 60), 60) for _ in range(4)}
        for t in sorted(points):
            p = rng.randint(-2, 14)
            values = [logged(CReal.from_rational(v)) for _, v in nodes]
            f = pwl(PiecewiseLinearSpec(bps, tuple(values)))
            assert f.enclose(RationalInterval(t, t), p) == _oracle(nodes).value(t, p), (nodes, t, p)
            i = max(k for k in range(len(bps) - 1) if bps[k] <= t)
            assert [k for k, value in enumerate(values) if value.log] == [i, i + 1], (nodes, t)


def test_pwl_enclose_matches_lam_recomputed_each_call():
    # One map per case answers a shuffled run of queries: points asked again at
    # other precisions, and subintervals spanning breakpoints.  Asked again, the
    # same queries read no node: each is read once per precision.
    rng = random.Random(615)
    spans = 0
    for _ in range(60):
        nodes, _target = _random_case(rng)
        bps = tuple(t for t, _ in nodes)
        values = [logged(CReal.from_rational(v)) for _, v in nodes]
        f = pwl(PiecewiseLinearSpec(bps, tuple(values)))
        points = sorted(set(bps) | {Fraction(rng.randint(0, 48), 48) for _ in range(4)})
        queries = [(RationalInterval(t, t), rng.randint(-2, 14)) for t in points for _ in range(3)]
        for _ in range(6):
            a, b = sorted(Fraction(rng.randint(0, 48), 48) for _ in range(2))
            queries.append((RationalInterval(a, b), rng.randint(-2, 14)))
            spans += any(a < t < b for t in bps)
        rng.shuffle(queries)
        oracle = _oracle(nodes)
        for iv, p in queries:
            assert f.enclose(iv, p) == oracle.enclose(iv, p), (nodes, iv, p)
        reads = [len(value.log) for value in values]
        for iv, p in queries:
            f.enclose(iv, p)
        assert [len(value.log) for value in values] == reads, nodes
    assert spans > 50


# --- the integer kernels of real.py against exact interval arithmetic ---------------

@settings(max_examples=600, deadline=None)
@given(x=rationals, y=rationals, pick=st.sampled_from(["other", "same", "same value"]))
def test_lt_kernel_is_the_comparison(x, y, pick):
    y = {"other": y, "same": x, "same value": Fraction(x)}[pick]
    assert _lt(x, y) is (x < y)


@settings(max_examples=600, deadline=None)
@given(iv=caller_intervals(), bound=rationals, at=st.sampled_from(["any", "width"]),
       nudge=st.integers(-1, 1))
def test_width_kernel_is_the_width_test(iv, bound, at, nudge):
    if at == "width":
        bound = iv.width + Fraction(nudge, 1 << 300)
    lo, hi, den = _triple_of(iv)
    assert _narrower(hi - lo, den, bound) is (iv.width < bound)


@settings(max_examples=1500, deadline=None)
@given(a=caller_intervals(), b=caller_intervals())
def test_mul_matches_four_products(a, b):
    # Through CReal.__mul__, so both its nonnegative fast path and the four
    # products are compared; reversed intervals come from caller generators
    # that break the nesting contract.
    t = ("*", ("iv", *a), ("iv", *b))
    assert same_interval(tree_real(t).interval(0), tree_reader(t)(0)), (a, b)


@settings(max_examples=1000, deadline=None)
@given(a=caller_intervals(), b=caller_intervals())
def test_add_neg_abs_over_caller_generators_match_the_fraction_formulas(a, b):
    # A caller generator is not direct: each operator reads its triple from its
    # interval, reversed ones included, and gives the Fraction formula's value.
    x, y, made, memo = ("iv", *a), ("iv", *b), {}, {}
    for t in [("+", x, y), ("-", x, y), ("neg", x), ("abs", x)]:
        real = tree_real(t, made)
        assert not real._direct
        assert same_interval(real.interval(0), tree_reader(t, memo)(0)), (t, a, b)


@settings(max_examples=600, deadline=None)
@given(q=rationals, n=st.integers(0, 300))
def test_from_rational_kernel_matches_fraction_sums(q, n):
    assert same_interval(CReal.from_rational(q).interval(n), tree_reader(("q", q))(n))


# --- order scans against the least index over exact intervals -----------------------

# Rationals below, at and above 0 (so that intervals straddle 0), sqrt2 and int points
# from a caller generator; + - * neg abs.
_SCAN_LEAVES = (lambda rng: ("q", Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 7, 8]))),) * 3 + (
    lambda rng: ("sqrt2",), lambda rng: ("iv",) + (rng.randint(-2, 2),) * 2)
_SCAN_OPS = ("+", "-", "*", "*", "*", "neg", "abs")


def test_order_scans_pick_the_least_indices_the_fraction_tests_did():
    rng = random.Random(1344)
    seen = {"lt": 0, "apart": 0, "greater": 0, "split": set()}
    for _ in range(150):
        trees = [random_tree(rng, rng.randint(0, 3), _SCAN_LEAVES, _SCAN_OPS) for _ in range(3)]
        fuel = rng.choice([0, 6, 40])
        x, y, z = (tree_reader(t) for t in trees)
        reals = [tree_real(t) for t in trees]
        for n in range(fuel + 1):
            for t, real, read in zip(trees, reals, (x, y, z)):
                assert same_interval(real.interval(n), read(n)), (t, n)
            assert verify_lt(reals[0], reals[1], LtWitness(n)) is (x(n).hi < y(n).lo)
        w = try_lt(tree_real(trees[0]), tree_real(trees[1]), fuel)
        assert w == lt_oracle(x, y, fuel), (trees, fuel)
        a = try_apart(tree_real(trees[0]), tree_real(trees[1]), fuel)
        assert a == apart_oracle(x, y, fuel), (trees, fuel)
        if a is not None:
            seen["apart"] += 1
            seen["greater"] += a.direction is Direction.GREATER
        if w is None:
            continue
        seen["lt"] += 1
        split = cotrans_split(tree_real(trees[0]), tree_real(trees[1]), w, tree_real(trees[2]))
        assert split == split_oracle(x, y, w, z), (trees, w)
        seen["split"].add(split.side)
    assert seen["lt"] > 30 and seen["greater"] > 10 and seen["apart"] > seen["lt"]
    assert seen["split"] == set(SplitSide)


def test_diagonal_matches_the_fraction_width_test():
    # Input real n sits within 3^-(n+1) of the lower third point of interval n,
    # so the side taken depends on which index first has width below 3^-(n+1).
    rng = random.Random(4813)
    for _ in range(8):
        trees = []
        expected = diagonal_oracle(lambda n: tree_node(trees[n]))
        for n in range(48):
            lo, hi = expected.interval(n)
            step = Fraction(1, 3 ** (n + 1))
            near = (2 * lo + hi) / 3 + step * Fraction(rng.randint(-8, 8), 8)
            trees.append(("+", ("q", near), ("*", ("q", step),
                                             random_tree(rng, 2, _SCAN_LEAVES, _SCAN_OPS))))
        d = diagonal(lambda i: tree_real(trees[i]))
        assert all(same_interval(d.interval(n), expected.interval(n)) for n in range(49)), trees


def test_cantor_point_matches_the_fraction_recurrence():
    # Every interval, or the error of the bit of 2, read in a random order: bit i is
    # bit i of a random word, or 2 at two_at.
    rng = random.Random(4817)
    for two_at in [None, *range(48)]:
        word, order = rng.getrandbits(48), rng.sample(range(48), 48)
        bits = NatStream(lambda i: 2 if i == two_at else word >> i & 1)
        x, expected = cantor_point(bits), cantor_oracle(bits)
        for n in order:
            assert _same_outcome(outcome(lambda: x.interval(n)),
                                 outcome(lambda: expected.interval(n))), (word, two_at, n)


def _same_outcome(got, want) -> bool:
    """The ``same_interval``, or the same error."""
    return same_interval(got, want) if isinstance(want, RationalInterval) else got == want


@settings(max_examples=800, deadline=None)
@given(pool=tree_graphs(), n=st.one_of(st.integers(0, 24), st.integers(0, 300)))
def test_triple_kernels_match_fraction_formulas(pool, n):
    # Every tree of one graph against exact interval arithmetic at index n: every
    # leaf, operator and pwl point value, whose triple is derived from its nodes';
    # a tree is direct when it has no caller generator.
    made, memo = {}, {}
    for t in pool:
        real = tree_real(t, made)
        assert real._direct is tree_direct(t)
        assert _same_outcome(outcome(lambda: real.interval(n)),
                             outcome(lambda: tree_reader(t, memo)(n))), (t, n)


_SPLIT_REACH = 200  # indices past the witness where z must narrow below the gap


@settings(max_examples=300, deadline=None)
@given(pool=tree_graphs(),
       calls=st.lists(st.tuples(st.sampled_from(["approx", "lt", "apart", "split"]),
                                st.integers(0, 99), st.integers(0, 99), st.integers(0, 99),
                                st.integers(-3, 40), st.none() | st.integers(0, 60)),
                      min_size=1, max_size=10))
def test_scans_and_point_values_over_triples_match_interval_reads(pool, calls):
    # Calls on the shared reals of one graph, so that memos are shared and
    # try_apart probes the witnesses it recorded, against the least indices over
    # the graph's exact intervals.  verify_lt must agree with the comparison of
    # those intervals at every index a scan may reach.  Fuel None is no end for
    # approx on a direct real and 60 indices otherwise.
    made, memo = {}, {}
    reals = [tree_real(t, made) for t in pool]
    reads = [tree_reader(t, memo) for t in pool]
    # A kernel that stops narrowing would make an unbounded scan gallop into integers
    # too large for the time limit to cut: a real must read as the oracle does first.
    for real, read in zip(reals, reads):
        assert _same_outcome(outcome(lambda: real.interval(0)), outcome(lambda: read(0)))
    for kind, i, j, k, p, fuel in calls:
        (x, rx), (y, ry), (z, rz) = ((reals[m % len(pool)], reads[m % len(pool)]) for m in (i, j, k))
        scan_fuel = 60 if fuel is None else fuel
        if kind == "approx":
            fuel = fuel if x._direct else scan_fuel
            assert outcome(lambda: x.approx(p, fuel)) == outcome(lambda: approx_oracle(rx, p, fuel))
        elif kind == "lt":
            assert outcome(lambda: try_lt(x, y, scan_fuel)) == outcome(lambda: lt_oracle(rx, ry, scan_fuel))
            for n in range(scan_fuel + 1):
                assert (outcome(lambda: verify_lt(x, y, LtWitness(n)))
                        == outcome(lambda: rx(n).hi < ry(n).lo)), n
        elif kind == "apart":
            assert (outcome(lambda: try_apart(x, y, scan_fuel))
                    == outcome(lambda: apart_oracle(rx, ry, scan_fuel)))
        else:
            w = outcome(lambda: lt_oracle(rx, ry, scan_fuel))
            if not isinstance(w, LtWitness):
                continue
            # A caller generator may never narrow below the gap: cotrans_split would not end.
            gap = ry(w.index).lo - rx(w.index).hi
            if outcome(lambda: least_index(lambda n: rz(n).width < gap, w.index,
                                           w.index + _SPLIT_REACH)) is None:
                continue
            assert outcome(lambda: cotrans_split(x, y, w, z)) == outcome(lambda: split_oracle(rx, ry, w, rz))
