"""Every answer of CReal.approx must equal ``conftest.approx_oracle``, a fresh
scan from index 0: the same interval, or the same exception with the same
message, whatever the order of the precisions, the fuel, and whether the
generator is nested or raises.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import approx_oracle, outcome, race, rationals, spike
from conreal import CReal, FuelExhausted, RationalInterval, f0, rho1, sqrt2
from conreal.real import _narrow, _triple_of, half_pow


class _Broken(Exception):
    pass


def _generator(exps, raise_from):
    """Interval n sits at n/7 (so the stream is not nested) with width 2^-e,
    e = exps[n mod len(exps)], a negative e giving a wide interval; indices
    at or past ``raise_from`` raise."""
    def generate(n):
        if raise_from is not None and n >= raise_from:
            raise _Broken(f"no interval at index {n}")
        lo = Fraction(n, 7)
        return RationalInterval(lo, lo + half_pow(exps[n % len(exps)]))
    return generate


@settings(max_examples=300, deadline=None)
@given(exps=st.lists(st.integers(-3, 10), min_size=1, max_size=20),
       raise_from=st.none() | st.integers(0, 30),
       calls=st.lists(st.tuples(st.integers(-4, 12), st.integers(1, 30)), min_size=1, max_size=14))
def test_approx_matches_linear_scan(exps, raise_from, calls):
    generate = _generator(exps, raise_from)
    shared = CReal(generate)
    for p, fuel in calls:
        assert (outcome(lambda: shared.approx(p, fuel))
                == outcome(lambda: approx_oracle(generate, p, fuel)))


@settings(max_examples=1000, deadline=None)
@given(a=rationals, b=rationals, p=st.integers(-70, 300),
       shape=st.sampled_from(["pair", "point", "edge"]), nudge=st.integers(-1, 1))
def test_narrow_is_the_width_test(a, b, p, shape, nudge):
    # Int and Fraction endpoints, zero width, negative ends, large denominators,
    # and widths 2^-(p-1), 2^-p and 2^-(p+1) around the bound.
    if shape == "pair":
        lo, hi = sorted((a, b))
    else:
        lo, hi = a, a + (0 if shape == "point" else half_pow(p + nudge))
    iv = RationalInterval(lo, hi)
    lo, hi, den = _triple_of(iv)
    assert _narrow(hi - lo, den, p) == (iv.width <= half_pow(p))


def _build():
    real = sqrt2() * CReal.from_rational(Fraction(3, 5)) + rho1(spike(9))
    return real, f0(spike(7))


def _queries():
    out = []
    for k in range(48):
        p = (k * 17) % 41 - 3
        out.append(("approx", p, 8 + (k * 13) % 40))
        t = Fraction((k * 5) % 16, 16)
        out.append(("enclose", RationalInterval(t, t) if k % 3 else
                    RationalInterval(t / 2, (t + 1) / 2), (k * 7) % 18))
    return out


def _answer(real, f, query):
    kind, a, b = query
    if kind == "approx":
        return outcome(lambda: real.approx(a, b))
    return outcome(lambda: f.enclose(a, b))


def test_racing_threads_match_serial_run():
    queries = _queries()
    serial_real, serial_f = _build()
    expected = [_answer(serial_real, serial_f, q) for q in queries]
    assert any(isinstance(e, tuple) and e[0] is FuelExhausted for e in expected)
    real, f = _build()

    def worker(k):
        order = list(range(15 * k, len(queries))) + list(range(15 * k))
        got = {i: _answer(real, f, queries[i]) for i in order}
        return [got[i] for i in range(len(queries))]

    assert race(worker, 6) == [expected] * 6
