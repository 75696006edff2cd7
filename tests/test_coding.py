import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conreal
from conreal import (NatStream, concat, decode, encode, incompatible,
                     is_prefix, length, pair, prefix_of_stream, subsequence, unpair)
from conreal.coding import _prime

lists_of_naturals = st.lists(st.integers(min_value=0, max_value=6), max_size=8)


def test_pair_examples():
    assert pair(0, 0) == 0
    assert pair(2, 1) == 11
    assert unpair(11) == (2, 1)
    assert unpair(0) == (0, 0)
    assert unpair(7) == (3, 0)
    assert unpair(5) == (1, 1)


def test_pair_is_injective_on_small_codes():
    seen = {}
    for m in range(32):
        for n in range(32):
            c = pair(m, n)
            assert c not in seen
            seen[c] = (m, n)


def test_pair_is_surjective_on_small_codes():
    for c in range(4096):
        m, n = unpair(c)
        assert pair(m, n) == c


def test_encode_examples():
    assert encode([]) == 0
    assert encode([2]) == 7          # 2 * 2^2 - 1
    assert encode([1, 1]) == 17      # 3 * 2 * 3 - 1
    assert encode([0]) == 1
    assert encode([1, 2, 3]) == 11249


def test_decode_examples():
    assert decode(0) == []
    assert decode(7) == [2]
    assert decode(17) == [1, 1]


@given(lists_of_naturals)
def test_round_trip(values):
    assert decode(encode(values)) == values
    assert length(encode(values)) == len(values)


def test_every_natural_is_a_code():
    # The prime-power scheme is a bijection, so decode is total on naturals.
    for s in range(20000):
        assert encode(decode(s)) == s
    rng = random.Random(14)
    for _ in range(100):
        xs = [rng.randint(0, 60) for _ in range(rng.randint(1, 60))]
        c = encode(xs)
        assert decode(c) == xs
        assert encode(decode(c)) == c


def test_decode_rejects_negatives():
    with pytest.raises(ValueError):
        decode(-1)


def test_concat_unit_laws():
    for values in ([], [1], [1, 2], [0, 0, 3]):
        s = encode(values)
        assert concat(0, s) == s
        assert concat(s, 0) == s
    assert concat(encode([1]), encode([1])) == encode([1, 1])


@given(lists_of_naturals, lists_of_naturals, lists_of_naturals)
def test_concat_associative(a, b, c):
    x, y, z = encode(a), encode(b), encode(c)
    assert concat(concat(x, y), z) == concat(x, concat(y, z))


def test_is_prefix_examples():
    assert is_prefix(0, encode([5, 5]))
    assert is_prefix(encode([1, 2]), encode([1, 2, 3]))
    assert not is_prefix(encode([1, 2, 3]), encode([1, 2]))
    assert incompatible(encode([0]), encode([1]))


def test_prefix_partial_order_and_incompatibility():
    rng = random.Random(7)
    codes = [encode([rng.randint(0, 3) for _ in range(rng.randint(0, 5))]) for _ in range(40)]
    for s in codes:
        assert is_prefix(s, s)
        assert not incompatible(s, s)
    for s in codes:
        for t in codes:
            if is_prefix(s, t) and is_prefix(t, s):
                assert s == t
            assert incompatible(s, t) == incompatible(t, s)
            if incompatible(s, t):
                assert not is_prefix(s, t) and not is_prefix(t, s)
    for s in codes:
        for t in codes:
            for u in codes:
                if is_prefix(s, t) and is_prefix(t, u):
                    assert is_prefix(s, u)


def test_prefix_of_stream():
    assert prefix_of_stream(NatStream.constant(9), 0) == 0
    assert prefix_of_stream(NatStream.constant(0), 2) == encode([0, 0])
    identity = NatStream(lambda n: n)
    assert prefix_of_stream(identity, 2) == encode([0, 1])


def test_subsequence():
    identity = NatStream(lambda n: n)
    assert subsequence(identity, 0)[0] == 0
    assert subsequence(identity, 1)[0] == 2
    fives = NatStream.constant(5)
    assert subsequence(fives, 3)[11] == 5
    # value at m is the source at pair(m, n)
    for n in range(4):
        for m in range(4):
            assert subsequence(identity, n)[m] == pair(m, n)


def _sieve(limit):
    """Primes below limit, by the sieve of Eratosthenes."""
    marks = [True] * limit
    marks[:2] = [False, False]
    for p in range(2, int(limit ** 0.5) + 1):
        if marks[p]:
            marks[p * p::p] = [False] * len(marks[p * p::p])
    return [p for p, prime in enumerate(marks) if prime]


def test_prime_table_equals_a_sieve():
    primes = _sieve(20000)
    assert next((i for i in range(2000) if _prime(i) != primes[i]), None) is None


# Four threads meet the prime table at first use in a fresh process.  Prints
# whether every round trip held and the first 40 primes the table then holds.
_RACE = """
import json, sys, threading
from conreal import coding
xs = list(range(1, 41))
barrier = threading.Barrier(4)
held = []

def work():
    barrier.wait()
    held.append(coding.decode(coding.encode(xs)) == xs)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
alive = any(t.is_alive() for t in threads)
held.append(coding.decode(coding.encode(xs)) == xs)
print(json.dumps({"alive": alive, "held": held, "primes": [coding._prime(i) for i in range(40)]}))
"""


def test_prime_table_is_built_once_under_racing_threads():
    src = os.path.dirname(os.path.dirname(conreal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for _ in range(5):
        run = subprocess.run([sys.executable, "-c", _RACE], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout)
        assert not report["alive"]
        assert report["held"] == [True] * 5
        assert report["primes"] == _sieve(200)[:40]
