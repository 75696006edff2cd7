"""Arithmetic coding of pairs and finite sequences of naturals.

Pairs:  (m, n) <-> 2^m * (2n + 1) - 1, a bijection N x N -> N.

Finite sequences: a nonempty list [n0, ..., n_{k-1}] is coded as
p(k-1) * prod_{i<k} p(i)^{n_i} - 1 over the primes p(0)=2, p(1)=3, ...,
and the empty list is coded as 0.  The scheme is a bijection between
finite lists of naturals and the naturals: the largest prime factor of
code+1 fixes the length, its exponent carries the last entry plus one.

Codes grow astronomically with length; everything here works on unbounded
ints and callers are expected to encode only at API boundaries.
"""

from __future__ import annotations

from typing import Sequence

from .streams import NatStream, _first_index, _in_order


def _least_divisor(n: int) -> int:
    """The least divisor d > 1 of n >= 2; n itself exactly when n is prime."""
    d = 2
    while d * d <= n:  # a modulo per step: kept by hand, a call per divisor would dominate
        if n % d == 0:
            return d
        d += 1
    return n


# p(i), the i-th prime: the least number above p(i-1) that is its own least divisor.
_prime = _in_order(2, lambda last, _i: _first_index(lambda c: _least_divisor(c) == c,
                                                    last + 1, None, False))


def pair(m: int, n: int) -> int:
    """Code of the pair (m, n)."""
    if m < 0 or n < 0:
        raise ValueError("pair arguments must be naturals")
    return (1 << m) * (2 * n + 1) - 1


def unpair(c: int) -> tuple[int, int]:
    """Inverse of pair: unpair(pair(m, n)) == (m, n)."""
    if c < 0:
        raise ValueError("pair codes are naturals")
    c += 1
    m = (c & -c).bit_length() - 1  # 2-adic valuation
    return m, ((c >> m) - 1) // 2


def encode(ns: Sequence[int]) -> int:
    """Code of a finite list of naturals; encode([]) == 0."""
    if not ns:
        return 0
    if any(v < 0 for v in ns):
        raise ValueError("sequence entries must be naturals")
    code = _prime(len(ns) - 1)
    for i, v in enumerate(ns):
        code *= _prime(i) ** v
    return code - 1


def decode(s: int) -> list[int]:
    """The unique list with encode(list) == s.

    Factors s+1 over the prime sequence; the largest prime present is
    p(k-1), giving length k, and its exponent is the last entry plus one.
    Not encoded again to check: its prime powers multiply back to s+1.
    """
    if s < 0:
        raise ValueError("not a sequence code: negative")
    if s == 0:
        return []
    remaining = s + 1
    exponents: list[int] = []
    i = 0
    while remaining > 1:
        p = _prime(i)
        e = 0
        while remaining % p == 0:
            remaining //= p
            e += 1
        exponents.append(e)
        i += 1
    exponents[-1] -= 1  # >= 0: the loop stops right after dividing out s+1's largest prime
    return exponents


def length(s: int) -> int:
    return len(decode(s))


def concat(s: int, t: int) -> int:
    """Code of the concatenation: encode(decode(s) ++ decode(t))."""
    return encode(decode(s) + decode(t))


def is_prefix(s: int, t: int) -> bool:
    """s is an initial segment of t (possibly all of it)."""
    ds, dt = decode(s), decode(t)
    return len(ds) <= len(dt) and dt[: len(ds)] == ds


def incompatible(s: int, t: int) -> bool:
    """Neither code is a prefix of the other."""
    return not (is_prefix(s, t) or is_prefix(t, s))


def prefix_of_stream(alpha: NatStream, m: int) -> int:
    """Code of the first m values of the stream; m == 0 gives 0."""
    return encode([alpha[i] for i in range(m)])


def subsequence(alpha: NatStream, n: int) -> NatStream:
    """The n-th subsequence: value at m is alpha[pair(m, n)]."""
    return NatStream(lambda m: alpha[pair(m, n)])
