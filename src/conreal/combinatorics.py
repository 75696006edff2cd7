"""Euclid prime extension, Dickson witness search and finite Ramsey checkers.

Finite "sets" are strictly increasing tuples of naturals throughout.  All
scan orders are pinned: Dickson pairs go by increasing second index, tuples
are lexicographic, almost-full candidates go by length then lexicographic
order, and colorings are enumerated as base-r numerals whose i-th least
significant digit colors the i-th k-tuple in lexicographic order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .coding import encode
from .errors import TooLarge
from .streams import NatStream

COLORING_GUARD = 1 << 30


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def euclid_extend(qs: Sequence[int]) -> int:
    """A prime dividing none of the given primes: the least divisor > 1 of lcm + 1.

    (lcm + 1 is returned itself when prime, being its own least divisor.)
    """
    if not qs:
        raise ValueError("need at least one prime")
    for q in qs:
        if not _is_prime(q):
            raise ValueError(f"{q} is not prime")
    c = math.lcm(*qs) + 1
    d = 2
    while d * d <= c:
        if c % d == 0:
            return d
        d += 1
    return c


@dataclass(frozen=True)
class DicksonInstance:
    """Finitely many streams of naturals, searched jointly for a dominance pair."""

    sequences: tuple[NatStream, ...]

    def __post_init__(self):
        if len(self.sequences) < 1:
            raise ValueError("need at least one sequence")


def dickson_witness(inst: DicksonInstance, fuel: int) -> tuple[int, int] | None:
    """First pair i < j < fuel (by increasing j, then i) with coordinatewise
    dominance in every sequence.  None only ever means insufficient fuel."""
    if fuel < 2:
        raise ValueError("fuel must be >= 2")
    for j in range(1, fuel):
        for i in range(j):
            if all(s[i] <= s[j] for s in inst.sequences):
                return i, j
    return None


@dataclass(frozen=True)
class Coloring:
    """An r-coloring of the increasing k-tuples over the initial segment in use."""

    r: int
    k: int
    assign: Callable[[tuple[int, ...]], int]


def _validate_arrow_args(M: int, n: int, k: int, r: int) -> None:
    if not (1 <= k <= n <= M):
        raise ValueError("need 1 <= k <= n <= M")
    if r < 1:
        raise ValueError("need r >= 1")


def _digits(numeral: int, r: int, width: int) -> list[int]:
    colors = []
    for _ in range(width):
        numeral, d = divmod(numeral, r)
        colors.append(d)
    return colors


def _every_coloring_hits(M: int, k: int, r: int, tuples: Iterable[tuple[int, ...]]) -> bool:
    # True iff every r-coloring of the k-tuples over M (by increasing numeral)
    # makes some tuple of ``tuples`` monochromatic.  The guard runs before
    # ``tuples`` is read.
    slots = list(itertools.combinations(range(M), k))
    total = r ** len(slots)
    if total > COLORING_GUARD:
        raise TooLarge(f"{r}^C({M},{k}) = {total} colorings exceed the 2^30 guard")
    slot_index = {s: i for i, s in enumerate(slots)}
    candidates = [[slot_index[u] for u in itertools.combinations(t, k)] for t in tuples]
    for numeral in range(total):
        colors = _digits(numeral, r, len(slots))
        for subs in candidates:
            first = colors[subs[0]]
            if all(colors[s] == first for s in subs[1:]):
                break
        else:
            return False
    return True


def arrow_check(M: int, n: int, k: int, r: int) -> bool:
    """Exhaustive check that every r-coloring of the k-tuples over M admits a
    monochromatic increasing n-tuple."""
    _validate_arrow_args(M, n, k, r)
    return _every_coloring_hits(M, k, r, itertools.combinations(range(M), n))


def monochromatic_witness(c: Coloring, M: int, n: int) -> tuple[tuple[int, ...], int] | None:
    """First (lexicographic) increasing n-tuple over M all of whose k-subtuples
    share a color, together with that color."""
    _validate_arrow_args(M, n, c.k, c.r)
    for t in itertools.combinations(range(M), n):
        subs = list(itertools.combinations(t, c.k))
        first = c.assign(subs[0])
        if not 0 <= first < c.r:
            raise ValueError(f"coloring produced {first}, outside 0..{c.r - 1}")
        if all(c.assign(u) == first for u in subs[1:]):
            return t, first
    return None


def _relatively_large(M: int, n: int) -> Iterator[tuple[int, ...]]:
    # Tuples t with length p >= n, values < M, t(0) = p.
    for p in range(n, M):  # t(0) = p forces p < M
        for rest in itertools.combinations(range(p + 1, M), p - 1):
            yield (p,) + rest


def arrow_star_check(M: int, n: int, k: int, r: int) -> bool:
    """Exhaustive check of the relatively-large variant: every coloring admits a
    monochromatic increasing tuple whose length is at least n and equals its
    first entry."""
    _validate_arrow_args(M, n, k, r)
    return _every_coloring_hits(M, k, r, _relatively_large(M, n))


def almost_full_witness(a_member: Callable[[int], bool], zeta: NatStream,
                        fuel: int) -> tuple[int, ...] | None:
    """An increasing index tuple s with the code of zeta∘s in A, searched over
    values < fuel in length-then-lexicographic order.  The stream must be
    strictly increasing on the inspected prefix."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    values = [zeta[i] for i in range(fuel)]
    for i in range(fuel - 1):
        if values[i] >= values[i + 1]:
            raise ValueError(f"stream not strictly increasing at index {i}")
    for size in range(fuel + 1):
        for s in itertools.combinations(range(fuel), size):
            if a_member(encode([values[i] for i in s])):
                return s
    return None
