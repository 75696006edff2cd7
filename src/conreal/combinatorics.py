"""Euclid prime extension, Dickson witness search and finite Ramsey checkers.

Finite "sets" are strictly increasing tuples of naturals throughout.  All
scan orders are pinned: Dickson pairs go by increasing second index, tuples
are lexicographic, and almost-full candidates go by length then lexicographic
order.  The Ramsey checkers search colorings depth first: the k-tuples are
colored one at a time in lexicographic order, each with colors 0..r-1 in
turn, and a branch is cut as soon as a candidate tuple whose k-subtuples are
all colored is monochromatic, since every coloring extending it hits.  The
first complete coloring the search reaches is thus the lexicographically
first one that avoids every candidate: the evidence for a false answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .coding import _least_divisor
from .errors import TooLarge
from .streams import NatStream

COLORING_GUARD = 1 << 30


def euclid_extend(qs: Sequence[int]) -> int:
    """A prime dividing none of the given primes: the least divisor > 1 of lcm + 1.

    (lcm + 1 is returned itself when prime, being its own least divisor.)
    """
    if not qs:
        raise ValueError("need at least one prime")
    for q in qs:
        if q < 2 or _least_divisor(q) != q:
            raise ValueError(f"{q} is not prime")
    return _least_divisor(math.lcm(*qs) + 1)


@dataclass(frozen=True)
class DicksonInstance:
    """Finitely many streams of naturals, searched jointly for a dominance pair."""

    sequences: tuple[NatStream, ...]

    def __post_init__(self):
        if len(self.sequences) < 1:
            raise ValueError("need at least one sequence")


def dickson_witness(inst: DicksonInstance, fuel: int) -> tuple[int, int] | None:
    """First pair i < j < fuel (by increasing j, then i) with coordinatewise
    dominance in every sequence.  None only ever means insufficient fuel.

    Cost: each row is compared with the minimal rows so far, so when the rows
    are pairwise incomparable (no witness within fuel) it makes about fuel^2
    row comparisons.  The CLI's sequences are eventually constant: row P equals
    row P - 1 for the longest prefix length P, so there the search ends by
    j = P and the minimal set stays within the prefix length.
    """
    if fuel < 2:
        raise ValueError("fuel must be >= 2")
    rows: list[tuple[int, ...]] = []
    # Indices of the <=-minimal rows so far: no other row so far is <= them,
    # coordinatewise.  No row so far is <= a later one (the search would have
    # stopped there), so <= among them is a strict order, and some earlier row
    # is <= row j exactly when a minimal one is.
    minimal: list[int] = []
    for j in range(fuel):
        row = tuple(s[j] for s in inst.sequences)
        if any(_le(rows[m], row) for m in minimal):
            return next(i for i in range(j) if _le(rows[i], row)), j
        minimal = [m for m in minimal if not _le(row, rows[m])] + [j]
        rows.append(row)
    return None


def _le(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


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


def _colorings_exceed_guard(M: int, k: int, r: int) -> bool:
    """Whether r^C(M, k) > 2^30, building no huge C(M, k) or power: for r >= 2 it
    holds once C(M, j), rising with j up to M/2, passes 30."""
    c = 1
    for j in range(min(k, M - k) if r > 1 else 0):
        c = c * (M - j) // (j + 1)  # C(M, j + 1), exactly
        if c > 30:
            return True
    return min(r, COLORING_GUARD + 1) ** c > COLORING_GUARD


def avoiding_coloring(M: int, n: int, k: int, r: int, star: bool = False) -> list[int] | None:
    """The lexicographically first r-coloring of the k-tuples over M with no
    monochromatic candidate, or None when every coloring has one.  Candidates
    are the increasing n-tuples, or with ``star`` the relatively large tuples
    (length at least n and equal to the first entry).  The colors are listed
    in the order of ``itertools.combinations(range(M), k)``."""
    _validate_arrow_args(M, n, k, r)
    if _colorings_exceed_guard(M, k, r):  # before any slot is listed
        raise TooLarge(f"{r}^C({M},{k}) colorings exceed the 2^30 guard")
    slots = list(itertools.combinations(range(M), k))
    slot_index = {s: i for i, s in enumerate(slots)}
    # Each candidate is filed under its largest slot: the slot whose color closes it.
    closing: list[list[list[int]]] = [[] for _ in slots]
    for t in _relatively_large(M, n) if star else itertools.combinations(range(M), n):
        subs = [slot_index[u] for u in itertools.combinations(t, k)]
        closing[max(subs)].append(subs)
    # Depth-first over partial colorings of slots 0..s, colors tried in increasing
    # order.  A color that closes a monochromatic candidate is skipped, since every
    # completion of that branch hits; getting past the last slot means a coloring
    # avoids every candidate.
    colors = [-1] * len(slots)
    s = 0
    while s >= 0:
        if s == len(slots):
            return colors
        color = colors[s] + 1
        if color == r:
            colors[s] = -1
            s -= 1
            continue
        colors[s] = color
        if not any(all(colors[u] == color for u in subs) for subs in closing[s]):
            s += 1
    return None


def arrow_check(M: int, n: int, k: int, r: int) -> bool:
    """Exhaustive check that every r-coloring of the k-tuples over M admits a
    monochromatic increasing n-tuple."""
    return avoiding_coloring(M, n, k, r) is None


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
    return avoiding_coloring(M, n, k, r, star=True) is None


def almost_full_witness(a_member: Callable[[tuple[int, ...]], bool], zeta: NatStream,
                        fuel: int) -> tuple[int, ...] | None:
    """An increasing index tuple s with the tuple zeta∘s in A, searched over
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
            if a_member(tuple(values[i] for i in s)):
                return s
    return None
