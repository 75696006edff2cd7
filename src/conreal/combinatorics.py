"""Euclid prime extension, Dickson witness search and finite Ramsey checkers.

Finite "sets" are strictly increasing tuples of naturals throughout.  All
scan orders are pinned: Dickson pairs go by increasing second index, tuples
are lexicographic, and almost-full candidates go by length then lexicographic
order.  The Ramsey checkers search colorings depth first: the k-tuples (slots)
are colored one at a time in lexicographic order, each with the colors from 0
up to one more than the largest color so far, at most r - 1, and a branch is
cut as soon as a candidate tuple whose k-subtuples are all colored is
monochromatic, since every coloring extending it hits.  Renaming colors maps
avoiding colorings to avoiding colorings, so the lexicographically first one
opens its colors in the order 0, 1, 2, ...: the first complete coloring the
search reaches is still the lexicographically first one that avoids every
candidate, the evidence for a false answer.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    rows: list[list[int]] = []
    # Indices of the <=-minimal rows so far: no other row so far is <= them,
    # coordinatewise.  No row so far is <= a later one (the search would have
    # stopped there), so <= among them is a strict order, and some earlier row
    # is <= row j exactly when a minimal one is.
    minimal: list[int] = []
    for j in range(fuel):
        row = [s[j] for s in inst.sequences]
        if any(all(map(operator.le, rows[m], row)) for m in minimal):
            return next(i for i in range(j) if all(map(operator.le, rows[i], row))), j
        minimal = [m for m in minimal if not all(map(operator.le, row, rows[m]))] + [j]
        rows.append(row)
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
    in the order of ``itertools.combinations(range(M), k)``.  Slot s tries
    colors 0..min(r - 1, 1 + the largest color of slots 0..s-1), which keeps
    the first avoiding coloring: its colors first appear in order.  A slot
    lists, on its first visit, the candidates it closes (those whose largest
    k-subtuple it is), each as the bitmask of its other slots."""
    _validate_arrow_args(M, n, k, r)
    if _colorings_exceed_guard(M, k, r):  # before any slot is listed
        raise TooLarge(f"{r}^C({M},{k}) colorings exceed the 2^30 guard")
    # One color: the one coloring hits (0, ..., n-1), or with star (n, ..., 2n-1), the
    # relatively large tuple with the least last entry, when it fits below M.
    if r == 1:
        return None if not star or 2 * n <= M else [0] * math.comb(M, k)
    slots = list(itertools.combinations(range(M), k))
    bit = {u: 1 << i for i, u in enumerate(slots)}  # the guard leaves r >= 2 at most 30 slots
    closing: list[list[int]] = []  # closing[s]: the masks of the candidates slot s closes
    colors = [-1] * len(slots)
    # colored[c]: the mask of the slots below s with color c; no search opens more
    # colors than there are slots.
    colored = [0] * min(r, len(slots))
    # Depth-first over partial colorings of slots 0..s, colors tried in increasing
    # order.  A color that closes a monochromatic candidate is skipped, since every
    # completion of that branch hits; getting past the last slot means a coloring
    # avoids every candidate.
    s = 0
    while s < len(slots):
        if s == len(closing):
            closing.append([sum(map(bit.__getitem__, itertools.combinations(t, k))) - bit[slots[s]]
                            for t in _closed_by(slots[s], n, k, star)])
        color = colors[s] + 1
        if color == r or color and not colored[color - 1]:  # colors open in order
            colors[s] = -1
            if s == 0:
                return None
            s -= 1
            colored[colors[s]] ^= 1 << s
            continue
        colors[s] = color
        free = ~colored[color]
        for m in closing[s]:
            if not m & free:  # every other slot of the candidate has this color
                break
        else:
            colored[color] |= 1 << s
            s += 1
    return colors


def _closed_by(slot: tuple[int, ...], n: int, k: int, star: bool) -> Iterator[tuple[int, ...]]:
    """The candidates (n-tuples, or relatively large tuples) whose last k entries are ``slot``."""
    if not star:
        for head in itertools.combinations(range(slot[0]), n - k):
            yield head + slot
        return
    if slot[0] == k == n:  # p == k: the slot itself, of length k = its first entry
        yield slot
    for p in range(max(n, k + 1), slot[0]):  # p > k: p, then p - k - 1 entries below the slot
        for middle in itertools.combinations(range(p + 1, slot[0]), p - k - 1):
            yield (p,) + middle + slot


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
