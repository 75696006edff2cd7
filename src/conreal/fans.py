"""Finite subbar extraction over binary sequences and two-move game solvers.

A decidable bar is a total boolean predicate on binary paths: finite
sequences of 0s and 1s, given as tuples.  The extractor searches the binary
tree up to a cutoff depth: a node is covered when it is in the bar or both
children are; a covered root yields the minimal bar elements actually used,
as paths, an uncovered root yields an explicit counterexample path.  The
bounded cutoff is essential: an unbounded decidable bar has no computable
depth bound in general.  A search is also bounded in work: each member test
costs its path length + 1, and a search that needs more than 2^22 in all is
rejected with ``TooLarge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import TooLarge
from .streams import _first_index

_WORK_BUDGET = 1 << 22


@dataclass(frozen=True)
class DecidableBar:
    """A pure, total membership test on binary paths (tuples of 0/1) plus a search cutoff."""

    member: Callable[[tuple[int, ...]], bool]
    max_depth: int


@dataclass(frozen=True)
class NotBarWithinDepth:
    """Leftmost path of length max_depth with no prefix in the bar."""

    path: tuple[int, ...]


def finite_subbar(bar: DecidableBar) -> list[tuple[int, ...]] | NotBarWithinDepth:
    """Minimal bar elements covering every binary sequence of length max_depth.

    Depth-first, left branch first: an element of the bar stops the descent
    (so the returned paths are pairwise incompatible, in lexicographic order),
    and the first uncovered full-length path aborts the search.  One path
    is kept; after an element its trailing 1s go and its last 0 becomes 1.
    Raises TooLarge before the member test that would exceed the work budget.
    """
    if bar.max_depth < 0:
        raise ValueError("max_depth must be a natural")
    member = bar.member
    elements: list[tuple[int, ...]] = []
    path: list[int] = []
    work = 0
    while True:
        work += len(path) + 1
        if work > _WORK_BUDGET:
            raise TooLarge(f"subbar search exceeds its budget of {_WORK_BUDGET} path entries "
                           "(each member test counts its path length + 1)")
        node = tuple(path)
        if member(node):
            elements.append(node)
            while path and path[-1] == 1:
                path.pop()
            if not path:
                return elements
            path[-1] = 1
        elif len(path) == bar.max_depth:
            return NotBarWithinDepth(node)
        else:
            path.append(0)


@dataclass(frozen=True)
class GameSpecOmega2:
    """One move n by the first player, one reply i in {0,1}; the first player
    wins a play (n, i) when it belongs to C.  Moves at or beyond n_bound are
    out of consideration."""

    in_c: Callable[[int, int], bool]
    n_bound: int


@dataclass(frozen=True)
class WinningMove:
    """A first move n for which both replies stay in C."""

    move: int


@dataclass(frozen=True)
class CounterStrategyPrefix:
    """A reply per first move n < n_bound escaping C."""

    moves: tuple[int, ...]


def solve_omega2(g: GameSpecOmega2) -> WinningMove | CounterStrategyPrefix:
    """Backward-induction content at bounded support: either some move n has
    both (n,0) and (n,1) in C, or every n admits an escaping reply."""
    if g.n_bound < 0:
        raise ValueError("n_bound must be a natural")
    n = _first_index(lambda n: g.in_c(n, 0) and g.in_c(n, 1), 0, g.n_bound - 1, False)
    if n is not None:
        return WinningMove(n)
    return CounterStrategyPrefix(tuple(0 if not g.in_c(n, 0) else 1 for n in range(g.n_bound)))


@dataclass(frozen=True)
class GameSpec2Omega:
    """One move i in {0,1} by the first player, one reply n; i wins when (i, n) in C."""

    in_c: Callable[[int, int], bool]


def answer_strategy_2omega(g: GameSpec2Omega, p0: int, p1: int) -> int | None:
    """A winning first move against the announced reply pair, if one exists.

    Returns i with (i, p_i) in C, or None: the pair (p0, p1) wins against
    this check.
    """
    if p0 < 0 or p1 < 0:
        raise ValueError("replies must be naturals")
    if g.in_c(0, p0):
        return 0
    if g.in_c(1, p1):
        return 1
    return None
