"""Counting and streaming the sparse paving census.

Non-adjacent subsets of the cyclic ground set [n] obey a two-step recurrence
whose values are the Lucas numbers from n = 2 on, and they index the sparse
paving positroids of every middle rank.
"""

from __future__ import annotations

from typing import Iterator

from .decorated import DecoratedPermutation, necklace_to_decperm
from .le_diagram import LeDiagram, le_from_removals
from .matroid import NonAdjacentSet, Record
from .necklace import (
    GrassmannNecklace,
    _check_classification,
    _interval_mask,
    necklace_from_nonadjacent,
)


def nonadjacent_subsets(n: int) -> Iterator[NonAdjacentSet]:
    """Every non-adjacent subset of [n] exactly once, ascending by bit mask
    (bit 0 holds element 1)."""
    if n < 1:
        raise ValueError("ground size must be positive")
    # Along a path, the next mask with no two adjacent bits sets the lowest
    # bit that is clear with its upper neighbour clear too, and clears every
    # bit below it; the walk visits only such masks, in O(n) memory.  On the
    # cycle 1 and n are adjacent as well, except on the one-element ground
    # set.  So every mask yielded is a valid NonAdjacentSet, built with
    # Record._trusted.
    ends = 1 | 1 << (n - 1)
    mask, top = 0, 1 << n
    while mask < top:
        if n == 1 or mask & ends != ends:
            yield NonAdjacentSet._trusted(n, mask)
        low = (mask | mask >> 1) + 1
        low &= -low
        mask = (mask | low) & -low


def count_nonadjacent(n: int) -> int:
    """Exact count of non-adjacent subsets: 1 and 2 for n = 0 and 1, then
    the n-th Lucas number (3, 4, 7, 11, ...), so each value from n = 4 on is
    the sum of the previous two.  It is also the nearest integer to the
    n-th power of the golden ratio phi: phi**n differs from the n-th Lucas
    number by (-1/phi)**n, below one half once n >= 2."""
    if n < 0:
        raise ValueError("count needs n >= 0")
    return (1, 2)[n] if n < 2 else lucas(n)


def lucas(n: int) -> int:
    """Lucas numbers 2, 1, 3, 4, 7, 11, ... with exact integers."""
    if n < 0:
        raise ValueError("Lucas numbers need n >= 0")
    if n == 0:
        return 2
    a, b = 2, 1
    for _ in range(1, n):
        a, b = b, a + b
    return b


class SparsePavingPositroid(Record):
    """All five views of one sparse paving positroid; the basis view is its
    `nonbases`, the masks of the k-subsets of [n] that are not bases."""

    __slots__ = ("nonadjacent", "necklace", "perm", "diagram", "nonbases")
    nonadjacent: NonAdjacentSet
    necklace: GrassmannNecklace
    perm: DecoratedPermutation
    diagram: LeDiagram
    nonbases: frozenset[int]


def enumerate_sparse_paving(k: int, n: int) -> Iterator[SparsePavingPositroid]:
    """Census stream: one entry per non-adjacent subset, in mask order, with
    the necklace, decorated permutation, Le-diagram and basis views.

    The basis view comes from the paper's closed form: the sparse paving
    positroid with witness A has as nonbases exactly the cyclic intervals
    [i, i+k-1] for i in A, so an entry carries those |A| masks and its
    bases are every other k-subset of [n].  No Schubert intersection runs
    here; `necklace_to_positroid` (Oh, "Positroids and Schubert matroids",
    JCTA 118 (2011)) builds the same basis family from the necklace and is
    the census's test oracle.
    """
    _check_classification(k, n)
    for a in nonadjacent_subsets(n):
        neck = necklace_from_nonadjacent(a, k, n)
        yield SparsePavingPositroid(
            a, neck, necklace_to_decperm(neck), le_from_removals(a, k, n),
            frozenset(_interval_mask(k, n, i) for i in a.members))


def count_sparse_paving(k: int, n: int) -> int:
    """Number of sparse paving positroids on [n] of rank k: n+1 at the two
    extreme ranks, the non-adjacent count for every middle rank."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"counting needs 1 <= k <= n-1, got k={k}, n={n}")
    if k == 1 or k == n - 1:
        return n + 1
    return count_nonadjacent(n)


def recurrence_case(a: NonAdjacentSet) -> int:
    """Case split behind the two-step recurrence, for n >= 4: case 1 omits n
    with at most one of {1, n-1} present, case 2 keeps both 1 and n-1, case 3
    keeps n.  Cases 2 and 3 together are counted by the n-2 value, case 1 by
    the n-1 value."""
    n = a.n
    if n < 4:
        raise ValueError("the case split needs n >= 4")
    if n in a:
        return 3
    if 1 in a and (n - 1) in a:
        return 2
    return 1
