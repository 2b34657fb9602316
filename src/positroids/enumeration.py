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
    """The sparse paving positroid of rank k on [n] with non-adjacent
    witness A.  Its other four views are the paper's closed forms, each
    local in A, and are built from A on access: the necklace (the bumped
    interval at each i in A, the cyclic one elsewhere), the decorated
    permutation (read off that necklace), the Le-diagram (the full box
    with the boundary cells labelled by A emptied) and `nonbases`, the
    masks of the k-subsets of [n] that are not bases."""

    __slots__ = ("k", "n", "nonadjacent")
    k: int
    n: int
    nonadjacent: NonAdjacentSet

    def __post_init__(self):
        _check_classification(self.k, self.n)
        a = self.nonadjacent
        if not isinstance(a, NonAdjacentSet) or a.n != self.n:
            raise ValueError(f"witness must be a non-adjacent set on "
                             f"[{self.n}], got {a!r}")

    @property
    def necklace(self) -> GrassmannNecklace:
        return necklace_from_nonadjacent(self.nonadjacent, self.k, self.n)

    @property
    def perm(self) -> DecoratedPermutation:
        """necklace_to_decperm of the necklace: the shift by k with adjacent
        swaps at A, i -> i + k + [i+1 in A] - [i in A] (mod n), unmarked."""
        return necklace_to_decperm(self.necklace)

    @property
    def diagram(self) -> LeDiagram:
        return le_from_removals(self.nonadjacent, self.k, self.n)

    @property
    def nonbases(self) -> frozenset[int]:
        """The cyclic intervals [i, i+k-1] for i in A."""
        k, n = self.k, self.n
        return frozenset(_interval_mask(k, n, i)
                         for i in self.nonadjacent.members)


def enumerate_sparse_paving(k: int, n: int) -> Iterator[SparsePavingPositroid]:
    """Census stream: one entry per non-adjacent subset, in mask order.

    An entry holds only its type and witness; its views are derived on
    access.  The basis view comes from the paper's closed form: the sparse
    paving positroid with witness A has as nonbases exactly the cyclic
    intervals [i, i+k-1] for i in A, so its bases are every other k-subset
    of [n].  No Schubert intersection runs here; `necklace_to_positroid`
    (Oh, "Positroids and Schubert matroids", JCTA 118 (2011)) builds the
    same basis family from the necklace and is the census's test oracle.
    The type is checked once, and every witness from nonadjacent_subsets
    lives on [n], so the entries are built with Record._trusted.
    """
    _check_classification(k, n)
    make = SparsePavingPositroid._trusted
    for a in nonadjacent_subsets(n):
        yield make(k, n, a)


def count_sparse_paving(k: int, n: int) -> int:
    """Number of sparse paving positroids on [n] of rank k: n+1 at the two
    extreme ranks, the non-adjacent count for every middle rank."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"counting needs 1 <= k <= n-1, got k={k}, n={n}")
    if k == 1 or k == n - 1:
        return n + 1
    return count_nonadjacent(n)

