"""Matroids over explicit basis families on the ordered ground set [n], and
the classical sparse paving classifiers: circuits, hyperplanes, relaxation
and the pairwise distance test on the missing k-sets.

Bases, circuits and hyperplanes are bare int masks, like every subset
inside the library (see `records`).
"""

from __future__ import annotations

import itertools

from .records import (
    Record,
    as_mask,
    json_int,
    json_list,
    lex_subsets,
    mask_of,
    members_of,
)


class Matroid(Record):
    """Matroid on [n] of rank k given by the full family of basis masks.

    Equality is plain field equality, so two matroids agree exactly when they
    share the ground size, the rank, and the basis family.
    """

    __slots__ = ("n", "k", "bases")
    n: int
    k: int
    bases: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground size must be positive")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"rank {self.k} outside [0, {self.n}]")
        if not self.bases:
            raise ValueError("basis family is empty")
        # One loop checks both; a wrong size is reported only once every
        # mask is in range, so the range error wins whatever the order.
        # Whole-family passes (min, max, set(map(int.bit_count, ...))) ran
        # 1.5-3.5x slower than this loop on CPython 3.11.
        top = 1 << self.n
        sized = True
        for b in self.bases:
            if not 0 <= b < top:
                raise ValueError("basis mask outside the ground set")
            if b.bit_count() != self.k:
                sized = False
        if not sized:
            raise ValueError("basis size differs from the rank")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "bases": [list(members)
                      for mask, members in lex_subsets(self.n, self.k)
                      if mask in self.bases],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Matroid":
        n, k = json_int(data["n"], "n"), json_int(data["k"], "k")
        bases = set()
        for b in json_list(data["bases"], "bases"):
            mask = mask_of(json_list(b, "basis"), n)
            if mask in bases:
                raise ValueError(f"repeated basis {list(members_of(mask))}")
            bases.add(mask)
        return cls(n, k, frozenset(bases))


def _exchange_masks(masks: frozenset[int]) -> bool:
    """Basis exchange test: for distinct B, B' and every e in B - B' some
    e' in B' - B puts (B - e) + e' back in the family."""
    for b in masks:
        for bp in masks:
            if b == bp:
                continue
            give = b & ~bp
            take = bp & ~b
            g = give
            while g:
                e = g & -g
                g ^= e
                stripped = b ^ e
                t = take
                while t:
                    ep = t & -t
                    t ^= ep
                    if (stripped | ep) in masks:
                        break
                else:
                    return False
    return True


def circuits(m: Matroid) -> frozenset[int]:
    """All minimal dependent subsets: the dependent sets of at most k+1
    elements, which circuits never exceed, whose every one-element deletion
    is independent.  The independent sets are built once, level by level
    down from the bases, each set one element short of one above it."""
    singles = [1 << j for j in range(m.n)]
    independent = set(m.bases)
    level = independent
    while level:
        level = {s ^ e for s in level for e in singles if s & e}
        independent |= level
    return frozenset(
        mask for size in range(1, min(m.k + 1, m.n) + 1)
        for mask, members in lex_subsets(m.n, size)
        if mask not in independent
        and all(mask ^ 1 << (x - 1) in independent for x in members))


def hyperplanes(m: Matroid) -> frozenset[int]:
    """Flats of rank k-1, each the closure of an independent (k-1)-set I:
    I together with every element e for which I+e is dependent, that is,
    every element outside each basis that holds I."""
    if m.k < 1:
        raise ValueError("a rank-0 matroid has no hyperplanes")
    # cover[I] is the union of the bases that hold the (k-1)-set I.
    cover: dict[int, int] = {}
    for b in m.bases:
        for x in members_of(b):
            i = b ^ 1 << (x - 1)
            cover[i] = cover.get(i, 0) | b
    full = (1 << m.n) - 1
    return frozenset(i | full & ~union for i, union in cover.items())


def circuit_hyperplanes(m: Matroid) -> frozenset[int]:
    """Subsets that are both circuits and hyperplanes; for a sparse paving
    matroid these are exactly the k-sets missing from the basis family."""
    return circuits(m) & hyperplanes(m)


def relax(m: Matroid, subset) -> Matroid:
    """Add a circuit-hyperplane to the basis family; the result is again a
    matroid."""
    c = as_mask(subset, m.n)
    if m.k < 1 or c not in circuit_hyperplanes(m):
        raise ValueError("set is not a circuit-hyperplane; cannot relax")
    return Matroid(m.n, m.k, m.bases | {c})


def _violating_pair(m: Matroid) -> tuple[tuple[int, ...], ...] | None:
    """Lexicographically first pair of missing k-sets at symmetric
    difference two, or None when every pair is at least four apart.  Two
    k-sets differ in an even number of elements, so closer means two."""
    nonbases = [(mask, members) for mask, members in lex_subsets(m.n, m.k)
                if mask not in m.bases]
    for (a, first), (b, second) in itertools.combinations(nonbases, 2):
        if (a ^ b).bit_count() == 2:
            return first, second
    return None


def is_sparse_paving(m: Matroid) -> bool:
    """Sparse paving verdict for a matroid: all missing k-sets are pairwise
    at symmetric difference >= 4.

    On a matroid this agrees with the other two classical definitions (the
    missing k-sets are exactly the circuit-hyperplanes; relaxing every
    circuit-hyperplane gives the uniform matroid).  The test suite pins that
    three-way equivalence; it is not re-checked here, so the input must
    satisfy the exchange axiom.
    """
    return _violating_pair(m) is None
