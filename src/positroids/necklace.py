"""Grassmann necklaces, cyclic Gale orders, and shifted Schubert matroids.

Index arithmetic is 1-based and wraps modulo n with representatives in [n],
so the successor of n is 1.

The Gale order at t is read through prefix counts.  Rotate [n] to start at t
and let P_1, P_2, ..., P_n be its prefixes {t}, {t, t+1}, ....  For subsets I
and J of equal size, I <=_t J (componentwise on the rotated, sorted members)
exactly when |J & P_m| <= |I & P_m| for every m.  The positroid of a necklace
is the intersection of the n shifted Schubert matroids {J : I_t <=_t J}
(Oh, "Positroids and Schubert matroids", JCTA 118 (2011)), so both
conversions between necklaces and positroids reduce to these counts.

The GrassmannNecklace record, its axiom and the cyclic and bumped intervals
live in `records`, which the census shares; this module holds the
algorithms on them, and the census imports none of it.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Sequence

from .matroid import Matroid
from .records import (
    GrassmannNecklace,
    NonAdjacentSet,
    _bumped_mask,
    _check_classification,
    _interval_mask,
    lex_subsets,
    members_of,
)


def gale_bounds(n: int, t: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The (prefix mask, bound) pairs that decide I <=_t J for the subset I
    given by mask: J of the same size dominates I exactly when
    (J & prefix).bit_count() <= bound for every pair.

    A prefix can reject J only when I's count there is below the prefix's
    length, and J's count never falls as the prefix grows, so only the
    prefix ending just before each member of I is kept.  A cyclic interval
    at t gives no pair, a bumped interval gives one.  The walk visits I's
    members, not all n positions, on the mask rotated to put t at bit 0.
    """
    out = []
    shift = t - 1
    rest = ((mask >> shift) | (mask << (n - shift))) & ((1 << n) - 1)
    count = 0
    while rest:
        low = rest & -rest
        m = low.bit_length() - 1
        if count < m:
            out.append((_interval_mask(m, n, t), count))
        count += 1
        rest ^= low
    return tuple(out)


def _dominating(masks, bounds) -> list[int]:
    """The masks that pass every (prefix mask, bound) pair."""
    keep = list(masks)
    for prefix, bound in bounds:
        keep = [m for m in keep if (m & prefix).bit_count() <= bound]
    return keep


def necklace_to_positroid(neck: GrassmannNecklace) -> Matroid:
    """Intersect the n shifted Schubert matroids read off the necklace.

    The family is a matroid's without a check: it holds only k-subsets,
    and I_1 among them, since every entry of a necklace is a basis of its
    positroid (Oh, JCTA 118 (2011))."""
    n, k = neck.n, neck.k
    bounds = {pair for t in range(1, n + 1)
              for pair in gale_bounds(n, t, neck.entries[t - 1])}
    masks = [mask for mask, _ in lex_subsets(n, k)]
    return Matroid._trusted(n, k, frozenset(_dominating(masks, bounds)))


class _Filled(dict):
    """A dict that fills a missed key with fill(key), so a hit stays a
    plain dict lookup."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class SchubertKernel:
    """The positroids of every necklace of one type (k, n), as index bitsets.

    The k-subsets of [n] are numbered by their position in
    lex_subsets(n, k), the order in which `convert --to bases` prints them,
    and a family of them is an int with bit j set for subset j.  For each t
    and each k-subset I, _rejected[t - 1][I] is the family that the
    shifted Schubert matroid of I at t rejects, so the nonbases of a
    necklace's positroid are the OR of the n rows its entries pick (Oh,
    JCTA 118 (2011)).  A row is the OR, over the (P, b) pairs of
    gale_bounds, of the family {J : |J & P| > b}, which one pass over the
    k-subsets per prefix P gives for every b at once.  _near[j] is the
    family of k-subsets at symmetric difference two from subset j.
    _census[i - 1] is the set of the cyclic and the bumped interval at
    index i in the ranks 2 <= k <= n-2, and empty in the others.
    all_necklaces carries the OR down its walk, one row per level, and
    tests each nonbasis a row adds against that level's OR through _near,
    the oracle's matroid-level verdict; it looks each entry up in its
    index's _census set, the necklace-level verdict.  Rows, near entries and
    prefix tables are built on first read: the walk reads a row only
    while the flag is up, so most rows are never built.
    """

    def __init__(self, k: int, n: int):
        self.n, self.k = n, k
        self._masks = [mask for mask, _ in lex_subsets(n, k)]
        self._index = {mask: j for j, mask in enumerate(self._masks)}
        self._over = _Filled(self._over_row)
        self._rejected = tuple(_Filled(partial(self._row, t))
                               for t in range(1, n + 1))
        self._near = _Filled(self._near_row)
        self._census = tuple(
            frozenset((_interval_mask(k, n, i), _bumped_mask(k, n, i)))
            if 2 <= k <= n - 2 else frozenset() for i in range(1, n + 1))

    def _row(self, t: int, entry: int) -> int:
        row = 0
        for prefix, bound in gale_bounds(self.n, t, entry):
            row |= self._over[prefix][bound]
        return row

    def _over_row(self, prefix: int) -> list[int]:
        """over[b] for 0 <= b <= k, the family {J : |J & prefix| > b}: by[c]
        is the family meeting prefix in c elements, and over[b] the OR of
        by[c] over c > b."""
        by = [0] * (self.k + 1)
        for j, mask in enumerate(self._masks):
            by[(mask & prefix).bit_count()] |= 1 << j
        over = [0] * (self.k + 1)
        for b in range(self.k - 1, -1, -1):
            over[b] = over[b + 1] | by[b + 1]
        return over

    def _near_row(self, j: int) -> int:
        mask, index = self._masks[j], self._index
        return sum(1 << index[mask ^ (1 << (out - 1)) ^ (1 << (into - 1))]
                   for out in members_of(mask)
                   for into in members_of(((1 << self.n) - 1) ^ mask))


def positroid_necklace(m: Matroid) -> GrassmannNecklace:
    """Necklace whose t-th entry is the basis that is lexicographically least
    after rotating labels so that t becomes 1.

    Among sets of equal size the least one is found greedily: walk the
    rotation at t and, at each element, keep the candidates containing it
    whenever any does.
    """
    n = m.n
    entries = []
    for t in range(1, n + 1):
        cands = list(m.bases)
        for step in range(n):
            if len(cands) == 1:
                break
            bit = 1 << ((t - 1 + step) % n)
            having = [b for b in cands if b & bit]
            if having:
                cands = having
        entries.append(cands[0])
    return GrassmannNecklace(n, m.k, tuple(entries))


def is_positroid(m: Matroid) -> GrassmannNecklace | None:
    """The necklace of m when m is the positroid of that necklace, else None.

    The rotationwise least bases of a family that is not a matroid need not
    form a necklace at all; such a family is not a positroid either.  A
    family that passes is an intersection of shifted Schubert matroids, so
    it is a positroid and in particular satisfies the exchange axiom (Oh,
    JCTA 118 (2011)).
    """
    try:
        neck = positroid_necklace(m)
    except ValueError:
        return None
    if necklace_to_positroid(neck).bases != m.bases:
        return None
    return neck


def sparse_paving_witness(neck: GrassmannNecklace) -> NonAdjacentSet | None:
    """Decide sparse paving at the necklace level.

    The positroid is sparse paving exactly when every entry that deviates from
    its cyclic interval is the bumped interval and no two deviating indices
    are cyclic neighbours.  Returns the deviation set, which indexes the
    circuit-hyperplanes, or None when the test fails.  Each entry is
    compared with its two intervals as the scan reaches it, and the scan
    stops at the first entry that matches neither.  The necklace axiom
    forces the second condition: after the bumped interval at i the next
    entry holds i + k, which the bumped interval at i + 1 lacks.  So the
    set is built with Record._trusted, unchecked.
    """
    n, k = neck.n, neck.k
    _check_classification(k, n)
    deviating = 0
    for i, entry in enumerate(neck.entries, 1):
        if entry != _interval_mask(k, n, i):
            if entry != _bumped_mask(k, n, i):
                return None
            deviating |= 1 << (i - 1)
    return NonAdjacentSet._trusted(n, deviating)


_TAIL = 3  # the levels below the cut, which a memo value lists flat


def _choices(pool: int, bit: int, cur: int) -> list[int]:
    """The entries that may follow cur at the walk's level whose element has
    the given bit, ascending: cur with that element replaced from pool, or
    cur itself when the element is absent."""
    if not cur & bit:
        return [cur]
    stripped = cur ^ bit
    rest = pool & ~stripped
    out = []
    while rest:
        low = rest & -rest
        out.append(stripped | low)
        rest ^= low
    return out


def _tails(pools: Sequence[int], bits: Sequence[int], level: int,
           cur: int) -> list[tuple[int, ...]]:
    """Every completion of the entry cur at the given level of
    all_necklaces, as the tuple of its entries at the levels below, in walk
    order."""
    tails = [(cur,)]
    for i in range(level + 1, len(pools)):
        tails = [tail + (nxt,) for tail in tails
                 for nxt in _choices(pools[i], bits[i], tail[-1])]
    return [tail[1:] for tail in tails]


def _subtree(memo: dict, pools: Sequence[int], bits: Sequence[int],
             cut: int, level: int, cur: int) -> list:
    """The memo value of the dead node with entry cur at the given level of
    all_necklaces: at or below the cut, its completions from _tails; above
    it, its (child entry, child's memo value) pairs in ascending order, each
    child's value taken from memo, or built and stored there on a miss."""
    if level >= cut:
        return _tails(pools, bits, level, cur)
    node, below = [], level + 1
    for child in _choices(pools[below], bits[below], cur):
        value = memo.get((below, child))
        if value is None:
            value = memo[below, child] = _subtree(memo, pools, bits, cut,
                                                  below, child)
        node.append((child, value))
    return node


def all_necklaces(kernel: SchubertKernel
                  ) -> Iterator[tuple[tuple[int, ...], bool, bool]]:
    """Depth-first enumeration of every necklace of the kernel's type
    (k, n), in lexicographic order of the entries ranked by lex_subsets,
    each yielded as (entries, by_matroid, by_necklace): its entry masks,
    whether its positroid's nonbases are pairwise at symmetric difference
    >= 4, the sparse paving condition of is_sparse_paving, and whether it
    is in the census, the paper's classification.

    Every necklace has I_1 containing I_{i+1} minus {i+1, ..., n}: the
    steps i+1, ..., n that lead back to I_1 only remove those elements.  So
    when i is in I_i, the element that replaces it is drawn from I_1 and
    {i+1, ..., n} only, and there is always one to draw: I_i minus {i}
    has k - 1 elements, all in that set of at least k.  Every prefix built
    this way closes into a necklace, so no branch dies and the last step
    needs no check.

    The walk is one loop over the levels i = 0, ..., n-1 of the entry
    I_{i+1}: todo[i] holds the entries of level i not yet tried, drawn by
    _choices, the rule the replay uses too, and stored in reverse so that
    the next one in lex_subsets order pops off its end.  Each level carries
    two verdicts on its prefix.  acc[i] is acc[i-1] OR the kernel's row
    for I_{i+1} at t = i + 1, so the nonbases are the OR of all n rows (Oh,
    JCTA 118 (2011)); the OR only grows, so once two nonbases are at
    symmetric difference two no completion is sparse paving: sparse[i] says
    that acc[i] holds no such pair, a level tests only the nonbases its row
    adds, each against acc[i] through the kernel's near table, and a level
    below a fallen flag reads no row.  census[i] says that every entry of
    the prefix is the cyclic or the bumped interval at its index, the
    kernel's _census set.  That is the paper's classification: its other
    condition, no two bumped indices cyclic neighbours, holds on every
    necklace (see sparse_paving_witness).  Both verdicts only fall, and a
    level the walk resumes at starts again from its parent's acc, flag and
    census state.

    A node where both are down is dead: every leaf below it is (entries,
    False, False), so the walk stops there, at any level, and replays the
    subtree.  The choices at level i read only the entry before it and the
    pool I_1 | {i+1, ..., n}, and a dead node carries no verdict, so the
    completions of a dead node depend on nothing but I_1, its level and
    its entry.  They come from a memo kept for the current first entry and
    keyed by (level, entry), filled by _subtree on a miss.  At or below
    the cut level n - _TAIL - 1 a value is the flat list of completions;
    above it, the node's children each with its own value, so each
    (level, entry) is built once per first entry and shared subtrees are
    stored once.  The walk replays a value with a stack, children in
    ascending order, yields its prefix followed by each completion, and
    backtracks from the dead node.
    """
    n, rejected, near, marks = (kernel.n, kernel._rejected, kernel._near,
                                kernel._census)
    full = (1 << n) - 1
    bits = [0] + [1 << i for i in range(n - 1)]  # bits[i] is element i
    cut = n - _TAIL - 1
    entries = [0] * n
    todo = [[0]] + [[] for _ in range(n - 1)]  # todo[0] stops the scan
    acc = [0] * n
    sparse = [True] * n
    census = [True] * n
    for first, _ in lex_subsets(n, kernel.k):
        pools = [first | full >> i << i for i in range(n)]
        memo = {}
        cur, i, nonbases, ok, state = first, 0, 0, True, True
        while True:
            while True:
                entries[i] = cur
                if ok:
                    row = rejected[i][cur]
                    new = row & ~nonbases
                    nonbases |= row
                    while new:
                        low = new & -new
                        if near[low.bit_length() - 1] & nonbases:
                            ok = False
                            break
                        new ^= low
                state = state and cur in marks[i]
                if not (ok or state):
                    break
                acc[i], sparse[i], census[i] = nonbases, ok, state
                i += 1
                if i == n:
                    break
                todo[i] = _choices(pools[i], bits[i], cur)[::-1]
                cur = todo[i].pop()
            if i == n:
                yield tuple(entries), ok, state
                i = n - 1
            else:
                value = memo.get((i, cur))
                if value is None:
                    value = memo[i, cur] = _subtree(memo, pools, bits, cut,
                                                    i, cur)
                stack = [(i, tuple(entries[:i + 1]), value)]
                while stack:
                    level, head, value = stack.pop()
                    if level >= cut:
                        for tail in value:
                            yield head + tail, False, False
                    else:
                        level += 1
                        stack.extend((level, head + (child,), sub)
                                     for child, sub in reversed(value))
            while not todo[i]:
                i -= 1
            if not i:
                break
            cur = todo[i].pop()
            nonbases, ok, state = acc[i - 1], sparse[i - 1], census[i - 1]
