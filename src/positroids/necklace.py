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

Necklace entries and intervals are bare int masks, like every subset inside
the library; only a NonAdjacentSet carries its ground set.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator, Sequence

from .matroid import (
    Matroid,
    NonAdjacentSet,
    Record,
    as_mask,
    json_int,
    json_list,
    lex_subsets,
    members_of,
    nonadjacent_mask_ok,
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


def _check_classification(k: int, n: int) -> None:
    if not 2 <= k <= n - 2:
        raise ValueError(
            f"classification needs 2 <= k <= n-2, got k={k}, n={n}")


def _check_interval(k: int, n: int, i: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"interval length {k} outside [1, {n}]")
    if not 1 <= i <= n:
        raise ValueError(f"interval start {i} outside [1, {n}]")


def cyclic_interval(k: int, n: int, i: int) -> int:
    """Mask of the k consecutive elements i, i+1, ... taken cyclically in [n];
    this is the smallest k-subset for the rotation starting at i."""
    _check_interval(k, n, i)
    return _interval_mask(k, n, i)


def _interval_mask(k: int, n: int, i: int) -> int:
    """Mask of the cyclic interval of length 0 <= k <= n at 1 <= i <= n: the
    k low bits rotated by i - 1 within n bits, with no argument checks."""
    low = (1 << k) - 1
    shift = i - 1
    return ((low << shift) | (low >> (n - shift))) & ((1 << n) - 1)


def _bumped_mask(k: int, n: int, i: int) -> int:
    """Mask of the bumped interval at i, with no argument checks: the
    elements i, ..., i + k - 2 and then i + k, skipping i + k - 1."""
    return _interval_mask(k - 1, n, i) | (1 << ((i + k - 1) % n))


def _step_ok(bit: int, cur: int, nxt: int) -> bool:
    """The necklace condition from entry cur to the next entry nxt at the
    index whose bit is given."""
    if cur & bit:
        return not (cur ^ bit) & ~nxt
    return cur == nxt


def _axiom_problem(entries: Sequence[int]) -> str | None:
    n = len(entries)
    for i in range(1, n + 1):
        cur = entries[i - 1]
        bit = 1 << (i - 1)
        if _step_ok(bit, cur, entries[i % n]):
            continue
        if cur & bit:
            return (f"necklace axiom fails at i={i}: the next entry must "
                    f"contain the current one minus {{{i}}}")
        return (f"necklace axiom fails at i={i}: {i} is absent so the "
                f"next entry must repeat")
    return None


class GrassmannNecklace(Record):
    """Cyclic sequence (I_1, ..., I_n) of k-subsets of [n], as masks, obeying
    the necklace condition.  Public construction validates it; the library
    builders whose necklaces are valid by construction
    (necklace_from_nonadjacent, decperm_to_necklace) use Record._trusted."""

    __slots__ = ("n", "k", "entries")
    n: int
    k: int
    entries: tuple[int, ...]

    def __post_init__(self):
        n, k = self.n, self.k
        if len(self.entries) != n:
            raise ValueError("entry count must equal the ground size")
        if any(e < 0 or e >> n for e in self.entries):
            raise ValueError("entry holds elements outside the ground set")
        if any(e.bit_count() != k for e in self.entries):
            raise ValueError("entry size differs from k")
        problem = _axiom_problem(self.entries)
        if problem is not None:
            raise ValueError(problem)

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "GrassmannNecklace":
        entries = tuple(as_mask(s, n) for s in sets)
        if not entries:
            raise ValueError("no entries")
        return cls(n, entries[0].bit_count(), entries)

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k,
                "entries": [list(members_of(e)) for e in self.entries]}

    @classmethod
    def from_dict(cls, data: dict) -> "GrassmannNecklace":
        n = json_int(data["n"], "n")
        neck = cls.of(n, (json_list(e, "entry")
                          for e in json_list(data["entries"], "entries")))
        if neck.k != json_int(data["k"], "k"):
            raise ValueError("declared k differs from the entry size")
        return neck


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
    _census[i - 1] holds the census marks at index i: 1 for the cyclic
    interval and 2 for the bumped interval, in the ranks 2 <= k <= n-2
    only.  all_necklaces carries the OR down its walk, one row per level,
    and tests each nonbasis a row adds against that level's OR through
    _near, the oracle's matroid-level verdict; it reads each entry's
    census mark, the necklace-level verdict.  Rows, near entries and
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
            {_interval_mask(k, n, i): 1, _bumped_mask(k, n, i): 2}
            if 2 <= k <= n - 2 else {} for i in range(1, n + 1))

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
    stops at the first entry that matches neither.  The set is built with
    Record._trusted: nonadjacent_mask_ok has just passed on it.
    """
    n, k = neck.n, neck.k
    _check_classification(k, n)
    deviating = 0
    for i, entry in enumerate(neck.entries, 1):
        if entry != _interval_mask(k, n, i):
            if entry != _bumped_mask(k, n, i):
                return None
            deviating |= 1 << (i - 1)
    if not nonadjacent_mask_ok(deviating, n):
        return None
    return NonAdjacentSet._trusted(n, deviating)


def necklace_from_nonadjacent(a, k: int, n: int) -> GrassmannNecklace:
    """Necklace of the sparse paving positroid indexed by a non-adjacent set:
    bumped intervals at the chosen indices, cyclic intervals elsewhere.
    A NonAdjacentSet on [n] is taken as it is; any other set is checked."""
    _check_classification(k, n)
    mask = as_mask(a, n)
    if not isinstance(a, NonAdjacentSet):
        NonAdjacentSet(n, mask)
    return GrassmannNecklace._trusted(n, k, tuple(
        _bumped_mask(k, n, i) if mask >> (i - 1) & 1
        else _interval_mask(k, n, i) for i in range(1, n + 1)))


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
    I_{i+1}: base[i] is I_i minus {i} and free[i] the replacements not yet
    tried, ascending, which is also the lex_subsets order of base[i] plus
    each; a level where i is absent from I_i copies the entry and keeps no
    choice.  Each level carries two verdicts on its prefix.  acc[i] is
    acc[i-1] OR the kernel's row for I_{i+1} at t = i + 1, so the
    nonbases are the OR of all n rows (Oh, JCTA 118 (2011)); the OR only
    grows, so once two nonbases are at symmetric difference two no
    completion is sparse paving: sparse[i] says that acc[i] holds no such
    pair, a level tests only the nonbases its row adds, each against
    acc[i] through the kernel's near table, and a level below a fallen
    flag reads no row.  census[i] is 0 when the prefix is no census
    prefix, else the kernel's census mark of I_{i+1}, 1 for its cyclic
    interval and 2 for its bumped interval; two bumped neighbours, I_n and
    I_1 among them, make it 0.  Both verdicts only fall, and a level the
    walk resumes at starts again from its parent's acc, flag and census
    state.

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
    base = [0] * n
    free = [1] + [0] * (n - 1)  # free[0] stops the backtracking scan
    acc = [0] * n
    sparse = [True] * n
    census = [0] * n
    for first, _ in lex_subsets(n, kernel.k):
        pools = [first | full >> i << i for i in range(n)]
        memo = {}
        cur, i, nonbases, ok, state = first, 0, 0, True, 1
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
                if state:
                    mark = marks[i].get(cur, 0)
                    state = 0 if state + mark == 4 else mark
                if not (ok or state):
                    break
                acc[i], sparse[i], census[i] = nonbases, ok, state
                i += 1
                if i == n:
                    break
                bit = bits[i]
                if cur & bit:
                    stripped = cur ^ bit
                    rest = pools[i] & ~stripped
                    low = rest & -rest
                    base[i], free[i] = stripped, rest ^ low
                    cur = stripped | low
                else:
                    free[i] = 0
            if i == n:
                # The wrap: bumped at I_n and at I_1 sums to 4 as well.
                yield tuple(entries), ok, 0 < state < 4 - census[0]
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
            while not free[i]:
                i -= 1
            if not i:
                break
            rest = free[i]
            low = rest & -rest
            free[i] = rest ^ low
            cur = base[i] | low
            nonbases, ok, state = acc[i - 1], sparse[i - 1], census[i - 1]
