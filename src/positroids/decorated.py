"""Decorated permutations and their correspondence with Grassmann necklaces."""

from __future__ import annotations

from typing import Iterable, Mapping

from .matroid import Record, json_int, json_list
from .necklace import GrassmannNecklace


class DecoratedPermutation(Record):
    """Permutation of [n] in one-line notation with every fixed point marked
    +1 or -1.  Marks are stored sorted by position so equality is canonical."""

    __slots__ = ("n", "perm", "colors")
    n: int
    perm: tuple[int, ...]
    colors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1 or len(self.perm) != self.n:
            raise ValueError("one-line length differs from n")
        if sorted(self.perm) != list(range(1, self.n + 1)):
            raise ValueError("not a permutation of [n]")
        fixed = {i for i in range(1, self.n + 1) if self.perm[i - 1] == i}
        keys = [i for i, _ in self.colors]
        if len(set(keys)) != len(keys) or set(keys) != fixed:
            raise ValueError("marks must cover exactly the fixed points")
        if any(c not in (-1, 1) for _, c in self.colors):
            raise ValueError("marks must be +1 or -1")
        if list(self.colors) != sorted(self.colors):
            raise ValueError("marks must be sorted by position")

    @classmethod
    def make(cls, perm: Iterable[int],
             colors: Mapping[int, int] | None = None) -> "DecoratedPermutation":
        line = tuple(json_int(x, "perm entry") for x in perm)
        marks = tuple(sorted((json_int(i, "mark position"),
                              json_int(c, "mark"))
                             for i, c in (colors or {}).items()))
        return cls(len(line), line, marks)

    def to_dict(self) -> dict:
        return {"n": self.n, "perm": list(self.perm),
                "colors": {str(i): c for i, c in self.colors}}

    @classmethod
    def from_dict(cls, data: dict) -> "DecoratedPermutation":
        perm = json_list(data["perm"], "perm")
        if len(perm) != json_int(data["n"], "n"):
            raise ValueError("one-line length differs from n")
        colors = data.get("colors", {})
        if not isinstance(colors, dict):
            raise ValueError("colors must be an object")
        for i in colors:
            # Only the canonical spelling counts, so "02" cannot mark the
            # same fixed point as "2".
            if not (isinstance(i, str) and i.isdecimal()
                    and str(int(i)) == i):
                raise ValueError(f"color key {i!r} is not a canonical "
                                 f"decimal string")
        return cls.make(perm, {int(i): json_int(c, "color")
                               for i, c in colors.items()})


def necklace_to_decperm(neck: GrassmannNecklace) -> DecoratedPermutation:
    """Read the permutation off consecutive entries: when i leaves the entry
    the inserted element is its image; an untouched entry makes i a fixed
    point, marked +1 when i is missing from it and -1 when present.  A
    necklace always gives a decorated permutation (Postnikov, arXiv
    math/0609764), with its marks found in ascending position, so the
    result is built with Record._trusted."""
    n = neck.n
    perm = [0] * n
    colors: dict[int, int] = {}
    for i in range(1, n + 1):
        cur = neck.entries[i - 1]
        nxt = neck.entries[i % n]
        bit = 1 << (i - 1)
        if not cur & bit:
            perm[i - 1] = i
            colors[i] = 1
        elif nxt == cur:
            perm[i - 1] = i
            colors[i] = -1
        else:
            inserted = nxt & ~(cur ^ bit)
            perm[i - 1] = inserted.bit_length()
    return DecoratedPermutation._trusted(n, tuple(perm),
                                         tuple(colors.items()))


def decperm_to_necklace(dp: DecoratedPermutation, k: int) -> GrassmannNecklace:
    """Rebuild the necklace by the step rule that necklace_to_decperm reads:
    the first entry holds the images j = perm(i) with j < i and the -1
    fixed points, and I_{i+1} = (I_i - {i}) + {perm(i)} whenever i is in
    I_i.  The permutation determines k; a different k is an
    inconsistency.  Once k matches, the rule gives a necklace for every
    decorated permutation (Postnikov, arXiv math/0609764), so the result
    is built with Record._trusted."""
    cur = (sum(1 << (j - 1) for i, j in enumerate(dp.perm, 1) if j < i)
           + sum(1 << (i - 1) for i, c in dp.colors if c == -1))
    derived = cur.bit_count()
    if derived != k:
        raise ValueError(
            f"permutation determines rank {derived}, not {k}")
    entries = [cur]
    for i, j in enumerate(dp.perm[:-1], 1):
        bit = 1 << (i - 1)
        if cur & bit:
            cur = (cur ^ bit) | 1 << (j - 1)
        entries.append(cur)
    return GrassmannNecklace._trusted(dp.n, k, tuple(entries))

