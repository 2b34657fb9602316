"""Value types and subset helpers that the commands share.

Every subset of [n] inside the library is a bare int mask (bit i-1 holds
element i): bases, circuits, hyperplanes, necklace entries and intervals
alike, so membership, intersection and symmetric-difference tests stay
cheap inside the exhaustive scans used by the oracles and the census.  Only
a NonAdjacentSet, the witness that indexes a sparse paving positroid,
carries its ground set with it.  Index arithmetic on the cyclic ground set
is 1-based and wraps modulo n with representatives in [n], so the successor
of n is 1.

This module holds the records (Record, NonAdjacentSet, GrassmannNecklace),
the JSON field readers, the k-subset table and the cyclic intervals, and no
algorithm on matroids or necklaces: those live in `matroid` and `necklace`,
which the census never imports.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence


def mask_of(members: Iterable[int], n: int) -> int:
    """Pack a subset of [n] into a bit mask, rejecting bad elements."""
    m = 0
    for x in members:
        x = json_int(x, "element")
        if not 1 <= x <= n:
            raise ValueError(f"element {x} outside ground set [1, {n}]")
        bit = 1 << (x - 1)
        if m & bit:
            raise ValueError(f"repeated element {x}")
        m |= bit
    return m


def members_of(mask: int) -> tuple[int, ...]:
    """Unpack a bit mask into its sorted member tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def lex_subsets(n: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every k-subset of [n] as a (mask, sorted members) pair, in
    lexicographic order of the member tuples: the library's one table of
    k-subsets, so bases are printed and SchubertKernel numbers them in
    this order."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"no {k}-subsets on ground set [{n}]")
    bits = [1 << i for i in range(n)]
    return tuple(zip(map(sum, combinations(bits, k)),
                     combinations(range(1, n + 1), k)))


def json_int(value, what: str) -> int:
    """An integer read from a JSON payload or passed to a constructor.
    Booleans, floats and strings are rejected rather than coerced, so `true`,
    `3.7` and `"3"` never pass."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got "
                         f"{type(value).__name__}")
    return value


def json_list(value, what: str) -> list:
    """A list read from a JSON payload; strings and objects are rejected."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def json_ints(value, what: str) -> list[int]:
    """A JSON list of integers, each checked by json_int."""
    entry = f"{what} entry"
    return [json_int(x, entry) for x in json_list(value, what)]


class Record:
    """Immutable value type whose fields are its class's __slots__, in order,
    behaving as dataclass(frozen=True) without defaults does: every field is
    a required argument, and `__slots__ = ()` keeps the parent's fields.
    Each class's __init__ is compiled once from its field names, so building
    a record costs what a hand-written __init__ would.

    Calling the class validates the fields through __post_init__.  The
    private classmethod _trusted, compiled next to __init__, sets the same
    fields without that check; only library builders whose output is valid
    by construction call it, and the test suite runs the validating
    constructor on what each of them builds."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__slots__", ()))
        if not fields:
            return
        ns = {f"_set_{f}": cls.__dict__[f].__set__ for f in fields}
        ns["_new"] = object.__new__
        args = ", ".join(fields)
        setters = "".join(f"    _set_{f}(self, {f})\n" for f in fields)
        exec(f"def __init__(self, {args}):\n{setters}"
             "    self.__post_init__()\n"
             f"def _trusted(cls, {args}):\n    self = _new(cls)\n{setters}"
             "    return self\n"
             f"def _values(self):\n"
             f"    return ({''.join(f'self.{f}, ' for f in fields)})\n", ns)
        init, trusted = ns["__init__"], ns["_trusted"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        trusted.__qualname__ = f"{cls.__qualname__}._trusted"
        cls.__init__, cls._values, cls._fields = init, ns["_values"], fields
        cls._trusted = classmethod(trusted)

    def __post_init__(self):
        pass

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class NonAdjacentSet(Record):
    """Subset of the cyclic ground set [n] in which no two distinct elements
    are consecutive modulo n.  It carries n along with its bit mask, so
    as_mask can reject it on another ground set."""

    __slots__ = ("n", "mask")
    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground size must be positive")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("mask holds elements outside the ground set")
        if not nonadjacent_mask_ok(self.mask, self.n):
            raise ValueError("set contains cyclically adjacent elements")

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "NonAdjacentSet":
        return cls(n, mask_of(members, n))

    @property
    def members(self) -> tuple[int, ...]:
        return members_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.n and self.mask >> (x - 1) & 1 == 1

    def to_dict(self) -> dict:
        return {"n": self.n, "members": list(self.members)}

    @classmethod
    def from_dict(cls, data: dict) -> "NonAdjacentSet":
        return cls.of(json_int(data["n"], "n"),
                      json_list(data["members"], "members"))


def nonadjacent_mask_ok(mask: int, n: int) -> bool:
    """Non-adjacency for masks: no two distinct elements of the set are
    cyclic neighbours.  On the one-element ground set the singleton counts,
    since it has no distinct neighbour."""
    if n == 1:
        return True
    rot = ((mask << 1) | (mask >> (n - 1))) & ((1 << n) - 1)
    return mask & rot == 0


def as_mask(subset, n: int) -> int:
    """Coerce a NonAdjacentSet or an iterable of elements to a mask over
    [n], rejecting a set built on another ground set."""
    if isinstance(subset, NonAdjacentSet):
        if subset.n != n:
            raise ValueError(f"subset lives on [{subset.n}], expected [{n}]")
        return subset.mask
    return mask_of(subset, n)


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
