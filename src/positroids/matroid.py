"""Matroid kernel over explicit basis families on the ordered ground set [n].

Every subset of [n] inside the library is a bare int mask (bit i-1 holds
element i): bases, circuits, hyperplanes, necklace entries and intervals alike,
so membership, intersection and symmetric-difference tests stay cheap inside
the exhaustive scans used by the oracles and the census.  Only a
NonAdjacentSet, the witness that indexes a sparse paving positroid, carries
its ground set with it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable


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
    return tuple((sum(1 << (x - 1) for x in combo), combo)
                 for combo in itertools.combinations(range(1, n + 1), k))


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


def _independent(mask: int, bases: frozenset[int]) -> bool:
    return any(mask & ~b == 0 for b in bases)


def circuits(m: Matroid) -> frozenset[int]:
    """All minimal dependent subsets, found by increasing size: a dependent
    set is a circuit exactly when no circuit found earlier lies inside it.
    Circuits never exceed k+1 elements."""
    found: list[int] = []
    for size in range(1, min(m.k + 1, m.n) + 1):
        found += [mask for mask, _ in lex_subsets(m.n, size)
                  if not _independent(mask, m.bases)
                  and all(c & ~mask for c in found)]
    return frozenset(found)


def hyperplanes(m: Matroid) -> frozenset[int]:
    """Flats of rank k-1, each the closure of an independent (k-1)-set I:
    I together with every element e for which I+e is dependent."""
    if m.k < 1:
        raise ValueError("a rank-0 matroid has no hyperplanes")
    singles = [1 << j for j in range(m.n)]
    return frozenset(
        i | sum(e for e in singles
                if not i & e and not _independent(i | e, m.bases))
        for i, _ in lex_subsets(m.n, m.k - 1) if _independent(i, m.bases))


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

