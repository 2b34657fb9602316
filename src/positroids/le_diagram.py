"""Le-diagrams inside a k x (n-k) box, the decorated permutations their
pipes trace, and the planar path networks that certify their positroids.

Cells are addressed (row, col) with row 1 on top and col 1 at the left, the
usual top-left-justified Young diagram picture.  A LeDiagram is always a
Le-diagram: its constructor refuses a filling that breaks the Le condition,
so nothing downstream decides it again.

The pipes are the route: le_to_decperm reads the decorated permutation off
Postnikov's pipe dream in one sweep over the cells (Postnikov, "Total
positivity, Grassmannians, and networks", arXiv math/0609764), and the
necklace and the bases follow from it.  The matrix is the certificate:
the network's boundary-measurement matrix, which build_network returns, is
a k x n integer matrix of signed source-to-sink path counts whose maximal
minor on a k-subset I counts the vertex-disjoint path systems from the
sources outside I to the sinks inside I (Talaska's formula for the
Plucker coordinates).  So every minor is nonnegative, and the nonzero ones
are exactly the bases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .decorated import DecoratedPermutation, decperm_to_necklace
from .records import (
    Record,
    as_mask,
    json_int,
    json_ints,
    json_list,
    mask_of,
    members_of,
)

if TYPE_CHECKING:
    from .matroid import Matroid


class LeDiagram(Record):
    """Young-diagram shape inside a k x (n-k) box with a bullet/empty filling
    that satisfies the Le condition.

    Construction checks the shape and filling geometry, then the Le
    condition, and names the first failing cell in row-major order.
    """

    __slots__ = ("k", "n", "shape", "filling")
    k: int
    n: int
    shape: tuple[int, ...]
    filling: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise ValueError(f"box needs 0 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.shape) > self.k:
            raise ValueError("shape has more rows than the box")
        prev = self.n - self.k
        for w in self.shape:
            if not 1 <= w <= prev:
                raise ValueError("shape must be weakly decreasing inside the box")
            prev = w
        if len(self.filling) != len(self.shape):
            raise ValueError("filling row count differs from the shape")
        for row, w in zip(self.filling, self.shape):
            if len(row) != w:
                raise ValueError("filling row width differs from the shape")
        _require_le(self.filling, self.n - self.k)

    @classmethod
    def make(cls, k: int, n: int, shape: Iterable[int],
             filling: Iterable[Iterable]) -> "LeDiagram":
        parts = [json_int(w, "shape width") for w in shape]
        rows = [tuple(_cell(x) for x in row) for row in filling]
        while parts and parts[-1] == 0:
            parts.pop()
            if len(rows) > len(parts) and not rows[-1]:
                rows.pop()
        return cls(k, n, tuple(parts), tuple(rows))

    def to_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "shape": list(self.shape),
                "filling": [[1 if b else 0 for b in row]
                            for row in self.filling]}

    @classmethod
    def from_dict(cls, data: dict) -> "LeDiagram":
        filling = [json_ints(row, "filling row")
                   for row in json_list(data["filling"], "filling")]
        return cls.make(json_int(data["k"], "k"), json_int(data["n"], "n"),
                        json_list(data["shape"], "shape"), filling)


def _cell(x) -> bool:
    """A filling cell: 0 or False is empty, 1 or True is a bullet; anything
    else is rejected rather than read by truth value."""
    if type(x) not in (int, bool) or x not in (0, 1):
        raise ValueError("filling cells must be 0 or 1")
    return bool(x)


def _require_le(filling: tuple, width: int) -> None:
    """Raise at the first cell, in row-major order, that breaks the Le
    condition: an empty cell with a bullet above it in its column and a
    bullet to its left in its row."""
    above = [False] * (width + 1)
    for r, row in enumerate(filling, 1):
        seen_left = False
        for c, bullet in enumerate(row, 1):
            if bullet:
                seen_left = above[c] = True
            elif seen_left and above[c]:
                raise ValueError(f"Le condition fails at cell {(r, c)}")


def boundary_labels(diag: LeDiagram) -> tuple[dict, dict]:
    """Walk the border of the shape, padded by the top and left sides of the
    box, from the box's top right corner to its bottom left corner, numbering
    the n steps in order.  The labels split into sources (down-steps, tied to
    rows) and sinks (left-steps, tied to columns); returns the maps
    (row_source, col_sink) from each row to its source label and from each
    column to its sink label."""
    n, k = diag.n, diag.k
    widths = list(diag.shape) + [0] * (k - len(diag.shape))
    label = 0
    col = n - k
    row_source: dict[int, int] = {}
    col_sink: dict[int, int] = {}
    for r in range(1, k + 1):
        while col > widths[r - 1]:
            label += 1
            col_sink[col] = label
            col -= 1
        label += 1
        row_source[r] = label
    while col > 0:
        label += 1
        col_sink[col] = label
        col -= 1
    return row_source, col_sink


def build_network(diag: LeDiagram) -> tuple:
    """Postnikov's boundary-measurement matrix of the diagram's path network
    with unit weights, as a tuple of rows: one row per source in label
    order.  A source's own column holds 1 and the other sources' columns 0;
    a sink column j holds (-1)^s times the number of paths from the row's
    source i to j, where s counts the sources strictly between i and j.  A
    source only reaches sinks with larger labels.

    Rows carry traffic leftward from the row's source and columns carry it
    downward into the column's sink: each source points to the rightmost
    bullet of its row, and each bullet points to the nearest bullet on its
    left in the row and to the nearest bullet below in its column (`below`,
    which starts at the column's sink).  Gaps left by empty cells are
    skipped.  The network's edges are never stored: the sweep runs from the
    bottom row up and left to right within a row, so both successors of a
    bullet are counted before it, and its path counts per sink are the sum
    of theirs."""
    n = diag.n
    row_source, col_sink = boundary_labels(diag)
    sources = mask_of(row_source.values(), n)
    below = {c: {label: 1} for c, label in col_sink.items()}
    filling = diag.filling + ((),) * (diag.k - len(diag.filling))
    rows = []
    for r in range(diag.k, 0, -1):
        last = {}
        for c, bullet in enumerate(filling[r - 1], 1):
            if bullet:
                count = dict(last)
                for j, x in below[c].items():
                    count[j] = count.get(j, 0) + x
                below[c] = last = count
        i = row_source[r]
        row = [0] * n
        row[i - 1] = 1
        for j, x in last.items():
            between = (sources >> i) & ((1 << (j - i - 1)) - 1)
            row[j - 1] = -x if between.bit_count() & 1 else x
        rows.append(tuple(row))
    return tuple(reversed(rows))


def le_to_decperm(diag: LeDiagram) -> DecoratedPermutation:
    """Postnikov's pipes: one enters each row's east end moving west and
    each column's foot moving north, goes straight through an empty cell,
    and swaps with the crossing pipe at a bullet.  Swept from the bottom row
    up and right to left, the pipe leaving row r ends at its source label
    and the one leaving column c at its sink label, and each pipe maps its
    start to its end.  A pipe that ends where it started is a fixed point,
    marked as its end is read: -1 at a source label, +1 at a sink label.
    Any filling gives a permutation, and the marks cover its fixed points in
    ascending order, so the result is built with Record._trusted."""
    row_source, col_sink = boundary_labels(diag)
    row, col = dict(row_source), dict(col_sink)
    for r in range(len(diag.filling), 0, -1):
        cells = diag.filling[r - 1]
        for c in range(len(cells), 0, -1):
            if cells[c - 1]:
                row[r], col[c] = col[c], row[r]
    perm = [0] * diag.n
    mark = [0] * diag.n
    for ends, starts, sign in ((row_source, row, -1), (col_sink, col, 1)):
        for line, start in starts.items():
            end = perm[start - 1] = ends[line]
            if end == start:
                mark[end - 1] = sign
    marks = tuple((i, m) for i, m in enumerate(mark, 1) if m)
    return DecoratedPermutation._trusted(diag.n, tuple(perm), marks)


def realizable_sets(diag: LeDiagram) -> Matroid:
    """Matroid on [n] whose bases are the k-subsets the diagram realizes:
    its decorated permutation by the pipes, then the necklace and the Gale
    intersection of necklace_to_positroid."""
    from .necklace import necklace_to_positroid
    return necklace_to_positroid(
        decperm_to_necklace(le_to_decperm(diag), diag.k))


def cell_numbering(k: int, n: int) -> dict[int, tuple[int, int]]:
    """Boundary cells of the k x (n-k) box keyed by label: 1 on the bottom
    right corner, then the top row right to left, then the left column top
    to bottom."""
    if not 2 <= k <= n - 1:
        raise ValueError(f"numbering needs 2 <= k <= n-1, got k={k}, n={n}")
    cells = {1: (k, n - k)}
    for off, label in enumerate(range(2, n - k + 2)):
        cells[label] = (1, n - k - off)
    for off, label in enumerate(range(n - k + 1, n + 1)):
        cells[label] = (1 + off, 1)
    return cells


def le_from_removals(removed, k: int, n: int) -> LeDiagram:
    """Fully bulleted box with the bullets at the numbered boundary cells in
    `removed` taken out; removing label 1 also trims its corner cell, which
    keeps the filling a Le-diagram.  Any subset of [n] is accepted, and the
    shape and the filling fit the box by construction, so the diagram is
    built with Record._trusted."""
    cells = cell_numbering(k, n)
    labels = members_of(as_mask(removed, n))
    shape = [n - k] * k
    if 1 in labels:
        shape[k - 1] -= 1
    filling = [[True] * w for w in shape]
    for lab in labels:
        r, c = cells[lab]
        if c <= shape[r - 1]:
            filling[r - 1][c - 1] = False
    if not shape[-1]:
        # At k = n - 1 the trim empties the last row; a shape has no empty
        # rows.
        shape.pop()
        filling.pop()
    return LeDiagram._trusted(k, n, tuple(shape), tuple(map(tuple, filling)))


def render_le(diag: LeDiagram) -> str:
    """ASCII picture: '*' for a bullet, '.' for an empty cell, each row's
    source label after the row, and the sink labels under their columns on
    the final line."""
    row_source, col_sink = boundary_labels(diag)
    w = len(str(diag.n))
    filling = diag.filling + ((),) * (diag.k - len(diag.filling))
    lines = []
    for r, row in enumerate(filling, 1):
        cells = [("*" if bullet else ".").ljust(w) for bullet in row]
        cells.append(str(row_source[r]).ljust(w))
        lines.append(" ".join(cells).rstrip())
    bottom = " ".join(str(col_sink[c]).ljust(w)
                      for c in range(1, diag.n - diag.k + 1)).rstrip()
    if bottom:
        lines.append(bottom)
    return "\n".join(lines) + "\n"
