"""The text of the census lines that `positroids enumerate` prints.

A line is the compact JSON of one entry's five views keyed "A", "bases",
"le", "necklace" and "perm", in that sorted key order.  Every view is local
in the witness A, so every part of a line that differs between witnesses is
a unit (lo, mask, table): for the witness mask m, whose bit i - 1 holds
position i, and wide = m | m << n, which repeats m from bit n on, the
unit's text is table[wide >> lo & mask].  The tables are built once per
type (k, n) from the views of the empty witness and the n singletons; no
view is built per line, and a line is one join of its units' texts.  Only
the census imports this module, which keeps its compile out of every other
command's start-up and memory peak.  It reads the witnesses, the k-subset
table and the type check from `records`, so the census, which builds its
views from the paper's closed forms, compiles neither `matroid` nor
`necklace`.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

from .decorated import necklace_to_decperm
from .enumeration import SparsePavingPositroid
from .records import NonAdjacentSet, _check_classification, lex_subsets

# A part of a line that differs between witnesses is encoded as
# [_MARK, part, _MARK], and re.split on _MARKED cuts it out again.
_MARK = "\x00"
_MARKED = r'\["\\u0000",(.*?),"\\u0000"\]'

# The widest window, in bits of wide, that one table reads.  A's members
# and the view fragments take 6 bits, so a table holds at most 2**6 texts;
# the bases take 2, so their tables hold about three times the text of all
# k-subsets.
_VIEW_BITS = 6
_BASES_BITS = 2


def census_lines(k: int, n: int, entries: Iterable[SparsePavingPositroid],
                 dumps: Callable[[object], str]) -> Iterator[str]:
    """Each entry's line, ending in a newline, with dumps the JSON encoder
    that sorts keys and writes no spaces; entries is the census of type
    (k, n), drawn one entry per line.

    A line reads only its entry's witness mask, and every part of it is a
    unit.  A's list has one unit per position, the member with a comma
    before it, and the line drops the first comma.  The bases are every
    k-subset but the cyclic intervals at A, so each interval's span in the
    text of all k-subsets is a unit that keeps the span or cuts it.  The
    le, necklace and perm fragments are the units of _tail.  Units next to
    each other in the line share one table when their positions fit one
    window of _VIEW_BITS bits, or of _BASES_BITS for the bases, so a line
    at (12, 6) is 15 table reads and one join.
    """
    _check_classification(k, n)
    witnesses = [SparsePavingPositroid(k, n, NonAdjacentSet(n, mask))
                 for mask in [0] + [1 << i for i in range(n)]]
    head, views = _tail(witnesses, dumps)
    members = _tables([""] + [piece for i in range(n)
                              for piece in ((i, 1, ("", f",{i + 1}")), "")],
                      _VIEW_BITS, n)
    units = _tables(_bases(witnesses, f'],"k":{k},"n":{n}}},{head[1:]}'),
                    _BASES_BITS, n) + _tables(views, _VIEW_BITS, n)
    spread = 1 | 1 << n
    for entry in entries:
        wide = entry.nonadjacent.mask * spread
        a = "".join([table[wide >> lo & mask] for lo, mask, table in members])
        yield "".join(['{"A":[', a[1:], *[table[wide >> lo & mask]
                                          for lo, mask, table in units]])


def _tables(pieces: list, cap: int, n: int) -> list:
    """The units (lo, mask, table) of a stretch of a line, given as pieces
    that alternate a text the same for every witness with a unit (lo,
    width, texts): texts[0] when wide holds none of the bits lo, ..., lo +
    width - 1, texts[1 << j] when it holds bit lo + j.  Each unit joins the
    one before it when the positions of both, counted modulo n, fit one run
    of at most cap of them and fewer than n; cap 0 keeps every unit alone.
    A table's text for a window value is its units' texts, each followed by
    the text up to the next unit.  Two bits of a window are positions that
    are neighbours exactly when the bits are, so the values that no
    non-adjacent witness shows are those with two adjacent bits, and their
    text is None."""
    groups: list = []
    lead = pieces[0]
    for (lo, width, texts), after in zip(pieces[1::2], pieces[2::2]):
        unit = (lo, width, [lead + text + after for text in texts])
        lead = ""
        if groups:
            # The shorter of the runs from the group's start and from lo.
            start, span, group = groups[-1]
            span, start = min((max((lo - start) % n + width, span), start),
                              (max((start - lo) % n + span, width), lo))
            if span <= min(cap, n - 1):
                groups[-1] = (start, span, group + [unit])
                continue
        groups.append((lo, width, [unit]))
    units = []
    for lo, width, group in groups:
        reads = [((start - lo) % n, (1 << size) - 1, texts)
                 for start, size, texts in group]
        table = [None] * (1 << width)
        for value in range(1 << width):
            if value & value >> 1 == 0:
                table[value] = "".join([texts[value >> shift & mask]
                                        for shift, mask, texts in reads])
        units.append((lo, (1 << width) - 1, tuple(table)))
    return units


def _bases(witnesses: list, after: str) -> list:
    """The pieces of a line from its bases list to the text after it, with
    one unit per cyclic interval, the nonbasis of a singleton witness {i},
    in the order of their spans in the text of all k-subsets."""
    text, spans = _rendered_subsets(witnesses[0].n, witnesses[0].k)
    cuts = sorted((spans[nonbasis], i) for i, e in enumerate(witnesses)
                  for nonbasis in e.nonbases)
    pieces = ['],"bases":{"bases":[' + text[:cuts[0][0][0]]]
    stops = [start for (start, _), _ in cuts[1:]] + [len(text)]
    for ((start, end), i), stop in zip(cuts, stops):
        pieces += [(i - 1, 1, (text[start:end], "")), text[end:stop]]
    pieces[-1] += after
    return pieces


def _rendered_subsets(n: int, k: int) -> tuple[str, dict]:
    """Every k-subset's compact JSON in lexicographic order, joined by
    commas, as one text, and each subset's (start, end) offsets in it with
    the comma after it, or before it for the last subset.  So cutting out
    any subsets but the last two together leaves a JSON list's items."""
    parts = []
    spans = {}
    pos = 0
    for mask, members in lex_subsets(n, k):
        part = f"[{','.join(map(str, members))}],"
        spans[mask] = (pos, pos + len(part))
        pos += len(part)
        parts.append(part)
    spans[mask] = (spans[mask][0] - 1, pos - 1)
    return "".join(parts)[:-1], spans


def _mark_local(views: list, windows: list) -> None:
    """Wrap in place each smallest part of the views (the empty witness's
    first, then those of the singletons {1}, ..., {n}) that is not the same
    in all of them, and append to windows, in the order the encoder writes
    the parts, the singletons whose part differs from the empty witness's."""
    first = views[0]
    keys = sorted(first) if isinstance(first, dict) else range(len(first))
    for key in keys:
        parts = [view[key] for view in views]
        if all(part == parts[0] for part in parts):
            continue
        if isinstance(parts[0], (dict, list)) and all(
                len(part) == len(parts[0]) for part in parts):
            _mark_local(parts, windows)
        else:
            windows.append([i for i, part in enumerate(parts)
                            if part != parts[0]])
            for view in views:
                view[key] = [_MARK, view[key], _MARK]


def _tail(witnesses: list, dumps: Callable[[object], str]
          ) -> tuple[str, list]:
    """The text of every line after its bases, as a head and the pieces
    that _tables reads, from the entries of the empty witness and the
    singletons {1}, ..., {n}.

    The le, necklace and perm views are local in the witness A: a part of
    their JSON is the empty witness's unless A holds a position whose
    singleton changes it, and only a position p or p + 1 (cyclically)
    changes any one part.  Such a part is a unit (p - 1, width, texts)
    over the one or two positions that change it.
    """
    n = len(witnesses) - 1
    views = [{"le": e.diagram.to_dict(), "necklace": neck.to_dict(),
              "perm": necklace_to_decperm(neck).to_dict()}
             for e in witnesses for neck in [e.necklace]]
    windows: list = []
    _mark_local(views, windows)
    texts = [re.split(_MARKED, dumps(view) + "\n") for view in views]
    pieces = [""]
    for j, window in enumerate(windows):
        part = [t[2 * j + 1] for t in texts]
        p = n if window == [1, n] else window[0]
        if not {p, p % n + 1} >= set(window):
            raise ValueError(f"census view not local at {window}")
        pieces += [(p - 1, len(window),
                    [part[0]] + [part[(p + i - 1) % n + 1]
                                 for i in range(len(window))]),
                   texts[0][2 * j + 2]]
    return texts[0][0], pieces
