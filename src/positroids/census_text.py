"""The text of the census lines that `positroids enumerate` prints.

A line is the compact JSON of one entry's five views keyed "A", "bases",
"le", "necklace" and "perm", in that sorted key order.  Every view is local
in the witness A, so each line is cut and joined from text built once per
type (k, n) from the views of the empty witness and the n singletons; no
view is built per line.  Only the census imports this module, which keeps
its compile out of every other command's start-up and memory peak.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

from .decorated import necklace_to_decperm
from .enumeration import SparsePavingPositroid
from .matroid import NonAdjacentSet, lex_subsets
from .necklace import _check_classification

# A part of a line that differs between witnesses is encoded as
# [_MARK, part, _MARK], and re.split on _MARKED cuts it out again.
_MARK = "\x00"
_MARKED = r'\["\\u0000",(.*?),"\\u0000"\]'


def census_lines(k: int, n: int, entries: Iterable[SparsePavingPositroid],
                 dumps: Callable[[object], str]) -> Iterator[str]:
    """Each entry's line, ending in a newline, with dumps the JSON encoder
    that sorts keys and writes no spaces; entries is the census of type
    (k, n), drawn one entry per line.

    The bases are every k-subset but the cyclic intervals at A, the
    singletons' nonbases, so a line copies the slices between the spans of
    those |A| subsets in the text of all k-subsets.  The rest of the line
    is one table pick per unit of _tail.
    """
    _check_classification(k, n)
    witnesses = [SparsePavingPositroid(k, n, NonAdjacentSet(n, mask))
                 for mask in [0] + [1 << i for i in range(n)]]
    head, units = _tail(witnesses, dumps)
    bases, spans = _rendered_subsets(n, k)
    cuts = {i: spans[nonbasis] for i, e in enumerate(witnesses)
            for nonbasis in e.nonbases}
    middle = f'],"k":{k},"n":{n}}},{head[1:]}'
    spread = 1 | 1 << n
    for entry in entries:
        a = entry.nonadjacent
        members = a.members
        parts = ['{"A":[', ",".join(map(str, members)),
                 '],"bases":{"bases":[']
        pos = 0
        for start, end in sorted([cuts[i] for i in members]):
            parts.append(bases[pos:start])
            pos = end
        parts.append(bases[pos:])
        parts.append(middle)
        wide = a.mask * spread
        parts += [table[wide >> shift & 3] for shift, table in units]
        yield "".join(parts)


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
    """The text of every line after its bases, as a head and units, from
    the entries of the empty witness and the singletons {1}, ..., {n}.

    The le, necklace and perm views are local in the witness A: a part of
    their JSON is the empty witness's unless A holds a position whose
    singleton changes it, and only a position p or p + 1 (cyclically)
    changes any one part.  Such parts make a unit (p - 1, table): for the
    witness mask m, table[(m | m << n) >> (p - 1) & 3] is the part's text
    followed by the text up to the next unit.
    """
    n = len(witnesses) - 1
    views = [{"le": e.diagram.to_dict(), "necklace": neck.to_dict(),
              "perm": necklace_to_decperm(neck).to_dict()}
             for e in witnesses for neck in [e.necklace]]
    windows: list = []
    _mark_local(views, windows)
    texts = [re.split(_MARKED, dumps(view) + "\n") for view in views]
    units: list = []
    for j, window in enumerate(windows):
        text = [t[2 * j + 1] + texts[0][2 * j + 2] for t in texts]
        p = n if window == [1, n] else window[0]
        q = p % n + 1
        if not {p, q} >= set(window):
            raise ValueError(f"census view not local at {window}")
        table = (text[0], text[p], text[q] if q in window else text[0])
        if units and units[-1][0] == p - 1:
            table = tuple(map(str.__add__, units.pop()[1], table))
        units.append((p - 1, table))
    return texts[0][0], units
