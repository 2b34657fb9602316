"""Workload inputs and their expected outputs, computed without the package.

Nothing here imports `positroids`: every expected answer is derived from the
paper's closed forms or from a different algorithm than the one the CLI
runs, so a wrong answer from the program cannot also be the expected one.
Subsets of [n] are bit masks, bit i-1 holding element i.
"""

from __future__ import annotations

import itertools
import json
import math
import random

CENSUS_N, CENSUS_K = 12, 6
ORACLE_N, ORACLE_K, ORACLE_BUDGET = 7, 3, 7

# The convert batch holds, for each source (a random non-adjacent set and a
# random Le-diagram), one le/bases pair at each of these sizes and one
# necklace/decperm pair at the first; the five commands are dealt out over
# each source's five pairs in a fixed rotation, so every seed gives the
# same mix.
CONVERT_SIZES = ((12, 6), (12, 5), (11, 5), (11, 4))
COMMANDS = (("convert", "bases"), ("convert", "necklace"),
            ("convert", "decperm"), ("convert", "le"), ("check-sp", None))
LE_DENSITY = 0.7
# Share of the k-subsets that a random Le-diagram's positroid must have as
# bases; the cost of a bases payload grows with that share.
LE_SHARE = (0.88, 0.94)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def members(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(elems) -> int:
    m = 0
    for x in elems:
        m |= 1 << (x - 1)
    return m


def k_masks(n: int, k: int) -> list[int]:
    return [mask_of(c) for c in itertools.combinations(range(1, n + 1), k)]


def interval(k: int, n: int, i: int) -> int:
    """Cyclic interval {i, i+1, ..., i+k-1} of [n]."""
    return mask_of((i - 1 + d) % n + 1 for d in range(k))


def bumped(k: int, n: int, i: int) -> int:
    """Cyclic interval at i with its last element moved one step on."""
    return (interval(k, n, i) & ~(1 << (i - 2 + k) % n)) | 1 << (i - 1 + k) % n


def nonadjacent_masks(n: int) -> list[int]:
    """Every subset of the cycle [n] with no two neighbours, by brute force."""
    full = (1 << n) - 1
    return [m for m in range(1 << n)
            if not m & (((m << 1) | (m >> (n - 1))) & full)]


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def positroid_count(k: int, n: int) -> int:
    """Decorated permutations of [n] with k anti-exceedances (a fixed point
    counts when marked -1), which are in bijection with the necklaces of
    type (k, n)."""
    total = 0
    for p in itertools.permutations(range(1, n + 1)):
        anti = sum(1 for i, x in enumerate(p, 1) if x < i)
        fixed = sum(1 for i, x in enumerate(p, 1) if x == i)
        if 0 <= k - anti <= fixed:
            total += math.comb(fixed, k - anti)
    return total


# -- closed forms for the sparse paving positroid indexed by A --------------

def sparse_bases(n: int, k: int, a: int) -> frozenset[int]:
    """All k-subsets except the cyclic intervals at the elements of A."""
    gone = {interval(k, n, i) for i in members(a)}
    return frozenset(m for m in k_masks(n, k) if m not in gone)


def sparse_necklace(n: int, k: int, a: int) -> list[int]:
    return [bumped(k, n, i) if a >> (i - 1) & 1 else interval(k, n, i)
            for i in range(1, n + 1)]


def sparse_le(n: int, k: int, a: int) -> dict:
    """Full k x (n-k) box with the boundary cells labelled by A emptied:
    label 1 is the bottom right corner, whose cell is trimmed away, labels
    2..n-k+1 run right to left along the top row, n-k+1..n down the left
    column."""
    w = n - k
    cells = {1: (k, w)}
    cells.update({lab: (1, w + 2 - lab) for lab in range(2, w + 2)})
    cells.update({lab: (lab - w, 1) for lab in range(w + 1, n + 1)})
    shape = [w] * k
    if a & 1:
        shape[-1] = w - 1
    filling = [[1] * width for width in shape]
    for lab in members(a):
        r, c = cells[lab]
        if c <= shape[r - 1]:
            filling[r - 1][c - 1] = 0
    return {"k": k, "n": n, "shape": shape, "filling": filling}


# -- Le-diagram sources -------------------------------------------------------

def random_le(rng: random.Random, n: int, k: int) -> tuple[dict, frozenset]:
    """Full box filled at random, a cell being forced to a bullet when it
    has a bullet above it and one to its left (the Le condition).  Drawn
    again until its share of the k-subsets as bases is within LE_SHARE, so
    that a batch costs about the same under every seed."""
    w = n - k
    while True:
        filling = [[0] * w for _ in range(k)]
        for r in range(k):
            for c in range(w):
                forced = (any(filling[r][:c])
                          and any(filling[q][c] for q in range(r)))
                filling[r][c] = int(forced or rng.random() < LE_DENSITY)
        le = {"k": k, "n": n, "shape": [w] * k, "filling": filling}
        bases = le_bases(le)
        if LE_SHARE[0] <= len(bases) / math.comb(n, k) <= LE_SHARE[1]:
            return le, bases


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    size, sign, prev = len(a), 1, 1
    for p in range(size):
        if a[p][p] == 0:
            swap = next((r for r in range(p + 1, size) if a[r][p]), None)
            if swap is None:
                return 0
            a[p], a[swap] = a[swap], a[p]
            sign = -sign
        for r in range(p + 1, size):
            for c in range(p + 1, size):
                a[r][c] = (a[r][c] * a[p][p] - a[r][p] * a[p][c]) // prev
        prev = a[p][p]
    return sign * a[-1][-1] if size else 1


def le_bases(le: dict) -> frozenset[int]:
    """Bases of a Le-diagram's positroid by the Lindstrom-Gessel-Viennot
    lemma on its planar network, not by path search: I is a basis when the
    path-count minor from the sources outside I to the sinks inside I is
    nonzero.  Sources are the down-steps and sinks the left-steps of the
    boundary walked from the box's top right corner to its bottom left; a
    source feeds its row's rightmost bullet, a bullet feeds the next bullet
    to its left and the next one below, or its column's sink."""
    n, k = le["n"], le["k"]
    widths = list(le["shape"]) + [0] * (k - len(le["shape"]))
    filling = le["filling"] + [[]] * (k - len(le["filling"]))
    source_row, sink_col = {}, {}
    label, col = 0, n - k
    for r in range(1, k + 1):
        while col > widths[r - 1]:
            label += 1
            sink_col[label] = col
            col -= 1
        label += 1
        source_row[label] = r
    while col > 0:
        label += 1
        sink_col[label] = col
        col -= 1
    sinks = sorted(sink_col)
    sink_index = {sink_col[s]: j for j, s in enumerate(sinks)}
    bullet = {(r, c) for r in range(1, k + 1)
              for c in range(1, widths[r - 1] + 1) if filling[r - 1][c - 1]}
    counts: dict[tuple[int, int], list[int]] = {}

    def to_sinks(r: int, c: int) -> list[int]:
        # Path counts from bullet (r, c) to each sink; edges only go left or
        # down, so this recursion terminates.
        if (r, c) in counts:
            return counts[(r, c)]
        out = [0] * len(sinks)
        left = next((q for q in range(c - 1, 0, -1) if (r, q) in bullet),
                    None)
        if left is not None:
            out = [x + y for x, y in zip(out, to_sinks(r, left))]
        below = next((q for q in range(r + 1, k + 1) if (q, c) in bullet),
                     None)
        if below is not None:
            out = [x + y for x, y in zip(out, to_sinks(below, c))]
        else:
            out[sink_index[c]] += 1
        counts[(r, c)] = out
        return out

    paths = {}
    for s, r in source_row.items():
        cs = [c for c in range(1, widths[r - 1] + 1) if (r, c) in bullet]
        paths[s] = to_sinks(r, cs[-1]) if cs else [0] * len(sinks)
    source_mask = mask_of(source_row)
    found = []
    for m in k_masks(n, k):
        routed = members(source_mask & ~m)
        goals = [sinks.index(t) for t in members(m & ~source_mask)]
        if len(routed) != len(goals):
            continue
        if _det([[paths[s][j] for j in goals] for s in routed]) != 0:
            found.append(m)
    return frozenset(found)


# -- expected CLI answers for a positroid given by its bases -----------------

def necklace_of(n: int, bases) -> list[int]:
    """Entry t is the basis least in the order of [n] rotated to start at t."""
    return [min(bases, key=lambda b: sorted((x - t) % n for x in members(b)))
            for t in range(1, n + 1)]


def decperm_of(n: int, entries: list[int]) -> dict:
    perm, colors = [], {}
    for i in range(1, n + 1):
        cur, nxt, bit = entries[i - 1], entries[i % n], 1 << (i - 1)
        if not cur & bit:
            perm.append(i)
            colors[str(i)] = 1
        elif nxt == cur:
            perm.append(i)
            colors[str(i)] = -1
        else:
            perm.append((nxt & ~(cur ^ bit)).bit_length())
    return {"n": n, "perm": perm, "colors": colors}


def necklace_dict(n: int, k: int, entries: list[int]) -> dict:
    return {"n": n, "k": k, "entries": [members(e) for e in entries]}


def bases_dict(n: int, k: int, bases) -> dict:
    return {"n": n, "k": k, "bases": sorted(members(b) for b in bases)}


def sparse_set(n: int, k: int, bases) -> int | None:
    """A when the positroid is sparse paving (its missing k-sets pairwise at
    distance >= 4, which makes them the intervals at A), else None."""
    missing = [m for m in k_masks(n, k) if m not in bases]
    if any((x ^ y).bit_count() < 4
           for x, y in itertools.combinations(missing, 2)):
        return None
    a = mask_of(i for i in range(1, n + 1) if interval(k, n, i) not in bases)
    if {interval(k, n, i) for i in members(a)} != set(missing):
        raise AssertionError("sparse paving positroid with a non-interval "
                             "circuit-hyperplane")
    return a


def expected_answer(n: int, k: int, bases, command: str,
                    target: str | None) -> tuple[int, str]:
    """(exit code, stdout) the CLI must give for this positroid."""
    a = sparse_set(n, k, bases)
    if command == "check-sp":
        if a is not None:
            chs = [members(interval(k, n, i)) for i in members(a)]
            inner = ",".join(map(str, members(a)))
            return 0, (f"sparse-paving A={{{inner}}}\n"
                       f"circuit-hyperplanes: {_dumps(chs)}\n")
        missing = sorted((m for m in k_masks(n, k) if m not in bases),
                         key=members)
        x, y = next((x, y) for x, y in itertools.combinations(missing, 2)
                    if (x ^ y).bit_count() == 2)
        return 2, (f"not sparse-paving\n"
                   f"witness: {_dumps(members(x))} {_dumps(members(y))}\n")
    entries = necklace_of(n, bases)
    if target == "bases":
        out = bases_dict(n, k, bases)
    elif target == "necklace":
        out = necklace_dict(n, k, entries)
    elif target == "decperm":
        out = decperm_of(n, entries)
    elif a is None:
        return 2, ""
    else:
        out = sparse_le(n, k, a)
    return 0, _dumps(out) + "\n"


def payload(kind: str, n: int, k: int, bases, le: dict | None) -> dict:
    if kind == "bases":
        return bases_dict(n, k, bases)
    if kind == "le":
        return le
    entries = necklace_of(n, bases)
    if kind == "necklace":
        return necklace_dict(n, k, entries)
    return decperm_of(n, entries)


def convert_batch(rng: random.Random) -> list[dict]:
    """A batch of request pairs; both requests of a pair ask the same
    question about the same positroid through different payload kinds.
    Which command meets which size is fixed, not drawn, so the batch has
    the same make-up under every seed."""
    pairs = []
    sizes = CONVERT_SIZES + CONVERT_SIZES[:1]
    for shift, source in ((0, "sparse"), (2, "le")):
        commands = COMMANDS[shift:] + COMMANDS[:shift]
        for slot, ((n, k), (command, target)) in enumerate(zip(sizes,
                                                               commands)):
            if source == "sparse":
                a = rng.choice(nonadjacent_masks(n))
                le, bases = sparse_le(n, k, a), sparse_bases(n, k, a)
            else:
                le, bases = random_le(rng, n, k)
            kinds = ("le", "bases") if slot < len(CONVERT_SIZES) \
                else ("necklace", "decperm")
            rc, out = expected_answer(n, k, bases, command, target)
            pairs.append({
                "source": source, "n": n, "k": k,
                "command": command, "target": target,
                "expect_rc": rc, "expect_out": out,
                "payloads": {kind: payload(kind, n, k, bases, le)
                             for kind in kinds},
            })
    rng.shuffle(pairs)
    return pairs


def request_argv(pair: dict, kind: str, path: str) -> list[str]:
    flag_k = ["--k", str(pair["k"])] if kind == "decperm" else []
    if pair["command"] == "check-sp":
        return ["check-sp", "--kind", kind, *flag_k, path]
    return ["convert", "--from", kind, "--to", pair["target"], *flag_k, path]


# -- census and oracle checks -------------------------------------------------

def census_line_problem(line: dict, n: int, k: int,
                        universe: frozenset[int]) -> str | None:
    """Why a census line is wrong, or None: its bases must be all k-sets but
    the intervals at A, and its necklace, permutation and diagram must be
    the closed forms for A."""
    a = mask_of(line["A"])
    if members(a) != line["A"] or not 0 <= a < 1 << n:
        return f"A={line['A']} is not an ascending subset of [{n}]"
    got = line["bases"]
    if got["n"] != n or got["k"] != k:
        return f"A={line['A']}: bases have the wrong type"
    bases = [mask_of(b) for b in got["bases"]]
    if len(bases) != len(universe) - a.bit_count():
        return f"A={line['A']}: {len(bases)} bases"
    if set(bases) != universe - {interval(k, n, i) for i in members(a)}:
        return f"A={line['A']}: bases are not the closed form"
    entries = sparse_necklace(n, k, a)
    if line["necklace"] != necklace_dict(n, k, entries):
        return f"A={line['A']}: necklace is not the closed form"
    if line["perm"] != decperm_of(n, entries):
        return f"A={line['A']}: permutation does not match the necklace"
    if line["le"] != sparse_le(n, k, a):
        return f"A={line['A']}: Le-diagram is not the closed form"
    return None


def census_problem(stdout: bytes) -> str | None:
    """Check a whole census stream: one line per non-adjacent subset, in
    mask order, as many as the Lucas number."""
    n, k = CENSUS_N, CENSUS_K
    want = nonadjacent_masks(n)
    if len(want) != lucas(n):
        raise AssertionError("brute-force count disagrees with Lucas")
    universe = frozenset(k_masks(n, k))
    try:
        lines = stdout.decode().splitlines()
        if len(lines) != len(want):
            return f"{len(lines)} census lines, expected {len(want)}"
        for text, a in zip(lines, want):
            line = json.loads(text)
            if line["A"] != members(a):
                return f"census line A={line['A']}, expected {members(a)}"
            problem = census_line_problem(line, n, k, universe)
            if problem:
                return problem
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed census output: {exc!r}"
    return None


def oracle_expected() -> str:
    return (f"necklaces: {positroid_count(ORACLE_K, ORACLE_N)}\n"
            f"sparse paving found: {lucas(ORACLE_N)}\n"
            f"discrepancies: 0\n")
