"""Independent brute-force oracles used to pin expected values.

Everything here works with plain frozensets and itertools, deliberately
avoiding the package's bit mask machinery so the two routes stay separate.
Some are the only implementation of a rule the library no longer needs:
brute_rank, brute_dual and brute_paving keep the rank, duality and paving
identities under test, and reference_sparse_paving_perm,
reference_perm_witness and reference_recurrence_case keep the paper's
closed forms for the census permutation (the shift by k with adjacent
swaps at A), the witness read back off a permutation, and the case split
behind the Lucas recurrence; uniform and mod1 are the plain helpers they
and the tests share.  reference_gale_bounds walks all n positions of a
rotation, the reference for gale_bounds, which walks only the members.
reference_network_edges and reference_matrix rebuild a Le-diagram's
network from a row and column index and count its paths by recursion over
the edges, the references for build_network's one sweep;
reference_decperm_necklace places each element by cyclic positions, the
reference for decperm_to_necklace's step rule.  reference_le_from_removals
builds the census's Le-diagram through the validating constructor, the
reference for le_from_removals.  reference_all_necklaces is
the recursive depth-first walk, one generator frame per entry, that
all_necklaces replaced with a flat loop, and williams is the closed form
for the number of necklaces it walks.
flow_realizable_sets runs unit-capacity max-flow over
reference_network_edges, and minor_bases keeps the k-subsets with a
nonzero maximal minor of a boundary-measurement matrix, by the Bareiss
elimination in bareiss_det: two routes to the bases independent of the
pipes that the library reads them off.  brute_det, the Leibniz expansion,
checks bareiss_det, and count_path_systems counts, by backtracking over
the network's edges, the path systems the minors stand for.
Four helpers deliberately drive the package.  reference_necklaces builds
each necklace of reference_all_necklaces with the validating
GrassmannNecklace constructor, for tests that read necklaces without
testing the walk.  matroid_of builds a Matroid from element collections,
for tests that write families out by hand, and census_matroid builds a
census entry's basis family, every k-subset but the entry's nonbases.
checked_sparse_paving pins the classical equivalence of the three sparse
paving definitions on the package's own circuit-hyperplane and relaxation
code.  reference_kernel_rows and reference_kernel_near build every
SchubertKernel row and near entry eagerly, one per (t, k-subset) by
brute_gale_le and one per k-subset by frozenset differences, the
references for the tables the kernel fills on demand; reference_kernel_row
and reference_kernel_near_entry give one of each at larger n.
reference_nonbases ORs the n reference rows a necklace's entries pick, in
one pass per necklace, the reference for the OR that all_necklaces
carries down its walk, and reference_kernel_verdict scans a whole
nonbasis bitset through the reference near table, the reference for the
sparse paving flag that the walk carries beside the OR, testing only the
nonbases each level adds.  The walk's other verdict, its census state,
has sparse_paving_witness as its reference.
"""

from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import comb

from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    LeDiagram,
    Matroid,
    boundary_labels,
    circuit_hyperplanes,
    is_sparse_paving,
    lex_subsets,
    mask_of,
    members_of,
    relax,
)


def powerset(universe):
    items = sorted(universe)
    return (frozenset(c) for c in
            chain.from_iterable(combinations(items, r)
                                for r in range(len(items) + 1)))


def ground(n):
    return frozenset(range(1, n + 1))


def is_independent(subset, bases):
    return any(subset <= b for b in bases)


def brute_rank(subset, bases):
    return max(len(subset & b) for b in bases)


def brute_dual(n, bases):
    """Bases of the dual matroid: the complements of the bases."""
    return frozenset(ground(n) - b for b in bases)


def brute_paving(n, k, bases):
    """Paving: every circuit has at least k elements, i.e. every subset of
    size k-1 is independent."""
    return k == 0 or all(is_independent(frozenset(c), bases)
                         for c in combinations(range(1, n + 1), k - 1))


def brute_circuits(n, bases):
    """Minimal dependent subsets by full power set scan."""
    out = []
    for s in powerset(ground(n)):
        if not s or is_independent(s, bases):
            continue
        if all(is_independent(s - {e}, bases) for e in s):
            out.append(s)
    return frozenset(out)


def brute_hyperplanes(n, k, bases):
    """Flats of rank k-1 by full power set scan."""
    out = []
    for s in powerset(ground(n)):
        if brute_rank(s, bases) != k - 1:
            continue
        if all(brute_rank(s | {g}, bases) > k - 1 for g in ground(n) - s):
            out.append(s)
    return frozenset(out)


def brute_exchange(bases):
    """Basis exchange axiom straight from its definition."""
    for b in bases:
        for bp in bases:
            if b == bp:
                continue
            for e in b - bp:
                if not any((b - {e}) | {ep} in bases for ep in bp - b):
                    return False
    return True


def brute_nonadjacent(n):
    """Subsets of [n] with no two distinct cyclically consecutive elements."""
    out = []
    for s in powerset(ground(n)):
        ok = True
        for i in s:
            j = i % n + 1
            if j != i and j in s:
                ok = False
                break
        if ok:
            out.append(s)
    return out


def brute_violating_pair(n, k, bases):
    """Lexicographically first pair of sorted missing k-sets at symmetric
    difference 2, or None when there is no such pair."""
    bases = {frozenset(b) for b in bases}
    missing = [c for c in combinations(range(1, n + 1), k)
               if frozenset(c) not in bases]
    for a, b in combinations(missing, 2):
        if len(set(a) ^ set(b)) == 2:
            return a, b
    return None


def rotated_positions(subset, t, n):
    """Sorted positions of the members in the rotation of [n] starting at t."""
    return tuple(sorted((x - t) % n for x in subset))


def brute_gale_min(bases, t, n):
    """Lexicographically least basis after rotating labels so t becomes 1."""
    return min(bases, key=lambda b: rotated_positions(b, t, n))


def brute_gale_le(t, i, j, n):
    """Gale order at t straight from its definition: the rotated, sorted
    members of i are componentwise at most those of j."""
    return all(a <= b for a, b in zip(rotated_positions(i, t, n),
                                      rotated_positions(j, t, n)))


def brute_positroid(n, k, entries):
    """Bases of the positroid of a necklace, given as n member collections:
    the k-subsets above the t-th entry in the Gale order at t, for every t,
    compared componentwise as in brute_gale_le.  Each entry's rotated
    positions are counted out once, not once per candidate."""
    lows = [rotated_positions(e, t, n) for t, e in enumerate(entries, 1)]
    return frozenset(
        frozenset(c) for c in combinations(range(1, n + 1), k)
        if all(all(a <= b for a, b in zip(low, rotated_positions(c, t, n)))
               for t, low in enumerate(lows, 1)))


def reference_gale_bounds(n, t, mask):
    """The (prefix mask, bound) pairs of gale_bounds by the walk over all n
    positions of the rotation at t, growing the prefix one bit at a time."""
    out = []
    prefix = count = 0
    for m in range(n):
        bit = 1 << ((t - 1 + m) % n)
        if mask & bit:
            if count < m:
                out.append((prefix, count))
            count += 1
        prefix |= bit
    return tuple(out)


def brute_is_necklace(n, entries):
    """The necklace condition on a sequence of n frozensets: I_{i+1}
    contains I_i minus {i}, and equals I_i when i is not in I_i."""
    for i in range(1, n + 1):
        cur, nxt = entries[i - 1], entries[i % n]
        if not cur - {i} <= nxt or (i not in cur and cur != nxt):
            return False
    return True


def brute_necklaces(n, k):
    """Every necklace of type (k, n), as tuples of frozensets, by filtering
    all C(n, k)^n sequences of k-subsets."""
    subsets = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    return [seq for seq in product(subsets, repeat=n)
            if brute_is_necklace(n, seq)]


def williams(k, n):
    """Williams' count of the positroid cells of type (k, n), one per
    necklace ("Enumeration of totally positive Grassmann cells", Adv. Math.
    190 (2005)); the closed form gives 0 at k = 0, where the count is 1."""
    if k == 0:
        return 1
    return sum((-1) ** i * comb(n, i)
               * ((k - i) ** i * (k - i + 1) ** (n - i)
                  - (k - i - 1) ** i * (k - i) ** (n - i))
               for i in range(k))


def reference_all_necklaces(k, n):
    """The entry mask tuples of every necklace of type (k, n), by the
    recursive walk: each prefix grows through a nested generator, and when
    i is in I_i its replacement is drawn from I_1 and {i+1, ..., n}.  The
    first entries come in lex_subsets order, as in all_necklaces."""
    full = (1 << n) - 1

    def extend(prefix):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        cur = prefix[-1]
        bit = 1 << (i - 1)
        if not cur & bit:
            yield from extend(prefix + [cur])
            return
        stripped = cur ^ bit
        free = (prefix[0] | full >> i << i) & ~stripped
        while free:
            jb = free & -free
            yield from extend(prefix + [stripped | jb])
            free ^= jb

    for first, _ in lex_subsets(n, k):
        yield from extend([first])


def reference_necklaces(k, n):
    """Every necklace of type (k, n), in the order of
    reference_all_necklaces, each built with the validating constructor."""
    for entries in reference_all_necklaces(k, n):
        yield GrassmannNecklace(n, k, entries)


def brute_det(a):
    """Determinant of a square matrix by the Leibniz permutation expansion,
    the sign of each permutation read off its inversion count."""
    size = len(a)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(1 for x, y in combinations(perm, 2) if x > y)
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= a[r][c]
        total += term
    return total


def bareiss_det(a):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so the entries stay integers.
    Each row swap flips the sign, and a column with no pivot gives 0.  The
    rows of `a` are overwritten."""
    sign = prev = 1
    for p in range(len(a)):
        if a[p][p] == 0:
            swap = next((r for r in range(p + 1, len(a)) if a[r][p]), None)
            if swap is None:
                return 0
            a[p], a[swap] = a[swap], a[p]
            sign = -sign
        for r in range(p + 1, len(a)):
            for c in range(p + 1, len(a)):
                a[r][c] = (a[r][c] * a[p][p] - a[r][p] * a[p][c]) // prev
        prev = a[p][p]
    return sign * prev


def maximal_minors(matrix, n, k, det=bareiss_det):
    """Each k-subset of [n], as a sorted tuple, mapped to the maximal minor
    of the k x n matrix on its columns, computed by `det`."""
    return {c: det([[row[j - 1] for j in c] for row in matrix])
            for c in combinations(range(1, n + 1), k)}


def minor_bases(matrix, n, k):
    """The k-subsets, as frozensets, with a nonzero maximal minor in the
    k x n matrix: the bases it realizes, by Bareiss elimination."""
    return frozenset(frozenset(c) for c, v in
                     maximal_minors(matrix, n, k).items() if v)


def all_decorated_permutations(n):
    """Every decorated permutation of [n]: each permutation in lexicographic
    order, with each +1/-1 marking of its fixed points."""
    for perm in permutations(range(1, n + 1)):
        fixed = [i for i, x in enumerate(perm, 1) if x == i]
        for marks in product((1, -1), repeat=len(fixed)):
            yield DecoratedPermutation.make(perm, dict(zip(fixed, marks)))


def determined_rank(dp):
    """Size of the first necklace entry of a decorated permutation: the
    anti-exceedances i with perm(i) < i, plus the fixed points marked -1."""
    return (sum(1 for i in range(1, dp.n + 1) if dp.perm[i - 1] < i)
            + sum(1 for _, c in dp.colors if c == -1))


def reference_decperm_necklace(dp, k):
    """The necklace entries of a decorated permutation, as frozensets, by the
    cyclic-position rule: j belongs to the t-th entry when it strictly
    precedes its preimage in the rotation of [n] at t, or when it is a -1
    fixed point.  A k other than the first entry's size is rejected with
    decperm_to_necklace's message."""
    n = dp.n
    inv = {j: i for i, j in enumerate(dp.perm, 1)}
    always = {i for i, c in dp.colors if c == -1}
    entries = tuple(
        frozenset(j for j in range(1, n + 1)
                  if j in always
                  or (j != inv[j] and (j - t) % n < (inv[j] - t) % n))
        for t in range(1, n + 1))
    if len(entries[0]) != k:
        raise ValueError(
            f"permutation determines rank {len(entries[0])}, not {k}")
    return entries


def mod1(i, n):
    """i reduced modulo n into the representatives 1, ..., n."""
    return (i - 1) % n + 1


def uniform(k, n):
    """The uniform matroid of rank k on [n]: every k-subset is a basis."""
    return matroid_of(n, combinations(range(1, n + 1), k))


def reference_sparse_paving_perm(members, k, n):
    """The paper's permutation of the sparse paving positroid with
    non-adjacent witness A, given by its members: the shift by k with the
    adjacent swaps at A, i -> i + k + [i+1 in A] - [i in A] (mod n), with
    no fixed points and so no marks."""
    a = set(members)
    return DecoratedPermutation.make(
        [mod1(i + k + (mod1(i + 1, n) in a) - (i in a), n)
         for i in range(1, n + 1)])


def reference_perm_witness(dp, k):
    """The witness the paper's permutation criterion reads off a decorated
    permutation of rank k: A = {i : perm(i) = i + k - 1 (mod n)}, as a
    frozenset, when A is non-adjacent and dp is the closed-form
    permutation of A; None otherwise."""
    n = dp.n
    a = frozenset(i for i in range(1, n + 1)
                  if dp.perm[i - 1] == mod1(i + k - 1, n))
    if any(mod1(i + 1, n) in a for i in a):
        return None
    return a if reference_sparse_paving_perm(a, k, n) == dp else None


def reference_recurrence_case(n, members):
    """The case of a non-adjacent subset of [n], n >= 4, in the split behind
    the two-step recurrence: 3 when it holds n, else 2 when it holds both 1
    and n - 1, else 1.  Case 1 is counted by the (n-1) value, cases 2 and 3
    together by the (n-2) value."""
    a = set(members)
    if n in a:
        return 3
    return 2 if {1, n - 1} <= a else 1


def reference_le_from_removals(labels, k, n):
    """The fully bulleted k x (n-k) box with the numbered boundary cells in
    `labels` emptied, built through the validating LeDiagram.make: label 1
    is the bottom right corner, which is trimmed off, then the top row
    right to left, then the left column top to bottom.  make drops a row
    the trim leaves empty."""
    width = n - k
    cells = {1: (k, width)}
    cells.update((label, (1, width + 2 - label))
                 for label in range(2, width + 2))
    cells.update((label, (label - width, 1))
                 for label in range(width + 1, n + 1))
    shape = [width] * k
    if 1 in labels:
        shape[-1] -= 1
    filling = [[1] * w for w in shape]
    for label in labels:
        r, c = cells[label]
        if c <= shape[r - 1]:
            filling[r - 1][c - 1] = 0
    return LeDiagram.make(k, n, shape, filling)


def all_families(n, k):
    """Every nonempty family of k-subsets of [n], as frozensets."""
    candidates = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    total = 1 << len(candidates)
    for bits in range(1, total):
        yield frozenset(candidates[i] for i in range(len(candidates))
                        if bits >> i & 1)


def all_basis_families(n, k):
    """Every family of k-subsets of [n] that satisfies the exchange axiom,
    discovered with the independent exchange test."""
    return (fam for fam in all_families(n, k) if brute_exchange(fam))


def brute_bases_verdict(n, k, family):
    """Exit code and stderr line that a `bases` payload earns when its
    checks run in the defining order: the exchange axiom first (a failure
    is malformed input, status 1), then the positroid test (a failure is a
    negative verdict, status 2)."""
    if not brute_exchange(family):
        return 1, "invalid: bases do not satisfy the exchange axiom"
    necklace = [brute_gale_min(family, t, n) for t in range(1, n + 1)]
    if brute_positroid(n, k, necklace) != family:
        return 2, "not a positroid"
    return 0, ""


def matroid_of(n, sets):
    """The matroid on [n] whose bases are the given element collections, of
    the rank the first one shows; an empty family is rejected."""
    masks = frozenset(mask_of(s, n) for s in sets)
    return Matroid(n, min(masks, default=0).bit_count(), masks)


def census_matroid(entry):
    """The matroid of a census entry: every k-subset of [n] that is not one
    of the entry's nonbases, through the validating constructor."""
    n, k = entry.necklace.n, entry.necklace.k
    everything = frozenset(mask for mask, _ in lex_subsets(n, k))
    return Matroid(n, k, everything - entry.nonbases)


def reference_kernel_row(k, n, t, entry):
    """The family that the shifted Schubert matroid of the k-subset entry,
    a mask, rejects at t, as a bitset over lex_subsets(n, k): subset j is in
    it when brute_gale_le does not put entry below it."""
    low = members_of(entry)
    return sum(1 << j for j, (_, members) in enumerate(lex_subsets(n, k))
               if not brute_gale_le(t, low, members, n))


def reference_kernel_near_entry(k, n, j):
    """The k-subsets at symmetric difference two from the j-th one of
    lex_subsets(n, k), as a bitset over the same numbering."""
    subsets = [frozenset(members) for _, members in lex_subsets(n, k)]
    return sum(1 << i for i, other in enumerate(subsets)
               if len(subsets[j] ^ other) == 2)


@lru_cache(maxsize=None)
def reference_kernel_rows(k, n):
    """Every row of SchubertKernel(k, n), built eagerly: one dict per t from
    each k-subset mask to its reference_kernel_row."""
    return tuple({mask: reference_kernel_row(k, n, t, mask)
                  for mask, _ in lex_subsets(n, k)}
                 for t in range(1, n + 1))


@lru_cache(maxsize=None)
def reference_kernel_near(k, n):
    """Every near entry of SchubertKernel(k, n), built eagerly, indexed as
    lex_subsets(n, k)."""
    return tuple(reference_kernel_near_entry(k, n, j)
                 for j in range(len(lex_subsets(n, k))))


def reference_nonbases(neck):
    """The k-subsets that the positroid of neck misses, as a bitset over
    lex_subsets(n, k): the OR of the reference row each entry I_t picks at
    t."""
    out = 0
    for row, entry in zip(reference_kernel_rows(neck.k, neck.n),
                          neck.entries):
        out |= row[entry]
    return out


def reference_kernel_verdict(k, n, nonbases):
    """Whether the k-subsets in the bitset nonbases, over lex_subsets(n, k),
    are pairwise at symmetric difference >= 4, the sparse paving condition
    of is_sparse_paving: no one of them has another among its neighbours
    at symmetric difference two, read off reference_kernel_near for each
    in turn."""
    near = reference_kernel_near(k, n)
    rest = nonbases
    while rest:
        low = rest & -rest
        if near[low.bit_length() - 1] & nonbases:
            return False
        rest ^= low
    return True


def checked_sparse_paving(m):
    """is_sparse_paving(m), after asserting that the two other definitions
    agree with it on the matroid m: the missing k-sets are exactly the
    circuit-hyperplanes, and relaxing every circuit-hyperplane in turn
    reaches the uniform matroid."""
    everything = frozenset(mask for mask, _ in lex_subsets(m.n, m.k))
    chs = circuit_hyperplanes(m) if m.k else frozenset()
    ladder = m
    for c in sorted(chs):
        ladder = relax(ladder, members_of(c))
    verdict = is_sparse_paving(m)
    assert (chs == everything - m.bases) == verdict
    assert (ladder.bases == everything) == verdict
    return verdict


def first_le_failure(filling):
    """The first cell (row, col), counted from 1 in row-major order, of a
    filling given as plain lists that is empty with a bullet to its left in
    its row and a bullet above it in its column; None when there is none."""
    for r, row in enumerate(filling):
        for c, cell in enumerate(row):
            if (not cell and any(row[:c])
                    and any(filling[q][c] for q in range(r))):
                return (r + 1, c + 1)
    return None


def _le_ok(filling):
    """Le condition on plain lists: no empty cell has both a bullet to its
    left in its row and a bullet above it in its column."""
    return first_le_failure(filling) is None


def _shapes(rows, width):
    """Weakly decreasing lists of at most `rows` positive parts, each at
    most `width`."""
    yield []
    if rows:
        for w in range(1, width + 1):
            for rest in _shapes(rows - 1, w):
                yield [w] + rest


def all_fillings(k, n):
    """Every (shape, filling) pair in the k x (n-k) box, as plain lists: each
    shape with each of its 0/1 fillings, Le or not."""
    for shape in _shapes(k, n - k):
        cells = sum(shape)
        for bits in range(1 << cells):
            flat = [bits >> i & 1 for i in range(cells)]
            filling, start = [], 0
            for w in shape:
                filling.append(flat[start:start + w])
                start += w
            yield shape, filling


def all_le_diagrams(k, n):
    """Every Le-diagram in the k x (n-k) box: each shape, each 0/1 filling,
    kept when the filling passes _le_ok."""
    for shape, filling in all_fillings(k, n):
        if _le_ok(filling):
            yield LeDiagram.make(k, n, shape, filling)


def _find_augmenting(succ, start, goal):
    stack = [(start, [start])]
    seen = {start}
    while stack:
        u, path = stack.pop()
        for v in succ.get(u, ()):
            if v in seen:
                continue
            if v == goal:
                return path + [goal]
            seen.add(v)
            stack.append((v, path + [v]))
    return None


def split_graph(edges):
    """The split graph of an edge map: each vertex v becomes an in/out pair
    (v, 0) -> (v, 1), so it carries one unit of flow, and each edge v -> w
    becomes (v, 1) -> (w, 0)."""
    succ = {}
    for v, outs in edges.items():
        succ[(v, 0)] = {(v, 1)}
        succ[(v, 1)] = {(w, 0) for w in outs}
    return succ


def max_disjoint_paths(split, starts, targets):
    """Maximum number of vertex-disjoint paths from the given source labels
    to the given sink labels, by unit-capacity augmentation on a copy of a
    network's split graph."""
    succ = {u: set(vs) for u, vs in split.items()}
    succ["S"] = {(("s", i), 0) for i in starts}
    for j in targets:
        succ[(("t", j), 1)].add("T")
    flow = 0
    while True:
        path = _find_augmenting(succ, "S", "T")
        if path is None:
            return flow
        flow += 1
        for u, v in zip(path, path[1:]):
            succ[u].discard(v)
            succ.setdefault(v, set()).add(u)


def flow_realizable_sets(diag):
    """The k-subsets, as frozensets, whose left-out sources the max-flow
    routes to their sinks by vertex-disjoint paths in the reference
    network."""
    split = split_graph(reference_network_edges(diag))
    sources = frozenset(boundary_labels(diag)[0].values())
    out = []
    for c in combinations(range(1, diag.n + 1), diag.k):
        subset = frozenset(c)
        to_route = sources - subset
        goals = subset - sources
        if max_disjoint_paths(split, to_route, goals) == len(to_route):
            out.append(subset)
    return frozenset(out)


def reference_network_edges(diag):
    """The edges of build_network's path network, as a map from each vertex
    to its successors, read off a row and column index of the bullets.  A
    vertex is a tagged tuple: ("s", label) for a source, ("t", label) for a
    sink, ("b", row, col) for a bullet.  Each source points to the
    rightmost bullet of its row, each bullet to the next bullet left in its
    row and to the next bullet down in its column, or to the column's sink
    when there is none."""
    row_source, col_sink = boundary_labels(diag)
    rows, cols = {}, {}
    for r, row in enumerate(diag.filling, 1):
        for c, bullet in enumerate(row, 1):
            if bullet:
                rows.setdefault(r, []).append(c)
                cols.setdefault(c, []).append(r)
    edges = {("t", label): () for label in col_sink.values()}
    for r, label in row_source.items():
        edges[("s", label)] = (("b", r, rows[r][-1]),) if r in rows else ()
    for r, cs in rows.items():
        for idx, c in enumerate(cs):
            down = [q for q in cols[c] if q > r]
            edges[("b", r, c)] = (
                ((("b", r, cs[idx - 1]),) if idx else ())
                + ((("b", down[0], c),) if down else (("t", col_sink[c]),)))
    return edges


def reference_matrix(diag):
    """The boundary-measurement matrix of a Le-diagram by a memoized
    recursive count of the paths from each source to each sink over
    reference_network_edges, with the sign rule: a sink column j of source
    i's row holds (-1)^s times the count, s the number of sources strictly
    between i and j, and the sources' own columns hold the identity."""
    edges = reference_network_edges(diag)
    sources = sorted(boundary_labels(diag)[0].values())
    memo = {}

    def count(v):
        if v not in memo:
            if v[0] == "t":
                memo[v] = {v[1]: 1}
            else:
                out = {}
                for w in edges[v]:
                    for sink, c in count(w).items():
                        out[sink] = out.get(sink, 0) + c
                memo[v] = out
        return memo[v]

    rows = []
    for i in sources:
        row = [0] * diag.n
        row[i - 1] = 1
        for j, c in count(("s", i)).items():
            between = sum(1 for s in sources if i < s < j)
            row[j - 1] = -c if between % 2 else c
        rows.append(tuple(row))
    return tuple(rows)


def count_path_systems(edges, starts, goals):
    """Number of systems of pairwise vertex-disjoint paths over an edge map
    that take each start label to a distinct goal label, by backtracking
    over every path of each start in turn."""
    starts = sorted(starts)

    def paths(v, used):
        if v in used:
            return
        if v[0] == "t":
            if v[1] in goals:
                yield (v,)
            return
        for w in edges[v]:
            for tail in paths(w, used):
                yield (v,) + tail

    def systems(idx, used):
        if idx == len(starts):
            return 1
        return sum(systems(idx + 1, used | set(p))
                   for p in paths(("s", starts[idx]), used))

    return systems(0, frozenset())
