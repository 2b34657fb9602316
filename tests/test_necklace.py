import itertools
import tracemalloc
from collections import defaultdict
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    Matroid,
    NonAdjacentSet,
    all_necklaces,
    circuits,
    count_nonadjacent,
    cyclic_interval,
    decperm_to_necklace,
    hyperplanes,
    is_positroid,
    is_sparse_paving,
    lex_subsets,
    mask_of,
    members_of,
    necklace_from_nonadjacent,
    necklace_to_positroid,
    nonadjacent_mask_ok,
    nonadjacent_subsets,
    positroid_necklace,
    sparse_paving_witness,
)
from positroids import necklace as necklace_module
from positroids.matroid import _exchange_masks
from positroids.necklace import SchubertKernel, _dominating, gale_bounds
from positroids.records import _bumped_mask

from oracles import (
    all_basis_families,
    brute_gale_le,
    brute_gale_min,
    brute_necklaces,
    brute_nonadjacent,
    brute_positroid,
    checked_sparse_paving,
    determined_rank,
    matroid_of,
    mod1,
    reference_gale_bounds,
    reference_kernel_near,
    reference_kernel_near_entry,
    reference_kernel_row,
    reference_kernel_rows,
    reference_kernel_verdict,
    reference_necklaces,
    reference_nonbases,
    uniform,
    williams,
)


def walk(k, n):
    """The (entries, by_matroid, by_necklace) items of all_necklaces at
    type (k, n)."""
    return all_necklaces(SchubertKernel(k, n))


def ks(n, members):
    return mask_of(members, n)


def necklace(n, sets):
    return GrassmannNecklace.of(n, sets)


def gale_le(t, i_mask, j_mask, n):
    """I <=_t J on [n] through the library's one Gale primitive: J passes
    every bound that gale_bounds reads off I."""
    return _dominating([j_mask], gale_bounds(n, t, i_mask)) == [j_mask]


def schubert_bases(i_mask, t, n):
    """Member tuples of the shifted Schubert matroid of i_mask at t."""
    return {members_of(m) for m in _dominating(
        (m for m, _ in lex_subsets(n, i_mask.bit_count())),
        gale_bounds(n, t, i_mask))}


def interval_necklace(k, n):
    return GrassmannNecklace(n, k, tuple(cyclic_interval(k, n, i)
                                         for i in range(1, n + 1)))


LOOP_NECKLACE = necklace(4, [{1, 2}, {2, 3}, {1, 3}, {1, 2}])


@st.composite
def decperm_necklaces(draw, min_n, max_n):
    """Necklace of a random decorated permutation, at the rank it fixes."""
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(1, n + 1)))
    marks = {i: draw(st.sampled_from((1, -1)))
             for i in range(1, n + 1) if perm[i - 1] == i}
    dp = DecoratedPermutation.make(perm, marks)
    return decperm_to_necklace(dp, determined_rank(dp))


def bumped_intervals(k, n):
    """The bumped interval at each index i of [n], {i, ..., i + k - 2,
    i + k} taken cyclically, as masks in index order."""
    return [mask_of({mod1(i + j, n) for j in range(k - 1)}
                    | {mod1(i + k, n)}, n) for i in range(1, n + 1)]


def bumped_neighbours(entries, bumped):
    """The indices i at which the entries at i and i + 1 are both their
    index's bumped interval, taken cyclically."""
    n = len(entries)
    return [i for i in range(1, n + 1) if entries[i - 1] == bumped[i - 1]
            and entries[i % n] == bumped[i % n]]


def entry_sets(neck):
    return [frozenset(members_of(e)) for e in neck.entries]


def assert_conversions_match_oracles(neck, nonbases=None):
    """Both necklace <-> positroid conversions against the brute-force
    Gale-order oracles, and, when the kernel's nonbases of the necklace are
    given, those against the k-sets the brute-force positroid misses."""
    n = neck.n
    expected = brute_positroid(n, neck.k, entry_sets(neck))
    got = necklace_to_positroid(neck)
    assert {frozenset(members_of(b)) for b in got.bases} == expected
    if nonbases is not None:
        assert {frozenset(members)
                for j, (_, members) in enumerate(lex_subsets(n, neck.k))
                if nonbases >> j & 1} == \
            {frozenset(c) for c in itertools.combinations(range(1, n + 1),
                                                          neck.k)} - expected
    back = positroid_necklace(matroid_of(n, expected))
    assert entry_sets(back) == [brute_gale_min(expected, t, n)
                                for t in range(1, n + 1)]
    assert back == neck


class TestGaleOrder:
    def test_componentwise(self):
        assert gale_le(1, ks(4, {1, 3}), ks(4, {2, 3}), 4)
        assert not gale_le(1, ks(4, {2, 3}), ks(4, {1, 3}), 4)

    def test_reflexive(self):
        for t in range(1, 5):
            assert gale_le(t, ks(4, {2, 4}), ks(4, {2, 4}), 4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force(self, n):
        for k in range(0, n + 1):
            combos = list(itertools.combinations(range(1, n + 1), k))
            for a, b in itertools.product(combos, repeat=2):
                for t in range(1, n + 1):
                    assert gale_le(t, ks(n, a), ks(n, b), n) == \
                        brute_gale_le(t, a, b, n), (t, a, b)

    def test_bounds_of_intervals(self):
        # the Gale minimum at t needs no prefix check, the runner-up one
        for n in range(3, 9):
            for k in range(1, n - 1):
                for t in range(1, n + 1):
                    assert gale_bounds(
                        n, t, cyclic_interval(k, n, t)) == ()
                    assert len(gale_bounds(
                        n, t, _bumped_mask(k, n, t))) == 1

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_partial_order(self, n, data):
        t = data.draw(st.integers(1, n))
        k = data.draw(st.integers(1, n))
        combos = list(itertools.combinations(range(1, n + 1), k))
        a = ks(n, data.draw(st.sampled_from(combos)))
        b = ks(n, data.draw(st.sampled_from(combos)))
        c = ks(n, data.draw(st.sampled_from(combos)))
        if gale_le(t, a, b, n) and gale_le(t, b, a, n):
            assert a == b
        if gale_le(t, a, b, n) and gale_le(t, b, c, n):
            assert gale_le(t, a, c, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bounds_match_reference_walk(self, n):
        for mask in range(1 << n):
            for t in range(1, n + 1):
                assert gale_bounds(n, t, mask) == \
                    reference_gale_bounds(n, t, mask), (t, mask)

    @given(st.integers(1, 64).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n), st.integers(0, (1 << n) - 1))))
    @settings(max_examples=300, deadline=None)
    def test_bounds_match_reference_walk_up_to_64(self, args):
        n, t, mask = args
        assert gale_bounds(n, t, mask) == reference_gale_bounds(n, t, mask)


class TestCyclicInterval:
    def test_plain(self):
        assert members_of(cyclic_interval(3, 6, 3)) == (3, 4, 5)

    def test_longer(self):
        assert members_of(cyclic_interval(4, 12, 6)) == (6, 7, 8, 9)

    def test_wraparound(self):
        assert members_of(cyclic_interval(2, 4, 4)) == (1, 4)

    def test_rotated_masks(self):
        # Both intervals are built from rotated masks, so the expected
        # members are counted out here with mod1 instead.
        for n in range(1, 13):
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    members = {mod1(i + d, n) for d in range(k)}
                    assert cyclic_interval(k, n, i) == ks(n, members)
                    last = mod1(i + k - 1, n)
                    bumped = members - {last} | {mod1(last + 1, n)}
                    assert _bumped_mask(k, n, i) == ks(n, bumped)

    def test_is_gale_minimum(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    c = cyclic_interval(k, n, i)
                    for m, _ in lex_subsets(n, k):
                        assert gale_le(i, c, m, n)

    def test_symmetric_differences(self):
        # two cyclic intervals are at distance 2 exactly when their starts
        # are cyclically adjacent, and at distance >= 4 otherwise
        for n in range(4, 11):
            for k in range(2, n - 1):
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        d = (cyclic_interval(k, n, i)
                             ^ cyclic_interval(k, n, j)).bit_count()
                        adjacent = j - i == 1 or (i == 1 and j == n)
                        if adjacent:
                            assert d == 2
                        else:
                            assert d >= 4


class TestSchubert:
    def test_filtering(self):
        got = schubert_bases(ks(4, {1, 3}), 1, 4)
        expected = {c for c in itertools.combinations(range(1, 5), 2)
                    if c != (1, 2)}
        assert got == expected

    def test_interval_gives_everything(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in range(1, n + 1):
                    got = schubert_bases(cyclic_interval(k, n, t), t, n)
                    assert len(got) == len(lex_subsets(n, k))

    def test_minimum_at_rotation_start(self):
        got = schubert_bases(ks(4, {3, 4}), 3, 4)
        assert got == {c for c in itertools.combinations(range(1, 5), 2)}


class TestNecklaceValidity:
    """The constructor is the necklace axiom's one check."""

    def test_interval_necklace_valid(self):
        for n in range(2, 7):
            for k in range(0, n + 1):
                entries = tuple(cyclic_interval(k, n, i) if k else 0
                                for i in range(1, n + 1))
                assert GrassmannNecklace(n, k, entries).entries == entries

    def test_broken_sequence(self):
        entries = (ks(4, {1, 3}), ks(4, {2, 4}), ks(4, {1, 3}), ks(4, {2, 4}))
        with pytest.raises(ValueError, match="necklace axiom fails"):
            GrassmannNecklace(4, 2, entries)

    def test_loop_necklace_valid(self):
        entries = tuple(ks(4, s) for s in ({1, 2}, {2, 3}, {1, 3}, {1, 2}))
        assert GrassmannNecklace(4, 2, entries) == LOOP_NECKLACE

    def test_structural_defects_raise(self):
        with pytest.raises(ValueError, match="entry count"):
            GrassmannNecklace(4, 2, (ks(4, {1, 2}), ks(4, {2, 3}),
                                     ks(4, {1, 3})))
        with pytest.raises(ValueError, match="entry size"):
            GrassmannNecklace(2, 1, (ks(2, {1}), ks(2, {1, 2})))
        # A negative mask and one holding element 5 on [4], then a mask of
        # the wrong size, each leading an otherwise valid necklace.
        rest = interval_necklace(2, 4).entries[1:]
        for bad in (-1, 0b10001):
            with pytest.raises(ValueError, match="outside the ground set"):
                GrassmannNecklace(4, 2, (bad,) + rest)
        with pytest.raises(ValueError, match="entry size"):
            GrassmannNecklace(4, 2, (0b0111,) + rest)

    def test_constructor_rejects_invalid(self):
        with pytest.raises(ValueError):
            necklace(4, [{1, 3}, {2, 4}, {1, 3}, {2, 4}])


class TestNecklaceToPositroid:
    def test_interval_necklace_gives_uniform(self):
        for n in range(3, 7):
            for k in range(1, n):
                assert necklace_to_positroid(interval_necklace(k, n)) == uniform(k, n)

    def test_single_deviation(self):
        neck = necklace(4, [{1, 3}, {2, 3}, {3, 4}, {4, 1}])
        expected = matroid_of(
            4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        assert necklace_to_positroid(neck) == expected

    def test_loop_positroid(self):
        expected = matroid_of(4, [{1, 2}, {1, 3}, {2, 3}])
        assert necklace_to_positroid(LOOP_NECKLACE) == expected


class TestConversionsAgainstOracles:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_necklace(self, n):
        for k in range(0, n + 1):
            kernel = SchubertKernel(k, n)
            for neck, (entries, _, _) in zip(
                    reference_necklaces(k, n), all_necklaces(kernel),
                    strict=True):
                assert entries == neck.entries
                assert_conversions_match_oracles(
                    neck, reference_nonbases(neck))

    @given(decperm_necklaces(8, 10))
    @settings(max_examples=100, deadline=None)
    def test_random_decorated_permutations(self, neck):
        assert_conversions_match_oracles(neck)


class TestPositroidNecklace:
    def test_uniform(self):
        for n in range(3, 7):
            for k in range(1, n):
                assert positroid_necklace(uniform(k, n)) == interval_necklace(k, n)

    def test_single_missing_basis(self):
        m = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        assert positroid_necklace(m) == necklace(
            4, [{1, 3}, {2, 3}, {3, 4}, {1, 4}])

    def test_loop_matroid(self):
        m = matroid_of(4, [{1, 2}, {1, 3}, {2, 3}])
        assert positroid_necklace(m) == LOOP_NECKLACE

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6)
                                     for k in range(0, n + 1)])
    def test_entries_are_gale_minima_everywhere(self, n, k):
        # every matroid yields a valid necklace of rotationwise minima
        for fam in all_basis_families(n, k):
            m = matroid_of(n, fam)
            neck = positroid_necklace(m)
            assert GrassmannNecklace(n, k, neck.entries) == neck
            for t in range(1, n + 1):
                expected = brute_gale_min(fam, t, n)
                assert frozenset(members_of(neck.entries[t - 1])) == expected


class TestIsPositroid:
    """is_positroid returns the family's necklace, or None when the family
    is not the positroid of a necklace."""

    def test_uniform(self):
        assert is_positroid(uniform(2, 4)) == interval_necklace(2, 4)
        assert is_positroid(uniform(1, 5)) == interval_necklace(1, 5)

    def test_cyclic_interval_removal(self):
        m = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        assert is_positroid(m) == necklace(
            4, [{1, 3}, {2, 3}, {3, 4}, {1, 4}])

    def test_non_interval_removal_is_not(self):
        m = matroid_of(4, [{1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        assert is_positroid(m) is None

    def test_family_without_a_necklace_is_not(self):
        # the greedy entries {1,2}, {3,4}, {3,4}, {1,2} break the necklace
        # axiom at i=2; the predicate answers None instead of raising
        assert is_positroid(Matroid(4, 2, frozenset({0b0011, 0b1100}))) \
            is None


class TestRoundTrips:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_necklace_positroid_necklace(self, n):
        for k in range(0, n + 1):
            for neck in reference_necklaces(k, n):
                assert positroid_necklace(necklace_to_positroid(neck)) == neck

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
    def test_positroid_bases_pass_exchange(self, n, k):
        for neck in reference_necklaces(k, n):
            m = necklace_to_positroid(neck)
            assert _exchange_masks(m.bases)


class TestNonAdjacentSet:
    def test_rejects_adjacent(self):
        with pytest.raises(ValueError):
            NonAdjacentSet.of(5, {2, 3})
        with pytest.raises(ValueError):
            NonAdjacentSet.of(5, {1, 5})

    def test_singleton_on_tiny_grounds(self):
        assert NonAdjacentSet.of(1, {1}).members == (1,)
        assert NonAdjacentSet.of(2, {2}).members == (2,)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_mask_rule_matches_brute(self, n, data):
        subset = data.draw(st.sets(st.integers(1, n)))
        mask = sum(1 << (x - 1) for x in subset)
        expected = frozenset(subset) in set(brute_nonadjacent(n))
        assert nonadjacent_mask_ok(mask, n) == expected


class TestWitness:
    def test_uniform_gives_empty(self):
        w = sparse_paving_witness(interval_necklace(2, 4))
        assert w == NonAdjacentSet.of(4, ())

    def test_single_deviation(self):
        neck = necklace(4, [{1, 3}, {2, 3}, {3, 4}, {4, 1}])
        assert sparse_paving_witness(neck) == NonAdjacentSet.of(4, {1})

    def test_loop_necklace_has_none(self):
        assert sparse_paving_witness(LOOP_NECKLACE) is None

    def test_rejects_extreme_rank(self):
        neck = interval_necklace(1, 4)
        with pytest.raises(ValueError):
            sparse_paving_witness(neck)

    def test_first_call_holds_no_table_of_masks(self):
        # Each entry is compared with its two intervals as the scan reaches
        # it, so the peak is a few n-bit masks, not all 2n (4 MB here).
        neck = interval_necklace(2000, 4000)
        tracemalloc.start()
        try:
            witness = sparse_paving_witness(neck)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness == NonAdjacentSet.of(4000, ())
        assert peak < 1 << 20

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
    def test_agrees_with_matroid_classifier(self, n, k):
        for neck in reference_necklaces(k, n):
            m = necklace_to_positroid(neck)
            assert (sparse_paving_witness(neck) is not None) == \
                checked_sparse_paving(m)


class TestFromNonAdjacent:
    def test_empty_gives_intervals(self):
        assert necklace_from_nonadjacent((), 2, 4) == interval_necklace(2, 4)

    def test_single_element(self):
        neck = necklace_from_nonadjacent({3}, 3, 6)
        assert members_of(neck.entries[2]) == (3, 4, 6)
        for i in (1, 2, 4, 5, 6):
            assert neck.entries[i - 1] == cyclic_interval(3, 6, i)

    def test_two_elements(self):
        neck = necklace_from_nonadjacent({1, 3}, 2, 4)
        assert neck == necklace(4, [{1, 3}, {2, 3}, {1, 3}, {1, 4}])
        m = necklace_to_positroid(neck)
        nonbases = {frozenset({1, 2}), frozenset({3, 4})}
        everything = {frozenset(c)
                      for c in itertools.combinations(range(1, 5), 2)}
        assert {frozenset(members_of(b)) for b in m.bases} \
            == everything - nonbases

    def test_rejects_adjacent_or_bad_rank(self):
        with pytest.raises(ValueError):
            necklace_from_nonadjacent({1, 2}, 2, 5)
        with pytest.raises(ValueError):
            necklace_from_nonadjacent({1}, 1, 5)

    def test_missing_bases_are_exactly_the_intervals(self):
        for n in range(4, 9):
            for k in range(2, n - 1):
                total = len(lex_subsets(n, k))
                for members in map(frozenset, brute_nonadjacent(n)):
                    neck = necklace_from_nonadjacent(members, k, n)
                    m = necklace_to_positroid(neck)
                    assert len(m.bases) == total - len(members)
                    for i in range(1, n + 1):
                        expected = i not in members
                        assert (cyclic_interval(k, n, i) in m.bases) \
                            == expected
                    assert sparse_paving_witness(neck) == NonAdjacentSet.of(
                        n, members)

    @given(st.integers(4, 12), st.data())
    @settings(max_examples=120, deadline=None)
    def test_witness_recovers_random_sets(self, n, data):
        k = data.draw(st.integers(2, n - 2))
        pool = brute_nonadjacent(n)
        members = data.draw(st.sampled_from(pool))
        neck = necklace_from_nonadjacent(members, k, n)
        assert sparse_paving_witness(neck) == NonAdjacentSet.of(n, members)


class TestSchubertKernel:
    """The oracle's bitset kernel: its rows and near entries, built on
    demand, against the eager references, and the sparse paving verdict
    that the walk carries with it; the nonbases it leads to are checked
    against brute_positroid in TestConversionsAgainstOracles and against
    necklace_to_positroid in TestFusedWalk, both through
    reference_nonbases."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_and_near_entries_match_the_eager_build(self, n):
        for k in range(0, n + 1):
            kernel = SchubertKernel(k, n)
            for row, expected in zip(kernel._rejected,
                                     reference_kernel_rows(k, n),
                                     strict=True):
                assert {entry: row[entry] for entry in expected} == \
                    expected, (k, n)
            near = reference_kernel_near(k, n)
            assert [kernel._near[j] for j in range(len(near))] == \
                list(near), (k, n)

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.integers(1, n),
        st.integers(0, 10 ** 6))))
    @settings(max_examples=150, deadline=None)
    def test_drawn_row_and_near_entry(self, args):
        """One row and one near entry of a fresh kernel at a time, so each
        is built from an empty kernel, against the reference for that
        entry alone."""
        n, k, t, draw = args
        masks = [mask for mask, _ in lex_subsets(n, k)]
        j = draw % len(masks)
        kernel = SchubertKernel(k, n)
        assert kernel._rejected[t - 1][masks[j]] == \
            reference_kernel_row(k, n, t, masks[j])
        assert kernel._near[j] == reference_kernel_near_entry(k, n, j)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_verdict_every_necklace(self, n):
        for k in range(0, n + 1):
            kernel = SchubertKernel(k, n)
            pairs = zip(reference_necklaces(k, n), all_necklaces(kernel),
                        strict=True)
            for neck, (_, by_matroid, _) in pairs:
                assert by_matroid == \
                    checked_sparse_paving(necklace_to_positroid(neck)), neck

    @pytest.mark.parametrize("k,n", [(0, 0), (1, 0), (-1, 3), (4, 3)])
    def test_rejects_a_type_without_necklaces(self, k, n):
        # The only check on the walk's type: all_necklaces reads it off
        # the kernel.
        with pytest.raises(ValueError):
            SchubertKernel(k, n)

    @pytest.mark.parametrize("k,n,necklaces,read,rows", [
        (3, 7, 5111, 83, 245),
        (4, 8, 44929, 127, 560),
    ])
    def test_walk_reads_few_rows(self, k, n, necklaces, read, rows):
        """The walk reads a kernel row only while the matroid-level flag
        is up, and none below a dead node, and the kernel builds a row
        only when it is first read: of the n * C(n, k) rows it builds the
        ones read and no others, a third or fewer.  A walk that read every
        row again, or a kernel that built rows it was not asked for, would
        fail."""
        seen = set()

        class Row:
            def __init__(self, t, row):
                self.t, self.row = t, row

            def __getitem__(self, entry):
                seen.add((self.t, entry))
                return self.row[entry]

        class Counting(SchubertKernel):
            def __init__(self, k, n):
                super().__init__(k, n)
                self._rejected = tuple(
                    Row(t, row) for t, row in enumerate(self._rejected, 1))

        kernel = Counting(k, n)
        assert sum(1 for _ in all_necklaces(kernel)) == necklaces
        built = sum(len(row.row) for row in kernel._rejected)
        assert (len(seen), built, n * comb(n, k)) == (read, read, rows)

    @pytest.mark.parametrize("k,n,necklaces,nodes,replayed", [
        (3, 7, 5111, 521, 5082),
        (4, 8, 44929, 1902, 44882),
    ])
    def test_walk_replays_dead_subtrees(self, k, n, necklaces, nodes,
                                        replayed, monkeypatch):
        """A dead node, at any level, replays its subtree from the memo
        for the first entry: each (first entry, level, entry) of the DAG
        is built once, and all but 29 and 47 of the necklaces come from
        the completion lists at its foot.  A walk that stopped
        replaying, walked below a dead node, or rebuilt a node would
        fail."""
        built, replays = [], []
        cut = n - 4

        class Replayed(list):
            def __iter__(self):
                for tail in super().__iter__():
                    replays.append(tail)
                    yield tail

        def counting(memo, pools, bits, cut_level, level, cur):
            # The pools stand for the first entry: pools[i] is
            # I_1 | {i+1, ..., n}, so two first entries give two pools.
            built.append((tuple(pools), level, cur))
            value = subtree(memo, pools, bits, cut_level, level, cur)
            return Replayed(value) if level >= cut else value

        subtree = necklace_module._subtree
        monkeypatch.setattr(necklace_module, "_subtree", counting)
        assert sum(1 for _ in all_necklaces(SchubertKernel(k, n))) == \
            necklaces
        assert len(set(built)) == len(built) == nodes
        assert len(replays) == replayed


class TestFusedWalk:
    """all_necklaces against the recursive walk and the per-necklace
    references on every necklace with n <= 8 and 0 <= k <= n.  Here the
    matroid-level verdict is checked against the kernel's full scan and
    is_sparse_paving, and the necklace-level verdict against
    sparse_paving_witness; TestSchubertKernel checks the first against all
    three definitions of checked_sparse_paving up to n = 7, since at n = 8
    their circuit-hyperplane scans would add about 19 s."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_type(self, n):
        for k in range(0, n + 1):
            kernel = SchubertKernel(k, n)
            records = list(reference_necklaces(k, n))
            walked = list(all_necklaces(kernel))
            assert [entries for entries, _, _ in walked] == \
                [neck.entries for neck in records], (k, n)
            index = {mask: j for j, (mask, _) in enumerate(lex_subsets(n, k))}
            every = (1 << len(index)) - 1
            middle = 2 <= k <= n - 2
            for neck, (_, by_matroid, by_necklace) in zip(records, walked):
                nonbases = reference_nonbases(neck)
                m = necklace_to_positroid(neck)
                assert nonbases == every ^ sum(1 << index[b] for b in m.bases)
                assert by_matroid == reference_kernel_verdict(
                    k, n, nonbases) == is_sparse_paving(m), neck
                assert by_necklace == (middle and sparse_paving_witness(
                    neck) is not None), neck

    @pytest.mark.parametrize("n", range(4, 9))
    def test_census_state_alone(self, n):
        """With a near table that answers 0 for every k-subset the flag
        never falls, so the walk prunes nothing and each necklace's
        necklace-level verdict comes from the census state alone: it must
        still be the witness verdict.  With the real kernel a census state
        that read only the last entry gives the same stream for every
        n <= 9, the flag having fallen wherever it would go wrong, so
        test_every_type cannot see that fault."""
        class NoNeighbours(SchubertKernel):
            def __init__(self, k, n):
                super().__init__(k, n)
                self._near = defaultdict(int)

        for k in range(2, n - 1):
            pairs = zip(reference_necklaces(k, n),
                        all_necklaces(NoNeighbours(k, n)), strict=True)
            for neck, (entries, by_matroid, by_necklace) in pairs:
                assert entries == neck.entries and by_matroid
                assert by_necklace == \
                    (sparse_paving_witness(neck) is not None), neck

    @pytest.mark.parametrize("n", range(4, 9))
    def test_census_is_the_witness_verdict(self, n):
        # The census, the necklaces necklace_from_nonadjacent builds, is
        # the set the witness accepts.
        for k in range(2, n - 1):
            census = {necklace_from_nonadjacent(a, k, n).entries
                      for a in nonadjacent_subsets(n)}
            assert len(census) == count_nonadjacent(n), (k, n)
            for neck in reference_necklaces(k, n):
                assert (neck.entries in census) == \
                    (sparse_paving_witness(neck) is not None), neck

    @pytest.mark.parametrize("n", range(2, 10))
    def test_no_necklace_has_bumped_neighbours(self, n):
        """The classification's second condition, no two bumped indices
        cyclic neighbours, holds on every necklace: after the bumped
        interval at i the next entry holds i + k, which the bumped interval
        at i + 1 lacks.  The census state and sparse_paving_witness test
        only the first condition and rely on this."""
        for k in range(1, n):
            bumped = bumped_intervals(k, n)
            for entries, _, _ in walk(k, n):
                assert not bumped_neighbours(entries, bumped), (k, entries)

    @given(decperm_necklaces(2, 14))
    @settings(max_examples=200, deadline=None)
    def test_decperm_necklace_has_no_bumped_neighbours(self, neck):
        if 1 <= neck.k <= neck.n - 1:
            bumped = bumped_intervals(neck.k, neck.n)
            assert not bumped_neighbours(neck.entries, bumped), neck


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_necklaces_in_order_as_brute_filter(self, n):
        # the depth-first walk yields the necklaces in the brute-force
        # filter's order, a product over the k-subsets in lex_subsets order
        for k in range(n + 1):
            expected = [tuple(mask_of(e, n) for e in seq)
                        for seq in brute_necklaces(n, k)]
            assert [entries for entries, _, _ in walk(k, n)] == expected, k

    def test_counts_match_census(self):
        walked = list(walk(2, 4))
        assert len(walked) == 33
        sp = [entries for entries, _, _ in walked if sparse_paving_witness(
            GrassmannNecklace(4, 2, entries)) is not None]
        assert len(sp) == 7
        assert [entries for entries, by_matroid, by_necklace in walked
                if by_matroid and by_necklace] == sp

    def test_degenerate_ranks(self):
        assert sum(1 for _ in walk(0, 3)) == 1
        assert sum(1 for _ in walk(3, 3)) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_williams_closed_form(self, n):
        for k in range(0, n + 1):
            assert sum(1 for _ in walk(k, n)) == williams(k, n), (k, n)


class TestMaskRepresentation:
    """Every subset the library hands out is a bare int mask."""

    @staticmethod
    def assert_masks(subsets):
        subsets = list(subsets)
        assert subsets and all(type(s) is int for s in subsets)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumerated_entries(self, n):
        for k in range(0, n + 1):
            self.assert_masks(e for entries, _, _ in walk(k, n)
                              for e in entries)

    def test_converted_entries(self):
        neck = necklace_from_nonadjacent({1, 3}, 2, 5)
        self.assert_masks(neck.entries)
        self.assert_masks(positroid_necklace(necklace_to_positroid(neck))
                          .entries)
        dp = DecoratedPermutation.make([3, 4, 5, 1, 2])
        self.assert_masks(decperm_to_necklace(dp, 2).entries)
        self.assert_masks(GrassmannNecklace.from_dict(neck.to_dict()).entries)

    def test_circuits_hyperplanes_and_intervals(self):
        m = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        self.assert_masks(circuits(m))
        self.assert_masks(hyperplanes(m))
        self.assert_masks([cyclic_interval(2, 4, 1), _bumped_mask(2, 4, 1)])
