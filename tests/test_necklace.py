import itertools
import tracemalloc
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
from positroids.matroid import _exchange_masks
from positroids.necklace import (
    SchubertKernel,
    _bumped_mask,
    _dominating,
    gale_bounds,
)

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
    reference_kernel_verdict,
    reference_necklaces,
    reference_nonbases,
    uniform,
)


def walk(k, n):
    """The (entries, nonbases, sparse_paving) items of all_necklaces at type
    (k, n)."""
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


def entry_sets(neck):
    return [frozenset(members_of(e)) for e in neck.entries]


def assert_conversions_match_oracles(neck, nonbases=None):
    """Both necklace <-> positroid conversions against the brute-force
    Gale-order oracles, and, when the walk's nonbases of the necklace are
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
            for neck, (entries, nonbases, _) in zip(
                    reference_necklaces(k, n), walk(k, n), strict=True):
                assert entries == neck.entries
                assert_conversions_match_oracles(neck, nonbases)

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
    """The oracle's bitset kernel, through the sparse paving verdict that
    the walk carries with it; the nonbases that the walk carries are
    checked against brute_positroid in TestConversionsAgainstOracles and
    against reference_nonbases in TestFusedWalk."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_verdict_every_necklace(self, n):
        for k in range(0, n + 1):
            kernel = SchubertKernel(k, n)
            pairs = zip(reference_necklaces(k, n), all_necklaces(kernel),
                        strict=True)
            for neck, (_, _, sparse_paving) in pairs:
                assert sparse_paving == \
                    checked_sparse_paving(necklace_to_positroid(neck)), neck

    @pytest.mark.parametrize("k,n", [(0, 0), (1, 0), (-1, 3), (4, 3)])
    def test_rejects_a_type_without_necklaces(self, k, n):
        # The only check on the walk's type: all_necklaces reads it off
        # the kernel.
        with pytest.raises(ValueError):
            SchubertKernel(k, n)


class TestFusedWalk:
    """all_necklaces against the recursive walk and the per-necklace
    references, and the census against sparse_paving_witness, on every
    necklace with n <= 8.  Here the carried verdict is checked against
    the kernel's full scan and is_sparse_paving; TestSchubertKernel checks
    it against all three definitions of checked_sparse_paving up to n = 7,
    since at n = 8 their circuit-hyperplane scans would add about 19 s."""

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
            for neck, (_, nonbases, sparse_paving) in zip(records, walked):
                assert nonbases == reference_nonbases(kernel, neck)
                m = necklace_to_positroid(neck)
                assert nonbases == every ^ sum(1 << index[b] for b in m.bases)
                assert sparse_paving == reference_kernel_verdict(
                    kernel, nonbases) == is_sparse_paving(m), neck

    @pytest.mark.parametrize("n", range(4, 9))
    def test_census_is_the_witness_verdict(self, n):
        # The oracle's necklace-level verdict is membership in this set.
        for k in range(2, n - 1):
            census = {necklace_from_nonadjacent(a, k, n).entries
                      for a in nonadjacent_subsets(n)}
            assert len(census) == count_nonadjacent(n), (k, n)
            for neck in reference_necklaces(k, n):
                assert (neck.entries in census) == \
                    (sparse_paving_witness(neck) is not None), neck


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
        assert sum(1 for _ in walk(2, 4)) == 33
        sp = [entries for entries, _, _ in walk(2, 4) if sparse_paving_witness(
            GrassmannNecklace(4, 2, entries)) is not None]
        assert len(sp) == 7

    def test_degenerate_ranks(self):
        assert sum(1 for _ in walk(0, 3)) == 1
        assert sum(1 for _ in walk(3, 3)) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_williams_closed_form(self, n):
        """Williams' count of the positroid cells of type (k, n)
        ("Enumeration of totally positive Grassmann cells", Adv. Math. 190
        (2005)), one per necklace; the count is 1 at k = 0."""
        assert sum(1 for _ in walk(0, n)) == 1
        for k in range(1, n + 1):
            expected = sum(
                (-1) ** i * comb(n, i)
                * ((k - i) ** i * (k - i + 1) ** (n - i)
                   - (k - i - 1) ** i * (k - i) ** (n - i))
                for i in range(k))
            assert sum(1 for _ in walk(k, n)) == expected, (k, n)


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
