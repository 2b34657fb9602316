import math

import pytest

from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    circuit_hyperplanes,
    count_nonadjacent,
    count_sparse_paving,
    cyclic_interval,
    enumerate_sparse_paving,
    is_positroid,
    le_to_decperm,
    lucas,
    mask_of,
    members_of,
    necklace_to_positroid,
    nonadjacent_mask_ok,
    nonadjacent_subsets,
    realizable_sets,
    sparse_paving_witness,
)

from oracles import (
    brute_nonadjacent,
    census_matroid,
    checked_sparse_paving,
    mod1,
    reference_necklaces,
    reference_recurrence_case,
    reference_sparse_paving_perm,
)
from test_trusted import assert_revalidates


class TestNonAdjacentStream:
    def test_tiny_grounds(self):
        assert [set(a.members) for a in nonadjacent_subsets(1)] == [set(), {1}]
        assert [set(a.members) for a in nonadjacent_subsets(3)] == [
            set(), {1}, {2}, {3}]

    def test_n4(self):
        got = [set(a.members) for a in nonadjacent_subsets(4)]
        assert got == [set(), {1}, {2}, {3}, {1, 3}, {4}, {2, 4}]
        assert len(got) == 7

    def test_mask_order_is_canonical(self):
        masks = [a.mask for a in nonadjacent_subsets(6)]
        assert masks == sorted(masks)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            list(nonadjacent_subsets(0))

    @pytest.mark.parametrize("n", range(1, 16))
    def test_stream_matches_brute_force(self, n):
        got = {frozenset(a.members) for a in nonadjacent_subsets(n)}
        assert got == set(brute_nonadjacent(n))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_stream_matches_the_mask_filter(self, n):
        """The direct generation yields the masks that filtering all 2^n
        masks keeps, in the same order."""
        assert [a.mask for a in nonadjacent_subsets(n)] == [
            mask for mask in range(1 << n) if nonadjacent_mask_ok(mask, n)]


class TestCounts:
    def test_base_cases(self):
        assert [count_nonadjacent(n) for n in range(4)] == [1, 2, 3, 4]

    def test_recurrence_values(self):
        assert count_nonadjacent(4) == 7
        assert count_nonadjacent(8) == 47
        assert [count_nonadjacent(n) for n in range(4, 13)] == [
            7, 11, 18, 29, 47, 76, 123, 199, 322]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_count_matches_stream(self, n):
        assert count_nonadjacent(n) == sum(1 for _ in nonadjacent_subsets(n))

    def test_recurrence_holds_far_out(self):
        for n in range(4, 200):
            assert count_nonadjacent(n) == \
                count_nonadjacent(n - 1) + count_nonadjacent(n - 2)


class TestLucas:
    def test_seeds(self):
        assert lucas(0) == 2
        assert lucas(1) == 1
        assert lucas(6) == 18

    def test_equals_count_from_two(self):
        for n in range(2, 61):
            assert lucas(n) == count_nonadjacent(n)

    def test_golden_power_small_cases(self):
        assert count_nonadjacent(0) == 1
        assert count_nonadjacent(2) == 3
        assert count_nonadjacent(10) == 123

    def test_golden_power_matches_count(self):
        # the nearest integer to phi**n is 1, 2 at n = 0, 1, then Lucas
        for n in range(0, 61):
            assert count_nonadjacent(n) == (lucas(n) if n >= 2 else n + 1)

    def test_golden_power_matches_float_rounding_when_exact(self):
        phi = (1 + math.sqrt(5)) / 2
        for n in range(0, 40):
            assert count_nonadjacent(n) == round(phi ** n)


class TestCensus:
    def test_sizes(self):
        assert sum(1 for _ in enumerate_sparse_paving(2, 4)) == 7
        assert sum(1 for _ in enumerate_sparse_paving(3, 6)) == 18

    def test_contains_direct_sum_positroid(self):
        entries = {tuple(e.nonadjacent.members): e
                   for e in enumerate_sparse_paving(2, 4)}
        chosen = entries[(1, 3)]
        missing = {frozenset({1, 2}), frozenset({3, 4})}
        bases = census_matroid(chosen).bases
        got = {frozenset(members_of(b)) for b in bases}
        assert len(bases) == 4
        assert got.isdisjoint(missing)

    def test_rejects_extreme_ranks(self):
        with pytest.raises(ValueError):
            list(enumerate_sparse_paving(1, 5))
        with pytest.raises(ValueError):
            list(enumerate_sparse_paving(4, 5))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_all_views_consistent(self, n):
        for k in range(2, n - 1):
            for entry in enumerate_sparse_paving(k, n):
                neck = entry.necklace
                m = census_matroid(entry)
                assert GrassmannNecklace(n, k, neck.entries) == neck
                assert_revalidates(entry.diagram)
                assert is_positroid(m)
                assert checked_sparse_paving(m)
                assert realizable_sets(entry.diagram) == m
                assert necklace_to_positroid(entry.necklace) == m
                assert entry.perm == \
                    reference_sparse_paving_perm(entry.nonadjacent, k, n)
                assert sparse_paving_witness(entry.necklace) == \
                    entry.nonadjacent

    @pytest.mark.parametrize("n", range(4, 11))
    def test_nonbases_are_the_intervals_at_a(self, n):
        """Each entry carries the closed form's nonbases, the cyclic
        intervals [i, i+k-1] for i in A, checked element by element."""
        for k in range(2, n - 1):
            for entry in enumerate_sparse_paving(k, n):
                assert entry.nonbases == {
                    cyclic_interval(k, n, i) for i in entry.nonadjacent}

    @pytest.mark.parametrize("n", range(4, 13))
    def test_pipes_give_the_census_permutation(self, n):
        """Postnikov's pipes through the paper's Le-diagram
        (le_from_removals) give the entry's decorated permutation, with no
        necklace in between."""
        for k in range(2, n - 1):
            for entry in enumerate_sparse_paving(k, n):
                assert le_to_decperm(entry.diagram) == entry.perm, \
                    (k, n, entry.nonadjacent)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_closed_form_matches_schubert_intersection(self, n):
        """The census carries the closed form's nonbases (the cyclic
        intervals at A); the Schubert intersection of the entry's necklace
        is the oracle for the bases they leave."""
        for k in range(2, n - 1):
            for entry in enumerate_sparse_paving(k, n):
                assert census_matroid(entry) == \
                    necklace_to_positroid(entry.necklace)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_dual_entry_is_the_witness_shifted_by_k(self, n):
        """Matroid duality on the census: the entries (k, A) and
        (n - k, A + k mod n) have complementary bases, from the Schubert
        intersection of their necklaces, complementary nonbases and
        inverse permutations."""
        full = (1 << n) - 1
        for k in range(2, n - 1):
            duals = {e.nonadjacent.mask: e
                     for e in enumerate_sparse_paving(n - k, n)}
            for entry in enumerate_sparse_paving(k, n):
                dual = duals[mask_of({mod1(i + k, n)
                                      for i in entry.nonadjacent}, n)]
                assert necklace_to_positroid(dual.necklace).bases == {
                    full ^ b
                    for b in necklace_to_positroid(entry.necklace).bases}
                assert dual.nonbases == {full ^ b for b in entry.nonbases}
                inverse = [0] * n
                for i, j in enumerate(entry.perm.perm, 1):
                    inverse[j - 1] = i
                assert dual.perm == DecoratedPermutation.make(inverse), \
                    (k, n, entry.nonadjacent)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_circuit_hyperplanes_are_the_intervals_at_a(self, n):
        """The paper at the matroid level: the circuit-hyperplanes of the
        entry with witness A are exactly the cyclic intervals [i, i+k-1]
        for i in A."""
        for k in range(2, n - 1):
            for entry in enumerate_sparse_paving(k, n):
                assert circuit_hyperplanes(census_matroid(entry)) == {
                    cyclic_interval(k, n, i)
                    for i in entry.nonadjacent.members}, entry.nonadjacent

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 3)])
    def test_census_is_complete(self, n, k):
        """Brute force over every necklace finds exactly the censused
        positroids as the sparse paving ones."""
        brute = {necklace_to_positroid(neck)
                 for neck in reference_necklaces(k, n)
                 if checked_sparse_paving(necklace_to_positroid(neck))}
        census = {census_matroid(e) for e in enumerate_sparse_paving(k, n)}
        assert brute == census


class TestCountSparsePaving:
    def test_rank_one(self):
        assert count_sparse_paving(1, 5) == 6
        assert count_sparse_paving(4, 5) == 6

    def test_middle_ranks(self):
        assert count_sparse_paving(2, 4) == 7
        assert count_sparse_paving(3, 6) == 18

    def test_rejects_degenerate_ranks(self):
        with pytest.raises(ValueError):
            count_sparse_paving(0, 5)
        with pytest.raises(ValueError):
            count_sparse_paving(5, 5)

    def test_rank_one_by_brute_force(self):
        for n in range(3, 7):
            found = [neck for neck in reference_necklaces(1, n)
                     if checked_sparse_paving(necklace_to_positroid(neck))]
            assert len(found) == n + 1


class TestRecurrenceCases:
    def test_partition_sizes(self):
        for n in range(4, 13):
            counts = {1: 0, 2: 0, 3: 0}
            for a in nonadjacent_subsets(n):
                counts[reference_recurrence_case(n, a)] += 1
            assert counts[1] == count_nonadjacent(n - 1)
            assert counts[2] + counts[3] == count_nonadjacent(n - 2)
