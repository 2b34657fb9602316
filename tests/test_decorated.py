import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    NonAdjacentSet,
    SparsePavingPositroid,
    cyclic_interval,
    decperm_to_necklace,
    members_of,
    necklace_from_nonadjacent,
    necklace_to_decperm,
    sparse_paving_witness,
)

from oracles import (
    all_decorated_permutations,
    brute_nonadjacent,
    determined_rank,
    reference_decperm_necklace,
    reference_necklaces,
    reference_perm_witness,
    reference_sparse_paving_perm,
)


def necklace(n, sets):
    return GrassmannNecklace.of(n, sets)


def interval_necklace(k, n):
    return GrassmannNecklace(n, k, tuple(cyclic_interval(k, n, i)
                                         for i in range(1, n + 1)))


LOOP_NECKLACE = necklace(4, [{1, 2}, {2, 3}, {1, 3}, {1, 2}])
# The positroid with bases {12, 13, 23} on [4]: reading the insertion rule
# around the necklace gives 1 -> 3 -> 2 -> 1 with 4 a loop marked +1.
LOOP_PERM = DecoratedPermutation.make((3, 1, 2, 4), {4: 1})


def fixed_points(perm):
    return [i for i, x in enumerate(perm, 1) if x == i]


def assert_round_trip(perm, marks):
    dp = DecoratedPermutation.make(perm, dict(zip(fixed_points(perm), marks)))
    neck = decperm_to_necklace(dp, determined_rank(dp))
    assert necklace_to_decperm(neck) == dp


class TestType:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            DecoratedPermutation.make((1, 1, 3))

    def test_rejects_missing_or_extra_marks(self):
        with pytest.raises(ValueError):
            DecoratedPermutation.make((1, 2), {1: 1})
        with pytest.raises(ValueError):
            DecoratedPermutation.make((2, 1), {1: 1})
        with pytest.raises(ValueError):
            DecoratedPermutation.make((1, 2), {1: 1, 2: 2})

    def test_rejects_fractional_entry(self):
        with pytest.raises(ValueError):
            DecoratedPermutation.make((2.0, 1))

    def test_rejects_bool_mark(self):
        with pytest.raises(ValueError):
            DecoratedPermutation.make((1, 2), {1: True, 2: 1})

    def test_json_round_trip(self):
        dp = DecoratedPermutation.make((3, 2, 1), {2: -1})
        assert DecoratedPermutation.from_dict(dp.to_dict()) == dp
        assert dp.to_dict() == {"n": 3, "perm": [3, 2, 1], "colors": {"2": -1}}


class TestNecklaceToDecperm:
    def test_uniform_is_the_shift(self):
        dp = necklace_to_decperm(interval_necklace(3, 6))
        assert dp.perm == (4, 5, 6, 1, 2, 3)
        assert dp.colors == ()

    def test_single_bump_swaps_two_entries(self):
        neck = necklace_from_nonadjacent({3}, 3, 6)
        assert necklace_to_decperm(neck).perm == (4, 6, 5, 1, 2, 3)

    def test_loop_gets_plus_mark(self):
        assert necklace_to_decperm(LOOP_NECKLACE) == LOOP_PERM

    def test_coloop_gets_minus_mark(self):
        # bases {{1,2}} on [2]: both elements sit in every entry
        neck = necklace(2, [{1, 2}, {1, 2}])
        dp = necklace_to_decperm(neck)
        assert dp.perm == (1, 2)
        assert dict(dp.colors) == {1: -1, 2: -1}


class TestDecpermToNecklace:
    def test_shift_recovers_intervals(self):
        dp = DecoratedPermutation.make((4, 5, 6, 1, 2, 3))
        assert decperm_to_necklace(dp, 3) == interval_necklace(3, 6)

    def test_bumped_example(self):
        dp = DecoratedPermutation.make((4, 6, 5, 1, 2, 3))
        assert decperm_to_necklace(dp, 3) == necklace_from_nonadjacent({3}, 3, 6)

    def test_loop_example(self):
        assert decperm_to_necklace(LOOP_PERM, 2) == LOOP_NECKLACE

    def test_rejects_wrong_rank(self):
        dp = DecoratedPermutation.make((4, 5, 6, 1, 2, 3))
        with pytest.raises(ValueError):
            decperm_to_necklace(dp, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_over_all_necklaces(self, n):
        for k in range(0, n + 1):
            for neck in reference_necklaces(k, n):
                dp = necklace_to_decperm(neck)
                assert decperm_to_necklace(dp, k) == neck

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_over_all_decorated_permutations(self, n):
        for perm in itertools.permutations(range(1, n + 1)):
            fixed = len(fixed_points(perm))
            for marks in itertools.product((1, -1), repeat=fixed):
                assert_round_trip(perm, marks)

    @given(st.integers(7, 10), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random_decorated_permutations(self, n, data):
        perm = data.draw(st.permutations(range(1, n + 1)))
        fixed = len(fixed_points(perm))
        marks = data.draw(st.lists(st.sampled_from((1, -1)),
                                   min_size=fixed, max_size=fixed))
        assert_round_trip(perm, marks)


def assert_step_rule_matches_reference(dp):
    """decperm_to_necklace gives the cyclic-position rule's entries at the
    rank the permutation determines, and its error one rank higher."""
    k = determined_rank(dp)
    got = decperm_to_necklace(dp, k).entries
    assert tuple(frozenset(members_of(e)) for e in got) == \
        reference_decperm_necklace(dp, k), dp
    with pytest.raises(ValueError) as exc:
        reference_decperm_necklace(dp, k + 1)
    with pytest.raises(ValueError, match=f"^{exc.value}$"):
        decperm_to_necklace(dp, k + 1)


class TestStepRuleAgainstReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_decorated_permutation(self, n):
        for dp in all_decorated_permutations(n):
            assert_step_rule_matches_reference(dp)

    @given(st.integers(7, 10), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_decorated_permutations(self, n, data):
        perm = data.draw(st.permutations(range(1, n + 1)))
        marks = {i: data.draw(st.sampled_from((1, -1)))
                 for i in fixed_points(perm)}
        assert_step_rule_matches_reference(
            DecoratedPermutation.make(perm, marks))


def census_perm(k, n, members):
    return SparsePavingPositroid(k, n, NonAdjacentSet.of(n, members)).perm


class TestTopPermutation:
    """The shift by k: the permutation of the uniform positroid, so of the
    census entry with the empty witness and of the interval necklace."""

    def test_examples(self):
        assert census_perm(3, 6, ()).perm == (4, 5, 6, 1, 2, 3)
        assert census_perm(2, 4, ()).perm == (3, 4, 1, 2)

    def test_no_fixed_points_in_between(self):
        for n in range(2, 9):
            for k in range(1, n):
                dp = necklace_to_decperm(interval_necklace(k, n))
                assert dp == reference_sparse_paving_perm((), k, n)
                assert fixed_points(dp.perm) == []


class TestAdjacentSwaps:
    """The census permutation of the witness A is the shift by k with the
    one-line entries at i - 1 and i swapped for each i in A, cyclically."""

    def test_single_swap(self):
        assert census_perm(3, 6, {3}).perm == (4, 6, 5, 1, 2, 3)

    def test_position_one_trades_with_last(self):
        assert census_perm(2, 4, {1}).perm == (2, 4, 1, 3)

    def test_no_fixed_points_after_swaps(self):
        for n in range(4, 9):
            for k in range(2, n - 1):
                for members in brute_nonadjacent(n):
                    dp = census_perm(k, n, members)
                    assert fixed_points(dp.perm) == [] and dp.colors == ()


class TestPermWitness:
    """A permutation payload reaches the sparse paving verdict through the
    necklace, as `check-sp --kind decperm` does."""

    def test_top_itself(self):
        dp = DecoratedPermutation.make((4, 5, 6, 1, 2, 3))
        assert sparse_paving_witness(decperm_to_necklace(dp, 3)) == \
            NonAdjacentSet.of(6, ())

    def test_single_swap(self):
        dp = DecoratedPermutation.make((4, 6, 5, 1, 2, 3))
        assert sparse_paving_witness(decperm_to_necklace(dp, 3)) == \
            NonAdjacentSet.of(6, {3})

    def test_fixed_point_blocks_witness(self):
        assert sparse_paving_witness(decperm_to_necklace(LOOP_PERM, 2)) is None

    def test_rejects_extreme_rank(self):
        neck = decperm_to_necklace(DecoratedPermutation.make((2, 3, 4, 1)), 1)
        with pytest.raises(ValueError, match="classification needs"):
            sparse_paving_witness(neck)

    @pytest.mark.parametrize("n", range(4, 7))
    def test_agrees_with_necklace_witness(self, n):
        """The paper's permutation criterion, read off the library's
        permutation of every necklace, finds the necklace-level witness."""
        for k in range(2, n - 1):
            for neck in reference_necklaces(k, n):
                witness = sparse_paving_witness(neck)
                assert reference_perm_witness(necklace_to_decperm(neck), k) \
                    == (None if witness is None else frozenset(witness))


class TestCommutingSquare:
    def test_construction_matches_swaps(self):
        for n in range(4, 9):
            for k in range(2, n - 1):
                for members in brute_nonadjacent(n):
                    neck = necklace_from_nonadjacent(members, k, n)
                    assert necklace_to_decperm(neck) == \
                        reference_sparse_paving_perm(members, k, n)

    @given(st.integers(4, 10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_witness_inverts_swaps(self, n, data):
        k = data.draw(st.integers(2, n - 2))
        members = data.draw(st.sampled_from(brute_nonadjacent(n)))
        dp = necklace_to_decperm(necklace_from_nonadjacent(members, k, n))
        assert reference_perm_witness(dp, k) == members


@st.composite
def census_types(draw, max_n):
    """(k, n, A): a middle rank, n <= max_n and a non-adjacent A on [n],
    kept from a drawn subset by dropping, in ascending order, each member
    cyclically next to one already kept."""
    n = draw(st.integers(4, max_n))
    k = draw(st.integers(2, n - 2))
    kept = set()
    for i in sorted(draw(st.sets(st.integers(1, n)))):
        if i - 1 not in kept and not (i == n and 1 in kept):
            kept.add(i)
    return k, n, NonAdjacentSet.of(n, kept)


@given(census_types(60))
@settings(max_examples=200, deadline=None)
def test_census_perm_is_the_closed_form_up_to_60(args):
    k, n, a = args
    perm = SparsePavingPositroid(k, n, a).perm
    assert perm == reference_sparse_paving_perm(a, k, n)
    assert perm.colors == ()
