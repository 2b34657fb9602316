import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    Matroid,
    circuit_hyperplanes,
    circuits,
    hyperplanes,
    is_sparse_paving,
    lex_subsets,
    mask_of,
    members_of,
    necklace_to_positroid,
    relax,
)
from positroids.matroid import _exchange_masks, _violating_pair

from oracles import (
    all_basis_families,
    brute_circuits,
    brute_dual,
    brute_exchange,
    brute_hyperplanes,
    brute_paving,
    brute_rank,
    brute_violating_pair,
    checked_sparse_paving,
    matroid_of,
    reference_necklaces,
    uniform,
)


def members(family):
    return {frozenset(members_of(s)) for s in family}


def exchange_ok(family, n):
    """The library's exchange check on a family of element collections."""
    return _exchange_masks(frozenset(mask_of(s, n) for s in family))


def sets_of(m):
    return frozenset(frozenset(members_of(b)) for b in m.bases)


def family(*sets):
    return frozenset(map(frozenset, sets))


U24_MINUS_12 = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
U24 = family(*itertools.combinations(range(1, 5), 2))
U24_MINUS_12_SETS = sets_of(U24_MINUS_12)


class TestMasks:
    def test_round_trip_examples(self):
        assert mask_of({1, 3}, 4) == 0b0101
        assert members_of(0b0101) == (1, 3)

    @given(st.integers(1, 12), st.data())
    def test_round_trip_random(self, n, data):
        subset = data.draw(st.sets(st.integers(1, n)))
        assert set(members_of(mask_of(subset, n))) == subset

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mask_of({0}, 4)
        with pytest.raises(ValueError):
            mask_of({5}, 4)

    def test_rejects_float_element(self):
        with pytest.raises(ValueError):
            mask_of([1.5], 4)

    def test_rejects_bool_element(self):
        with pytest.raises(ValueError):
            mask_of([True, 2], 4)

    def test_lex_subsets_counts(self):
        assert len(lex_subsets(6, 3)) == 20
        assert lex_subsets(3, 0) == ((0, ()),)


class TestEncoding:
    @given(st.integers(1, 9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bases_listed_in_sorted_order(self, n, data):
        k = data.draw(st.integers(0, n))
        masks = [mask for mask, _ in lex_subsets(n, k)]
        family = data.draw(st.sets(st.sampled_from(masks), min_size=1))
        m = Matroid(n, k, frozenset(family))
        expected = sorted(list(members_of(b)) for b in family)
        assert m.to_dict()["bases"] == expected


class TestValidation:
    """Every construction checks each mask's range and size; when both are
    wrong somewhere, the range error is the one reported."""

    @pytest.mark.parametrize("bases", [
        {0b001, 0b1000},
        {0b001, -1},
        {-4, 0b010},
    ])
    def test_mask_outside_ground_set(self, bases):
        with pytest.raises(ValueError, match="outside the ground set"):
            Matroid(3, 1, frozenset(bases))

    @pytest.mark.parametrize("bases", [{0b001, 0b011}, {0b000, 0b100}])
    def test_mask_of_wrong_size(self, bases):
        with pytest.raises(ValueError, match="differs from the rank"):
            Matroid(3, 1, frozenset(bases))

    @pytest.mark.parametrize("bases", [
        {0b011, 0b1000},
        {0b011, 0b10000},
        {0b110, -1},
        {0b000, 0b111, 1 << 40},
    ])
    def test_range_error_comes_first(self, bases):
        with pytest.raises(ValueError, match="outside the ground set"):
            Matroid(3, 1, frozenset(bases))

    def test_payload_of_wrong_size(self):
        with pytest.raises(ValueError, match="differs from the rank"):
            Matroid.from_dict({"n": 4, "k": 2, "bases": [[1, 2], [1, 2, 3]]})

    @pytest.mark.parametrize("bases", [
        [[1, 2], [3, 4], [1, 2]],
        [[1, 2], [3, 4], [2, 1]],
    ])
    def test_payload_with_a_repeated_basis(self, bases):
        # A payload lists each basis once; a copy is refused, not dropped.
        with pytest.raises(ValueError, match=r"repeated basis \[1, 2\]"):
            Matroid.from_dict({"n": 4, "k": 2, "bases": bases})


class TestExchangeAxiom:
    def test_uniform_family_passes(self):
        family = list(itertools.combinations(range(1, 5), 2))
        assert exchange_ok(family, 4)

    def test_disjoint_pair_fails(self):
        # e=1 against {3,4} leaves no replacement inside the family
        assert not exchange_ok([{1, 2}, {3, 4}], 4)

    def test_singleton_family_passes(self):
        assert exchange_ok([{1, 2}], 4)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, n, data):
        k = data.draw(st.integers(1, n))
        candidates = [frozenset(c)
                      for c in itertools.combinations(range(1, n + 1), k)]
        fam = data.draw(st.sets(st.sampled_from(candidates), min_size=1))
        assert exchange_ok(fam, n) == brute_exchange(frozenset(fam))


class TestRank:
    """Hand examples pinning the frozenset rank oracle, which the
    hyperplane oracle is built on."""

    def test_uniform_singleton(self):
        assert brute_rank(frozenset({1}), U24) == 1

    def test_missing_basis_caps_rank(self):
        assert brute_rank(frozenset({1, 2}), U24_MINUS_12_SETS) == 1

    def test_empty_set(self):
        assert brute_rank(frozenset(), U24) == 0
        assert brute_rank(frozenset(), U24_MINUS_12_SETS) == 0

    def test_full_ground_set_gives_rank(self):
        assert brute_rank(frozenset(range(1, 5)), U24_MINUS_12_SETS) == 2


class TestCircuits:
    def test_uniform(self):
        got = members(circuits(uniform(2, 4)))
        assert got == {frozenset(c)
                       for c in itertools.combinations(range(1, 5), 3)}

    def test_single_missing_basis(self):
        got = members(circuits(U24_MINUS_12))
        assert got == {frozenset({1, 2}), frozenset({1, 3, 4}),
                       frozenset({2, 3, 4})}

    def test_loop_is_size_one_circuit(self):
        m = matroid_of(3, [{1}, {2}])
        assert members(circuits(m)) == {frozenset({3}), frozenset({1, 2})}

    def test_uniform_circuit_sizes(self):
        # circuits of a uniform matroid of rank k < n all have size k+1
        for n in range(2, 7):
            for k in range(0, n):
                for c in circuits(uniform(k, n)):
                    assert c.bit_count() == k + 1


class TestHyperplanes:
    def test_uniform_rank2(self):
        got = members(hyperplanes(uniform(2, 4)))
        assert got == {frozenset({i}) for i in range(1, 5)}

    def test_single_missing_basis(self):
        got = members(hyperplanes(U24_MINUS_12))
        assert got == {frozenset({1, 2}), frozenset({3}), frozenset({4})}

    def test_uniform_rank1(self):
        assert members(hyperplanes(uniform(1, 3))) == {frozenset()}

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            hyperplanes(uniform(0, 3))


class TestDual:
    """Hand examples pinning the frozenset duality oracle."""

    def test_uniform_self_dual(self):
        assert brute_dual(4, U24) == U24

    def test_complement_bases(self):
        expected = family({1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4})
        assert brute_dual(4, U24_MINUS_12_SETS) == expected  # all but {3,4}

    def test_uniform_rank_shift(self):
        assert brute_dual(3, sets_of(uniform(1, 3))) == \
            sets_of(uniform(2, 3))


class TestCircuitHyperplanes:
    def test_uniform_has_none(self):
        assert circuit_hyperplanes(uniform(2, 4)) == frozenset()

    def test_single_missing_basis(self):
        got = members(circuit_hyperplanes(U24_MINUS_12))
        assert got == {frozenset({1, 2})}

    def test_two_missing_bases(self):
        m = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}])
        got = members(circuit_hyperplanes(m))
        assert got == {frozenset({1, 2}), frozenset({3, 4})}


class TestRelax:
    def test_single_step_reaches_uniform(self):
        assert relax(U24_MINUS_12, {1, 2}) == uniform(2, 4)

    def test_relax_one_of_two(self):
        m = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}])
        expected = matroid_of(4, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}])
        assert relax(m, {1, 2}) == expected

    def test_rejects_non_circuit_hyperplane(self):
        with pytest.raises(ValueError):
            relax(uniform(2, 4), {1, 2})
        with pytest.raises(ValueError):
            relax(U24_MINUS_12, {1, 3})

    def test_ladder_reaches_uniform_in_any_order(self):
        m = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}])
        chs = sorted(map(members_of, circuit_hyperplanes(m)))
        for order in itertools.permutations(chs):
            cur = m
            for c in order:
                cur = relax(cur, c)
                assert _exchange_masks(cur.bases)
            assert cur == uniform(2, 4)


class TestPaving:
    """Hand examples pinning the frozenset paving oracle."""

    def test_uniform(self):
        assert brute_paving(4, 2, U24)
        assert brute_paving(3, 0, sets_of(uniform(0, 3)))

    def test_single_missing_basis(self):
        assert brute_paving(4, 2, U24_MINUS_12_SETS)

    def test_loop_breaks_paving(self):
        # {4} is a circuit of size 1 < 2
        assert not brute_paving(4, 2, family({1, 2}, {1, 3}, {2, 3}))


class TestSparsePaving:
    def test_uniform(self):
        assert checked_sparse_paving(uniform(2, 4))
        assert checked_sparse_paving(uniform(0, 3))
        assert checked_sparse_paving(uniform(3, 3))

    def test_two_missing_bases_far_apart(self):
        m = matroid_of(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}])
        assert checked_sparse_paving(m)

    def test_loop_matroid_is_not(self):
        m = matroid_of(4, [{1, 2}, {1, 3}, {2, 3}])
        assert not checked_sparse_paving(m)

    def test_matches_checked_helper(self):
        for fam in all_basis_families(4, 2):
            m = matroid_of(4, fam)
            assert is_sparse_paving(m) == checked_sparse_paving(m)


class TestViolatingPair:
    """The one scan behind is_sparse_paving and the check-sp witness line,
    against a frozenset scan, on every positroid of the listed types."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(4, 7)
                                     for k in range(2, n - 1)] + [(7, 3)])
    def test_every_positroid(self, n, k):
        for neck in reference_necklaces(k, n):
            m = necklace_to_positroid(neck)
            expected = brute_violating_pair(
                n, k, [members_of(b) for b in m.bases])
            assert _violating_pair(m) == expected, neck


def assert_dual_identities(m):
    """Duality is an involution that keeps the exchange axiom, and m is
    sparse paving exactly when m and its dual are both paving."""
    fam = sets_of(m)
    co = brute_dual(m.n, fam)
    assert brute_dual(m.n, co) == fam
    assert exchange_ok(co, m.n)
    assert checked_sparse_paving(m) == \
        (brute_paving(m.n, m.k, fam) and brute_paving(m.n, m.n - m.k, co))


class TestAgainstBruteForce:
    """The mask implementations agree with the set-based oracles on every
    matroid over small ground sets, and circuits and hyperplanes also on
    every positroid with n <= 6."""

    POOLS = [(4, 2), (5, 2), (4, 3)]

    @pytest.mark.parametrize("n,k", POOLS)
    def test_circuits_hyperplanes_rank(self, n, k):
        for fam in all_basis_families(n, k):
            m = matroid_of(n, fam)
            assert members(circuits(m)) == brute_circuits(n, fam)
            assert members(hyperplanes(m)) == brute_hyperplanes(n, k, fam)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_circuits_hyperplanes_every_positroid(self, n):
        for k in range(n + 1):
            for neck in reference_necklaces(k, n):
                m = necklace_to_positroid(neck)
                fam = [frozenset(members_of(b)) for b in m.bases]
                assert members(circuits(m)) == brute_circuits(n, fam), neck
                if k:
                    assert members(hyperplanes(m)) == \
                        brute_hyperplanes(n, k, fam), neck

    @pytest.mark.parametrize("n,k", POOLS)
    def test_dual_involution_and_paving_split(self, n, k):
        for fam in all_basis_families(n, k):
            assert_dual_identities(matroid_of(n, fam))


class TestPositroidPool:
    """Every positroid on [n] for n = 4..6 (read off every necklace of every
    rank) satisfies the duality and paving-split identities and the three
    sparse paving definitions agree on it."""

    def test_dual_and_paving_split(self):
        for n in range(4, 7):
            for k in range(0, n + 1):
                for neck in reference_necklaces(k, n):
                    assert_dual_identities(necklace_to_positroid(neck))


class TestThreeDefinitionsAgree:
    """Exhaustive scan over every subset family of k-subsets: whenever the
    exchange axiom holds, the three sparse paving tests coincide."""

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
    def test_power_set_scan(self, n, k):
        candidates = [mask for mask, _ in lex_subsets(n, k)]
        seen = 0
        for bits in range(1, 1 << len(candidates)):
            fam = frozenset(candidates[i] for i in range(len(candidates))
                            if bits >> i & 1)
            if not _exchange_masks(fam):
                continue
            seen += 1
            checked_sparse_paving(Matroid(n, k, fam))
        assert seen > 0
