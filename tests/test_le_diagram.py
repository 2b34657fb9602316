import hashlib
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    LeDiagram,
    NonAdjacentSet,
    boundary_labels,
    build_network,
    cell_numbering,
    cyclic_interval,
    le_from_removals,
    le_to_decperm,
    mask_of,
    members_of,
    necklace_from_nonadjacent,
    necklace_to_decperm,
    necklace_to_positroid,
    nonadjacent_mask_ok,
    positroid_necklace,
    realizable_sets,
    render_le,
)

from oracles import (
    _le_ok,
    all_decorated_permutations,
    all_fillings,
    all_le_diagrams,
    bareiss_det,
    brute_det,
    checked_sparse_paving,
    count_path_systems,
    determined_rank,
    first_le_failure,
    flow_realizable_sets,
    matroid_of,
    maximal_minors,
    minor_bases,
    reference_matrix,
    reference_network_edges,
    uniform,
)
from test_trusted import assert_revalidates


def diagram(k, n, shape, rows):
    return LeDiagram.make(k, n, shape, rows)


def full_box(k, n):
    return diagram(k, n, [n - k] * k, [[1] * (n - k)] * k)


def subsets_of(n):
    for mask in range(1 << n):
        yield {i for i in range(1, n + 1) if mask >> (i - 1) & 1}


FIG_LEFT = le_from_removals({1, 3, 10}, 4, 10)
FIG_RIGHT = le_from_removals({2, 3, 9}, 4, 10)
FIG_WIDE = le_from_removals({6}, 4, 12)


class TestType:
    def test_rejects_increasing_shape(self):
        with pytest.raises(ValueError):
            diagram(2, 5, (1, 3), [[1], [1, 1, 1]])

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            diagram(2, 4, (3,), [[1, 1, 1]])

    def test_rejects_mismatched_filling(self):
        with pytest.raises(ValueError):
            diagram(2, 4, (2, 1), [[1, 1]])

    def test_rejects_non_binary_cell(self):
        with pytest.raises(ValueError):
            diagram(2, 4, [2, 2], [["no", 1], [1, 1]])

    def test_rejects_fractional_width(self):
        with pytest.raises(ValueError):
            diagram(2, 4, [2.9, 2], [[1, 1], [1, 1]])

    def test_removals_reject_fractional_label(self):
        with pytest.raises(ValueError):
            le_from_removals([1.5], 2, 5)

    def test_removals_reject_repeated_label(self):
        with pytest.raises(ValueError, match="repeated element 3"):
            le_from_removals([3, 3], 2, 5)

    def test_json_round_trip(self):
        d = diagram(2, 4, (2, 1), [[1, 0], [1]])
        assert LeDiagram.from_dict(d.to_dict()) == d
        assert d.to_dict() == {"k": 2, "n": 4, "shape": [2, 1],
                               "filling": [[1, 0], [1]]}


class TestLeCondition:
    def test_full_rectangle(self):
        assert_revalidates(full_box(3, 7))

    def test_violating_square(self):
        # bullets at (1,2) and (2,1) force one at (2,2)
        with pytest.raises(ValueError, match=r"cell \(2, 2\)"):
            diagram(2, 4, (2, 2), [[0, 1], [1, 0]])

    def test_removal_diagrams_are_le(self):
        assert_revalidates(FIG_LEFT)
        assert_revalidates(FIG_RIGHT)

    def test_every_removal_set_stays_le(self):
        for n in range(3, 8):
            for k in range(2, n):
                for subset in subsets_of(n):
                    assert_revalidates(le_from_removals(subset, k, n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_constructors_accept_exactly_the_le_fillings(self, n):
        """Every shape and 0/1 filling in every k x (n-k) box: LeDiagram,
        LeDiagram.make and LeDiagram.from_dict accept exactly the fillings
        that oracles._le_ok accepts, and otherwise name the first failing
        cell in row-major order."""
        accepted = rejected = 0
        for k in range(n + 1):
            for shape, filling in all_fillings(k, n):
                rows = tuple(tuple(map(bool, row)) for row in filling)
                payload = {"k": k, "n": n, "shape": shape,
                           "filling": filling}
                builds = (lambda: LeDiagram(k, n, tuple(shape), rows),
                          lambda: LeDiagram.make(k, n, shape, filling),
                          lambda: LeDiagram.from_dict(payload))
                bad = first_le_failure(filling)
                for build in builds:
                    if bad is None:
                        assert build().filling == rows
                    else:
                        with pytest.raises(ValueError) as exc:
                            build()
                        assert str(exc.value) == \
                            f"Le condition fails at cell {bad}"
                accepted += bad is None
                rejected += bad is not None
        # Le-diagrams of [n] are counted by sum over k of n!/k!.
        assert accepted == sum(factorial(n) // factorial(k)
                               for k in range(n + 1))
        assert rejected > 0 or n < 4


class TestBoundary:
    def test_full_rectangle(self):
        row_source, col_sink = boundary_labels(full_box(2, 4))
        assert sorted(row_source.values()) == [1, 2]
        assert sorted(col_sink.values()) == [3, 4]
        assert row_source == {1: 1, 2: 2}
        assert col_sink == {2: 3, 1: 4}

    def test_staircase(self):
        row_source, col_sink = boundary_labels(
            diagram(2, 4, (2, 1), [[1, 1], [1]]))
        assert sorted(row_source.values()) == [1, 3]
        assert sorted(col_sink.values()) == [2, 4]

    def test_trimmed_corner(self):
        # removing label 1 trims the corner cell, shifting the source labels
        for (k, n) in [(2, 4), (3, 6), (4, 10)]:
            row_source, _ = boundary_labels(le_from_removals({1}, k, n))
            assert set(row_source.values()) == set(range(1, k)) | {k + 1}


class TestNetwork:
    """The network's edges, as the oracles read them off the bullets."""

    def test_full_2x2(self):
        edges = reference_network_edges(full_box(2, 4))
        assert edges[("s", 1)] == (("b", 1, 2),)
        assert edges[("b", 1, 2)] == (("b", 1, 1), ("b", 2, 2))
        assert edges[("b", 2, 2)] == (("b", 2, 1), ("t", 3))
        assert edges[("b", 2, 1)] == (("t", 4),)
        assert edges[("b", 1, 1)] == (("b", 2, 1),)

    def test_staircase(self):
        edges = reference_network_edges(diagram(2, 4, (2, 1), [[1, 1], [1]]))
        assert edges[("s", 1)] == (("b", 1, 2),)
        assert edges[("b", 1, 2)] == (("b", 1, 1), ("t", 2))
        assert edges[("b", 1, 1)] == (("b", 2, 1),)
        assert edges[("s", 3)] == (("b", 2, 1),)
        assert edges[("b", 2, 1)] == (("t", 4),)

    def test_gap_is_skipped(self):
        # row 1 of the wide figure has no bullet in column 4, so the leftward
        # edge jumps from column 5 to column 3 and no row-1 vertex can reach
        # the column-4 sink directly
        edges = reference_network_edges(FIG_WIDE)
        assert edges[("b", 1, 5)] == (("b", 1, 3), ("b", 2, 5))
        assert ("b", 1, 4) not in edges

    def test_acyclic_and_directed_left_down(self):
        for d in (FIG_LEFT, FIG_RIGHT, FIG_WIDE, full_box(3, 7)):
            for v, outs in reference_network_edges(d).items():
                for w in outs:
                    if v[0] == "b" and w[0] == "b":
                        same_row = v[1] == w[1] and w[2] < v[2]
                        same_col = v[2] == w[2] and w[1] > v[1]
                        assert same_row or same_col

    def test_rejects_non_le(self):
        # A non-Le filling never reaches build_network: the constructor
        # refuses it.
        with pytest.raises(ValueError, match=r"Le condition fails at cell"):
            diagram(2, 4, (2, 2), [[0, 1], [1, 0]])


class TestRealizability:
    def test_full_rectangle_is_uniform(self):
        for n in range(2, 8):
            for k in range(0, n + 1):
                d = diagram(k, n, [n - k] * k if n > k else [],
                            [[1] * (n - k)] * (k if n > k else 0))
                assert realizable_sets(d) == uniform(k, n)

    def test_staircase_misses_sources_only_set(self):
        d = diagram(2, 4, (2, 1), [[1, 1], [1]])
        m = realizable_sets(d)
        got = {members_of(b) for b in m.bases}
        assert got == {(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}

    def test_wide_figure_interval_omission(self):
        bases = realizable_sets(FIG_WIDE).bases
        for i in range(1, 13):
            expected = i != 6
            assert (cyclic_interval(4, 12, i) in bases) == expected

    def test_skip_edge_admits_nested_routing(self):
        # {3,5,9,10} needs the row-1 jump over the missing bullet while a
        # second path occupies row 2 underneath
        bases = realizable_sets(FIG_WIDE).bases
        assert mask_of({3, 5, 9, 10}, 12) in bases


class TestMatrix:
    def test_full_2x2(self):
        assert build_network(full_box(2, 4)) == \
            ((1, 0, -1, -2), (0, 1, 1, 1))

    def test_staircase(self):
        assert build_network(diagram(2, 4, (2, 1), [[1, 1], [1]])) == \
            ((1, 1, 0, -1), (0, 0, 1, 1))

    def test_removal_diagram(self):
        # two sources sit between source 1 and the sinks 4..6, one between
        # source 2 and them, so only row 2's sink entries change sign
        assert build_network(le_from_removals({3}, 3, 6)) == (
            (1, 0, 0, 1, 2, 4), (0, 1, 0, -1, -2, -3), (0, 0, 1, 1, 1, 1))

    def test_det_sign_of_a_swap(self):
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([]) == 1

    @given(st.integers(0, 5).flatmap(lambda size: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]),
                 min_size=size, max_size=size),
        min_size=size, max_size=size)))
    @settings(max_examples=300, deadline=None)
    def test_det_matches_leibniz(self, a):
        # mostly zeros, so zero pivots and row swaps come up often
        assert bareiss_det([list(row) for row in a]) == brute_det(a)


def bases_as_sets(m):
    return frozenset(frozenset(members_of(b)) for b in m.bases)


def matrix_minors(d, det):
    """Each k-set's maximal minor of the diagram's boundary-measurement
    matrix, as a dict keyed by mask, computed by the given determinant."""
    minors = maximal_minors(build_network(d), d.n, d.k, det)
    return {mask_of(c, d.n): v for c, v in minors.items()}


def assert_matrix_certifies(d, det):
    """Every maximal minor is nonnegative, and the k-sets with a nonzero
    one are exactly the bases of realizable_sets and of the max-flow."""
    minors = matrix_minors(d, det)
    assert min(minors.values()) >= 0, d
    m = realizable_sets(d)
    assert frozenset(mask for mask, v in minors.items() if v) == m.bases, d
    assert bases_as_sets(m) == flow_realizable_sets(d)


@st.composite
def random_le_diagrams(draw, low, high):
    """A random shape and filling, closed up to a Le-diagram: scanning rows
    top to bottom and cells left to right, an empty cell with a bullet to
    its left and a bullet above becomes a bullet.  A new bullet only adds
    to cells still ahead of the scan, so one pass suffices."""
    n = draw(st.integers(low, high))
    k = draw(st.integers(0, n))
    widths = []
    if n > k:
        widths = draw(st.lists(st.integers(1, n - k), max_size=k))
    shape = sorted(widths, reverse=True)
    rows = [draw(st.lists(st.booleans(), min_size=w, max_size=w))
            for w in shape]
    for r, row in enumerate(rows):
        for c in range(len(row)):
            if any(row[:c]) and any(rows[q][c] for q in range(r)):
                row[c] = True
    return LeDiagram.make(k, n, shape, rows)


class TestAgainstFlow:
    """The library reads the realizable bases off the pipes:
    realizable_sets takes the decorated permutation from le_to_decperm,
    then the necklace and the Gale intersection of necklace_to_positroid.
    The unit-capacity max-flow in tests/oracles.py decides realizability
    independently on the boundary-measurement network.  They must give the
    same bases on every diagram.  The network's maximal minors are the
    certificate, checked below and in TestPipes: no minor is negative, and
    the bases are exactly the k-sets with a nonzero one."""

    @pytest.mark.parametrize("n,total", [(1, 2), (2, 5), (3, 16), (4, 65),
                                         (5, 326), (6, 1957),
                                         (7, 13700)])
    def test_every_diagram(self, n, total):
        # Le-diagrams of [n] are counted by the decorated permutations,
        # sum over k of n!/k!.
        assert total == sum(factorial(n) // factorial(k)
                            for k in range(n + 1))
        seen = 0
        for k in range(n + 1):
            for d in all_le_diagrams(k, n):
                assert_revalidates(d)
                assert bases_as_sets(realizable_sets(d)) == \
                    flow_realizable_sets(d)
                seen += 1
        assert seen == total

    @given(random_le_diagrams(7, 10))
    @settings(max_examples=150, deadline=None)
    def test_random_diagrams(self, d):
        assert bases_as_sets(realizable_sets(d)) == flow_realizable_sets(d)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_path_system_for_every_basis(self, n):
        # A maximal minor of the boundary-measurement matrix counts the
        # path systems of its k-set, so a basis is a positive minor; the
        # minors come from the Leibniz oracle, not Bareiss elimination.
        for k in range(n + 1):
            for d in all_le_diagrams(k, n):
                assert_matrix_certifies(d, brute_det)

    @given(random_le_diagrams(7, 10))
    @settings(max_examples=150, deadline=None)
    def test_random_matrices(self, d):
        assert_matrix_certifies(d, bareiss_det)


def minors_decperm(d):
    """The decorated permutation of the positroid that the nonzero Bareiss
    minors of build_network's matrix realize, through the library's
    necklace extraction."""
    bases = minor_bases(build_network(d), d.n, d.k)
    return necklace_to_decperm(positroid_necklace(matroid_of(d.n, bases)))


class TestPipes:
    """le_to_decperm reads the decorated permutation off Postnikov's pipes;
    the oracle reads it off the minors of the boundary-measurement matrix.
    Both run on every Le-diagram with n <= 7 and on random ones up to 12."""

    def test_full_box_is_the_shift(self):
        assert le_to_decperm(full_box(2, 4)).perm == (3, 4, 1, 2)
        assert le_to_decperm(full_box(3, 7)).perm == (4, 5, 6, 7, 1, 2, 3)

    def test_empty_shape_marks_every_label(self):
        # The columns' sinks are 1 and 2, the rows' sources 3 and 4.
        dp = le_to_decperm(diagram(2, 4, (), []))
        assert dp.perm == (1, 2, 3, 4)
        assert dp.colors == ((1, 1), (2, 1), (3, -1), (4, -1))

    def test_row_without_a_bullet_is_a_marked_fixed_point(self):
        # Row 1's pipe crosses both cells of its row and leaves at its own
        # source label 1, a coloop, though the row lies inside the shape.
        dp = le_to_decperm(diagram(2, 4, (2, 2), [[0, 0], [1, 1]]))
        assert dp.perm == (1, 3, 4, 2)
        assert dp.colors == ((1, -1),)

    def test_rejects_non_le(self):
        # A non-Le filling never reaches the pipes: the constructor refuses
        # it.
        with pytest.raises(ValueError, match=r"Le condition fails at cell"):
            diagram(2, 4, (2, 2), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_diagram(self, n):
        for k in range(n + 1):
            for d in all_le_diagrams(k, n):
                assert le_to_decperm(d) == minors_decperm(d), d

    @given(random_le_diagrams(8, 12))
    @settings(max_examples=150, deadline=None)
    def test_random_diagrams(self, d):
        assert le_to_decperm(d) == minors_decperm(d), d

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bijection_onto_each_rank(self, n):
        """At each k the Le-diagrams in the k x (n-k) box map one to one
        onto the decorated permutations of [n] of rank k."""
        by_rank = {}
        for dp in all_decorated_permutations(n):
            by_rank.setdefault(determined_rank(dp), set()).add(dp)
        for k in range(n + 1):
            images = [le_to_decperm(d) for d in all_le_diagrams(k, n)]
            assert len(set(images)) == len(images)
            assert set(images) == by_rank[k]


class TestSweepAgainstReference:
    """build_network sums the path counts in one sweep; the oracles rebuild
    the edges from a row and column index and count the paths by recursion
    over them."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_diagram(self, n):
        for k in range(n + 1):
            for d in all_le_diagrams(k, n):
                assert build_network(d) == reference_matrix(d), d

    @given(random_le_diagrams(7, 10))
    @settings(max_examples=150, deadline=None)
    def test_random_diagrams(self, d):
        assert build_network(d) == reference_matrix(d), d


class TestPathSystemAgreement:
    """On small diagrams each maximal minor of the matrix equals the number
    of vertex-disjoint path systems found by backtracking in the oracle."""

    def test_cross_check_small_diagrams(self):
        cases = [full_box(2, 4), full_box(2, 5), full_box(3, 6),
                 diagram(2, 4, (2, 1), [[1, 1], [1]]),
                 le_from_removals({2, 4}, 2, 5),
                 le_from_removals({1, 3}, 3, 6),
                 le_from_removals({3, 6}, 2, 6)]
        for d in cases:
            assert_matrix_certifies(d, brute_det)
            sources, sinks = (mask_of(labels.values(), d.n)
                              for labels in boundary_labels(d))
            edges = reference_network_edges(d)
            for mask, minor in matrix_minors(d, brute_det).items():
                assert minor == count_path_systems(
                    edges, members_of(sources & ~mask),
                    set(members_of(mask & sinks))), (d, mask)


class TestCellNumbering:
    def test_four_by_ten(self):
        cells = cell_numbering(4, 10)
        assert cells[1] == (4, 6)
        assert cells[2] == (1, 6)
        assert cells[3] == (1, 5)
        assert cells[7] == (1, 1)
        assert cells[8] == (2, 1)
        assert cells[10] == (4, 1)
        assert len(cells) == 10

    def test_two_by_four(self):
        assert cell_numbering(2, 4) == {1: (2, 2), 2: (1, 2), 3: (1, 1),
                                        4: (2, 1)}

    def test_rejects_bad_rank(self):
        # On every call: a refusal is never cached.
        for _ in range(3):
            with pytest.raises(ValueError):
                cell_numbering(1, 5)
            with pytest.raises(ValueError):
                cell_numbering(5, 5)

    def test_three_by_seven(self):
        assert cell_numbering(3, 7) == {1: (3, 4), 2: (1, 4), 3: (1, 3),
                                        4: (1, 2), 5: (1, 1), 6: (2, 1),
                                        7: (3, 1)}


class TestRemovalDiagrams:
    def test_figure_left(self):
        assert FIG_LEFT.shape == (6, 6, 6, 5)
        assert FIG_LEFT.filling == (
            (True, True, True, True, False, True),
            (True, True, True, True, True, True),
            (True, True, True, True, True, True),
            (False, True, True, True, True),
        )

    def test_figure_right(self):
        assert FIG_RIGHT.shape == (6, 6, 6, 6)
        assert FIG_RIGHT.filling == (
            (True, True, True, True, False, False),
            (True, True, True, True, True, True),
            (False, True, True, True, True, True),
            (True, True, True, True, True, True),
        )

    def test_empty_removal_is_full_box(self):
        assert le_from_removals((), 3, 7) == full_box(3, 7)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            le_from_removals({0}, 2, 4)
        with pytest.raises(ValueError):
            le_from_removals({5}, 2, 4)


@pytest.mark.parametrize("build", [
    lambda a: le_from_removals(a, 2, 8),
    lambda a: necklace_from_nonadjacent(a, 2, 8),
], ids=["le_from_removals", "necklace_from_nonadjacent"])
def test_rejects_a_set_on_another_ground_set(build):
    # {5} is a valid set on [5] and its one label fits in [8] too, so only
    # the ground-set check stands between it and an n = 8 answer
    with pytest.raises(ValueError, match=r"lives on \[5\], expected \[8\]"):
        build(NonAdjacentSet.of(5, {5}))


class TestIntervalLemma:
    def test_interval_bases_track_removals(self):
        # for every removal set, interval i stays a basis exactly when i is
        # not removed
        for n in range(4, 9):
            for k in range(2, n - 1):
                for subset in subsets_of(n):
                    diag = le_from_removals(subset, k, n)
                    bases = realizable_sets(diag).bases
                    for i in range(1, n + 1):
                        got = cyclic_interval(k, n, i) in bases
                        assert got == (i not in subset)


class TestSparsePavingTheorem:
    def test_nonadjacent_removals_exactly(self):
        for n in range(4, 8):
            for k in range(2, n - 1):
                for subset in subsets_of(n):
                    m = realizable_sets(le_from_removals(subset, k, n))
                    mask = sum(1 << (i - 1) for i in subset)
                    assert checked_sparse_paving(m) == \
                        nonadjacent_mask_ok(mask, n)

    def test_matches_necklace_construction(self):
        for n in range(4, 8):
            for k in range(2, n - 1):
                for mask in range(1 << n):
                    if not nonadjacent_mask_ok(mask, n):
                        continue
                    members = {i for i in range(1, n + 1)
                               if mask >> (i - 1) & 1}
                    left = realizable_sets(le_from_removals(members, k, n))
                    right = necklace_to_positroid(
                        necklace_from_nonadjacent(members, k, n))
                    assert left == right


class TestMonotonicity:
    def test_removing_bullets_only_shrinks(self):
        # drop one extra bullet from a removal diagram wherever the result is
        # still a Le-diagram and check the bases only shrink
        for (subset, k, n) in [((), 2, 5), ({2}, 2, 5), ({1, 3}, 3, 6)]:
            base = le_from_removals(subset, k, n)
            base_bases = realizable_sets(base).bases
            for r in range(1, len(base.shape) + 1):
                for c in range(1, base.shape[r - 1] + 1):
                    if not base.filling[r - 1][c - 1]:
                        continue
                    rows = [list(row) for row in base.filling]
                    rows[r - 1][c - 1] = False
                    try:
                        trimmed = LeDiagram.make(k, n, base.shape, rows)
                    except ValueError:
                        assert not _le_ok(rows)
                        continue
                    assert _le_ok(rows)
                    assert realizable_sets(trimmed).bases <= base_bases


class TestRender:
    def test_full_2x2(self):
        assert render_le(full_box(2, 4)) == "* * 1\n* * 2\n4 3\n"

    def test_wide_figure_gap(self):
        text = render_le(FIG_WIDE)
        lines = text.splitlines()
        assert lines[0].split() == ["*", "*", "*", ".", "*", "*", "*", "*", "1"]
        assert lines[4].split() == ["12", "11", "10", "9", "8", "7", "6", "5"]

    def test_figure_left_layout(self):
        text = render_le(FIG_LEFT)
        lines = text.splitlines()
        assert lines[0].split() == ["*", "*", "*", "*", ".", "*", "1"]
        assert lines[3].split() == [".", "*", "*", "*", "*", "5"]
        assert lines[4].split() == ["10", "9", "8", "7", "6", "4"]

    def test_fewer_rows_than_k(self):
        # Row 3 lies outside the shape: it prints its source label alone.
        d = diagram(3, 10, (4, 2), [[0, 1, 0, 1], [1, 1]])
        assert render_le(d) == \
            ".  *  .  *  4\n*  *  7\n10\n9  8  6  5  3  2  1\n"

    def test_no_columns_has_no_sink_line(self):
        assert render_le(diagram(3, 3, (), [])) == "1\n2\n3\n"

    def test_every_small_diagram(self):
        # Every Le-diagram with n <= 6, 2371 of them, in the oracle's order.
        digest = hashlib.sha256()
        seen = 0
        for n in range(1, 7):
            for k in range(n + 1):
                for d in all_le_diagrams(k, n):
                    digest.update(render_le(d).encode())
                    seen += 1
        assert seen == 2371
        assert digest.hexdigest() == ("8d6d1d4dd5720381107ca5d05d80a144"
                                      "9266b0c793d644060e041b14f9ec2950")
