"""The library builders that skip record validation, against the validating
constructor.

necklace_from_nonadjacent, decperm_to_necklace, necklace_to_positroid,
necklace_to_decperm, sparse_paving_witness, le_from_removals,
le_to_decperm, nonadjacent_subsets and enumerate_sparse_paving build their
records with Record._trusted, which sets the fields without running
__post_init__.  Whatever they build must pass the validating constructor
unchanged, type(x)(*x._values()) == x: exhaustively at small n, and on
hypothesis draws up to n = 12.  The entry tuples that all_necklaces
yields must pass the validating GrassmannNecklace constructor too, and on
the drawn runs its necklace-level verdict must be sparse_paving_witness's.
"""

import ast
import itertools
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    GrassmannNecklace,
    all_necklaces,
    count_sparse_paving,
    decperm_to_necklace,
    enumerate_sparse_paving,
    le_from_removals,
    le_to_decperm,
    members_of,
    necklace_to_decperm,
    necklace_to_positroid,
    nonadjacent_subsets,
    sparse_paving_witness,
)
from positroids.necklace import SchubertKernel

from oracles import (
    all_decorated_permutations,
    all_le_diagrams,
    determined_rank,
    reference_all_necklaces,
    reference_le_from_removals,
    reference_necklaces,
)
from test_necklace import decperm_necklaces

SOURCES = Path(__file__).resolve().parent.parent / "src" / "positroids"

# The module-level functions that may call Record._trusted: each builds
# records that are valid by construction from input that is already valid.
TRUSTED_BUILDERS = {
    ("decorated.py", "decperm_to_necklace"),
    ("decorated.py", "necklace_to_decperm"),
    ("enumeration.py", "enumerate_sparse_paving"),
    ("enumeration.py", "nonadjacent_subsets"),
    ("le_diagram.py", "le_from_removals"),
    ("le_diagram.py", "le_to_decperm"),
    ("necklace.py", "necklace_from_nonadjacent"),
    ("necklace.py", "necklace_to_positroid"),
    ("necklace.py", "sparse_paving_witness"),
}


def assert_revalidates(rec):
    assert type(rec)(*rec._values()) == rec


def test_only_the_listed_builders_trust():
    """No payload loader, public constructor, method or CLI command builds a
    record without validating it: outside Record, which defines _trusted,
    only the listed functions name it."""
    named = set()
    for path in SOURCES.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if any(isinstance(sub, ast.Attribute) and sub.attr == "_trusted"
                   for sub in ast.walk(node)):
                named.add((path.name, getattr(node, "name", None)))
    assert named == TRUSTED_BUILDERS | {("matroid.py", "Record")}


@lru_cache(maxsize=None)
def kernel(k, n):
    return SchubertKernel(k, n)


def walk_entries(k, n):
    return (entries for entries, _, _ in all_necklaces(kernel(k, n)))


class TestAllNecklaces:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_necklace_revalidates(self, n):
        for k in range(n + 1):
            for entries in walk_entries(k, n):
                GrassmannNecklace(n, k, entries)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_sequence_as_recursive_walk(self, n):
        for k in range(n + 1):
            assert list(walk_entries(k, n)) == \
                list(reference_all_necklaces(k, n)), k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n),
                            st.integers(0, 3000))))
    def test_drawn_runs_revalidate(self, args):
        n, k, start = args
        for entries, _, by_necklace in itertools.islice(
                all_necklaces(kernel(k, n)), start, start + 40):
            neck = GrassmannNecklace(n, k, entries)
            assert by_necklace == (2 <= k <= n - 2 and
                                   sparse_paving_witness(neck) is not None)


class TestDecpermToNecklace:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_decorated_permutation(self, n):
        for dp in all_decorated_permutations(n):
            assert_revalidates(decperm_to_necklace(dp, determined_rank(dp)))

    @settings(max_examples=60, deadline=None)
    @given(decperm_necklaces(8, 12))
    def test_drawn(self, neck):
        assert_revalidates(neck)


class TestNecklaceToDecperm:
    """Serves the census and the user payloads of convert --to decperm."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_necklace(self, n):
        for k in range(n + 1):
            for neck in reference_necklaces(k, n):
                dp = necklace_to_decperm(neck)
                assert_revalidates(dp)
                assert decperm_to_necklace(dp, k) == neck

    @settings(max_examples=60, deadline=None)
    @given(decperm_necklaces(8, 12))
    def test_drawn(self, neck):
        dp = necklace_to_decperm(neck)
        assert_revalidates(dp)
        assert decperm_to_necklace(dp, neck.k) == neck


@pytest.mark.parametrize("n", range(3, 9))
def test_every_removal_diagram(n):
    """le_from_removals on every subset of [n] at every rank it numbers,
    k = n - 1 included, where removing label 1 empties the last row."""
    for k in range(2, n):
        for mask in range(1 << n):
            labels = members_of(mask)
            diag = le_from_removals(labels, k, n)
            assert_revalidates(diag)
            assert diag == reference_le_from_removals(labels, k, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_le_diagram_pipes(n):
    """le_to_decperm on every Le-diagram of [n]: the validating constructor
    takes its permutation and its marks unchanged."""
    for k in range(n + 1):
        for diag in all_le_diagrams(k, n):
            assert_revalidates(le_to_decperm(diag))


@pytest.mark.parametrize("n", range(4, 8))
def test_every_witness(n):
    """sparse_paving_witness on every necklace of every type it classifies,
    2 <= k <= n-2; the sparse paving ones number count_sparse_paving."""
    for k in range(2, n - 1):
        found = 0
        for neck in reference_necklaces(k, n):
            witness = sparse_paving_witness(neck)
            if witness is not None:
                assert_revalidates(witness)
                found += 1
        assert found == count_sparse_paving(k, n)


@pytest.mark.parametrize("n", range(1, 17))
def test_every_nonadjacent_subset(n):
    for a in nonadjacent_subsets(n):
        assert_revalidates(a)


class TestNecklaceToPositroid:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_necklace(self, n):
        for k in range(n + 1):
            for neck in reference_necklaces(k, n):
                assert_revalidates(necklace_to_positroid(neck))

    @settings(max_examples=40, deadline=None)
    @given(decperm_necklaces(7, 12))
    def test_drawn(self, neck):
        assert_revalidates(necklace_to_positroid(neck))


@pytest.mark.parametrize("n", range(4, 13))
def test_every_census_entry(n):
    """The census entries at every middle rank and their record views: the
    witness from nonadjacent_subsets, the necklace from
    necklace_from_nonadjacent, the decorated permutation from the adjacent
    swaps and the Le-diagram from le_from_removals."""
    for k in range(2, n - 1):
        for entry in enumerate_sparse_paving(k, n):
            for view in (entry, entry.nonadjacent, entry.necklace,
                         entry.perm, entry.diagram):
                assert_revalidates(view)
