"""The record base against the dataclass(frozen=True) it replaced.

Each record class gets a frozen dataclass twin built here with the same
name and fields, and the two must agree on fields, repr, equality and
hashing over sample instances.
"""

import copy
import dataclasses
import itertools
import pickle

import pytest

from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    LeDiagram,
    Matroid,
    NonAdjacentSet,
    SparsePavingPositroid,
    enumerate_sparse_paving,
)

from oracles import reference_necklaces

CENSUS = list(enumerate_sparse_paving(2, 5))
NECKLACES = list(reference_necklaces(2, 4))[:3]

# case id: (class, fields, sample args). The "MaskSet" case keeps the plain
# mask samples of the former MaskSet base class, whose slots, range check and
# record behaviour NonAdjacentSet now carries.
SPECS = {
    "MaskSet": (NonAdjacentSet, ["n", "mask"],
                [(5, 5), (5, 5), (5, 0), (6, 5)]),
    "NonAdjacentSet": (NonAdjacentSet, ["n", "mask"],
                       [(5, 5), (5, 10), (5, 5)]),
    "Matroid": (Matroid, ["n", "k", "bases"], [
        (3, 1, frozenset({1, 2, 4})), (3, 1, frozenset({1, 2, 4})),
        (3, 1, frozenset({1, 2})), (3, 2, frozenset({3, 5, 6}))]),
    "GrassmannNecklace": (GrassmannNecklace, ["n", "k", "entries"],
                          [(neck.n, neck.k, neck.entries)
                           for neck in NECKLACES + NECKLACES[:1]]),
    "DecoratedPermutation": (DecoratedPermutation, ["n", "perm", "colors"], [
        (3, (2, 3, 1), ()), (3, (3, 1, 2), ()),
        (3, (2, 1, 3), ((3, 1),)), (3, (2, 1, 3), ((3, -1),))]),
    "LeDiagram": (LeDiagram, ["k", "n", "shape", "filling"], [
        (2, 4, (2, 1), ((True, True), (True,))),
        (2, 4, (2, 1), ((True, True), (True,))),
        (2, 4, (2, 1), ((True, False), (True,))), (2, 4, (), ())]),
    "SparsePavingPositroid": (
        SparsePavingPositroid, ["k", "n", "nonadjacent"],
        [(e.k, e.n, e.nonadjacent) for e in CENSUS[:3] + CENSUS[:1]]),
}


def twin(cls, names):
    return dataclasses.make_dataclass(cls.__name__, names, frozen=True)


@pytest.mark.parametrize("cls,names,samples", list(SPECS.values()),
                         ids=list(SPECS))
class TestAgainstFrozenDataclass:
    def test_fields_and_defaults(self, cls, names, samples):
        assert cls._fields == tuple(names)
        made = twin(cls, names)
        for args in samples:
            rec, ref = cls(*args), made(*args)
            assert [getattr(rec, f) for f in names] == \
                [getattr(ref, f) for f in names]

    def test_repr(self, cls, names, samples):
        made = twin(cls, names)
        for args in samples:
            assert repr(cls(*args)) == repr(made(*args))

    def test_equality_and_hash(self, cls, names, samples):
        made = twin(cls, names)
        for a, b in itertools.product(samples, repeat=2):
            equal = cls(*a) == cls(*b)
            assert equal == (made(*a) == made(*b))
            assert (cls(*a) != cls(*b)) == (not equal)
            if equal:
                assert hash(cls(*a)) == hash(cls(*b))
        # Same hash values as the dataclass, so sets of records keep the
        # iteration order they had.
        for args in samples:
            assert hash(cls(*args)) == hash(made(*args))

    def test_wrong_arity(self, cls, names, samples):
        rec = cls(*samples[0])
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*[getattr(rec, f) for f in cls._fields], None)

    def test_frozen(self, cls, names, samples):
        rec = cls(*samples[0])
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert rec == cls(*samples[0])

    def test_trusted_matches_init(self, cls, names, samples):
        for args in samples:
            rec = cls._trusted(*args)
            assert type(rec) is cls and rec == cls(*args)
            assert repr(rec) == repr(cls(*args))
            assert hash(rec) == hash(cls(*args))
        with pytest.raises(TypeError):
            cls._trusted()

    def test_copy_and_pickle(self, cls, names, samples):
        rec = cls(*samples[0])
        for other in (copy.copy(rec), copy.deepcopy(rec),
                      pickle.loads(pickle.dumps(rec))):
            assert type(other) is cls and other == rec


def test_records_never_equal_their_field_tuples():
    assert NonAdjacentSet(5, 5) != (5, 5)
    assert Matroid(3, 1, frozenset({1})) != (3, 1, frozenset({1}))


@pytest.mark.parametrize("cls,args,message", [
    (NonAdjacentSet, (4, 0b11), "cyclically adjacent"),
    (NonAdjacentSet, (0, 0), "ground size"),
    (NonAdjacentSet, (3, 8), "outside the ground set"),
    (Matroid, (3, 1, frozenset()), "empty"),
    (Matroid, (3, 1, frozenset({3})), "differs from the rank"),
    (DecoratedPermutation, (3, (2, 1, 3), ()), "fixed points"),
    (LeDiagram, (2, 4, (1, 2), ((True,), (True, True))), "decreasing"),
    (SparsePavingPositroid, (1, 5, NonAdjacentSet(5, 0)),
     "classification needs 2 <= k <= n-2"),
    (SparsePavingPositroid, (4, 5, NonAdjacentSet(5, 0)),
     "classification needs 2 <= k <= n-2"),
    (SparsePavingPositroid, (2, 5, NonAdjacentSet(6, 0)),
     "non-adjacent set on \\[5\\]"),
    (SparsePavingPositroid, (2, 5, 0), "non-adjacent set on \\[5\\]"),
])
def test_post_init_still_validates(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)


@pytest.mark.parametrize("cls,args,message", [
    (NonAdjacentSet, (4, 0b11), "cyclically adjacent"),
    (Matroid, (3, 1, frozenset()), "empty"),
    (GrassmannNecklace, (3, 1, (1, 1, 2)), "axiom"),
])
def test_trusted_skips_post_init(cls, args, message):
    # The trusted constructor sets the fields as given, even ones that the
    # validating constructor rejects, so only builders that are valid by
    # construction may call it.
    with pytest.raises(ValueError, match=message):
        cls(*args)
    rec = cls._trusted(*args)
    assert type(rec) is cls and rec._values() == args
