"""Sparse paving positroid toolkit.

A matroid kernel over explicit basis families, the three classic positroid
representations (Grassmann necklaces, decorated permutations, Le-diagrams),
conversions between them, sparse paving classifiers with witnesses, and the
Lucas-number census of sparse paving positroids.

`import positroids` loads no submodule: each public name is read from its
defining module when it is first asked for (PEP 562), so a process that
uses part of the package compiles only that part.
"""

import sys as _sys

# Each public name, by the module that defines it.
_PUBLIC = {
    "records": (
        "GrassmannNecklace",
        "NonAdjacentSet",
        "cyclic_interval",
        "lex_subsets",
        "mask_of",
        "members_of",
        "necklace_from_nonadjacent",
        "nonadjacent_mask_ok",
    ),
    "matroid": (
        "Matroid",
        "circuit_hyperplanes",
        "circuits",
        "hyperplanes",
        "is_sparse_paving",
        "relax",
    ),
    "necklace": (
        "all_necklaces",
        "is_positroid",
        "necklace_to_positroid",
        "positroid_necklace",
        "sparse_paving_witness",
    ),
    "decorated": (
        "DecoratedPermutation",
        "decperm_to_necklace",
        "necklace_to_decperm",
    ),
    "le_diagram": (
        "LeDiagram",
        "boundary_labels",
        "build_network",
        "cell_numbering",
        "le_from_removals",
        "le_to_decperm",
        "realizable_sets",
        "render_le",
    ),
    "enumeration": (
        "SparsePavingPositroid",
        "enumerate_sparse_paving",
        "nonadjacent_subsets",
    ),
    "counting": (
        "count_nonadjacent",
        "count_sparse_paving",
        "lucas",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Read from the defining module on every access and never cached here,
    # so a rebinding in that module (a profiler's, a test's) shows through.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    module = f"{__name__}.{_HOME[name]}"
    __import__(module)
    return getattr(_sys.modules[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
