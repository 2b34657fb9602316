"""Sparse paving positroid toolkit.

A matroid kernel over explicit basis families, the three classic positroid
representations (Grassmann necklaces, decorated permutations, Le-diagrams),
conversions between them, sparse paving classifiers with witnesses, and the
Lucas-number census of sparse paving positroids.
"""

from .matroid import (
    Matroid,
    NonAdjacentSet,
    circuit_hyperplanes,
    circuits,
    hyperplanes,
    is_sparse_paving,
    lex_subsets,
    mask_of,
    members_of,
    nonadjacent_mask_ok,
    relax,
)
from .necklace import (
    GrassmannNecklace,
    all_necklaces,
    cyclic_interval,
    is_positroid,
    necklace_from_nonadjacent,
    necklace_to_positroid,
    positroid_necklace,
    sparse_paving_witness,
)
from .decorated import (
    DecoratedPermutation,
    decperm_to_necklace,
    necklace_to_decperm,
)
from .le_diagram import (
    LeDiagram,
    boundary_labels,
    build_network,
    cell_numbering,
    le_from_removals,
    le_to_decperm,
    realizable_sets,
    render_le,
)
from .enumeration import (
    SparsePavingPositroid,
    count_nonadjacent,
    count_sparse_paving,
    enumerate_sparse_paving,
    lucas,
    nonadjacent_subsets,
)

import types as _types

__all__ = [name for name in dir()
           if not name.startswith("_")
           and not isinstance(globals()[name], _types.ModuleType)]
