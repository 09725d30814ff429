"""gemcalc: invariants of edge-colored graphs encoding PL pseudomanifolds.

The package computes residues, regular genera, the Gurau degree and its
reduced form, Hamiltonian cycle decompositions of complete graphs, and the
five-color crystallization machinery, and ships an enumeration harness that
checks the divisibility and Euler-characteristic identities over exhaustive
and seeded random corpora.
"""

from .core import (
    ColoredGraph,
    GemError,
    InvariantViolation,
    euler_characteristic_complex,
    is_bipartite,
    is_connected,
    parse_gem,
    residue_count,
    residue_table,
    residue_vector,
    serialize_gem,
    simplex_counts,
)
from .cycle_decomp import (
    DecompositionClass,
    PermPartition,
    partition_even,
    partition_odd,
    validate_class,
    validate_partition,
    walecki_decomposition,
)
from .dim4 import (
    ClassificationResult,
    CrystallizationProfile,
    SurfaceType,
    associated_pairs,
    associated_permutation,
    classify_crystallization,
    crystallization_profile,
    is_closed_3_manifold,
    is_singular_4_manifold,
    residue_degree_identity,
    surface_type,
)
from .embeddings import (
    HalfInt,
    g_degree_definition,
    genus_twices,
    reduced_g_degree,
    regular_genus,
)
from .generator import (
    GenSpec,
    SplitMix64,
    dipole,
    enumerate_gems,
    random_gem,
    search_odd_reduced,
    search_rp2,
)
from .perms import CyclicPerm, canonical_perm, cyclic_permutations

__version__ = "0.1.0"
