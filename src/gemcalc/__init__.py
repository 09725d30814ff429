"""gemcalc: invariants of edge-colored graphs encoding PL pseudomanifolds.

The package computes residues, regular genera, the Gurau degree and its
reduced form, Hamiltonian cycle decompositions of complete graphs, and the
five-color crystallization machinery, and ships an enumeration harness that
checks the divisibility and Euler-characteristic identities over exhaustive
and seeded random corpora.

The public names below are resolved on first use (PEP 562), so importing
the package loads no module; each name loads only the module it comes
from, and a command loads only what it runs.
"""

from importlib import import_module as _import_module

# the public names of the package, by the module that defines them
_EXPORTS = {
    "core": (
        "ColoredGraph",
        "GemError",
        "InvariantViolation",
        "euler_characteristic_complex",
        "is_bipartite",
        "is_connected",
        "parse_gem",
        "residue_count",
        "residue_table",
        "residue_vector",
        "serialize_gem",
        "simplex_counts",
    ),
    "cycle_decomp": (
        "DecompositionClass",
        "PermPartition",
        "partition_even",
        "partition_odd",
        "validate_class",
        "validate_partition",
        "walecki_decomposition",
    ),
    "dim4": (
        "ClassificationResult",
        "CrystallizationProfile",
        "associated_pairs",
        "associated_permutation",
        "classify_crystallization",
        "crystallization_profile",
        "is_closed_3_manifold",
        "is_singular_4_manifold",
        "residue_degree_identity",
    ),
    "embeddings": (
        "HalfInt",
        "SurfaceType",
        "g_degree_definition",
        "genus_twices",
        "reduced_g_degree",
        "regular_genus",
        "surface_type",
    ),
    "generator": (
        "GenSpec",
        "SplitMix64",
        "dipole",
        "enumerate_gems",
        "random_gem",
        "search_odd_reduced",
        "search_rp2",
    ),
    "perms": ("CyclicPerm", "canonical_perm", "cyclic_permutations"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORIGIN.keys())
