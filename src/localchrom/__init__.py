"""Exact-arithmetic toolkit for the chromatic profile of locally bipartite graphs."""

from .graphs import (
    Graph,
    WeightedGraph,
    blow_up,
    blow_up_classes,
    common_neighbourhood,
    complement,
    cycle_power,
    find_twins,
    merge_twins,
    min_weighted_degree,
    relabel,
    weighted_degree,
)
from .structure import (
    OddWheelWitness,
    PairClass,
    classify_pair,
    dense_set,
    is_edge_maximal_locally_bipartite,
    is_locally_bipartite,
    is_twin_free,
    odd_wheel,
    saturate,
)
from .homomorphism import (
    canonical_form,
    find_homomorphism,
    find_subgraph,
    is_homomorphism,
    is_isomorphic,
)
from .colouring import chromatic_number, independence_number, k_colourable
from .weighting import WeightingResult, optimal_weighting, verify_weighting
from .search import SearchResult, check_membership, enumerate_extremal
from .decompose import (
    DecompositionCertificate,
    decompose_c7bar,
    decompose_h2plus,
    verify_profile,
)
from . import families
from .properties import verify_hom_forces_induced

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
