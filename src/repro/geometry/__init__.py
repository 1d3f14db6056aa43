"""Geometric substrate for relaxed Byzantine vector consensus.

Everything the paper's definitions and proofs consume: L_p norms, affine
hulls robust to degeneracy, point-to-hull distances, coordinate projections,
the relaxed hulls ``H_k`` and ``H_{(δ,p)}``, the hull-intersection operators
``Γ`` / ``Ψ``, the certified ``δ*(S)`` min-max solver, simplex in-sphere
geometry (Lemmas 11–15), and Radon/Tverberg partitions (§8).
"""

from .cache import (
    cache_disabled,
    cache_enabled,
    cached_kernel,
    clear_cache,
    set_cache_enabled,
)
from .distance import (
    HullProjection,
    distance_linf,
    distance_to_hull,
    in_hull,
    nearest_point_l2,
)
from .hull import affine_basis
from .intersections import (
    f_subsets,
    gamma,
    gamma_delta_p,
    gamma_delta_p_point,
    gamma_point,
    intersect_hulls,
    intersection_point,
    psi_k,
    psi_k_point,
)
from .minimax import DeltaStarResult, delta_star, max_subset_distance
from .norms import (
    lp_norm,
    max_edge_length,
    min_edge_length,
    pairwise_lp_distances,
    validate_p,
)
from .polytope import (
    Polytope,
    convex_polygon_clip,
    gamma_polytope,
    intersect_hulls_polytope,
    polygon_vertices,
)
from .projection import Cylinder, enumerate_coordinate_subsets, project, project_multiset
from .relaxed import DeltaPHull, KRelaxedHull
from .simplex import (
    facet_inradius,
    facet_points,
    incenter,
    incenter_and_inradius,
    inradius,
    is_affinely_independent,
    simplex_b_vectors,
    vertex_facet_distances,
)
from .simplex_proj import project_to_simplex
from .tolerance import DELTA_ATOL, close, exactly_zero, near_zero, norm_order_is
from .tverberg import (
    RadonPartition,
    TverbergPartition,
    has_tverberg_partition,
    iter_set_partitions,
    partition_intersection_nonempty,
    radon_partition,
    tverberg_partition,
    tverberg_point,
)

__all__ = [
    "Cylinder",
    "DELTA_ATOL",
    "DeltaPHull",
    "DeltaStarResult",
    "HullProjection",
    "KRelaxedHull",
    "Polytope",
    "RadonPartition",
    "TverbergPartition",
    "affine_basis",
    "cache_disabled",
    "cache_enabled",
    "cached_kernel",
    "clear_cache",
    "close",
    "set_cache_enabled",
    "delta_star",
    "distance_linf",
    "distance_to_hull",
    "enumerate_coordinate_subsets",
    "exactly_zero",
    "f_subsets",
    "facet_inradius",
    "facet_points",
    "gamma",
    "gamma_delta_p",
    "convex_polygon_clip",
    "gamma_delta_p_point",
    "gamma_point",
    "gamma_polytope",
    "has_tverberg_partition",
    "intersect_hulls_polytope",
    "polygon_vertices",
    "in_hull",
    "incenter",
    "incenter_and_inradius",
    "inradius",
    "intersect_hulls",
    "intersection_point",
    "is_affinely_independent",
    "iter_set_partitions",
    "lp_norm",
    "max_edge_length",
    "max_subset_distance",
    "min_edge_length",
    "near_zero",
    "nearest_point_l2",
    "norm_order_is",
    "pairwise_lp_distances",
    "partition_intersection_nonempty",
    "project",
    "project_multiset",
    "project_to_simplex",
    "psi_k",
    "psi_k_point",
    "radon_partition",
    "simplex_b_vectors",
    "tverberg_partition",
    "tverberg_point",
    "validate_p",
    "vertex_facet_distances",
]
