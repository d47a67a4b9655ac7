"""Path complexes for graph distinguishability.

Lift simple graphs to path, clique-simplicial, or ring-cell complexes; run
WL-style color refinement over any of them; push random-weight message
passing through the same incidence structure; and benchmark failure rates on
strongly-regular-graph families.
"""

from .chains import (
    SignedChain,
    chain_boundary,
    is_allowed,
    is_boundary_invariant,
    signed_boundary,
)
from .complexes import (
    CapacityError,
    CyclicFamily,
    DEFAULT_MEMBER_CAP,
    HigherOrderComplex,
    Member,
    SerializationError,
    canonical_path,
    canonical_ring,
    cyclic_families,
    deserialize_complex,
    lift_clique_complex,
    lift_complex,
    lift_path_complex,
    lift_ring_complex,
    serialize_complex,
)
from .graphs import (
    GraphParseError,
    SimpleGraph,
    VertexPermutation,
    apply_permutation,
    complement_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_graph,
    random_permutation,
    read_graph6_file,
)
from .network import (
    FeatureState,
    NetworkParams,
    embedding_distance,
    forward,
    init_features,
)
from .refine import (
    ColorHistogram,
    PowerOrderReport,
    distinguishes,
    power_order_check,
    refine_pair,
    refinement_trace,
    stable_fingerprint,
    wl1_refine_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ColorHistogram",
    "CyclicFamily",
    "DEFAULT_MEMBER_CAP",
    "FeatureState",
    "GraphParseError",
    "HigherOrderComplex",
    "Member",
    "NetworkParams",
    "PowerOrderReport",
    "SerializationError",
    "SignedChain",
    "SimpleGraph",
    "VertexPermutation",
    "apply_permutation",
    "canonical_path",
    "canonical_ring",
    "chain_boundary",
    "complement_graph",
    "complete_graph",
    "cycle_graph",
    "cyclic_families",
    "deserialize_complex",
    "disjoint_union",
    "distinguishes",
    "embedding_distance",
    "encode_graph6",
    "forward",
    "init_features",
    "is_allowed",
    "is_boundary_invariant",
    "lift_clique_complex",
    "lift_complex",
    "lift_path_complex",
    "lift_ring_complex",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "power_order_check",
    "random_graph",
    "random_permutation",
    "read_graph6_file",
    "refine_pair",
    "refinement_trace",
    "serialize_complex",
    "signed_boundary",
    "stable_fingerprint",
    "wl1_refine_pair",
]
