"""Construction and certification of cycle-free extremal planar graphs."""

from .embedding import (
    EmbeddedGraph,
    GraphStructureError,
    delete_edge,
    identify_vertices,
    is_triangulation,
    triangle,
)
from .construction import (
    BlockPlan,
    CompletionEdgeSet,
    DomainError,
    ExtremalConstruction,
    MoonMoserGraph,
    ResourceError,
    block_plan,
    build_construction,
    choose_level,
    complete_to_triangulation,
    completion_edges,
    moon_moser,
    moon_moser_order,
    truncated_moon_moser,
    verify_completion,
)
from .certify import (
    BlockData,
    CertificateError,
    CycleCertificate,
    FreenessReport,
    PathCertificate,
    SearchBudget,
    SearchOutcome,
    certify_ck_free_brute,
    certify_ck_free_structural,
    certify_graph,
    circumference,
    has_cycle_of_length,
    longest_cycle,
    longest_path_between,
)
from .bounds import (
    BoundsRow,
    ChainReport,
    bounds_csv,
    bounds_table,
    conj1_value,
    conj2_form,
    exact_edge_count,
    lan_song_slope,
    thm2_lower,
    verify_inequality_chain,
)
from .codec import (
    ParseError,
    decode_graph6,
    decode_planar,
    encode_graph6,
    encode_planar,
    export_dot,
)

__version__ = "0.1.0"
