"""Exact toolkit for shellability, partitionability and sequential
Cohen-Macaulayness of small simplicial complexes, with obstruction search."""

from .complexes import (
    CanonicalForm,
    CapacityError,
    FacetAbsorbedWarning,
    InvalidFaceError,
    PurityError,
    SimplicialComplex,
    all_faces,
    face,
    face_vertices,
    format_complex,
    from_facets,
    parse_complex,
)
from .homology import (
    BoundaryMatrix,
    HomologyGroup,
    boundary_matrix,
    reduced_homology,
    smith_normal_form,
)
from .shelling import (
    ShellingCertificate,
    ShellingDecision,
    is_shellable,
    verify_shelling,
)
from .partition import (
    PartitionCertificate,
    PartitionDecision,
    band_complex,
    is_partitionable,
    verify_partition,
)
from .cohen_macaulay import CMReport, CMWitness, is_cohen_macaulay, is_sequentially_cm
from .properties import PropertyKind, satisfies
from .obstruction import (
    ObstructionReport,
    is_hereditary,
    obstruction_report,
)
from .graphs import (
    Graph,
    cycle_graph,
    graph_from_edges,
    independence_complex,
    independence_cycle_report,
    maximal_independent_sets,
)
from .enumeration import (
    DEFAULT_MAX_VERTICES,
    MAX_OBSTRUCTION_VERTICES,
    dim2_shellability_obstructions,
    edge_minimal,
    enumerate_obstructions,
    generic_obstructions,
    triangle_cores,
    verify_coincidence,
    verify_edge_addition_closure,
)
from .catalog import (
    CATALOG_SCHEMA,
    CatalogEntry,
    build_entries,
    catalog_document,
    catalog_json,
    core_type,
    obstruction_atlas_entries,
    write_atlas,
)

__version__ = "0.1.0"
