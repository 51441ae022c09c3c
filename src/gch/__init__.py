"""Exact-arithmetic engine for graph complexes and moduli-of-graphs cells."""

from .graph import (
    HalfEdgeGraph,
    Morphism,
    StructuralReport,
    DisconnectedGraphError,
    contract_edge,
    genus,
    is_stable,
    loop_number,
    structural_predicates,
)
from .canonical import AutGroup, automorphism_group
from .context import CanonicalForm, canonical_form
from .orientation import (
    Orientation,
    cycle_basis,
    h1_determinant_sign,
    morphism_sign,
    reference_orientation,
)
from .ribbon import RibbonStructure, contract_ribbon, faces, surface_invariants
from .linalg import SparseMatrix, homology_dims, multiply, rank
from .generate import (
    EnumSpec,
    InfeasibleEnumeration,
    enumerate_graphs,
    enumerate_ribbon_structures,
)
from .complexes import (
    ChainComplex,
    ComplexSpec,
    HomologyReport,
    build_complex,
    degree_report,
    generator_vanishes,
    homology,
    split_by_surface,
)
from .moduli import (
    CellPoset,
    CubeCatalog,
    build_cell_poset,
    build_spine,
    f_vector,
)
from .io import (
    DocumentError,
    document_to_graph,
    graph_to_document,
    matrix_to_text,
    text_to_matrix,
)

__version__ = "0.1.0"
