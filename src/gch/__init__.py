"""Exact-arithmetic engine for graph complexes and moduli-of-graphs cells."""

from .graph import HalfEdgeGraph
from .ribbon import RibbonStructure, faces, surface_invariants
from .linalg import SparseMatrix, multiply, rank
from .generate import EnumSpec, InfeasibleEnumeration, enumerate_graphs
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
