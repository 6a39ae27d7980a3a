"""Spectral parameters of finite triangle families.

Everything is driven by the two signed incidence matrices of a family:
vertex-edge and edge-triangle.  The headline quantity is the smallest
positive eigenvalue of the triangle up-Laplacian: exact integer ranks
decide the kernel (no thresholding) and LAPACK ``eigvalsh`` supplies the
eigenvalues.
"""

__version__ = "0.1.0"

from .constructions import (
    GcbSpec,
    complete_family,
    eigvec_bc,
    eigvec_c,
    eigvec_matrix,
    eigvec_residual,
    frobenius_decompose,
    frobenius_threshold,
    gcb_closed_form_spectrum,
    gcb_family,
    gcb_lambda,
    parse_construction,
    phi_lower_bound_family,
)
from .extremal import (
    check_counting,
    check_overlap,
    check_rigidity,
    enumerate_connected_families,
    forbidden_interval,
    guarded_ceil,
    lambda_staircase,
    lambda_staircase_many,
    near_integer,
    phi_exact,
    phi_table,
    vertex_window_check,
)
from .families import (
    EmptyFamilyError,
    FamilyParseError,
    TriangleFamily,
    disjoint_union,
    family_to_text,
    load_family,
    parse_family,
    random_families,
    relabel,
    support_graph,
    vertex_triangle_counts,
)
from .incidence import (
    LAPLACIAN_KINDS,
    build_delta0,
    build_delta1,
    build_laplacian,
    delta1_rank,
    exact_rank,
    harmonic_dimension,
    read_matrix_market,
    write_matrix_market,
)
from .spectra import (
    SpectralError,
    eigenvalues_symmetric,
    lambda_of,
    spectral_report,
    verify_min_gap,
)

__all__ = [
    "EmptyFamilyError",
    "FamilyParseError",
    "GcbSpec",
    "LAPLACIAN_KINDS",
    "SpectralError",
    "TriangleFamily",
    "build_delta0",
    "build_delta1",
    "build_laplacian",
    "check_counting",
    "check_overlap",
    "check_rigidity",
    "complete_family",
    "delta1_rank",
    "disjoint_union",
    "eigenvalues_symmetric",
    "eigvec_bc",
    "eigvec_c",
    "eigvec_matrix",
    "eigvec_residual",
    "enumerate_connected_families",
    "exact_rank",
    "family_to_text",
    "forbidden_interval",
    "frobenius_decompose",
    "frobenius_threshold",
    "gcb_closed_form_spectrum",
    "gcb_family",
    "gcb_lambda",
    "guarded_ceil",
    "harmonic_dimension",
    "lambda_of",
    "lambda_staircase",
    "lambda_staircase_many",
    "load_family",
    "near_integer",
    "parse_construction",
    "parse_family",
    "phi_exact",
    "phi_lower_bound_family",
    "phi_table",
    "random_families",
    "read_matrix_market",
    "relabel",
    "spectral_report",
    "support_graph",
    "vertex_triangle_counts",
    "verify_min_gap",
    "vertex_window_check",
    "write_matrix_market",
]
