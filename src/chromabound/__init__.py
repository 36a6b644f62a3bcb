"""Spectral lower bounds on the chromatic number via majorization of
Hadamard-weighted adjacency spectra, with sign-reversal-map certificates
and an exact coloring oracle for validation."""

from .bounds import (
    BoundConfig,
    BoundReport,
    barnes_bound,
    barnes_weight,
    chromatic_lower_bound,
    hoffman_bound,
    ones_weight,
    optimize_weight,
    tau_bound,
    wilf_upper_bound,
)
from .exact import ColoringResult, exact_chi, greedy_dsatur
from .graphs import (
    Coloring,
    Graph,
    adjacency_matrix,
    default_corpus,
    emit_dimacs,
    generate,
    is_proper,
    parse_dimacs,
)
from .linalg import eigh, spectrum
from .majorization import MajorizationReport, majorizes, minimal_tau, sort_descending
from .reversal import (
    SignReversalMap,
    apply_reversal,
    cost_lower_bound,
    group_sign_reversal,
    reversal_cost,
    reversal_from_coloring,
    schur_average,
    verify_reversal,
    weyl_heisenberg_family,
)

__version__ = "0.1.0"

__all__ = [
    "BoundConfig",
    "BoundReport",
    "Coloring",
    "ColoringResult",
    "Graph",
    "MajorizationReport",
    "SignReversalMap",
    "adjacency_matrix",
    "apply_reversal",
    "barnes_bound",
    "barnes_weight",
    "chromatic_lower_bound",
    "cost_lower_bound",
    "default_corpus",
    "eigh",
    "emit_dimacs",
    "exact_chi",
    "generate",
    "greedy_dsatur",
    "group_sign_reversal",
    "hoffman_bound",
    "is_proper",
    "majorizes",
    "minimal_tau",
    "ones_weight",
    "optimize_weight",
    "parse_dimacs",
    "reversal_cost",
    "reversal_from_coloring",
    "schur_average",
    "sort_descending",
    "spectrum",
    "tau_bound",
    "verify_reversal",
    "weyl_heisenberg_family",
    "wilf_upper_bound",
]
