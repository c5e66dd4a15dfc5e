"""Exact-arithmetic toolkit for immanants of tree q-Laplacians and the
lattice-path combinatorics behind the two-row inequality chain."""

from .characters import (
    AlphaTable,
    alpha,
    alpha_table,
    last_table,
    mn_character,
    partitions,
    two_row_char,
)
from .immanants import (
    InequalityVerdict,
    check_alpha_ratios,
    check_general_sr,
    check_hook_chain,
    check_two_row_chain,
    extract_a_coeffs,
    immanant_bruteforce,
    immanant_tree,
)
from .paths import (
    LatticePath,
    TwoRowSYT,
    count_restricted,
    enumerate_paths,
    peak_profile,
    probability_monotonicity,
    sequence_identities,
)
from .ratpoly import RatPoly
from .trees import (
    PolyMatrix,
    Tree,
    matching_weights,
    pruefer_decode,
    pruefer_encode,
    q_laplacian,
)

__all__ = [
    "AlphaTable",
    "InequalityVerdict",
    "LatticePath",
    "PolyMatrix",
    "RatPoly",
    "Tree",
    "TwoRowSYT",
    "alpha",
    "alpha_table",
    "check_alpha_ratios",
    "check_general_sr",
    "check_hook_chain",
    "check_two_row_chain",
    "count_restricted",
    "enumerate_paths",
    "extract_a_coeffs",
    "immanant_bruteforce",
    "immanant_tree",
    "last_table",
    "matching_weights",
    "mn_character",
    "partitions",
    "peak_profile",
    "probability_monotonicity",
    "pruefer_decode",
    "pruefer_encode",
    "q_laplacian",
    "sequence_identities",
    "two_row_char",
]
