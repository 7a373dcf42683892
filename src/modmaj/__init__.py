"""Exact counts of standard Young tableaux by major index residue mod n.

The package computes the vector (a_0, ..., a_{n-1}) counting standard
tableaux of a shape by major index residue through three independent
routes (brute enumeration, the q-hook generating polynomial, and a
character formula over Ramanujan sums), evaluates symmetric group
characters at rectangular cycle types both by the rim-hook recursion and
by a hook-length quotient with an abacus sign, and ships the exhaustive
verification sweeps and inequality suites built on top.  All arithmetic
is exact.
"""

from .numtheory import (
    divisors,
    moebius,
    ramanujan_matrix,
    ramanujan_matrix_square,
    ramanujan_sum,
    ramanujan_sum_oracle,
    ramanujan_table,
    totient,
    totient_table,
)
from .partitions import (
    DiagOrder,
    Partition,
    RibbonStep,
    capped_excess,
    cells,
    conjugate,
    diag_compare,
    diagonal_excess,
    diagonal_fibers,
    dimension,
    ell_core,
    hook_lengths,
    is_ribbon,
    opposite_hook_lengths,
    partitions_of,
    removable_ribbons,
    staircase_peak,
)
from .tableaux import (
    EnumerationBudgetExceeded,
    ModularClassVector,
    StandardTableau,
    amod_by_enumeration,
    descent_set,
    enumerate_syt,
    maj,
    transpose,
)
from .qpoly import (
    ExactDivisionError,
    IntPolynomial,
    amod_by_qhook,
    maj_generating_polynomial,
    min_major_index,
)
from .characters import (
    mn_character,
    rect_character,
    rect_characters,
    rect_character_sign,
)
from .modular import (
    ClassificationReport,
    ClassWeightTable,
    ExceptionRecord,
    amod_by_character_formula,
    binomial_lower_bound_check,
    dist_check,
    equidistribution_check,
    expected_zero,
    fl_bound_check,
    fl_log_bound,
    induced_multiplicity,
    n_cubed_criterion,
    phi_d_check,
    predicted_exceptions,
    small_dimension_census,
    verify_main_theorem,
    zero_residues,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ClassWeightTable",
    "DiagOrder",
    "EnumerationBudgetExceeded",
    "ExactDivisionError",
    "ExceptionRecord",
    "IntPolynomial",
    "ModularClassVector",
    "Partition",
    "RibbonStep",
    "StandardTableau",
    "amod_by_character_formula",
    "amod_by_enumeration",
    "amod_by_qhook",
    "binomial_lower_bound_check",
    "capped_excess",
    "cells",
    "conjugate",
    "descent_set",
    "diag_compare",
    "diagonal_excess",
    "diagonal_fibers",
    "dimension",
    "dist_check",
    "divisors",
    "ell_core",
    "enumerate_syt",
    "equidistribution_check",
    "expected_zero",
    "fl_bound_check",
    "fl_log_bound",
    "hook_lengths",
    "induced_multiplicity",
    "is_ribbon",
    "maj",
    "maj_generating_polynomial",
    "min_major_index",
    "mn_character",
    "moebius",
    "n_cubed_criterion",
    "opposite_hook_lengths",
    "partitions_of",
    "phi_d_check",
    "predicted_exceptions",
    "ramanujan_matrix",
    "ramanujan_matrix_square",
    "ramanujan_sum",
    "ramanujan_sum_oracle",
    "ramanujan_table",
    "rect_character",
    "rect_characters",
    "rect_character_sign",
    "removable_ribbons",
    "small_dimension_census",
    "staircase_peak",
    "totient",
    "totient_table",
    "transpose",
    "verify_main_theorem",
    "zero_residues",
]
