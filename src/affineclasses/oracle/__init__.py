"""Brute-force oracle: explicit groups, conjugation orbits, class counts.

Everything here recomputes class data from group elements alone, so it
cross-checks the generating-function and recursion routes independently.
"""

from .engine import (AffineGroup, ClassDecomposition, FormulaReport,
                     VERIFICATION_GRID, affine_order, build_affine,
                     count_classes, formula_check_o, gl_direct_class_sum,
                     orbit_sum_check, unipotent_partition)
from .field import FiniteField, field_for_order, finite_field, is_prime
from .groups import (CapExceeded, DEFAULT_CAP, FormData,
                     GROUP_FAMILIES, MatrixGroup, build_group, expected_order,
                     mat_det, mat_identity, mat_mul, mat_rank,
                     preserves_form)
from .kernels import BACKEND, COMPILED

__all__ = [
    "AffineGroup", "BACKEND", "COMPILED", "CapExceeded", "ClassDecomposition",
    "DEFAULT_CAP", "FiniteField", "FormData", "FormulaReport",
    "GROUP_FAMILIES", "MatrixGroup", "VERIFICATION_GRID",
    "affine_order", "build_affine", "build_group",
    "count_classes", "expected_order", "field_for_order", "finite_field",
    "formula_check_o", "gl_direct_class_sum", "is_prime", "mat_det",
    "mat_identity", "mat_mul", "mat_rank", "orbit_sum_check",
    "preserves_form", "unipotent_partition",
]
