"""Brute-force oracle: explicit groups, conjugation orbits, class counts.

Everything here recomputes class data from group elements alone, so it
cross-checks the generating-function and recursion routes independently.
"""

from .engine import (AffineGroup, FORMULA_FAMILIES, VERIFICATION_GRID,
                     affine_order, build_affine, check_affine, count_classes,
                     formula_check_o, orbit_sum_check)
from .groups import build_group

__all__ = [
    "AffineGroup", "FORMULA_FAMILIES", "VERIFICATION_GRID", "affine_order",
    "build_affine", "build_group", "check_affine", "count_classes",
    "formula_check_o", "orbit_sum_check",
]
