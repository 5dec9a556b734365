"""Exact conjugacy class counts for affine classical groups over finite fields.

Three independent routes: closed-form generating functions, recursions from
the character theory of semidirect products, and brute-force enumeration of
the groups themselves.  All arithmetic is exact.
"""

from .series import (
    DEFAULT_ORDER,
    FactorFamily,
    Q,
    QPoly,
    QPOLY,
    RATIONAL,
    TruncatedSeries,
    apply_product,
    evaluate_q,
    geometric,
    pow_factor,
)
from .classcount import (
    AFFINE_FAMILIES,
    CountSequence,
    FamilyKey,
    affine_recursive,
    affine_series,
    ao_split,
    classical_series,
    k_ah,
    orbit_built_series,
)
from .bounds import (
    BOUND_SPECS,
    CONSTANT_IDS,
    certify_all,
    certify_constant,
    check_ah_theorem,
    check_all_bounds,
    check_bound,
)

__version__ = "0.1.0"
