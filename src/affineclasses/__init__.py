"""Exact conjugacy class counts for affine classical groups over finite fields.

Three independent routes: closed-form generating functions, recursions from
the character theory of semidirect products, and brute-force enumeration of
the groups themselves.  All arithmetic is exact.
"""

__version__ = "0.1.0"
