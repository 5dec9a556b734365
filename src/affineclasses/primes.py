"""Prime powers: the one check of a field size, shared by the closed-form
routes and the brute-force oracle's choice of field."""

from __future__ import annotations

from math import isqrt


def _least_factor(q: int) -> int:
    return next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)


def is_prime(p: int) -> bool:
    return p >= 2 and _least_factor(p) == p


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k for a prime p and k >= 1; ValueError otherwise."""
    if q < 2:
        raise ValueError("q must be a prime power, got %d" % q)
    p = _least_factor(q)
    k, r = 0, q
    while r % p == 0:
        r //= p
        k += 1
    if r != 1:
        raise ValueError("q must be a prime power, got %d" % q)
    return p, k
