"""Integer arithmetic: the one check of a field size (prime powers), shared
by the closed-form routes and the brute-force oracle's choice of field, and
the divisors and Moebius function the counting formulas sum over."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def _least_factor(q: int) -> int:
    return next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)


def is_prime(p: int) -> bool:
    return p >= 2 and _least_factor(p) == p


@lru_cache(maxsize=64, typed=True)
def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k for a prime p and k >= 1; ValueError otherwise.
    Cached, so each route and series call reuses one trial division of q."""
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


def divisors(m: int) -> list:
    """The positive divisors of m >= 1, ascending: each d <= sqrt(m) paired
    with m // d."""
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def moebius(e: int) -> int:
    """The Moebius function: 0 unless e is squarefree, else (-1)^(number of
    prime factors)."""
    if e < 1:
        raise ValueError("e must be >= 1")
    out = 1
    while e > 1:
        p = _least_factor(e)
        e //= p
        if e % p == 0:
            return 0
        out = -out
    return out
