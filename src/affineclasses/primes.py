"""Integer arithmetic: the one check of a field size (prime powers), shared
by the closed-form routes and the brute-force oracle's choice of field, and
the divisors and Moebius function the counting formulas sum over, both read
off one factorisation."""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd

#: the first 13 primes: trial divisors, then strong probable-prime bases
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: the least strong pseudoprime to every base in _BASES (Sorenson and
#: Webster, Math. Comp. 86 (2017)); below it the test is exact
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Trial division by _BASES, then the strong probable-prime test
    (Miller-Rabin) to each of them.  "Composite" is always exact and
    "prime" below MR_LIMIT; a p at or above it that passes every base
    raises ValueError, as nothing here proves it prime."""
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    for a in _BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= MR_LIMIT:
        raise ValueError("cannot decide whether %d is prime: the primality "
                         "test is exact only below %d" % (p, MR_LIMIT))
    return True


def _iroot(q: int, k: int) -> int:
    """floor(q^(1/k)) for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=64, typed=True)
def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k for a prime p and k >= 1; ValueError otherwise.
    A prime p <= 41 dividing q must be its only prime factor.  Otherwise
    every prime factor exceeds 2^5, so k < bit_length(q) / 5, and q must be
    the k-th power of a prime (is_prime) for one such k.  Cached, so each
    route and series call reuses one test of q."""
    if q >= 2:
        p = next((a for a in _BASES if q % a == 0), None)
        if p is not None:
            k, r = 0, q
            while r % p == 0:
                r //= p
                k += 1
            if r == 1:
                return p, k
        else:
            for k in range((q.bit_length() - 1) // 5, 0, -1):
                p = _iroot(q, k)
                if p ** k == q and is_prime(p):
                    return p, k
    raise ValueError("q must be a prime power, got %d" % q)


def _rho(m: int) -> int:
    """A proper divisor of a composite m with no prime factor in _BASES:
    Pollard rho with Brent's cycle search, one gcd per batch of 128 steps
    (R. P. Brent, "An improved Monte Carlo factorization algorithm", BIT 20,
    1980).  A batch that overshoots to gcd m is walked again one step at a
    time, and a walk that closes on m itself is retried with the next c."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            for k in range(0, r, 128):
                ys, prod = y, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    prod = prod * (x - y) % m
                g = gcd(prod, m)
                if g != 1:
                    break
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g


def _factor(m: int) -> dict:
    """{p: k} with m = prod p^k for m >= 1: trial division by _BASES, then
    _rho on the cofactors until is_prime accepts each part."""
    out = {}
    for p in _BASES:
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
    rest = [m] if m > 1 else []
    while rest:
        r = rest.pop()
        if is_prime(r):
            out[r] = out.get(r, 0) + 1
        else:
            d = _rho(r)
            rest += [d, r // d]
    return out


def divisors(m: int) -> list:
    """The positive divisors of m >= 1, ascending: every product of prime
    powers p^i, i <= k, over the factorisation m = prod p^k."""
    out = [1]
    for p, k in _factor(m).items():
        out = [d * p ** i for d in out for i in range(k + 1)]
    return sorted(out)


def moebius(e: int) -> int:
    """The Moebius function: 0 unless e is squarefree, else (-1)^(number of
    prime factors)."""
    if e < 1:
        raise ValueError("e must be >= 1")
    exponents = _factor(e).values()
    return 0 if any(k > 1 for k in exponents) else (-1) ** len(exponents)
