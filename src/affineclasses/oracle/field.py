"""Small finite fields F_p and F_{p^2} with exhaustively checkable arithmetic.

Elements are integers 0..size-1.  For degree 2 the element a + b*t is encoded
as a + b*p, where t is a root of the modulus t^2 + c1*t + c0.  The modulus is
the first irreducible monic quadratic in a fixed scan order (c1 ascending,
then c0 ascending), so every run picks the same field presentation.
"""

from __future__ import annotations

from functools import lru_cache

from ..primes import is_prime, prime_power


class FiniteField:
    """Arithmetic in F_p (direct) or F_{p^2} (via the stored modulus)."""

    def __init__(self, p: int, degree: int = 1):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        if degree not in (1, 2):
            raise ValueError("only degrees 1 and 2 are supported")
        self.p = p
        self.degree = degree
        self.size = p ** degree
        self.modulus = None if degree == 1 else self._find_modulus()
        # x^(q-2) = x^-1 for x != 0
        self._inv = [0] + [self.pow_el(x, self.size - 2) for x in range(1, self.size)]
        self._conj = [self.pow_el(x, p) for x in range(self.size)] if degree == 2 else None

    def _find_modulus(self):
        p = self.p
        for c1 in range(p):
            for c0 in range(1, p):
                if all((x * x + c1 * x + c0) % p for x in range(p)):
                    return (c0, c1)
        raise AssertionError("no irreducible quadratic found")

    # element operations -----------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.degree == 1:
            return (x + y) % self.p
        p = self.p
        return (x % p + y % p) % p + ((x // p + y // p) % p) * p

    def neg(self, x: int) -> int:
        if self.degree == 1:
            return (-x) % self.p
        p = self.p
        return (-x % p) % p + ((-(x // p)) % p) * p

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        p = self.p
        if self.degree == 1:
            return (x * y) % p
        # (a1 + b1 t)(a2 + b2 t) with t^2 = -c1 t - c0
        c0, c1 = self.modulus
        b1, a1 = divmod(x, p)
        b2, a2 = divmod(y, p)
        hi = b1 * b2
        return (a1 * a2 - hi * c0) % p + ((a1 * b2 + a2 * b1 - hi * c1) % p) * p

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[x]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow_el(self, x: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            k >>= 1
        return out

    def conj(self, x: int) -> int:
        """x^p: the nontrivial field automorphism in degree 2, identity in
        degree 1."""
        return x if self.degree == 1 else self._conj[x]

    def embed(self, a: int) -> int:
        """Image of the prime-field element a."""
        return a % self.p

    @property
    def elements(self):
        return range(self.size)

    def nonsquare(self) -> int:
        """Least element that is not a square (odd size only)."""
        if self.size % 2 == 0:
            raise ValueError("every element is a square in characteristic 2")
        squares = {self.mul(x, x) for x in range(self.size)}
        for x in range(self.size):
            if x not in squares:
                return x
        raise AssertionError("no non-square in a field of odd order")

    def primitive(self) -> int:
        """Least generator of the multiplicative group."""
        target = self.size - 1
        for x in range(1, self.size):
            k, y = 1, x
            while y != 1:
                y = self.mul(y, x)
                k += 1
            if k == target:
                return x
        raise AssertionError("no primitive element")

    def __repr__(self):
        if self.degree == 1:
            return "FiniteField(p=%d)" % self.p
        c0, c1 = self.modulus
        return "FiniteField(p=%d, degree=2, t^2+%d*t+%d=0)" % (self.p, c1, c0)


@lru_cache(maxsize=None)
def finite_field(p: int, degree: int = 1) -> FiniteField:
    """Shared field instances."""
    return FiniteField(p, degree)


def field_for_order(q: int) -> FiniteField:
    """The field with q elements, for q a prime or the square of a prime."""
    p, k = prime_power(q)
    if k > 2:
        raise ValueError("q must be a prime or the square of a prime, got %r" % (q,))
    return finite_field(p, k)
