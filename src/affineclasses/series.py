"""Exact truncated formal power series in one variable u.

Two coefficient rings: rationals, held as ints or Fractions, and QPoly,
polynomials in a formal prime power q held as integer numerators over one
common denominator.  So both rings compute on ints where they can: a rational
coefficient stays an int unless a Fraction goes into it.  Everything is
exact: both rings, QPoly itself and evaluate_q refuse a float (TypeError),
never convert it.
Series keep a fixed truncation order and all binary operations truncate to
the smaller order of the two operands.

The formula layer writes every generating function in one vocabulary:
FactorFamily products, applied by apply_product, and weights
sum c u^k / (1 - u^j), applied by apply_weight, both in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

RATIONAL = "rational"
QPOLY = "q-polynomial"

DEFAULT_ORDER = 40


class QPoly:
    """Polynomial in q over the rationals: integer numerators ``n``, lowest
    degree first, over one positive integer denominator ``d``.

    The pair is kept canonical: ``n`` has no trailing zeros, gcd(d, *n) = 1,
    and the zero polynomial is ``((), 1)``.  So equal polynomials have equal
    fields, and a polynomial with integer coefficients has d = 1.  The
    constructor takes ints and Fractions.
    """

    __slots__ = ("n", "d")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        c = [exact(x) for x in coeffs]
        d = lcm(*(x.denominator for x in c))
        p = _reduced([x.numerator * (d // x.denominator) for x in c], d)
        self.n, self.d = p.n, p.d

    @property
    def degree(self):
        return len(self.n) - 1

    def is_constant(self):
        return len(self.n) <= 1

    def constant(self) -> Fraction:
        # constant term; for is_constant() polynomials this is the whole value
        return Fraction(self.n[0] if self.n else 0, self.d)

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.n == other.n and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant())
        return hash((self.n, self.d))

    def __add__(self, other):
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, d = self.n, other.n, self.d
        if d != other.d:
            g = gcd(d, other.d)
            a = [x * (other.d // g) for x in a]
            b = [x * (d // g) for x in b]
            d = d // g * other.d
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _reduced(out, d)

    __radd__ = __add__

    def __neg__(self):
        return _reduced([-x for x in self.n], self.d)

    def __sub__(self, other):
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _as_qpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.n, other.n
        if not a or not b:
            return QPoly()
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        return _reduced(out, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # division by a nonzero scalar only
        if isinstance(other, QPoly):
            if not other.is_constant():
                raise ZeroDivisionError("QPoly division only by constants")
            other = other.constant()
        s = exact(other)
        if not s:
            raise ZeroDivisionError("QPoly division by zero")
        num, den = s.numerator, s.denominator
        if num < 0:
            num, den = -num, -den
        return _reduced([x * den for x in self.n], self.d * num)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("QPoly power wants a non-negative integer")
        out = QPoly(1)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, q0):
        """Evaluate at a concrete value q0, exactly."""
        q0 = exact(q0)
        if q0.denominator == 1:
            q0 = q0.numerator
        acc = 0
        for x in reversed(self.n):
            acc = acc * q0 + x
        return Fraction(acc) / self.d

    def __str__(self):
        n, d = self.n, self.d
        if not n:
            return "0"
        parts = []
        for deg in range(len(n) - 1, -1, -1):
            x = n[deg]
            if not x:
                continue
            neg = x < 0
            x = -x if neg else x
            g = gcd(x, d)
            body = _coef_str(x // g, d // g)
            if deg:
                var = "q" if deg == 1 else "q^%d" % deg
                body = var if x == d else body + var
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "QPoly(%s)" % (self,)


def exact(x) -> Fraction:
    """x as a Fraction, for an int or a Fraction; anything else (a float)
    raises TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError("exact arithmetic takes ints and Fractions, not %r" % (x,))
    return Fraction(x)


def _reduced(n: list, d: int) -> QPoly:
    """The QPoly n/d in canonical form, for int numerators n and an int d > 0."""
    while n and not n[-1]:
        n.pop()
    if not n:
        d = 1
    elif d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = [x // g for x in n]
            d //= g
    p = object.__new__(QPoly)
    p.n = tuple(n)
    p.d = d
    return p


def _coef_str(num: int, den: int) -> str:
    if den == 1:
        return str(num)
    return "(%d/%d)" % (num, den)


def _as_qpoly(x):
    if isinstance(x, QPoly):
        return x
    if type(x) is int:
        return _reduced([x], 1)
    if isinstance(x, (int, Fraction)):
        return QPoly(x)
    return NotImplemented


#: the indeterminate q
Q = QPoly((0, 1))


def evaluate_q(p, q0) -> Fraction:
    """Substitute a concrete prime power q0 into a QPoly (or pass a scalar through)."""
    if isinstance(p, QPoly):
        return p(q0)
    exact(q0)  # refused here too when it is a float
    return exact(p)


def _coerce(ring, x):
    if ring == RATIONAL:
        # ints and Fractions pass unchanged; a float is refused, never converted
        if isinstance(x, (int, Fraction)):
            return x
        if isinstance(x, QPoly) and x.is_constant():
            return x.constant()
        raise TypeError("a rational series holds ints and Fractions, not %r" % (x,))
    if ring == QPOLY:
        p = _as_qpoly(x)
        if p is NotImplemented:
            raise TypeError("a q-polynomial series holds ints, Fractions and "
                            "QPolys, not %r" % (x,))
        return p
    raise ValueError("unknown ring %r" % (ring,))


def _ring_inv(ring, x):
    if ring == RATIONAL:
        if not x:
            raise ZeroDivisionError("constant term is not a unit")
        return x if x in (1, -1) else 1 / Fraction(x)
    if not (isinstance(x, QPoly) and x.is_constant() and x.constant()):
        raise ZeroDivisionError("constant term is not a unit")
    return QPoly(1 / x.constant())


class TruncatedSeries:
    """Truncated power series in u; exact int/Fraction or QPoly coefficients."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order, coeffs):
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = tuple(_coerce(ring, x) for x in coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.ring = ring
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def one(cls, ring=RATIONAL, order=DEFAULT_ORDER):
        return cls.from_coeffs([1], ring, order)

    @classmethod
    def from_coeffs(cls, coeffs, ring=RATIONAL, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        coeffs += [0] * (order + 1 - len(coeffs))
        return cls(ring, order, coeffs[: order + 1])

    def coeff(self, n):
        if not 0 <= n <= self.order:
            raise IndexError("coefficient %d out of range (order %d)" % (n, self.order))
        return self.coeffs[n]

    def _pair(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.ring != other.ring:
            raise TypeError("ring mismatch: %s vs %s" % (self.ring, other.ring))
        n = min(self.order, other.order)
        return n, self.coeffs, other.coeffs

    def __add__(self, other):
        n, a, b = self._pair(other)
        return TruncatedSeries(self.ring, n, [a[i] + b[i] for i in range(n + 1)])

    def __sub__(self, other):
        n, a, b = self._pair(other)
        return TruncatedSeries(self.ring, n, [a[i] - b[i] for i in range(n + 1)])

    def __neg__(self):
        return TruncatedSeries(self.ring, self.order, [-x for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            c = _coerce(self.ring, other)
            return TruncatedSeries(self.ring, self.order, [x * c for x in self.coeffs])
        n, a, b = self._pair(other)
        out = [_coerce(self.ring, 0)] * (n + 1)
        for i in range(n + 1):
            x = a[i]
            if not x:
                continue
            for j in range(n + 1 - i):
                y = b[j]
                if y:
                    out[i + j] += x * y
        return TruncatedSeries(self.ring, n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.ring != other.ring:
            return False
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None

    def invert(self):
        """Multiplicative inverse up to truncation; needs a unit constant term."""
        inv0 = _ring_inv(self.ring, self.coeffs[0])
        n = self.order
        a = self.coeffs
        out = [inv0] + [_coerce(self.ring, 0)] * n
        for m in range(1, n + 1):
            acc = _coerce(self.ring, 0)
            for k in range(1, m + 1):
                if a[k]:
                    acc += a[k] * out[m - k]
            out[m] = -inv0 * acc
        return TruncatedSeries(self.ring, n, out)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return "TruncatedSeries(%s, order=%d, [%s%s])" % (self.ring, self.order, shown, tail)


class FactorFamily:
    """One group of factors of an infinite product:
    prod over i >= 1 of (1 + coefficient * u^(step*i + offset)) ** power.

    The coefficient is a constant of the series ring (a number, or a QPoly
    in q).  The u-exponents step*i + offset run up from step + offset by
    step, so both must be at least 1 and the product truncates after
    finitely many factors at any fixed order.  A negative power divides by
    the factors.
    """

    __slots__ = ("coefficient", "step", "offset", "power")

    def __init__(self, coefficient, step: int, offset: int = 0, power: int = 1):
        if step < 1 or step + offset < 1:
            raise ValueError("u-exponents step*i + offset need step >= 1 and "
                             "step + offset >= 1")
        self.coefficient = coefficient
        self.step = step
        self.offset = offset
        self.power = power

    def exponents_up_to(self, order) -> range:
        """The u-exponent j of every factor with j <= order."""
        return range(self.step + self.offset, order + 1, self.step)


def _mul_factor_inplace(coeffs, c, j, order):
    # multiply by (1 + c u^j): descending so each source index is the old value
    for n in range(order, j - 1, -1):
        x = coeffs[n - j]
        if x:
            coeffs[n] += c * x


def _div_factor_inplace(coeffs, c, j, order):
    # divide by (1 + c u^j): ascending, using already-updated entries
    for n in range(j, order + 1):
        x = coeffs[n - j]
        if x:
            coeffs[n] -= c * x


def apply_product(base: TruncatedSeries, families) -> TruncatedSeries:
    """Multiply base by every family's truncated infinite product."""
    order = base.order
    ring = base.ring
    coeffs = list(base.coeffs)
    for fam in families:
        e = fam.power
        c = _coerce(ring, fam.coefficient)
        if not c:
            continue
        for j in fam.exponents_up_to(order):
            for _ in range(abs(e)):
                if e > 0:
                    _mul_factor_inplace(coeffs, c, j, order)
                else:
                    _div_factor_inplace(coeffs, c, j, order)
    return TruncatedSeries(ring, order, coeffs)


def apply_weight(base: TruncatedSeries, weight) -> TruncatedSeries:
    """Multiply base by the weight sum c u^k / (1 - u^j) over its terms
    (c, k, j), with j = 0 for a plain term c u^k: each term shifts and
    scales base, then divides by 1 - u^j in place."""
    order = base.order
    ring = base.ring
    zero = _coerce(ring, 0)
    out = [zero] * (order + 1)
    for c, k, j in weight:
        c = _coerce(ring, c)
        term = ([zero] * k + [c * x for x in base.coeffs])[:order + 1]
        if j:
            _div_factor_inplace(term, -1, j, order)
        out = [x + y for x, y in zip(out, term)]
    return TruncatedSeries(ring, order, out)


def pow_factor(c, j: int, exponent, ring=RATIONAL, order=DEFAULT_ORDER) -> TruncatedSeries:
    """(1 + c*u^j) ** exponent via the generalized binomial series.

    The exponent may be an integer, a Fraction, or a QPoly (the latter makes
    sense in the q-polynomial ring, where e.g. exponents N(q;d) occur).
    """
    if j < 1:
        raise ValueError("pow_factor wants j >= 1")
    c = _coerce(ring, c)
    e = _coerce(ring, exponent)
    out = [_coerce(ring, 0)] * (order + 1)
    term = _coerce(ring, 1)
    out[0] = term
    k = 0
    while (k + 1) * j <= order:
        # term_k = binom(e, k) c^k is an int when e and c are: // is exact
        term = term * (e - k) * c
        term = term // (k + 1) if type(term) is int else term / (k + 1)
        k += 1
        out[k * j] = term
    return TruncatedSeries(ring, order, out)


def geometric(c, j: int, ring=RATIONAL, order=DEFAULT_ORDER) -> TruncatedSeries:
    """1/(1 - c*u^j) as a truncated series."""
    out = [_coerce(ring, 0)] * (order + 1)
    term = _coerce(ring, 1)
    out[0] = term
    k = j
    while k <= order:
        term = term * c
        out[k] = term
        k += j
    return TruncatedSeries(ring, order, out)

