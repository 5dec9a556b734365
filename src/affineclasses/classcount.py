"""Conjugacy class counts of classical and affine classical groups.

Three independent routes are provided and cross-checked by the tests:

* closed-form generating functions (classical_series, affine_series),
* assemblies of centralizer orbit counts over classes (orbit_built_series),
* first-order recursions from the character method (affine_recursive).

All arithmetic is exact.  Passing the symbolic generator Q (a QPoly) as q
switches every routine into symbolic mode; passing an integer gives value
mode, where results are validated to be integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .primes import prime_power
from .series import (
    DEFAULT_ORDER,
    FactorFamily,
    QPOLY,
    QPoly,
    RATIONAL,
    TruncatedSeries,
    apply_product,
    geometric,
    pow_factor,
)

CLASSICAL_FAMILIES = frozenset({"GL", "GU", "Sp", "O-sum", "O-diff"})
AFFINE_FAMILIES = frozenset({"AGL", "AGU", "ASp", "AO-sum", "AO-diff"})
FAMILIES = CLASSICAL_FAMILIES | AFFINE_FAMILIES | {"BSp"}

DIM_N = "dim = n"
DIM_2N = "dim = 2n"
DIM_2N1 = "dim = 2n+1"

_DIM_N_FAMILIES = frozenset({"GL", "GU", "AGL", "AGU"})
_DIM_2N_FAMILIES = frozenset({"Sp", "ASp", "BSp"})


@dataclass(frozen=True)
class FamilyKey:
    """A group family together with the characteristic regime and the meaning
    of the series index n."""

    family: str
    characteristic: str = "odd"
    convention: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.characteristic not in ("odd", "even"):
            raise ValueError("characteristic must be 'odd' or 'even'")
        if self.family == "BSp" and self.characteristic != "even":
            raise ValueError("BSp exists only in even characteristic")
        default = self._default_convention()
        if not self.convention:
            object.__setattr__(self, "convention", default)
        elif self.convention != default:
            # odd-dimension view of the orthogonal families
            o_fam = self.family in ("O-sum", "O-diff", "AO-sum", "AO-diff")
            if not (self.convention == DIM_2N1 and o_fam
                    and self.characteristic == "odd"):
                raise ValueError("convention %r not valid for %s"
                                 % (self.convention, self.family))

    def _default_convention(self):
        if self.family in _DIM_N_FAMILIES:
            return DIM_N
        if self.family in _DIM_2N_FAMILIES:
            return DIM_2N
        # orthogonal families: full dimension index in odd characteristic,
        # half in even (where odd-dimensional forms are degenerate)
        return DIM_N if self.characteristic == "odd" else DIM_2N

    def dim(self, n: int) -> int:
        if self.convention == DIM_N:
            return n
        if self.convention == DIM_2N:
            return 2 * n
        return 2 * n + 1


@dataclass(frozen=True)
class OrbitPieces:
    """The three orbit-count partial sums whose combination counts affine
    classes: T1 sums 1 per class, T2 and T3 the two statistic terms."""

    family: str
    T1: TruncatedSeries
    T2: TruncatedSeries
    T3: TruncatedSeries

    def total(self) -> TruncatedSeries:
        if self.family == "AGU":
            return self.T1 + self.T2 - self.T3
        return self.T1 + self.T2 + self.T3


@dataclass(frozen=True)
class CountSequence:
    """Counts indexed by n under key.convention; q is an integer in value
    mode or a QPoly in symbolic mode."""

    key: FamilyKey | None
    q: object
    values: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]


# ---------------------------------------------------------------------------
# arithmetic helpers

def moebius(e: int) -> int:
    if e < 1:
        raise ValueError("e must be >= 1")
    out = 1
    n = e
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1 if p == 2 else 2
    if n > 1:
        out = -out
    return out


def _divisors(d):
    out = []
    i = 1
    while i * i <= d:
        if d % i == 0:
            out.append(i)
            if i != d // i:
                out.append(d // i)
        i += 1
    return sorted(out)


def necklace(q, d: int):
    """Number of monic irreducible polynomials of degree d with nonzero
    constant term: q-1 in degree 1, the usual Moebius sum above that."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return q - 1
    if isinstance(q, QPoly):
        total = QPoly(0)
        for e in _divisors(d):
            total = total + moebius(e) * q ** (d // e)
        return total / d
    total = sum(moebius(e) * q ** (d // e) for e in _divisors(d))
    if total % d:
        raise ArithmeticError("necklace sum not divisible by d")
    return total // d


def necklace_product(q, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """prod_d (1-u^d)^(-N(q;d)), which telescopes to (1-u)/(1-qu)."""
    ring = QPOLY if isinstance(q, QPoly) else RATIONAL
    out = TruncatedSeries.one(ring, order)
    for d in range(1, order + 1):
        out = out * pow_factor(-1, d, -necklace(q, d), ring=ring, order=order)
    return out


def _to_int(x):
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError("expected an integer, got %s" % (f,))
    return int(f)


def _check_value_q(key: FamilyKey, q):
    if isinstance(q, QPoly):
        return
    qi = _to_int(q)
    prime_power(qi)
    if key.characteristic == "odd" and qi % 2 == 0:
        raise ValueError("odd-characteristic key needs odd q, got %d" % qi)
    if key.characteristic == "even" and (qi & (qi - 1)):
        raise ValueError("even-characteristic key needs a power of 2, got %d" % qi)


def _ring_for(q):
    return QPOLY if isinstance(q, QPoly) else RATIONAL


def _i(i):
    return i


def _odd_idx(i):
    return 2 * i - 1


def _even_idx(i):
    return 2 * i


def _four_idx(i):
    return 4 * i


def _four_m2_idx(i):
    return 4 * i - 2


# ---------------------------------------------------------------------------
# classical generating functions

def _product(q, order, families):
    ring = _ring_for(q)
    return apply_product(TruncatedSeries.one(ring, order), families)


def _gl(q, order):
    return _product(q, order, [
        FactorFamily(-1, _i),
        FactorFamily(-q, _i, power=-1),
    ])


def _gu(q, order):
    return _product(q, order, [
        FactorFamily(1, _i),
        FactorFamily(-q, _i, power=-1),
    ])


def _sp_odd(q, order):
    return _product(q, order, [
        FactorFamily(1, _i, power=4),
        FactorFamily(-q, _i, power=-1),
    ])


def _sp_even(q, order):
    # quotient form; see _sp_even_proof_form for the equivalent product
    return _product(q, order, [
        FactorFamily(-1, _four_idx),
        FactorFamily(-1, _four_m2_idx, power=-1),
        FactorFamily(-1, _i, power=-1),
        FactorFamily(-q, _i, power=-1),
    ])


def _sp_even_proof_form(q, order):
    return _product(q, order, [
        FactorFamily(1, _i),
        FactorFamily(-q, _i, power=-1),
        FactorFamily(-1, _four_m2_idx, power=-2),
    ])


def _o_sum_odd(q, order):
    return _product(q, order, [
        FactorFamily(1, _odd_idx, power=4),
        FactorFamily(-q, _even_idx, power=-1),
    ])


def _o_diff_odd(q, order):
    return _product(q, order, [
        FactorFamily(-1, _four_m2_idx),
        FactorFamily(-q, _four_idx, power=-1),
    ])


def _o_sum_even(q, order):
    return _product(q, order, [
        FactorFamily(1, _i),
        FactorFamily(1, _odd_idx, power=2),
        FactorFamily(-q, _i, power=-1),
    ])


def _o_diff_even(q, order):
    return _product(q, order, [
        FactorFamily(-1, _odd_idx),
        FactorFamily(-q, _even_idx, power=-1),
    ])


_CLASSICAL = {
    ("GL", "odd"): _gl, ("GL", "even"): _gl,
    ("GU", "odd"): _gu, ("GU", "even"): _gu,
    ("Sp", "odd"): _sp_odd, ("Sp", "even"): _sp_even,
    ("O-sum", "odd"): _o_sum_odd, ("O-sum", "even"): _o_sum_even,
    ("O-diff", "odd"): _o_diff_odd, ("O-diff", "even"): _o_diff_even,
}


def classical_series(key: FamilyKey, q, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Generating function of k(G(n,q)) for a classical family, where the
    coefficient index follows key.convention."""
    if key.family not in CLASSICAL_FAMILIES:
        raise ValueError("%r is not a classical family" % (key.family,))
    _check_value_q(key, q)
    return _CLASSICAL[key.family, key.characteristic](q, order)


def sp_even_proof_form(q, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Alternative product form of the even-characteristic symplectic series;
    must agree with classical_series(Sp, even) coefficientwise."""
    return _sp_even_proof_form(q, order)


# ---------------------------------------------------------------------------
# affine generating functions

def _mon(c, n, q, order):
    return TruncatedSeries.monomial(c, n, _ring_for(q), order)


def _geo(c, j, q, order):
    return geometric(c, j, _ring_for(q), order)


def affine_series(key: FamilyKey, q, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Generating function of k(AG(n,q)) for an affine family."""
    if key.family not in AFFINE_FAMILIES:
        raise ValueError("%r is not an affine family" % (key.family,))
    _check_value_q(key, q)
    fam, ch = key.family, key.characteristic
    one = TruncatedSeries.one(_ring_for(q), order)
    if fam == "AGL":
        return _geo(1, 1, q, order) * _gl(q, order)
    if fam == "AGU":
        w = one + (_mon(q, 2, q, order) + _mon(q - 1, 1, q, order)) * _geo(1, 2, q, order)
        return _gu(q, order) * w
    if fam == "ASp":
        if ch == "odd":
            w = one + _mon(q, 1, q, order) * _geo(1, 1, q, order)
            return _sp_odd(q, order) * w
        a = _product(q, order, [
            FactorFamily(1, _i),
            FactorFamily(-q, _i, power=-1),
        ])
        b = _product(q, order, [FactorFamily(-1, _four_m2_idx, power=-2)])
        c = _product(q, order, [FactorFamily(1, _odd_idx, power=2)])
        return _geo(1, 1, q, order) * a * (b + _mon(q - 1, 1, q, order) * c)
    if fam == "AO-sum":
        if ch == "odd":
            w = one + (_mon(1, 2, q, order) + _mon(q - 1, 1, q, order)) * _geo(1, 2, q, order)
            return _o_sum_odd(q, order) * w
        k_o = _o_sum_even(q, order)
        k_sp = _sp_even(q, order)
        return _geo(1, 1, q, order) * (k_o + _mon(4 * (q - 1), 1, q, order) * k_sp)
    # AO-diff
    if ch == "odd":
        return _geo(1, 2, q, order) * _o_diff_odd(q, order)
    return _geo(1, 1, q, order) * _o_diff_even(q, order)


# ---------------------------------------------------------------------------
# plus/minus splitting

def ao_split(sum_series: TruncatedSeries, diff_series: TruncatedSeries,
             key: FamilyKey | None = None, q=None):
    """Recover the individual plus/minus type sequences from the sum and
    difference series: plus = (sum+diff)/2, minus = (sum-diff)/2."""
    if sum_series.ring != diff_series.ring:
        raise ValueError("sum and diff series live in different rings")
    if sum_series.order != diff_series.order:
        raise ValueError("sum and diff series have different orders")
    symbolic = sum_series.ring == QPOLY
    plus, minus = [], []
    for n in range(sum_series.order + 1):
        s, d = sum_series.coeff(n), diff_series.coeff(n)
        p, m = (s + d) / 2, (s - d) / 2
        if not symbolic:
            p, m = Fraction(p), Fraction(m)
            if p.denominator != 1 or m.denominator != 1:
                raise ValueError("non-integer split at n=%d: indexing bug" % n)
            p, m = int(p), int(m)
            if p < 0 or m < 0:
                raise ValueError("negative count at n=%d: indexing bug" % n)
        plus.append(p)
        minus.append(m)
    return CountSequence(key, q, plus), CountSequence(key, q, minus)


# ---------------------------------------------------------------------------
# closed-form counts per table row

#: table families read off one series; the orthogonal ones ("ao-plus",
#: "ao-minus", "ao-odd") split the AO-sum and AO-diff series
_ONE_SERIES = {"agl": "AGL", "agu": "AGU", "asp": "ASp"}
TABLE_FAMILIES = ("agl", "agu", "asp", "ao-plus", "ao-minus", "ao-odd")


def row_index(family: str, ch: str, n: int) -> int:
    """Series coefficient index of table row n, whose dimension is n for
    agl/agu, 2n for asp/ao-plus/ao-minus and 2n+1 for ao-odd.  The orthogonal
    series are indexed by the full dimension in odd characteristic and by
    half of it in even characteristic; the others by n."""
    if family in _ONE_SERIES or ch == "even":
        return n
    return 2 * n + 1 if family == "ao-odd" else 2 * n


@lru_cache(maxsize=64)
def _closed_form(family: str, ch: str, q, order: int) -> TruncatedSeries:
    return affine_series(FamilyKey(family, ch), q, order)


def affine_counts(family: str, q, n_max: int, ch: str = "") -> tuple:
    """Closed-form k(AG) for the rows n = 0..n_max of a table family.

    q is a field size (value mode: checked integers, the characteristic
    follows q) or Q (symbolic mode: ch defaults to odd).  Each series is
    built once per (family, characteristic, q, order), and the three
    orthogonal families share one order, so they share their series.
    """
    if family not in TABLE_FAMILIES:
        raise ValueError("unknown table family %r" % (family,))
    symbolic = isinstance(q, QPoly)
    if not ch:
        ch = "odd" if symbolic or _to_int(q) % 2 else "even"
    if family == "ao-odd" and ch == "even":
        raise ValueError("odd-dimensional orthogonal groups need odd q")
    if family in _ONE_SERIES:
        seq = _closed_form(_ONE_SERIES[family], ch, q, n_max).coeffs
        if not symbolic:
            seq = [_to_int(c) for c in seq]
    else:
        order = row_index("ao-odd", ch, n_max)
        plus, minus = ao_split(_closed_form("AO-sum", ch, q, order),
                               _closed_form("AO-diff", ch, q, order), q=q)
        seq = minus if family == "ao-minus" else plus
    return tuple(seq[row_index(family, ch, n)] for n in range(n_max + 1))


# ---------------------------------------------------------------------------
# orbit-count assembly

ORBIT_FAMILIES = ("AGL", "AGU", "ASp-odd", "AO-sum-odd", "AO-diff-odd")


def orbit_built_series(family: str, q, order: int = DEFAULT_ORDER) -> OrbitPieces:
    """Assemble the affine count from per-class centralizer orbit counts.

    T1 is the classical class-count series.  T2 and T3 arise from the
    partition statistics in the orbit formulas; each equals the classical
    series with its unipotent factor swapped for a weighted one, which
    collapses to multiplication by an explicit rational function of u.
    """
    if family not in ORBIT_FAMILIES:
        raise ValueError("unknown orbit family %r" % (family,))
    if isinstance(q, QPoly):
        ch = "odd"
    else:
        ch = "even" if _to_int(q) % 2 == 0 else "odd"
        _check_value_q(FamilyKey("AGL", ch), q)
    if family.endswith("-odd") and ch != "odd":
        raise ValueError("%s needs odd q" % family)
    ring = _ring_for(q)
    zero = TruncatedSeries.zero(ring, order)

    if family == "AGL":
        t1 = _gl(q, order)
        r2 = _mon(1, 1, q, order) * _geo(1, 1, q, order)
        return OrbitPieces("AGL", t1, t1 * r2, zero)
    if family == "AGU":
        t1 = _gu(q, order)
        r2 = _mon(q, 1, q, order) * _geo(1, 1, q, order)
        r3 = _mon(1, 1, q, order) * _geo(1, 2, q, order)
        return OrbitPieces("AGU", t1, t1 * r2, t1 * r3)
    if family == "ASp-odd":
        t1 = _sp_odd(q, order)
        r2 = _mon(1, 1, q, order) * _geo(1, 2, q, order)
        r3 = (_mon(q - 1, 1, q, order) * _geo(1, 1, q, order)
              + _mon(1, 2, q, order) * _geo(1, 2, q, order))
        return OrbitPieces("ASp-odd", t1, t1 * r2, t1 * r3)
    if family == "AO-sum-odd":
        t1 = _o_sum_odd(q, order)
        r2 = _mon(1, 4, q, order) * _geo(1, 4, q, order)
        r3 = (_mon(q - 1, 1, q, order) * _geo(1, 2, q, order)
              + _mon(1, 2, q, order) * _geo(1, 4, q, order))
        return OrbitPieces("AO-sum-odd", t1, t1 * r2, t1 * r3)
    t1 = _o_diff_odd(q, order)
    r2 = _mon(1, 4, q, order) * _geo(1, 4, q, order)
    r3 = _mon(1, 2, q, order) * _geo(1, 4, q, order)
    return OrbitPieces("AO-diff-odd", t1, t1 * r2, t1 * r3)


# ---------------------------------------------------------------------------
# character-method recursions

def _series_values(series: TruncatedSeries, n_max: int, symbolic: bool):
    out = []
    for n in range(n_max + 1):
        c = series.coeff(n)
        out.append(c if symbolic else _to_int(c))
    return out


def affine_recursive(key: FamilyKey, q, n_max: int) -> CountSequence:
    """Affine counts from the recursions, using only classical baselines."""
    if key.family not in AFFINE_FAMILIES:
        raise ValueError("%r is not an affine family" % (key.family,))
    _check_value_q(key, q)
    symbolic = isinstance(q, QPoly)
    fam, ch = key.family, key.characteristic
    order = n_max

    def classical(fam2):
        s = classical_series(FamilyKey(fam2, ch), q, order)
        return _series_values(s, n_max, symbolic)

    if fam == "AGL":
        gl = classical("GL")
        vals, acc = [], 0
        for n in range(n_max + 1):
            if n:
                acc = acc + gl[n]
            vals.append(1 + acc)
        return CountSequence(key, q, vals)

    if fam == "AGU":
        gu = classical("GU")
        vals = []
        for n in range(n_max + 1):
            if n == 0:
                vals.append(1)
                continue
            # AGU(-1) is empty, so n=1 gets no contribution here
            prev2 = vals[n - 2] if n >= 2 else 0
            gu1 = gu[n - 1]
            gu2 = gu[n - 2] if n >= 2 else 0
            vals.append(gu[n] + (q - 1) * gu1 + prev2 + (q - 1) * gu2)
        return CountSequence(key, q, vals)

    if fam == "ASp":
        sp = classical("Sp")
        if ch == "odd":
            vals = [1]
            for n in range(1, n_max + 1):
                vals.append(sp[n] + vals[n - 1] + (q - 1) * sp[n - 1])
        else:
            osum = classical("O-sum")
            vals = [1]
            for n in range(1, n_max + 1):
                vals.append(sp[n] + vals[n - 1] + (q - 1) * osum[n - 1])
        return CountSequence(key, q, vals)

    # orthogonal affine families: run the plus and minus recursions
    # separately, then combine
    osum = classical("O-sum")
    odiff = classical("O-diff")
    def split(n):
        s, d = osum[n], odiff[n]
        if symbolic:
            return (s + d) / 2, (s - d) / 2
        p, m = Fraction(s + d, 2), Fraction(s - d, 2)
        if p.denominator != 1 or m.denominator != 1:
            raise ValueError("non-integer orthogonal baseline at n=%d" % n)
        return int(p), int(m)

    if ch == "odd":
        plus, minus = [], []
        for n in range(n_max + 1):
            if n == 0:
                plus.append(1)
                minus.append(0)
                continue
            pb, mb = split(n)
            cross = (q - 1) * osum[n - 1] * Fraction(1, 2)
            p2 = plus[n - 2] if n >= 2 else 0
            m2 = minus[n - 2] if n >= 2 else 0
            plus.append(pb + p2 + cross)
            minus.append(mb + m2 + cross)
    else:
        sp = classical("Sp")
        plus, minus = [], []
        for n in range(n_max + 1):
            if n == 0:
                plus.append(1)
                minus.append(0)
                continue
            pb, mb = split(n)
            plus.append(pb + plus[n - 1] + 2 * (q - 1) * sp[n - 1])
            minus.append(mb + minus[n - 1] + 2 * (q - 1) * sp[n - 1])

    if fam == "AO-sum":
        vals = [plus[n] + minus[n] for n in range(n_max + 1)]
    else:
        vals = [plus[n] - minus[n] for n in range(n_max + 1)]
    if not symbolic:
        vals = [_to_int(v) for v in vals]
    return CountSequence(key, q, vals)


def k_bsp(q, n_max: int) -> CountSequence:
    """Class counts of the extended even-characteristic symplectic groups:
    k(BSp(2n,q)) = k(ASp(2n,q)) + (q-1)(k(O+(2n,q)) + k(O-(2n,q)))."""
    key = FamilyKey("BSp", "even")
    _check_value_q(key, q)
    symbolic = isinstance(q, QPoly)
    asp = _series_values(affine_series(FamilyKey("ASp", "even"), q, n_max), n_max, symbolic)
    osum = _series_values(classical_series(FamilyKey("O-sum", "even"), q, n_max), n_max, symbolic)
    vals = [asp[n] + (q - 1) * osum[n] for n in range(n_max + 1)]
    return CountSequence(key, q, vals)


def k_ah(q, e: int, n_max: int, kH=None) -> CountSequence:
    """Class counts of affine extensions V.H for SL(n,q) <= H <= GL(n,q) with
    e = [H : SL]: k(AH(n,q)) = (q-1)/e + sum_{i<=n} k(H(i,q)).

    kH gives k(H(i,q)) for i = 0..n_max.  It may be omitted when H = GL
    (e = q-1) or when [GL : H] = 2 with q odd, where k(H(n,q)) is
    (1/2) k(GL(n,q)) for odd n and (1/2) k(GL(n,q)) + (3/2) k(GL(n/2,q))
    for even n.
    """
    if isinstance(q, QPoly):
        raise TypeError("k_ah works in value mode only")
    qi = _to_int(q)
    if qi < 2:
        raise ValueError("q must be at least 2")
    if e < 1 or (qi - 1) % e:
        raise ValueError("e must divide q-1")
    index = (qi - 1) // e
    gl = _series_values(
        classical_series(FamilyKey("GL", "even" if qi % 2 == 0 else "odd"), qi, n_max),
        n_max, False)
    if kH is not None:
        kh = list(kH.values) if isinstance(kH, CountSequence) else list(kH)
        if len(kh) < n_max + 1:
            raise ValueError("kH too short: need entries up to n=%d" % n_max)
    elif index == 1:
        kh = [1] + gl[1:]
    elif index == 2 and qi % 2 == 1:
        kh = [1]
        for n in range(1, n_max + 1):
            v = Fraction(gl[n], 2)
            if n % 2 == 0:
                v += Fraction(3, 2) * gl[n // 2]
            kh.append(_to_int(v))
    elif n_max <= 1:
        kh = [1, e]  # H(1,q) is cyclic of order e
    else:
        raise ValueError("kH required when [GL:H] = %d" % index)
    vals, acc = [1], 0
    for n in range(1, n_max + 1):
        acc += kh[n]
        vals.append(index + acc)
    return CountSequence(None, qi, vals)
