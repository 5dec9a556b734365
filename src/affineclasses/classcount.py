"""Conjugacy class counts of classical and affine classical groups.

Three independent routes are provided and cross-checked by the tests:

* closed-form generating functions (classical_series, affine_series),
* assemblies of centralizer orbit counts over classes (orbit_built_series),
* first-order recursions from the character method (affine_recursive).

Every route is called as (family, q, order or n_max, ch="").  The family is
a classical name (GL, GU, Sp, O-sum, O-diff) or an affine one (AGL, AGU,
ASp, AO-sum, AO-diff); the orthogonal series are indexed by the full
dimension in odd characteristic and by half of it in even characteristic,
the others by n.  All arithmetic is exact.  An integer q gives value mode:
q must be a prime power, the characteristic ch follows from q and a ch that
contradicts it is an error, and counts are validated to be integers.
Passing the symbolic generator Q (a QPoly) as q gives symbolic mode, where
ch picks the characteristic and defaults to odd.

The closed forms and the orbit assembly are written in the vocabulary of
the series module: a classical generating function is a product of
FactorFamily rows (apply_product), and an affine one, or an orbit-count
piece, is a weight (c, k, j) times such products (apply_weight).

affine_counts reads table rows n = 0..n_max (row_index, row_dimension) off
the closed-form series; recursion_counts and orbit_counts read the same rows
off the other two routes, each from its own series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .primes import divisors, moebius, prime_power
from .series import (
    DEFAULT_ORDER,
    FactorFamily,
    QPOLY,
    QPoly,
    RATIONAL,
    TruncatedSeries,
    apply_product,
    apply_weight,
    pow_factor,
)

AFFINE_FAMILIES = ("AGL", "AGU", "ASp", "AO-sum", "AO-diff")


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


# ---------------------------------------------------------------------------
# arithmetic helpers

def necklace(q, d: int):
    """Number of monic irreducible polynomials of degree d with nonzero
    constant term: q-1 in degree 1, the usual Moebius sum above that."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return q - 1
    if isinstance(q, QPoly):
        total = QPoly(0)
        for e in divisors(d):
            total = total + moebius(e) * q ** (d // e)
        return total / d
    total = sum(moebius(e) * q ** (d // e) for e in divisors(d))
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
    if x != int(x):
        raise ValueError("expected an integer, got %s" % (x,))
    return int(x)


def characteristic(q, ch: str = "") -> str:
    """The characteristic ("odd" or "even") a route computes in.  In value
    mode it follows from q, which must be a prime power, and a ch that
    contradicts q is an error; in symbolic mode it is ch, odd by default."""
    if isinstance(q, QPoly):
        if ch not in ("", "odd", "even"):
            raise ValueError("characteristic must be 'odd' or 'even', got %r" % (ch,))
        return ch or "odd"
    qi = _to_int(q)
    prime_power(qi)
    own = "odd" if qi % 2 else "even"
    if ch and ch != own:
        raise ValueError("characteristic %r contradicts q = %d" % (ch, qi))
    return own


def _values(coeffs, symbolic: bool) -> tuple:
    return tuple(coeffs) if symbolic else tuple(_to_int(c) for c in coeffs)


def _ring_for(q):
    return QPOLY if isinstance(q, QPoly) else RATIONAL


# ---------------------------------------------------------------------------
# classical generating functions

#: each classical generating function as a product: for (family, ch), the
#: q-free factors of its unipotent part and the step s of the factor
#: prod 1/(1 - q u^(s i)) that closes it
_CLASSICAL = {
    ("GL", "odd"): ((FactorFamily(-1, 1),), 1),
    ("GL", "even"): ((FactorFamily(-1, 1),), 1),
    ("GU", "odd"): ((FactorFamily(1, 1),), 1),
    ("GU", "even"): ((FactorFamily(1, 1),), 1),
    ("Sp", "odd"): ((FactorFamily(1, 1, power=4),), 1),
    # quotient form; sp_even_proof_form is the equivalent product
    ("Sp", "even"): ((FactorFamily(-1, 4), FactorFamily(-1, 4, -2, power=-1),
                      FactorFamily(-1, 1, power=-1)), 1),
    ("O-sum", "odd"): ((FactorFamily(1, 2, -1, power=4),), 2),
    ("O-sum", "even"): ((FactorFamily(1, 1), FactorFamily(1, 2, -1, power=2)), 1),
    ("O-diff", "odd"): ((FactorFamily(-1, 4, -2),), 4),
    ("O-diff", "even"): ((FactorFamily(-1, 2, -1),), 2),
}

#: the even-characteristic Sp series is also the GU product times these
_SP_EVEN_PROOF = (FactorFamily(-1, 4, -2, power=-2),)


@lru_cache(maxsize=64)
def _classical(family, ch, q, order):
    """The classical product of (family, ch) at q, built once per key and
    shared by the three routes; its coefficients are a tuple, so a cached
    series cannot change under its users."""
    unipotent, step = _CLASSICAL[family, ch]
    return apply_product(TruncatedSeries.one(_ring_for(q), order),
                         unipotent + (FactorFamily(-q, step, power=-1),))


def classical_series(family: str, q, order: int = DEFAULT_ORDER,
                     ch: str = "") -> TruncatedSeries:
    """Generating function of k(G(n,q)) for a classical family."""
    ch = characteristic(q, ch)
    if (family, ch) not in _CLASSICAL:
        raise ValueError("%r is not a classical family" % (family,))
    return _classical(family, ch, q, order)


def sp_even_proof_form(q, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Alternative product form of the even-characteristic symplectic series;
    must agree with classical_series(Sp, even) coefficientwise."""
    return apply_product(_classical("GU", "even", q, order), _SP_EVEN_PROOF)


# ---------------------------------------------------------------------------
# affine generating functions

def affine_series(family: str, q, order: int = DEFAULT_ORDER,
                  ch: str = "") -> TruncatedSeries:
    """Generating function of k(AG(n,q)) for an affine family: the sum over
    rows (weight, classical family, extra factor families) of the weight
    (see apply_weight) times the classical product times the extra ones."""
    ch = characteristic(q, ch)
    odd = ch == "odd"
    rows = {
        "AGL": [(((1, 0, 1),), "GL", ())],
        "AGU": [(((1, 0, 0), (q, 2, 2), (q - 1, 1, 2)), "GU", ())],
        "ASp": [(((1, 0, 0), (q, 1, 1)), "Sp", ())] if odd else [
            (((1, 0, 1),), "GU", _SP_EVEN_PROOF),
            (((q - 1, 1, 1),), "GU", (FactorFamily(1, 2, -1, power=2),))],
        "AO-sum": [(((1, 0, 0), (1, 2, 2), (q - 1, 1, 2)), "O-sum", ())] if odd else [
            (((1, 0, 1),), "O-sum", ()), (((4 * (q - 1), 1, 1),), "Sp", ())],
        "AO-diff": [(((1, 0, 2 if odd else 1),), "O-diff", ())],
    }.get(family)
    if rows is None:
        raise ValueError("%r is not an affine family" % (family,))
    terms = [apply_weight(apply_product(_classical(fam, ch, q, order), extra), weight)
             for weight, fam, extra in rows]
    return sum(terms[1:], terms[0])


# ---------------------------------------------------------------------------
# plus/minus splitting

def ao_split(sums, diffs) -> tuple:
    """Recover the plus and minus type counts from the sum and difference
    sequences: plus = (sum+diff)/2, minus = (sum-diff)/2.  Values that are
    not q-polynomials must split into non-negative integers."""
    if len(sums) != len(diffs):
        raise ValueError("sum and diff sequences have different lengths")
    plus, minus = [], []
    for n, (s, d) in enumerate(zip(sums, diffs)):
        t, u = s + d, s - d
        if isinstance(t, QPoly):
            plus.append(t / 2)
            minus.append(u / 2)
            continue
        if t % 2 or u % 2:
            raise ValueError("non-integer split at n=%d: indexing bug" % n)
        if t < 0 or u < 0:
            raise ValueError("negative count at n=%d: indexing bug" % n)
        plus.append(t // 2)
        minus.append(u // 2)
    return tuple(plus), tuple(minus)


# ---------------------------------------------------------------------------
# counts per table row

#: table families read off one series; the orthogonal ones ("ao-plus",
#: "ao-minus", "ao-odd") split the AO-sum and AO-diff series
_ONE_SERIES = {"agl": "AGL", "agu": "AGU", "asp": "ASp"}
TABLE_FAMILIES = ("agl", "agu", "asp", "ao-plus", "ao-minus", "ao-odd")


def row_dimension(family: str, n: int) -> int:
    """Dimension of table row n: n for agl/agu, 2n for asp/ao-plus/ao-minus
    and 2n+1 for ao-odd."""
    if family in ("agl", "agu"):
        return n
    return 2 * n + 1 if family == "ao-odd" else 2 * n


def row_index(family: str, ch: str, n: int) -> int:
    """Series coefficient index of table row n.  The orthogonal series are
    indexed by the full dimension in odd characteristic and by half of it in
    even characteristic; the others by n."""
    if family in _ONE_SERIES or ch == "even":
        return n
    return row_dimension(family, n)


def _rows(family: str, q, n_max: int, ch: str, coeffs) -> tuple:
    """Rows n = 0..n_max of a table family from one route, where
    coeffs(affine_family, ch, order) gives that route's coefficients
    0..order.  agl/agu/asp read one sequence; the orthogonal families split
    the AO-sum and AO-diff sequences, whose order all three share."""
    if family not in TABLE_FAMILIES:
        raise ValueError("unknown table family %r" % (family,))
    ch = characteristic(q, ch)
    if family == "ao-odd" and ch == "even":
        raise ValueError("odd-dimensional orthogonal groups need odd q")
    if family in _ONE_SERIES:
        seq = _values(coeffs(_ONE_SERIES[family], ch, n_max), isinstance(q, QPoly))
    else:
        order = row_index("ao-odd", ch, n_max)
        plus, minus = ao_split(coeffs("AO-sum", ch, order),
                               coeffs("AO-diff", ch, order))
        seq = minus if family == "ao-minus" else plus
    return tuple(seq[row_index(family, ch, n)] for n in range(n_max + 1))


@lru_cache(maxsize=64)
def _closed_form(family: str, ch: str, q, order: int) -> TruncatedSeries:
    return affine_series(family, q, order, ch)


def affine_counts(family: str, q, n_max: int, ch: str = "") -> tuple:
    """Closed-form k(AG) for the rows n = 0..n_max of a table family.  Each
    series is built once per (family, characteristic, q, order), and the
    three orthogonal families share one order, so they share their series."""
    return _rows(family, q, n_max, ch,
                 lambda fam, ch, order: _closed_form(fam, ch, q, order).coeffs)


def recursion_counts(family: str, q, n_max: int, ch: str = "") -> tuple:
    """The same rows from the character-method recursions."""
    return _rows(family, q, n_max, ch,
                 lambda fam, ch, order: affine_recursive(fam, q, order, ch))


def orbit_counts(family: str, q, n_max: int, ch: str = "") -> tuple:
    """The same rows from the orbit-count assembly."""
    return _rows(family, q, n_max, ch,
                 lambda fam, ch, order: orbit_built_series(fam, q, order, ch).total().coeffs)


# ---------------------------------------------------------------------------
# orbit-count assembly

def orbit_built_series(family: str, q, order: int = DEFAULT_ORDER,
                       ch: str = "") -> OrbitPieces:
    """Assemble the affine count from per-class centralizer orbit counts;
    ASp and the orthogonal families are assembled in odd characteristic.

    T1 is the classical class-count series.  T2 and T3 arise from the
    partition statistics in the orbit formulas; each equals the classical
    series with its unipotent factor swapped for a weighted one, which
    collapses to T1 times a weight sum c u^k / (1 - u^j) (apply_weight).
    """
    ch = characteristic(q, ch)
    if family not in AFFINE_FAMILIES:
        raise ValueError("unknown orbit family %r" % (family,))
    if family not in ("AGL", "AGU") and ch != "odd":
        raise ValueError("orbit assembly of %s needs odd q" % family)
    t1 = _classical(family[1:], ch, q, order)  # AGL -> GL, ..., AO-diff -> O-diff
    w2, w3 = {
        "AGL": (((1, 1, 1),), ()),
        "AGU": (((q, 1, 1),), ((1, 1, 2),)),
        "ASp": (((1, 1, 2),), ((q - 1, 1, 1), (1, 2, 2))),
        "AO-sum": (((1, 4, 4),), ((q - 1, 1, 2), (1, 2, 4))),
        "AO-diff": (((1, 4, 4),), ((1, 2, 4),)),
    }[family]
    return OrbitPieces(family, t1, apply_weight(t1, w2), apply_weight(t1, w3))


# ---------------------------------------------------------------------------
# character-method recursions

def affine_recursive(family: str, q, n_max: int, ch: str = "") -> tuple:
    """Affine counts from the recursions, using only classical baselines."""
    ch = characteristic(q, ch)
    if family not in AFFINE_FAMILIES:
        raise ValueError("%r is not an affine family" % (family,))
    symbolic = isinstance(q, QPoly)

    def classical(fam2):
        return _values(classical_series(fam2, q, n_max, ch).coeffs, symbolic)

    if family == "AGL":
        gl = classical("GL")
        vals, acc = [], 0
        for n in range(n_max + 1):
            if n:
                acc = acc + gl[n]
            vals.append(1 + acc)
        return tuple(vals)

    if family == "AGU":
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
        return tuple(vals)

    if family == "ASp":
        sp = classical("Sp")
        # odd characteristic recurses on Sp, even on the orthogonal sum
        base = sp if ch == "odd" else classical("O-sum")
        vals = [1]
        for n in range(1, n_max + 1):
            vals.append(sp[n] + vals[n - 1] + (q - 1) * base[n - 1])
        return tuple(vals)

    # orthogonal affine families: run the plus and minus recursions
    # separately, then combine
    osum = classical("O-sum")
    pbase, mbase = ao_split(osum, classical("O-diff"))
    plus, minus = [1], [0]
    if ch == "odd":
        half = (q - 1) / 2 if symbolic else (q - 1) // 2  # q - 1 is even
        for n in range(1, n_max + 1):
            cross = half * osum[n - 1]
            p2 = plus[n - 2] if n >= 2 else 0
            m2 = minus[n - 2] if n >= 2 else 0
            plus.append(pbase[n] + p2 + cross)
            minus.append(mbase[n] + m2 + cross)
    else:
        sp = classical("Sp")
        for n in range(1, n_max + 1):
            plus.append(pbase[n] + plus[n - 1] + 2 * (q - 1) * sp[n - 1])
            minus.append(mbase[n] + minus[n - 1] + 2 * (q - 1) * sp[n - 1])

    sign = 1 if family == "AO-sum" else -1
    return _values([plus[n] + sign * minus[n] for n in range(n_max + 1)], symbolic)


def k_ah(q, e: int, n_max: int, kH=None) -> tuple:
    """Class counts of affine extensions V.H for SL(n,q) <= H <= GL(n,q) with
    e = [H : SL]: k(AH(n,q)) = (q-1)/e + sum_{i<=n} k(H(i,q)).

    kH gives k(H(i,q)) for i = 0..n_max.  It may be omitted when H = GL
    (e = q-1) or when [GL : H] = 2 with q odd, where k(H(n,q)) is
    (1/2) k(GL(n,q)) for odd n and (1/2) k(GL(n,q)) + (3/2) k(GL(n/2,q))
    for even n.
    """
    if isinstance(q, QPoly):
        raise TypeError("k_ah works in value mode only")
    gl = _values(classical_series("GL", q, n_max).coeffs, False)
    qi = _to_int(q)
    if e < 1 or (qi - 1) % e:
        raise ValueError("e must divide q-1")
    index = (qi - 1) // e
    if kH is not None:
        kh = list(kH)
        if len(kh) < n_max + 1:
            raise ValueError("kH too short: need entries up to n=%d" % n_max)
    elif index == 1:
        kh = [1] + list(gl[1:])
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
    return tuple(vals)
