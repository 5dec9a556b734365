"""Conjugacy class counts of classical and affine classical groups.

Three independent routes are provided and cross-checked by the tests:

* closed-form generating functions (classical_series, affine_series),
* assemblies of centralizer orbit counts over classes (orbit_built_series),
* recursions from the character method (affine_recursive).

Every route is called as (family, q, order or n_max, ch="").  The family is
a classical name (GL, GU, Sp, O-sum, O-diff) or an affine one (AGL, AGU,
ASp, AO-sum, AO-diff); the orthogonal series are indexed by the full
dimension in odd characteristic and by half of it in even characteristic,
the others by n.  All arithmetic is exact.  An int q gives value mode: q
must be a prime power, the characteristic ch follows from q and a ch that
contradicts it is an error, and counts are validated to be integers.
Passing the symbolic generator Q (a QPoly) as q gives symbolic mode, where
ch picks the characteristic and defaults to odd.  characteristic is the one
place that validates q, and it refuses any other type of q.

The closed forms and the orbit assembly are written in the vocabulary of
the series module: a classical generating function is a product of
FactorFamily rows (apply_product), and an affine one, or an orbit-count
piece, is a weight (c, k, j) times such products (apply_weight).  The
recursions are one recurrence table: per affine family, the shift of its
self term and its classical terms (G, c, k).

TABLE_FAMILIES holds one row per table family: its oracle group, its
dimension a n + b as (a, b), and the affine series its rows read (None for
the orthogonal families, which split AO-sum and AO-diff).  affine_counts
reads rows n = 0..n_max (row_index, row_dimension) off the closed-form
series of order series_order; recursion_counts and orbit_counts read the
same rows off the other two routes.  Orbit assembly runs in both
characteristics for ORBIT_BOTH_CHARS, in odd characteristic otherwise.
"""

from __future__ import annotations

from collections import namedtuple
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
ORBIT_BOTH_CHARS = ("AGL", "AGU")


class OrbitPieces(namedtuple("OrbitPieces", "family T1 T2 T3")):
    """The three orbit-count partial sums whose combination counts affine
    classes: T1 sums 1 per class, T2 and T3 the two statistic terms."""

    __slots__ = ()

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
    """The characteristic ("odd" or "even") a route computes in, and the one
    place that validates q.  In value mode q must be an int prime power (a
    float, Fraction or bool would share an int's cache keys) and a ch that
    contradicts q is an error; in symbolic mode it is ch, odd by default."""
    if isinstance(q, QPoly):
        if ch not in ("", "odd", "even"):
            raise ValueError("characteristic must be 'odd' or 'even', got %r" % (ch,))
        return ch or "odd"
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError("q must be an int or the symbolic Q, got %r" % (q,))
    prime_power(q)
    own = "odd" if q % 2 else "even"
    if ch and ch != own:
        raise ValueError("characteristic %r contradicts q = %d" % (ch, q))
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
    return apply_product(_classical("GU", characteristic(q, "even"), q, order),
                         _SP_EVEN_PROOF)


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

#: table family -> (oracle group G, a, b, affine series): row n is "A" + G
#: in dimension a n + b; the orthogonal families have no series of their own
TABLE_FAMILIES = {
    "agl": ("GL", 1, 0, "AGL"), "agu": ("GU", 1, 0, "AGU"),
    "asp": ("Sp", 2, 0, "ASp"), "ao-plus": ("O+", 2, 0, None),
    "ao-minus": ("O-", 2, 0, None), "ao-odd": ("O", 2, 1, None),
}


def _row(family: str) -> tuple:
    if family not in TABLE_FAMILIES:
        raise ValueError("unknown table family %r" % (family,))
    return TABLE_FAMILIES[family]


def row_dimension(family: str, n: int) -> int:
    """Dimension a n + b of table row n."""
    _, a, b, _ = _row(family)
    return a * n + b


def row_index(family: str, ch: str, n: int) -> int:
    """Series coefficient index of table row n.  The orthogonal series are
    indexed by the full dimension in odd characteristic and by half of it in
    even characteristic; the others by n."""
    return n if _row(family)[3] or ch == "even" else row_dimension(family, n)


def series_order(family: str, ch: str, n_max: int) -> int:
    """Order of the series that rows 0..n_max of a table family are read
    off: n_max, or the one order all three orthogonal families share."""
    return n_max if _row(family)[3] else row_index("ao-odd", ch, n_max)


def _rows(family: str, q, n_max: int, ch: str, coeffs) -> tuple:
    """Rows n = 0..n_max of a table family from one route, where
    coeffs(affine_family, ch, order) gives that route's coefficients
    0..order.  agl/agu/asp read one sequence; the orthogonal families split
    the AO-sum and AO-diff sequences."""
    series = _row(family)[3]
    ch = characteristic(q, ch)
    if family == "ao-odd" and ch == "even":
        raise ValueError("odd-dimensional orthogonal groups need odd q")
    order = series_order(family, ch, n_max)
    if series:
        seq = _values(coeffs(series, ch, order), isinstance(q, QPoly))
    else:
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
    if family not in ORBIT_BOTH_CHARS and ch != "odd":
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
    """Affine counts a_0..a_n_max from the character-method recursions,
    using only classical baselines G_n (classical_series).

    Each family is one row (shift s, classical terms): a_n is a_(n-s) plus
    c G_(n-k) over its classical terms (G, c, k); a term at a negative
    index reads 0, so a_0 = G_0 = 1.

    The paper's orthogonal recursions run per type: in odd characteristic
    plus_n = P_n + plus_(n-2) + ((q-1)/2) S_(n-1), and minus_n likewise
    with M_n, where P and M are the plus and minus baselines and S = P + M
    is the O-sum series; in even characteristic the shift is 1 and the
    cross term 2(q-1) Sp_(n-1).  The two types share the cross term, so
    their sum AO-sum doubles it and their difference AO-diff drops it;
    both follow one recursion on the O-sum or O-diff baseline.
    """
    ch = characteristic(q, ch)
    odd = ch == "odd"
    row = {
        "AGL": (1, (("GL", 1, 0),)),
        "AGU": (2, (("GU", 1, 0), ("GU", q - 1, 1), ("GU", q - 1, 2))),
        "ASp": (1, (("Sp", 1, 0), ("Sp" if odd else "O-sum", q - 1, 1))),
        "AO-sum": (2, (("O-sum", 1, 0), ("O-sum", q - 1, 1))) if odd else
                  (1, (("O-sum", 1, 0), ("Sp", 4 * (q - 1), 1))),
        "AO-diff": (2 if odd else 1, (("O-diff", 1, 0),)),
    }.get(family)
    if row is None:
        raise ValueError("%r is not an affine family" % (family,))
    shift, terms = row
    symbolic = isinstance(q, QPoly)
    terms = [(c, k, _values(classical_series(fam, q, n_max, ch).coeffs, symbolic))
             for fam, c, k in terms]
    vals = []
    for n in range(n_max + 1):
        vals.append(sum([c * g[n - k] for c, k, g in terms if k <= n],
                        vals[n - shift] if n >= shift else 0))
    return _values(vals, symbolic)


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
    if e < 1 or (q - 1) % e:
        raise ValueError("e must divide q-1")
    index = (q - 1) // e
    if kH is not None:
        kh = list(kH)
        if len(kh) < n_max + 1:
            raise ValueError("kH too short: need entries up to n=%d" % n_max)
    elif index == 1:
        kh = [1] + list(gl[1:])
    elif index == 2 and q % 2 == 1:
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
