"""Partitions, signed partitions, and the per-class orbit-count formulas.

Signed partitions label unipotent classes of symplectic and orthogonal groups
in odd characteristic: a partition with a sign on each part size that carries
an induced form.  One SignedPartition class covers both families through its
parity: the signed sizes are the even ones for the symplectic family (parity
0) and the odd ones for the orthogonal family (parity 1).  The o_* functions
give, per class, the number of orbits of the centralizer on the quotient of
the natural module by its twisted image; summing them over all classes counts
the classes of the affine group.  A signed part size enters those counts
through its weight class: q, q - 1 or (q - 1)/2 by its multiplicity and
sign (_weight_class, _WEIGHTS).

The partition identities are one table: each names the kind of partition it
sums over, the statistic summed on the left, and the weight that multiplies
the kind's product on the right.  The left sides are brute-force counts in
ints: lemma_sum walks every multiplicity vector and every sign choice and
tallies, per degree, the partitions, their unsigned part sizes and their
signed part sizes in each weight class; a statistic reads those tallies, and
a symbolic one is a single q-polynomial per degree built from them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter

from .series import (
    DEFAULT_ORDER,
    FactorFamily,
    Q,
    QPOLY,
    QPoly,
    RATIONAL,
    TruncatedSeries,
    apply_product,
    apply_weight,
)

PLUS = "+"
MINUS = "-"


class Partition:
    """A partition stored as a map part size -> multiplicity."""

    __slots__ = ("mult", "size")

    def __init__(self, mult):
        if not isinstance(mult, dict):
            parts = list(mult)
            mult = {}
            for p in parts:
                mult[p] = mult.get(p, 0) + 1
        for i, a in mult.items():
            if i < 1 or a < 1:
                raise ValueError("part sizes and multiplicities must be >= 1")
        self.mult = dict(mult)
        self.size = sum(i * a for i, a in mult.items())

    def parts(self):
        out = []
        for i in sorted(self.mult, reverse=True):
            out.extend([i] * self.mult[i])
        return out

    def __eq__(self, other):
        return isinstance(other, Partition) and self.mult == other.mult

    def __hash__(self):
        return hash(tuple(sorted(self.mult.items())))

    def __repr__(self):
        return "Partition(%r)" % (self.parts(),)


class SignedPartition:
    """A partition with a sign on every part size of the signed parity in
    its support: parity 0 (even sizes signed) for the symplectic family, 1
    (odd sizes signed) for the orthogonal one.  Part sizes of the other
    parity need even multiplicity, which for parity 0 also makes the total
    size even."""

    __slots__ = ("mult", "signs", "parity", "size")

    def __init__(self, mult, signs, parity: int):
        if parity not in (0, 1):
            raise ValueError("parity is 0 (symplectic) or 1 (orthogonal)")
        self.mult = dict(mult)
        self.signs = dict(signs)
        self.parity = parity
        self.size = sum(i * a for i, a in self.mult.items())
        for i, a in self.mult.items():
            if i % 2 != parity and a % 2:
                raise ValueError("unsigned part sizes need even multiplicity")
        if set(self.signs) != {i for i in self.mult if i % 2 == parity}:
            raise ValueError("signs must be keyed by the part sizes of the "
                             "signed parity in the support")
        if not set(self.signs.values()) <= {PLUS, MINUS}:
            raise ValueError("signs are '+' or '-'")

    def __eq__(self, other):
        return (isinstance(other, SignedPartition) and self.parity == other.parity
                and self.mult == other.mult and self.signs == other.signs)

    def __hash__(self):
        return hash((self.parity, tuple(sorted(self.mult.items())),
                     tuple(sorted(self.signs.items()))))

    def __repr__(self):
        return "SignedPartition(%r, %r, %d)" % (self.mult, self.signs, self.parity)


def _mult_vectors(total, largest, allowed, vec=None):
    """Walk the partitions of `total` with parts <= largest whose
    multiplicities pass allowed(part, mult), largest part first.  Each is
    yielded as one list of (part size, multiplicity) pairs that the walk
    reuses, so read it before asking for the next."""
    if vec is None:
        vec = []
    if not total:
        yield vec
        return
    for i in range(min(largest, total), 1, -1):
        for a in range(total // i, 0, -1):
            if allowed(i, a):
                vec.append((i, a))
                rest = total - i * a
                if rest:
                    yield from _mult_vectors(rest, i - 1, allowed, vec)
                else:
                    yield vec
                vec.pop()
    if largest and allowed(1, total):  # parts of size 1 take what is left
        vec.append((1, total))
        yield vec
        vec.pop()


def d_stat(lam) -> int:
    """Number of distinct part sizes."""
    return len(lam.mult)


def b_stat(lam) -> int:
    """Number of part sizes with multiplicity exactly 1."""
    return sum(1 for a in lam.mult.values() if a == 1)


def o_gl(lam: Partition) -> int:
    """Orbit count for a general linear class with eigenvalue-1 partition lam."""
    return d_stat(lam) + 1


def o_gu(lam: Partition, q):
    """Orbit count for a unitary class: 1 + q*d - b."""
    return 1 + q * d_stat(lam) - b_stat(lam)


def _check_odd_q(q):
    if isinstance(q, QPoly):
        return
    if q % 2 == 0:
        raise ValueError("this formula needs odd q")


#: the weight of a signed part size in the orbit-count formulas, by weight
#: class: q, q - 1 and (q - 1)/2 (see _weight_class)
_WEIGHTS = (
    lambda q: q,
    lambda q: q - 1,
    lambda q: (q - 1) / 2 if isinstance(q, QPoly) else (q - 1) // 2,
)


def _weight_class(a_i: int, eps) -> int:
    """The weight class of a signed part size of multiplicity a_i and sign
    eps: 0 (weight q) above multiplicity 2 or at 2 with sign +, 1 (q - 1)
    at 2 with sign -, 2 ((q - 1)/2) at multiplicity 1."""
    if a_i > 2 or (a_i == 2 and eps == PLUS):
        return 0
    if a_i == 2:
        return 1
    if a_i == 1:
        return 2
    raise ValueError("a_i must be >= 1")


def sp_f(a_i: int, eps, q):
    """The weight of a signed part size of multiplicity a_i and sign eps in
    the orbit-count formulas; the size itself does not enter."""
    _check_odd_q(q)
    return _WEIGHTS[_weight_class(a_i, eps)](q)


def _unsigned_sizes(lam: SignedPartition) -> int:
    """Number of part sizes in the support that carry no sign."""
    return len(lam.mult) - len(lam.signs)


def _f_sum(lam: SignedPartition, q):
    """Sum of the weights sp_f over the signed part sizes."""
    out = 0
    for i, eps in lam.signs.items():
        out = out + sp_f(lam.mult[i], eps, q)
    return out


def o_signed(lam: SignedPartition, q):
    """Orbit count for a symplectic (parity 0) or orthogonal (parity 1)
    class in odd characteristic: 1 for the class, 1 per unsigned part size
    and sp_f per signed one."""
    _check_odd_q(q)
    return 1 + _unsigned_sizes(lam) + _f_sum(lam, q)


# ---------------------------------------------------------------------------
# brute-force sums over (signed) partitions against closed-form series

#: the partitions an identity sums over, by kind: the partition size at
#: u-degree n as a multiple of n (symplectic ones have size 2n), the parity
#: of the signed part sizes (None: no size is signed), and the product that
#: their counts generate
_KINDS = {
    "plain": (1, None, (FactorFamily(-1, 1, power=-1),)),
    "Sp": (2, 0, (
        FactorFamily(-1, 2, -1, power=-1),
        FactorFamily(1, 1),
        FactorFamily(-1, 1, power=-1),
    )),
    "O": (1, 1, (
        FactorFamily(-1, 4, power=-1),
        FactorFamily(1, 2, -1),
        FactorFamily(-1, 2, -1, power=-1),
    )),
}

#: the columns of a tally (see _tally); the signed part sizes per weight
#: class follow them
_PARTS, _UNSIGNED, _SINGLE, _CLASSES = 0, 1, 2, 3


def _tally(size: int, parity) -> list:
    """Ints summed over the partitions of `size`, a signed partition once
    for every sign choice on its part sizes of the signed parity: the
    partitions, their unsigned part sizes, those of multiplicity 1, then
    their signed part sizes in each weight class."""
    out = [0] * (_CLASSES + len(_WEIGHTS))

    def allowed(i, a):
        return parity is None or i % 2 == parity or a % 2 == 0

    for vec in _mult_vectors(size, size, allowed):
        classes = [(_weight_class(a, PLUS), _weight_class(a, MINUS))
                   for i, a in vec if i % 2 == parity]
        unsigned = len(vec) - len(classes)
        single = sum(1 for i, a in vec if a == 1 and i % 2 != parity)
        for choice in product(*classes):
            out[_PARTS] += 1
            out[_UNSIGNED] += unsigned
            out[_SINGLE] += single
            for c in choice:
                out[_CLASSES + c] += 1
    return out


def _weighted(t: list):
    """The symbolic statistic: the weights of the signed part sizes,
    summed from their tally per weight class into one q-polynomial."""
    return sum(c * w(Q) for c, w in zip(t[_CLASSES:], _WEIGHTS))


#: identity -> (kind, statistic on the left, weight on the right).  The
#: statistic reads the tally of the kind's partitions at one degree; the
#: weight is a tuple of terms (c, k, j) of sum c u^k / (1 - u^j), with
#: j = 0 for a plain c u^k, and the right side is the weight times the
#: kind's product.  The identities whose weight is a polynomial in q are
#: symbolic, and so is their statistic.
_TABLE = {
    "distinct": ("plain", lambda t: t[_PARTS] + t[_UNSIGNED], ((1, 0, 1),)),
    "genfunU-1": ("plain", itemgetter(_PARTS), ((1, 0, 0),)),
    "genfunU-2": ("plain", itemgetter(_UNSIGNED), ((1, 1, 1),)),
    "genfunU-3": ("plain", itemgetter(_SINGLE), ((1, 1, 2),)),
    "genfun-1": ("Sp", itemgetter(_PARTS), ((1, 0, 0),)),
    "genfun-2": ("Sp", itemgetter(_UNSIGNED), ((1, 1, 2),)),
    "genfun-3": ("Sp", _weighted, ((Q - 1, 1, 1), (1, 2, 2))),
    "genfunO-1": ("O", itemgetter(_PARTS), ((1, 0, 0),)),
    "genfunO-2": ("O", itemgetter(_UNSIGNED), ((1, 4, 4),)),
    "genfunO-3": ("O", _weighted, ((Q - 1, 1, 2), (1, 2, 4))),
}

IDENTITIES = tuple(_TABLE)
KINDS = tuple(_KINDS)


def _identity(identity: str):
    """The table row of an identity and whether it is symbolic."""
    if identity not in _TABLE:
        raise ValueError("unknown identity %r" % (identity,))
    kind, stat, weight = _TABLE[identity]
    return kind, stat, weight, any(isinstance(c, QPoly) for c, _, _ in weight)


def lemma_sum(kind: str, n_max: int) -> dict:
    """Left sides of the partition identities of one kind, by direct
    enumeration in ints.

    For each n = 0..n_max the kind's partitions at u-degree n are walked
    once, every sign choice of a signed one included, and tallied (_tally);
    every identity of that kind reads its statistic off the tally.  Nothing
    of degree n is kept but its tally.  Returns {identity: coefficient list
    for n = 0..n_max}, in table order, with ints, or one QPoly per degree
    for the symbolic identities.
    """
    if kind not in _KINDS:
        raise ValueError("unknown partition kind %r" % (kind,))
    scale, parity, _ = _KINDS[kind]
    rows = {name: (stat, []) for name, (k, stat, _) in _TABLE.items() if k == kind}
    for n in range(n_max + 1):
        t = _tally(scale * n, parity)
        for stat, sums in rows.values():
            sums.append(stat(t))
    return {name: sums for name, (_, sums) in rows.items()}


@lru_cache(maxsize=None)
def lemma_rhs(identity: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Closed-form right sides of the partition identities, truncated."""
    kind, _, weight, symbolic = _identity(identity)
    one = TruncatedSeries.one(QPOLY if symbolic else RATIONAL, order)
    return apply_product(apply_weight(one, weight), _KINDS[kind][2])
