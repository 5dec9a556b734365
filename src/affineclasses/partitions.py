"""Partitions, signed partitions, and the per-class orbit-count formulas.

Signed partitions label unipotent classes of symplectic and orthogonal groups
in odd characteristic: a partition with a sign on each part size that carries
an induced form.  One SignedPartition class covers both families through its
parity: the signed sizes are the even ones for the symplectic family (parity
0) and the odd ones for the orthogonal family (parity 1).  The o_* functions
give, per class, the number of orbits of the centralizer on the quotient of
the natural module by its twisted image; summing them over all classes counts
the classes of the affine group.

The partition identities are one table: each names the kind of partition it
sums over, the statistic summed on the left, and the weight that multiplies
the kind's product on the right.
"""

from __future__ import annotations

from functools import lru_cache

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


def _mult_vectors(total, largest, step_ok):
    """Yield multiplicity dicts for partitions of `total` with parts <= largest,
    multiplicities constrained by step_ok(part, mult).  Largest part first, so
    the output is ordered lexicographically by largest part, descending."""
    if total == 0:
        yield {}
        return
    for i in range(min(largest, total), 0, -1):
        for a in range(total // i, 0, -1):
            if not step_ok(i, a):
                continue
            for rest in _mult_vectors(total - i * a, i - 1, step_ok):
                out = {i: a}
                out.update(rest)
                yield out


def enum_partitions(n: int):
    """All partitions of n, ordered by largest part descending."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [Partition(m) for m in _mult_vectors(n, n, lambda i, a: True)]


def _sign_choices(sizes):
    # deterministic: sizes descending, '+' before '-'
    if not sizes:
        yield {}
        return
    head, tail = sizes[0], sizes[1:]
    for s in (PLUS, MINUS):
        for rest in _sign_choices(tail):
            out = {head: s}
            out.update(rest)
            yield out


def enum_signed(size: int, parity: int):
    """Signed partitions of the given total size: parity 0 for the
    symplectic family (the size must be even), 1 for the orthogonal one."""
    if size < 0 or (parity == 0 and size % 2):
        raise ValueError("size must be >= 0, and even for parity 0")
    out = []
    for m in _mult_vectors(size, size, lambda i, a: i % 2 == parity or a % 2 == 0):
        signed_sizes = sorted((i for i in m if i % 2 == parity), reverse=True)
        out.extend(SignedPartition(m, signs, parity)
                   for signs in _sign_choices(signed_sizes))
    return out


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


def sp_f(a_i: int, eps, q):
    """The weight of a signed part size of multiplicity a_i and sign eps in
    the orbit-count formulas; the size itself does not enter."""
    _check_odd_q(q)
    if a_i > 2:
        return q * 1
    if a_i == 2:
        return q * 1 if eps == PLUS else q - 1
    if a_i == 1:
        return (q - 1) / 2 if isinstance(q, QPoly) else (q - 1) // 2
    raise ValueError("a_i must be >= 1")


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

#: the partitions an identity sums over, by kind: the enumerator of those
#: at u-degree n (plain and orthogonal ones by size, symplectic ones by half
#: their size) and the product that their counts generate
_KINDS = {
    "plain": (enum_partitions, (FactorFamily(-1, 1, power=-1),)),
    "Sp": (lambda n: enum_signed(2 * n, 0), (
        FactorFamily(-1, 2, -1, power=-1),
        FactorFamily(1, 1),
        FactorFamily(-1, 1, power=-1),
    )),
    "O": (lambda n: enum_signed(n, 1), (
        FactorFamily(-1, 4, power=-1),
        FactorFamily(1, 2, -1),
        FactorFamily(-1, 2, -1, power=-1),
    )),
}

#: identity -> (kind, statistic summed over the kind's partitions on the
#: left, weight on the right).  The weight is a tuple of terms (c, k, j) of
#: sum c u^k / (1 - u^j), with j = 0 for a plain c u^k, and the right side
#: is the weight times the kind's product.  The identities whose weight is
#: a polynomial in q are symbolic, and so is their statistic.
_TABLE = {
    "distinct": ("plain", o_gl, ((1, 0, 1),)),
    "genfunU-1": ("plain", lambda lam: 1, ((1, 0, 0),)),
    "genfunU-2": ("plain", d_stat, ((1, 1, 1),)),
    "genfunU-3": ("plain", b_stat, ((1, 1, 2),)),
    "genfun-1": ("Sp", lambda lam: 1, ((1, 0, 0),)),
    "genfun-2": ("Sp", _unsigned_sizes, ((1, 1, 2),)),
    "genfun-3": ("Sp", lambda lam: _f_sum(lam, Q), ((Q - 1, 1, 1), (1, 2, 2))),
    "genfunO-1": ("O", lambda lam: 1, ((1, 0, 0),)),
    "genfunO-2": ("O", _unsigned_sizes, ((1, 4, 4),)),
    "genfunO-3": ("O", lambda lam: _f_sum(lam, Q), ((Q - 1, 1, 2), (1, 2, 4))),
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
    enumeration.

    For each n = 0..n_max the kind's partitions at u-degree n are
    enumerated once, and every identity of that kind sums its statistic
    over them.  Returns {identity: coefficient list for n = 0..n_max}, in
    table order, with ints, or QPolys for the symbolic identities.
    """
    if kind not in _KINDS:
        raise ValueError("unknown partition kind %r" % (kind,))
    enum = _KINDS[kind][0]
    rows = {}
    for name in IDENTITIES:
        k, stat, _, symbolic = _identity(name)
        if k == kind:
            rows[name] = (stat, QPoly(0) if symbolic else 0, [])
    for n in range(n_max + 1):
        parts = enum(n)
        for stat, start, sums in rows.values():
            sums.append(sum(map(stat, parts), start))
        del parts  # free degree n's partitions before degree n + 1's are built
    return {name: sums for name, (_, _, sums) in rows.items()}


@lru_cache(maxsize=None)
def lemma_rhs(identity: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Closed-form right sides of the partition identities, truncated."""
    kind, _, weight, symbolic = _identity(identity)
    one = TruncatedSeries.one(QPOLY if symbolic else RATIONAL, order)
    return apply_product(apply_weight(one, weight), _KINDS[kind][1])
