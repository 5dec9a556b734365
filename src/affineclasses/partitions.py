"""Partitions, signed partitions, and the per-class orbit-count formulas.

Signed partitions label unipotent classes of symplectic and orthogonal groups
in odd characteristic: a partition with a sign on each part size that carries
an induced form (even sizes for the symplectic family, odd sizes for the
orthogonal one).  The o_* functions give, per class, the number of orbits of
the centralizer on the quotient of the natural module by its twisted image;
summing them over all classes counts the classes of the affine group.
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
    geometric,
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


class SpSignedPartition:
    """Partition of even size with a_i even for odd i and a sign on every even
    part size in the support."""

    __slots__ = ("mult", "signs", "size")

    def __init__(self, mult, signs):
        self.mult = dict(mult)
        self.signs = dict(signs)
        self.size = sum(i * a for i, a in self.mult.items())
        if self.size % 2:
            raise ValueError("symplectic signed partitions have even size")
        for i, a in self.mult.items():
            if i % 2 == 1 and a % 2:
                raise ValueError("odd part sizes need even multiplicity")
        if set(self.signs) != {i for i in self.mult if i % 2 == 0}:
            raise ValueError("signs must be keyed by the even part sizes in the support")
        if not set(self.signs.values()) <= {PLUS, MINUS}:
            raise ValueError("signs are '+' or '-'")

    def __eq__(self, other):
        return (isinstance(other, SpSignedPartition)
                and self.mult == other.mult and self.signs == other.signs)

    def __hash__(self):
        return hash((tuple(sorted(self.mult.items())), tuple(sorted(self.signs.items()))))

    def __repr__(self):
        return "SpSignedPartition(%r, %r)" % (self.mult, self.signs)


class OSignedPartition:
    """Partition with a_i even for even i and a sign on every odd part size in
    the support."""

    __slots__ = ("mult", "signs", "size")

    def __init__(self, mult, signs):
        self.mult = dict(mult)
        self.signs = dict(signs)
        self.size = sum(i * a for i, a in self.mult.items())
        for i, a in self.mult.items():
            if i % 2 == 0 and a % 2:
                raise ValueError("even part sizes need even multiplicity")
        if set(self.signs) != {i for i in self.mult if i % 2 == 1}:
            raise ValueError("signs must be keyed by the odd part sizes in the support")
        if not set(self.signs.values()) <= {PLUS, MINUS}:
            raise ValueError("signs are '+' or '-'")

    def __eq__(self, other):
        return (isinstance(other, OSignedPartition)
                and self.mult == other.mult and self.signs == other.signs)

    def __hash__(self):
        return hash((tuple(sorted(self.mult.items())), tuple(sorted(self.signs.items()))))

    def __repr__(self):
        return "OSignedPartition(%r, %r)" % (self.mult, self.signs)


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


def _signed(base_iter, cls, signed_parity):
    out = []
    for m in base_iter:
        signed_sizes = sorted((i for i in m if i % 2 == signed_parity), reverse=True)
        for signs in _sign_choices(signed_sizes):
            out.append(cls(m, signs))
    return out


def enum_sp_signed(size: int):
    """Symplectic signed partitions of the given (even) total size."""
    if size % 2:
        raise ValueError("size must be even")
    base = _mult_vectors(size, size, lambda i, a: i % 2 == 0 or a % 2 == 0)
    return _signed(base, SpSignedPartition, 0)


def enum_o_signed(size: int):
    """Orthogonal signed partitions of the given total size."""
    if size < 0:
        raise ValueError("size must be >= 0")
    base = _mult_vectors(size, size, lambda i, a: i % 2 == 1 or a % 2 == 0)
    return _signed(base, OSignedPartition, 1)


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


def sp_f(i: int, a_i: int, eps, q):
    """The weight of a signed part size in the orbit-count formulas."""
    _check_odd_q(q)
    if a_i > 2:
        return q * 1
    if a_i == 2:
        return q * 1 if eps == PLUS else q - 1
    if a_i == 1:
        return (q - 1) / 2 if isinstance(q, QPoly) else (q - 1) // 2
    raise ValueError("a_i must be >= 1")


def o_sp(lam: SpSignedPartition, q):
    """Orbit count for a symplectic class in odd characteristic."""
    _check_odd_q(q)
    out = 1
    for i, a in lam.mult.items():
        if i % 2 == 1:
            out = out + 1
        else:
            out = out + sp_f(i, a, lam.signs[i], q)
    return out


def o_orth(lam: OSignedPartition, q):
    """Orbit count for an orthogonal class in odd characteristic; the roles of
    odd and even part sizes are swapped relative to the symplectic case."""
    _check_odd_q(q)
    out = 1
    for i, a in lam.mult.items():
        if i % 2 == 0:
            out = out + 1
        else:
            out = out + sp_f(i, a, lam.signs[i], q)
    return out


# ---------------------------------------------------------------------------
# brute-force sums over (signed) partitions against closed-form series

IDENTITIES = (
    "distinct",
    "genfunU-1", "genfunU-2", "genfunU-3",
    "genfun-1", "genfun-2", "genfun-3",
    "genfunO-1", "genfunO-2", "genfunO-3",
)

_SYMBOLIC = {"genfun-3", "genfunO-3"}


def _support_count(lam, parity):
    return sum(1 for i in lam.mult if i % 2 == parity)


def _f_sum(lam, parity, q):
    out = 0
    for i, a in lam.mult.items():
        if i % 2 == parity:
            out = out + sp_f(i, a, lam.signs[i], q)
    return out


def lemma_sum(identity: str, n_max: int):
    """Left sides of the partition identities, by direct enumeration.

    Returns the coefficient list for n = 0..n_max.  Weights follow the
    identity: plain partitions are weighted by u^|lam|, symplectic signed ones
    by u^(|lam|/2), orthogonal signed ones by u^|lam|.
    """
    if identity not in IDENTITIES:
        raise ValueError("unknown identity %r" % (identity,))
    q = Q
    out = []
    for n in range(n_max + 1):
        if identity == "distinct":
            val = sum(d_stat(l) + 1 for l in enum_partitions(n))
        elif identity == "genfunU-1":
            val = len(enum_partitions(n))
        elif identity == "genfunU-2":
            val = sum(d_stat(l) for l in enum_partitions(n))
        elif identity == "genfunU-3":
            val = sum(b_stat(l) for l in enum_partitions(n))
        elif identity == "genfun-1":
            val = len(enum_sp_signed(2 * n))
        elif identity == "genfun-2":
            val = sum(_support_count(l, 1) for l in enum_sp_signed(2 * n))
        elif identity == "genfun-3":
            val = QPoly(0)
            for l in enum_sp_signed(2 * n):
                val = val + _f_sum(l, 0, q)
        elif identity == "genfunO-1":
            val = len(enum_o_signed(n))
        elif identity == "genfunO-2":
            val = sum(_support_count(l, 0) for l in enum_o_signed(n))
        else:  # genfunO-3
            val = QPoly(0)
            for l in enum_o_signed(n):
                val = val + _f_sum(l, 1, q)
        out.append(val)
    return out


@lru_cache(maxsize=None)
def lemma_rhs(identity: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Closed-form right sides of the partition identities, truncated."""
    if identity not in IDENTITIES:
        raise ValueError("unknown identity %r" % (identity,))
    ring = QPOLY if identity in _SYMBOLIC else RATIONAL
    one = TruncatedSeries.one(ring, order)

    all_parts_inv = FactorFamily(-1, lambda i: i, power=-1)
    if identity == "distinct":
        return geometric(1, 1, ring, order) * apply_product(one, [all_parts_inv])
    if identity.startswith("genfunU"):
        base = apply_product(one, [all_parts_inv])
        if identity == "genfunU-1":
            return base
        if identity == "genfunU-2":
            return TruncatedSeries.monomial(1, 1, ring, order) * geometric(1, 1, ring, order) * base
        return TruncatedSeries.monomial(1, 1, ring, order) * geometric(1, 2, ring, order) * base

    if identity.startswith("genfun-"):
        base = apply_product(one, [
            FactorFamily(-1, lambda i: 2 * i - 1, power=-1),  # odd part sizes
            FactorFamily(1, lambda i: i),
            FactorFamily(-1, lambda i: i, power=-1),
        ])
        if identity == "genfun-1":
            return base
        if identity == "genfun-2":
            return TruncatedSeries.monomial(1, 1, ring, order) * geometric(1, 2, ring, order) * base
        w = (TruncatedSeries.monomial(Q - 1, 1, ring, order) * geometric(1, 1, ring, order)
             + TruncatedSeries.monomial(1, 2, ring, order) * geometric(1, 2, ring, order))
        return w * base

    base = apply_product(one, [
        FactorFamily(-1, lambda i: 4 * i, power=-1),
        FactorFamily(1, lambda i: 2 * i - 1),
        FactorFamily(-1, lambda i: 2 * i - 1, power=-1),
    ])
    if identity == "genfunO-1":
        return base
    if identity == "genfunO-2":
        return TruncatedSeries.monomial(1, 4, ring, order) * geometric(1, 4, ring, order) * base
    w = (TruncatedSeries.monomial(Q - 1, 1, ring, order) * geometric(1, 2, ring, order)
         + TruncatedSeries.monomial(1, 2, ring, order) * geometric(1, 4, ring, order))
    return w * base
