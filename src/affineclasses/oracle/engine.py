"""Conjugacy class counting by explicit orbit computation.

Matrix groups are scanned through per-generator conjugation index tables;
affine groups V x| G are scanned without materializing their elements, via
pairs e = (group index) * |V| + (vector index) and per-generator descriptors
(a conjugation map on the group part, a per-element translation offset, a
permutation of V).  Conjugating (g, v) by (h, w) gives
(h g h^-1, w - (h g h^-1) w + h v), so closing under the base group
generators and a translation basis of V reaches the whole conjugacy class.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import product

from ..partitions import Partition, d_stat, enum_partitions, o_gl, o_gu
from . import kernels
from .field import FiniteField, field_for_order
from .groups import (CapExceeded, DEFAULT_CAP, MatrixGroup, _field_for,
                     build_group, expected_order, identity_perm, index_vec,
                     mat_identity, mat_mul, mat_rank, mat_sub, p_compose,
                     p_invert, vec_index)


@lru_cache(maxsize=None)
def _vector_tables(F: FiniteField, n: int):
    """Flat addition table add[a*mv+b] and negation table for the points
    of F^n; bytes when the point count fits, arrays otherwise."""
    size = F.size
    mv = size ** n
    vecs = [index_vec(i, size, n) for i in range(mv)]
    flat = [0] * (mv * mv)
    for a in range(mv):
        va = vecs[a]
        row = a * mv
        for b in range(a, mv):
            s = vec_index(tuple(F.add(x, y) for x, y in zip(va, vecs[b])), size)
            flat[row + b] = s
            flat[b * mv + a] = s
    neg = [vec_index(tuple(F.neg(x) for x in v), size) for v in vecs]
    if mv <= 256:
        return bytes(flat), bytes(neg)
    return array("i", flat), array("i", neg)


class ClassDecomposition:
    """Conjugacy classes of a finite group: aligned representatives, class
    sizes, centralizer orders.  Sizes must partition the group order."""

    def __init__(self, group_order, representatives, sizes, rep_indices):
        if sum(sizes) != group_order:
            raise AssertionError("class sizes sum to %d, group order is %d"
                                 % (sum(sizes), group_order))
        for s in sizes:
            if group_order % s:
                raise AssertionError("class size %d does not divide %d"
                                     % (s, group_order))
        self.order = group_order
        self.representatives = representatives
        self.sizes = sizes
        self.rep_indices = rep_indices
        self.centralizer_orders = [group_order // s for s in sizes]

    @property
    def k(self) -> int:
        return len(self.sizes)

    def __repr__(self):
        return "ClassDecomposition(order=%d, k=%d)" % (self.order, self.k)


class AffineGroup:
    """V x| G for a matrix group G on V = F^n.

    The element list is virtual: the pair (A, v) lives at index
    e = index(A) * |V| + index(v) and is materialized on demand, so groups
    near the cap never hold millions of tuples at once.
    """

    def __init__(self, base: MatrixGroup, cap: int = DEFAULT_CAP):
        self.base = base
        self.field = base.field
        self.n = base.n
        self.q = base.q
        self.family = "A" + base.family
        self.mv = base.field.size ** base.n
        self.order = base.order * self.mv
        if self.order > cap:
            raise CapExceeded("affine group order %d exceeds cap %d"
                              % (self.order, cap))
        self._classes = None

    def tables(self):
        return _vector_tables(self.field, self.n)

    def element(self, e: int):
        gi, vi = divmod(e, self.mv)
        return self.base.elements[gi], index_vec(vi, self.field.size, self.n)

    def __len__(self):
        return self.order

    def __repr__(self):
        return "AffineGroup(%s(%d,%d), order=%d)" % (
            self.family, self.n, self.q, self.order)


def build_affine(family: str, n: int, q: int, cap: int = DEFAULT_CAP) -> AffineGroup:
    """The affine extension of build_group(family, n, q), with the total
    size checked against the cap before any enumeration starts."""
    F = _field_for(family, q)
    total = expected_order(family, n, q) * F.size ** n
    if total > cap:
        raise CapExceeded("affine group order %d exceeds cap %d" % (total, cap))
    return AffineGroup(build_group(family, n, q, cap=cap), cap=cap)


def affine_order(family: str, n: int, q: int) -> int:
    """Order of the affine group without building anything."""
    return expected_order(family, n, q) * _field_for(family, q).size ** n


#: every affine cell that fits under the default cap: (family, dim, q)
VERIFICATION_GRID = tuple(
    [("GL", n, q) for n in (1, 2, 3) for q in (2, 3)]
    + [("GU", n, q) for n in (1, 2) for q in (2, 3)]
    + [("Sp", 2, q) for q in (2, 3, 5)] + [("Sp", 4, 2)]
    + [("O", 1, 3), ("O", 3, 3)]
    + [(f, d, 3) for d in (2, 4) for f in ("O+", "O-")]
    + [(f, d, 2) for d in (2, 4) for f in ("O+", "O-")]
)


def _conj_table(group: MatrixGroup, hp):
    """Index map i -> index of h g_i h^-1."""
    idx = group.perm_index()
    hinv = p_invert(hp)
    out = array("i", bytes(4 * group.order))
    for i, p in enumerate(group.perms):
        out[i] = idx[p_compose(p_compose(hp, p), hinv)]
    return out


def _matrix_classes(group: MatrixGroup) -> ClassDecomposition:
    N = group.order
    gens = group.gen_perms
    t_flat = array("i", bytes(4 * len(gens) * N))
    for k, hp in enumerate(gens):
        t_flat[k * N:(k + 1) * N] = _conj_table(group, hp)
    reps_idx, sizes = kernels.orbit_scan(t_flat, len(gens), N)
    reps = [group.elements[i] for i in reps_idx]
    return ClassDecomposition(N, reps, sizes, reps_idx)


def _translation_basis(F: FiniteField, n: int):
    """Point indices of a basis of F^n as a module over the prime field."""
    scalars = [1] if F.degree == 1 else [1, F.p]
    return [c * F.size ** j for j in range(n) for c in scalars]


def _affine_classes(ag: AffineGroup) -> ClassDecomposition:
    g = ag.base
    mg, mv = g.order, ag.mv
    add, neg = ag.tables()
    perms = g.perms
    wide = mv > 256

    cgs, oms, hvs = [], [], []
    ident_cg = array("i", range(mg))
    zero_om = array("i", bytes(4 * mg))
    ident_hv = identity_perm(mv)
    for hp in g.gen_perms:
        cgs.append(_conj_table(g, hp))
        oms.append(zero_om)
        hvs.append(hp)
    for wb in _translation_basis(ag.field, ag.n):
        om = array("i", bytes(4 * mg))
        for i, pm in enumerate(perms):
            om[i] = add[wb * mv + neg[pm[wb]]] * mv
        cgs.append(ident_cg)
        oms.append(om)
        hvs.append(ident_hv)

    ngen = len(cgs)
    cg_flat = array("i")
    om_flat = array("i")
    for cg in cgs:
        cg_flat.extend(cg)
    for om in oms:
        om_flat.extend(om)
    if wide:
        stride = mv
        hv_flat = array("i")
        for hv in hvs:
            hv_flat.extend(hv)
    else:
        stride = 256
        hv_flat = b"".join(hvs)

    reps_e, sizes = kernels.affine_orbit_scan(
        cg_flat, om_flat, hv_flat, add, ngen, mg, mv, stride)
    reps = [ag.element(e) for e in reps_e]
    return ClassDecomposition(ag.order, reps, sizes, reps_e)


def count_classes(group) -> ClassDecomposition:
    """Conjugacy classes by closing each element under conjugation by the
    generators; the result is cached on the group."""
    if group._classes is None:
        if isinstance(group, AffineGroup):
            group._classes = _affine_classes(group)
        else:
            group._classes = _matrix_classes(group)
    return group._classes


# ---------------------------------------------------------------------------
# orbit sums: the class count of V x| G, one class of G at a time

def orbit_sum_check(group: MatrixGroup):
    """For each class representative g of G: the number of orbits of its
    centralizer on V/[g,V], where [g,V] = (g-1)V.  Returns (per-class orbit
    counts, their sum); the sum equals the class count of V x| G."""
    F, n = group.field, group.n
    mv = F.size ** n
    add, neg = _vector_tables(F, n)
    perms = group.perms
    dec = count_classes(group)
    out = []
    for gi in dec.rep_indices:
        pg = perms[gi]
        image = sorted({add[pg[x] * mv + neg[x]] for x in range(mv)})
        # cosets of [g,V], labeled by their least member
        label = array("i", [-1]) * mv
        cosets = []
        for v in range(mv):
            if label[v] >= 0:
                continue
            cosets.append(v)
            for w in image:
                label[add[v * mv + w]] = v
        cent = [h for h in perms if p_compose(h, pg) == p_compose(pg, h)]
        seen = set()
        cnt = 0
        for v in cosets:
            if v in seen:
                continue
            cnt += 1
            seen.add(v)
            stack = [v]
            while stack:
                x = stack.pop()
                for h in cent:
                    y = label[h[x]]
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        out.append(cnt)
    return out, sum(out)


# ---------------------------------------------------------------------------
# per-class diagnostics

def unipotent_partition(group: MatrixGroup, mat: tuple) -> Partition:
    """Jordan block sizes of mat at eigenvalue 1, from the rank sequence
    r_k = rank((mat-1)^k): size k occurs r_{k-1} - 2 r_k + r_{k+1} times."""
    F, n = group.field, group.n
    a = mat_sub(F, mat, mat_identity(n))
    ranks = [n]
    power = mat_identity(n)
    while True:
        power = mat_mul(F, power, a, n)
        r = mat_rank(F, power, n)
        ranks.append(r)
        if r == ranks[-2]:
            break

    def rk(k):
        return ranks[k] if k < len(ranks) else ranks[-1]

    mult = {}
    for k in range(1, n + 1):
        m = rk(k - 1) - 2 * rk(k) + rk(k + 1)
        if m:
            mult[k] = m
    return Partition(mult)


class FormulaReport:
    """Per-class comparison of measured orbit counts with the closed
    formulas for GL and GU."""

    def __init__(self, entries, total, ok):
        self.entries = entries
        self.total = total
        self.ok = ok

    def __repr__(self):
        return "FormulaReport(classes=%d, total=%d, ok=%s)" % (
            len(self.entries), self.total, self.ok)


def formula_check_o(group: MatrixGroup) -> FormulaReport:
    """Check, class by class, that the orbit count of a GL or GU class
    depends only on its eigenvalue-1 partition through the closed formulas
    (d+1 for GL, 1+q*d-b for GU)."""
    if group.family not in ("GL", "GU"):
        raise ValueError("closed orbit formulas cover GL and GU only")
    dec = count_classes(group)
    o_vals, total = orbit_sum_check(group)
    entries = []
    ok = True
    for i, gi in enumerate(dec.rep_indices):
        lam = unipotent_partition(group, group.elements[gi])
        if group.family == "GL":
            expected = o_gl(lam)
        else:
            expected = o_gu(lam, group.q)
        good = expected == o_vals[i]
        ok = ok and good
        entries.append({"class": i, "partition": lam.parts(),
                        "measured": o_vals[i], "expected": expected,
                        "ok": good})
    return FormulaReport(tuple(entries), total, ok)


# ---------------------------------------------------------------------------
# direct class sum for AGL from polynomial data

def _poly_rem(F: FiniteField, a, b):
    """Remainder of a modulo the monic polynomial b; coefficient tuples are
    lowest-degree first."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = F.sub(a[shift + i], F.mul(lead, b[i]))
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(a)


def _irreducible_polys(F: FiniteField, maxdeg: int):
    """Monic irreducible polynomials of degree 1..maxdeg over F, excluding
    z itself, as lowest-first coefficient tuples with leading 1."""
    irr = []
    for d in range(1, maxdeg + 1):
        for tail in product(range(F.size), repeat=d):
            p = tail + (1,)
            if any(len(g) - 1 <= d // 2 and _poly_rem(F, p, g) == (0,)
                   for g in irr):
                continue
            irr.append(p)
    z = (0, 1)
    return [p for p in irr if p != z]


def gl_direct_class_sum(n: int, q: int, n_limit: int = 4, q_limit: int = 5) -> int:
    """Class count of the affine group of GL(n, q), summed directly over the
    polynomial-and-partition data of GL classes: every class assigns a
    partition to each monic irreducible (z excluded), total weighted degree
    n, and contributes d+1 orbits through its z-1 partition, 1 otherwise."""
    if not 1 <= n <= n_limit:
        raise ValueError("n must be between 1 and %d" % n_limit)
    if q > q_limit:
        raise ValueError("q is limited to %d here" % q_limit)
    F = field_for_order(q)
    zm1 = (F.neg(1), 1)
    others = [p for p in _irreducible_polys(F, n) if p != zm1]
    degs = [len(p) - 1 for p in others]
    npart = [len(enum_partitions(j)) for j in range(n + 1)]

    def assignments(i: int, w: int) -> int:
        if w == 0:
            return 1
        if i == len(degs):
            return 0
        total = 0
        j = 0
        while j * degs[i] <= w:
            total += npart[j] * assignments(i + 1, w - j * degs[i])
            j += 1
        return total

    total = 0
    for m in range(n + 1):
        for lam in enum_partitions(m):
            total += (d_stat(lam) + 1) * assignments(0, n - m)
    return total
