"""Conjugacy class counting by explicit orbit computation.

Matrix groups are scanned through per-generator conjugation index tables.
Affine groups V x| G are scanned on their translation quotient, without
materializing their elements.  Conjugating (g, v) by the translation w gives
(g, v + (1-g)w), so the translation orbit of (g, v) is the coset
v + [g,V] of [g,V] = (g-1)V.  A state is a pair (g, c) with c the least
member of such a coset; conjugation by h in G sends it to
(h g h^-1, least member of h c + [h g h^-1, V]).  The G-orbits of states
are the affine classes, each state standing for |[g,V]| elements, and there
are |G| times (number of G-orbits on V) states rather than |G|*|V| pairs.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from ..partitions import Partition, o_gl, o_gu
from . import kernels
from .field import FiniteField
from .groups import (CapExceeded, DEFAULT_CAP, MatrixGroup, _field_for,
                     build_group, expected_order, mat_identity, mat_mul,
                     mat_rank, mat_sub, p_compose, points, vec_index)


def _vector_tables(F: FiniteField, n: int, cap: int):
    """Flat addition table add[a*mv+b] and negation table for the points
    of F^n, once the |V|^2 addition table is checked against the cap."""
    mv = F.size ** n
    if mv * mv > cap:
        raise CapExceeded("vector addition table of %d entries exceeds cap %d"
                          % (mv * mv, cap))
    return _point_tables(F, n)


@lru_cache(maxsize=4)
def _point_tables(F: FiniteField, n: int):
    size = F.size
    vecs = points(F, n)
    mv = len(vecs)
    add = array("i", [0]) * (mv * mv)
    for a in range(mv):
        va = vecs[a]
        row = a * mv
        for b in range(a, mv):
            s = vec_index(tuple(F.add(x, y) for x, y in zip(va, vecs[b])), size)
            add[row + b] = s
            add[b * mv + a] = s
    neg = array("i", [vec_index(tuple(F.neg(x) for x in v), size) for v in vecs])
    return add, neg


class ClassDecomposition:
    """Conjugacy classes of a finite group: aligned representative indices,
    class sizes, centralizer orders.  Sizes must partition the group order."""

    def __init__(self, group_order, sizes, rep_indices):
        if sum(sizes) != group_order:
            raise AssertionError("class sizes sum to %d, group order is %d"
                                 % (sum(sizes), group_order))
        for s in sizes:
            if group_order % s:
                raise AssertionError("class size %d does not divide %d"
                                     % (s, group_order))
        self.order = group_order
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
    e = index(A) * |V| + index(v) and is never materialized, so groups near
    the cap never hold millions of tuples at once.
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
        self.cap = cap
        self._classes = None

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


def _matrix_classes(group: MatrixGroup) -> ClassDecomposition:
    N = group.order
    reps_idx, sizes = kernels.orbit_scan(group.conj_table(), len(group.gen_perms), N)
    return ClassDecomposition(N, sizes, reps_idx)


def _commutator_cosets(group: MatrixGroup, add, neg):
    """The subspaces [g,V] = (g-1)V as ids 0, 1, ...: sub_of[i] is the id
    for element i; per id, the least member of every point's coset
    (labels) and those least members in ascending order (cosets).

    [g,V] is spanned by the columns (g-1)e_j, so it is reached from the
    zero subspace by adding one column at a time; each step (subspace,
    vector) -> subspace is computed once."""
    F, n = group.field, group.n
    pts = points(F, n)
    mv = len(pts)
    basis = [F.size ** j for j in range(n)]
    spaces = [(0,)]
    ids = {(0,): 0}
    steps = {}

    def extend(s, w):
        space = spaces[s]
        if w in space:
            return s
        line = [vec_index(tuple(F.mul(k, x) for x in pts[w]), F.size)
                for k in range(1, F.size)]
        key = tuple(sorted(set(space).union(
            add[x * mv + y] for x in space for y in line)))
        if key not in ids:
            ids[key] = len(spaces)
            spaces.append(key)
        return ids[key]

    sub_of = array("i", bytes(4 * group.order))
    for i, p in enumerate(group.perms):
        s = 0
        for b in basis:
            w = add[p[b] * mv + neg[b]]
            step = s * mv + w
            t = steps.get(step)
            if t is None:
                t = steps[step] = extend(s, w)
            s = t
        sub_of[i] = s

    labels, cosets = [], []
    for space in spaces:
        label = [-1] * mv
        reps = []
        for v in range(mv):
            if label[v] < 0:
                reps.append(v)
                for w in space:
                    label[add[v * mv + w]] = v
        labels.append(label)
        cosets.append(reps)
    return sub_of, labels, cosets


def _affine_classes(ag: AffineGroup) -> ClassDecomposition:
    g = ag.base
    mv = ag.mv
    add, neg = _vector_tables(ag.field, ag.n, ag.cap)
    sub_of, labels, cosets = _commutator_cosets(g, add, neg)
    images = array("i")
    for hp in g.gen_perms:
        images.extend(hp[:mv])
    reps_e, sizes = kernels.affine_orbit_scan(
        g.conj_table(), images, sub_of, labels, cosets, g.order, mv)
    return ClassDecomposition(ag.order, sizes, reps_e)


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

def orbit_sum_check(group: MatrixGroup, cap: int = DEFAULT_CAP):
    """For each class representative g of G: the number of orbits of its
    centralizer on V/[g,V], where [g,V] = (g-1)V.  Returns (per-class orbit
    counts, their sum); the sum equals the class count of V x| G."""
    F, n = group.field, group.n
    mv = F.size ** n
    add, neg = _vector_tables(F, n, cap)
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

    def __init__(self, entries, ok):
        self.entries = entries
        self.ok = ok

    def __repr__(self):
        return "FormulaReport(classes=%d, ok=%s)" % (len(self.entries), self.ok)


def formula_check_o(group: MatrixGroup, o_vals) -> FormulaReport:
    """Check, class by class, that the orbit count of a GL or GU class
    depends only on its eigenvalue-1 partition through the closed formulas
    (d+1 for GL, 1+q*d-b for GU); o_vals are the per-class counts of
    orbit_sum_check(group)."""
    if group.family not in ("GL", "GU"):
        raise ValueError("closed orbit formulas cover GL and GU only")
    dec = count_classes(group)
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
    return FormulaReport(tuple(entries), ok)
