"""Conjugacy class counting by explicit orbit computation.

Matrix groups are scanned through per-generator conjugation index tables
(MatrixGroup.conj_table).  Affine groups V x| G are scanned on their
translation quotient, without materializing their elements.  Conjugating
(g, v) by the translation w gives (g, v + (1-g)w), so the translation orbit
of (g, v) is the coset v + [g,V] of [g,V] = (g-1)V.  A state is a pair
(g, c) with c the least member of such a coset; conjugation by h in G sends
it to (h g h^-1, least member of h c + [h g h^-1, V]).  The G-orbits of states
are the affine classes, each state standing for |[g,V]| elements, and there
are |G| times (number of G-orbits on V) states rather than |G|*|V| pairs.
The subspaces [g,V] are spanned once per conjugacy class and carried to the
rest of the class along the conjugation tables, as [h g h^-1, V] = h [g,V].

The orbit sums count, class by class, the orbits of the centralizer C(g) on
V/[g,V].  A breadth-first walk over the class of g through the conjugation
tables carries transversal elements t_x with t_x g t_x^-1 = x, and by
Schreier's lemma the elements t_y^-1 h t_x along its edges x -> y = h x h^-1
generate C(g).  The walk keeps those outside the Closure of the ones kept so
far and stops collecting at |G| / |class|, the order the class scan fixes,
so the coset orbits close under a few generators rather than all of C(g).
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from ..partitions import Partition, o_gl, o_gu
from . import kernels
from .field import FiniteField
from .groups import (CapExceeded, Closure, DEFAULT_CAP, MatrixGroup,
                     build_group, expected_order, field_order, identity_perm,
                     mat_identity, mat_mul, mat_rank, mat_sub, p_compose,
                     points, vec_index)


def _check_table(mv: int, cap: int) -> None:
    """Refuse the |V|^2 addition table of |V| = mv points over the cap."""
    if mv * mv > cap:
        raise CapExceeded("vector addition table of %d entries exceeds cap %d"
                          % (mv * mv, cap))


def _vector_tables(F: FiniteField, n: int, cap: int):
    """Flat addition table add[a*mv+b] and negation table for the points
    of F^n, once the addition table is checked against the cap."""
    _check_table(F.size ** n, cap)
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

    def __repr__(self):
        return "AffineGroup(%s(%d,%d), order=%d)" % (
            self.family, self.n, self.q, self.order)


def build_affine(family: str, n: int, q: int, cap: int = DEFAULT_CAP) -> AffineGroup:
    """The affine extension of build_group(family, n, q), with the total
    size checked against the cap before any enumeration starts."""
    total = affine_order(family, n, q, cap)
    if total > cap:
        raise CapExceeded("affine group order %d exceeds cap %d" % (total, cap))
    return AffineGroup(build_group(family, n, q, cap=cap), cap=cap)


def affine_order(family: str, n: int, q: int, cap: int | None = None) -> int:
    """Order of the affine group from integers alone, q checked first;
    given a cap, the |V|^2 addition table of its class count is held to it
    before any field or group is built."""
    mv = field_order(family, q) ** n
    if cap is not None:
        _check_table(mv, cap)
    return expected_order(family, n, q) * mv


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


def _span(F: FiniteField, n: int, key, add, neg) -> tuple:
    """The points of [g,V] = (g-1)V in ascending order, spanned by the
    columns g e_j - e_j from the basis images key of g."""
    pts = points(F, n)
    mv = len(pts)
    space = [0]
    for j, c in enumerate(key):
        w = add[c * mv + neg[F.size ** j]]
        if w in space:
            continue
        # w is outside the span: the span grows by the |F| - 1 cosets of
        # its nonzero multiples, all new
        line = [vec_index(tuple(F.mul(k, x) for x in pts[w]), F.size)
                for k in range(1, F.size)]
        space += [add[x * mv + y] for x in space for y in line]
    return tuple(sorted(space))


def _commutator_cosets(group: MatrixGroup, add, neg):
    """The subspaces [g,V] = (g-1)V as ids 0, 1, ...: sub_of[i] is the id
    for element i; per id, the least member of every point's coset
    (labels) and those least members in ascending order (cosets).

    [h g h^-1, V] = h [g,V], so ids are carried along the conjugation
    tables: an element with no id yet has its subspace spanned (_span), and
    its conjugates by the generators take the images of that subspace, the
    image of each subspace under each generator being found once."""
    F, n = group.field, group.n
    N, mv = group.order, F.size ** n
    conj = group.conj_table()
    spaces, ids = [], {}

    def id_of(space):
        if space not in ids:
            ids[space] = len(spaces)
            spaces.append(space)
        return ids[space]

    def moved(s, h):
        return id_of(tuple(sorted(map(h.__getitem__, spaces[s]))))

    steps = [(k * N, h, {}) for k, h in enumerate(group.gen_perms)]
    sub_of = array("i", [-1]) * N
    for i0 in range(N):
        if sub_of[i0] >= 0:
            continue
        sub_of[i0] = id_of(_span(F, n, group.images[i0], add, neg))
        queue = [i0]
        for x in queue:  # the queue grows while it is read
            s = sub_of[x]
            for off, h, image in steps:
                y = conj[off + x]
                if sub_of[y] < 0:
                    t = image.get(s)
                    if t is None:
                        t = image[s] = moved(s, h)
                    sub_of[y] = t
                    queue.append(y)

    labels, cosets = zip(*(_cosets(space, add, mv) for space in spaces))
    return sub_of, labels, cosets


def _cosets(space, add, mv: int):
    """The least member of every point's coset of the subspace space (a
    list of its points), and those least members in ascending order."""
    label, reps = [-1] * mv, []
    for v in range(mv):
        if label[v] < 0:
            reps.append(v)
            for w in space:
                label[add[v * mv + w]] = v
    return label, reps


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

def centralizer_generators(group: MatrixGroup, gi: int, size: int):
    """Generators of the centralizer C(g) of g = group.elements[gi], whose
    class has size elements, as point permutations, by Schreier's lemma.

    A central class (size 1) takes the generators of G.  Otherwise the class
    is walked breadth-first through group.conj_table(), keeping for each
    reached x a pair (t_x, t_x^-1) with t_x g t_x^-1 = x: the edge from x to
    a new y = h x h^-1 sets t_y = h t_x and t_y^-1 = t_x^-1 h^-1, with h^-1
    from group.gen_inverses().  An edge into a reached y gives the Schreier
    generator t_y^-1 h t_x, kept when it extends the Closure of those kept.
    Once that has |G|/size elements the rest of the class is only counted.
    The walk must reach exactly size elements and the subgroup exactly
    |G|/size, which makes the subgroup C(g); anything else raises."""
    F, n = group.field, group.n
    order = group.order
    gens = group.gen_perms
    conj = group.conj_table()
    offs = [k * order for k in range(len(gens))]
    if size == 1:
        if any(conj[off + gi] != gi for off in offs):
            raise RuntimeError("element %d is not central" % gi)
        return gens
    target = order // size
    steps = list(zip(gens, group.gen_inverses(), offs))
    ident = identity_perm(F.size ** n)
    trans = {gi: (ident, ident)}
    sub = Closure(F, n, target)
    seen = bytearray(order)
    seen[gi] = 1
    queue = [gi]
    for x in queue:  # the queue grows while it is read: breadth-first
        tx, txinv = trans[x] if len(sub.keys) < target else (None, None)
        for h, hinv, off in steps:
            y = conj[off + x]
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
                if tx is not None:
                    trans[y] = (p_compose(h, tx), p_compose(txinv, hinv))
            elif tx is not None:
                s = p_compose(trans[y][1], p_compose(h, tx))
                if sub.key_of(s) not in sub.index:
                    sub.add(s)
                    if len(sub.keys) == target:
                        tx = None
    if len(queue) != size or len(sub.keys) != target:
        raise RuntimeError(
            "class of element %d has %d elements and a centralizer subgroup "
            "of order %d; expected %d and %d"
            % (gi, len(queue), len(sub.keys), size, target))
    return sub.gens


def orbit_sum_check(group: MatrixGroup, cap: int = DEFAULT_CAP):
    """For each class representative g of G: the number of orbits of its
    centralizer on V/[g,V], where [g,V] = (g-1)V.  Returns (per-class orbit
    counts, their sum); the sum equals the class count of V x| G.

    Each centralizer is given by the few Schreier generators that
    centralizer_generators collects on a walk over the class of g, and the
    coset orbits are closed under those generators.  The walk reads only
    G's conjugation tables and the class sizes of its matrix class scan,
    never the affine scan."""
    F, n = group.field, group.n
    mv = F.size ** n
    add, neg = _vector_tables(F, n, cap)
    dec = count_classes(group)
    out = []
    for gi, size in zip(dec.rep_indices, dec.sizes):
        label, cosets = _cosets(_span(F, n, group.images[gi], add, neg),
                                add, mv)
        cent = centralizer_generators(group, gi, size)
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
