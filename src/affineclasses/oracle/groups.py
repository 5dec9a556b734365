"""Explicit classical matrix groups over small finite fields.

Matrices are tuples of n*n field elements in row-major order.  Points of the
natural module V = F^n are indexed by little-endian base-|F| digits, and
points(F, n) lists their vectors in index order, so e_j has index |F|^j.
An element g is kept only as its basis images, the indices of g e_1, ...,
g e_n (its columns): MatrixGroup.matrix decodes its matrix, and one table
over the points gives the matrix's row-major base-|F| number to sort by.
Only generators carry their permutation of V, a 256-byte table up to 256
points and a tuple beyond, so h g is n lookups in h's table (p_compose).

Every group is built one way: one breadth-first Closure of a generator
recipe, accepted only when it reaches the standard order formula (see
build_group).  It records the left tables L_h[i] = index(h g_i) and the
elements in runs: g_j = h_k g_parent(j) for every j in a run (a, b, k),
with parent(j) < a.  Right products follow by the recurrence
R_x[j] = index(g_j x) = L_k[R_x[parent(j)]] from R_x[identity] = index(x),
one slice per run, so conjugation by h is i -> R_{h^-1}[L_h[i]]
(MatrixGroup.conj_table).

Each group family is one row of GROUP_FAMILIES: its kind, GL, GU, Sp or O,
and whether only elements of determinant 1 are kept (SL, SU).  Everything
done before the closure reads the row, not the name: the field is F_{q^2}
for the kind GU and F_q otherwise (field_order); GL and GU share one order
formula, as |GU(n, q)| = |GL(n, -q)| up to sign, and Sp, O and O+- one
product (expected_order); the kind picks the form and the generator recipe,
and O, O+ and O- differ only in the type of the quadratic form.

Forms are fixed once, in one model: B(x, y) = sum sigma(x_i) g_ij y_j with
sigma the identity, or x -> x^p for a hermitian form, and for an
orthogonal form also Q, an upper-triangular matrix with Gram Q + Q^T:
  * symplectic: block-antidiagonal Gram [[0, I], [-I, 0]];
  * hermitian: identity Gram with sigma x -> x^p;
  * orthogonal, odd characteristic: Q with diagonal g_ii / 2 for the
    identity Gram, or the same with a single non-square in the corner.  A
    form of dimension 2m is of plus type iff (-1)^m det is a square
    (Kleidman-Liebeck, The Subgroup Structure of the Finite Classical
    Groups, 1990, 2.5), so the identity Gram is of plus type iff m is even
    or q = 1 mod 4, and the twisted one of the other;
  * orthogonal, characteristic 2: Q = x1 x2 + x3 x4 + ... for plus type,
    with the last hyperbolic pair replaced by an anisotropic binary form
    for minus type.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, is_, itemgetter
from random import Random

from ..primes import prime_power
from .field import FiniteField, field_for_order

DEFAULT_CAP = 2_000_000

GROUP_FAMILIES = {
    "GL": ("GL", False), "SL": ("GL", True), "GU": ("GU", False), "SU": ("GU", True),
    "Sp": ("Sp", False), "O": ("O", False), "O+": ("O", False), "O-": ("O", False),
}


def _row(family: str) -> tuple:
    """(kind, det 1) of a group family, or the one unknown-family error."""
    if family not in GROUP_FAMILIES:
        raise ValueError("unknown family %r (choose from %s)"
                         % (family, ", ".join(GROUP_FAMILIES)))
    return GROUP_FAMILIES[family]


class CapExceeded(RuntimeError):
    """A requested group or affine group is larger than the element cap."""


# ---------------------------------------------------------------------------
# matrices

def mat_identity(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul(F: FiniteField, a: tuple, b: tuple, n: int) -> tuple:
    out = [0] * (n * n)
    mul, add = F.mul, F.add
    for i in range(n):
        row = i * n
        for k in range(n):
            aik = a[row + k]
            if aik:
                brow = k * n
                for j in range(n):
                    if b[brow + j]:
                        out[row + j] = add(out[row + j], mul(aik, b[brow + j]))
    return tuple(out)


def mat_vec(F: FiniteField, a: tuple, v: tuple, n: int) -> tuple:
    mul, add = F.mul, F.add
    out = []
    for i in range(n):
        row = i * n
        acc = 0
        for j in range(n):
            if v[j]:
                acc = add(acc, mul(a[row + j], v[j]))
        out.append(acc)
    return tuple(out)


def mat_sub(F: FiniteField, a: tuple, b: tuple) -> tuple:
    return tuple(F.sub(x, y) for x, y in zip(a, b))


def _eliminate(F: FiniteField, a: tuple, n: int):
    """Forward elimination of the n x n matrix a: (rank, determinant)."""
    rows = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    rank, det = 0, 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = F.neg(det)
        top = rows[rank]
        det = F.mul(det, top[col])
        inv = F.inv(top[col])
        for r in range(rank + 1, n):
            if rows[r][col]:
                c = F.mul(inv, rows[r][col])
                rows[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(rows[r], top)]
        rank += 1
    return rank, det


def mat_rank(F: FiniteField, a: tuple, n: int) -> int:
    return _eliminate(F, a, n)[0]


def mat_det(F: FiniteField, a: tuple, n: int) -> int:
    return _eliminate(F, a, n)[1]


# ---------------------------------------------------------------------------
# points of V and permutations

def vec_index(v: tuple, size: int) -> int:
    out = 0
    for k in range(len(v) - 1, -1, -1):
        out = out * size + v[k]
    return out


def index_vec(idx: int, size: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        idx, d = divmod(idx, size)
        out.append(d)
    return tuple(out)


@lru_cache(maxsize=4)
def points(F: FiniteField, n: int) -> tuple:
    """The vectors of F^n in index order: points(F, n)[i] has index i."""
    size = F.size
    return tuple(index_vec(i, size, n) for i in range(size ** n))


def identity_perm(mv: int):
    if mv <= 256:
        return bytes(range(256))
    return tuple(range(mv))


def perm_from_matrix(F: FiniteField, mat: tuple, n: int):
    size = F.size
    out = [vec_index(mat_vec(F, mat, v, n), size) for v in points(F, n)]
    if len(out) <= 256:
        return bytes(out) + bytes(range(len(out), 256))
    return tuple(out)


def basis_images(F: FiniteField, mat: tuple, n: int):
    """The point indices of the columns g e_1, ..., g e_n of mat: bytes up to
    256 points, a tuple beyond."""
    size = F.size
    cols = [vec_index(mat[j::n], size) for j in range(n)]
    return bytes(cols) if size ** n <= 256 else tuple(cols)


def p_compose(a, b):
    """The permutation x -> a[b[x]], or, for b the basis images of an
    element g, those of the product a g: one bytes.translate up to 256
    points, len(b) tuple lookups beyond."""
    if isinstance(a, bytes):
        return b.translate(a)
    return tuple(map(a.__getitem__, b))


def p_compose_all(a, bs):
    """p_compose(a, b) for every b in bs, as one iterator."""
    if isinstance(a, bytes):
        return map(bytes.translate, bs, repeat(a))
    return map(tuple, map(map, repeat(a.__getitem__), bs))


def p_invert(a):
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return bytes(out) if isinstance(a, bytes) else tuple(out)


# ---------------------------------------------------------------------------
# forms

class FormData(namedtuple("FormData", "gram conj quadratic label",
                          defaults=(None, False, None, ""))):
    """Invariant form of a group: B(x, y) = sum sigma(x_i) g_ij y_j, where
    sigma is x -> x^p when conj is set and the identity otherwise.  An
    orthogonal form also holds Q as the upper-triangular matrix quadratic,
    Q(x) = sum_{i<=j} quadratic_ij x_i x_j, and gram = quadratic +
    quadratic^T.  GL and SL have no Gram."""

    __slots__ = ()


def symplectic_form(F: FiniteField, n: int) -> FormData:
    m = n // 2
    g = [0] * (n * n)
    for i in range(m):
        g[i * n + m + i] = 1
        g[(m + i) * n + i] = F.neg(1)
    return FormData(tuple(g), label="[[0,I],[-I,0]]")


def orthogonal_form(F: FiniteField, n: int, family: str) -> FormData:
    """Q for O(n, q), q odd, and O+/O-(n, q): for odd q, Q has diagonal
    g_ii / 2 for the identity Gram or the one with a non-square in the
    corner, chosen by the discriminant; for even q, Q is x1x2 + x3x4 + ...,
    its last pair made anisotropic for minus type."""
    quad = [0] * (n * n)
    if F.p % 2:
        half = F.inv(F.embed(2))
        for i in range(n):
            quad[i * n + i] = half
        label = "identity Gram"
        identity_plus = (n // 2) % 2 == 0 or F.size % 4 == 1
        if family != "O" and identity_plus != (family == "O+"):
            a = F.nonsquare()
            quad[0] = F.mul(a, half)
            label = "diag(%d,1,...,1)" % a
    else:
        for i in range(n // 2):
            quad[2 * i * n + 2 * i + 1] = 1
        label = "x1x2+..."
        if family == "O-":
            a = next(c for c in range(F.size)
                     if all(F.add(F.add(F.mul(x, x), x), c) for x in range(F.size)))
            quad[(n - 2) * n + n - 2] = 1
            quad[n * n - 1] = a
            label = "x1x2+...+x%d^2+x%dx%d+%d*x%d^2" % (n - 1, n - 1, n, a, n)
    gram = tuple(F.add(quad[i * n + j], quad[j * n + i])
                 for i in range(n) for j in range(n))
    return FormData(gram, quadratic=tuple(quad), label=label)


def form_value(F: FiniteField, form: FormData, x: tuple, y: tuple) -> int:
    """B(x, y) = sum sigma(x_i) g_ij y_j."""
    n = len(x)
    g = form.gram
    out = 0
    for i in range(n):
        xi = F.conj(x[i]) if form.conj else x[i]
        if xi:
            for j in range(n):
                if y[j] and g[i * n + j]:
                    out = F.add(out, F.mul(xi, F.mul(g[i * n + j], y[j])))
    return out


def eval_quadratic(F: FiniteField, form: FormData, v: tuple) -> int:
    n = len(v)
    q = form.quadratic
    out = 0
    for i in range(n):
        if v[i]:
            for j in range(i, n):
                if v[j] and q[i * n + j]:
                    out = F.add(out, F.mul(q[i * n + j], F.mul(v[i], v[j])))
    return out


def preserves_form(F: FiniteField, form: FormData, mat: tuple, n: int) -> bool:
    """B on every pair of columns and, for an orthogonal form, Q on every
    column; with no form, invertibility."""
    g = form.gram
    if g is None:
        return mat_det(F, mat, n) != 0
    cols = [tuple(mat[i * n + j] for i in range(n)) for j in range(n)]
    q = form.quadratic
    for i in range(n):
        if q is not None and eval_quadratic(F, form, cols[i]) != q[i * n + i]:
            return False
        for j in range(i, n):
            if form_value(F, form, cols[i], cols[j]) != g[i * n + j]:
                return False
    return True


# ---------------------------------------------------------------------------
# order formulas

def expected_order(family: str, n: int, q: int) -> int:
    """|G| by the standard formulas: GL and GU share one, as |GU(n, q)| =
    |GL(n, -q)| up to sign, and O and O+- are read off |Sp(2m, q)|."""
    kind, det1 = _row(family)
    if kind in ("GL", "GU"):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        s = 1 if kind == "GL" else -1
        order = q ** (n * (n - 1) // 2)
        for i in range(1, n + 1):
            order *= q ** i - s ** i
        return order // (q - s) if det1 else order
    if family == "O":
        if n < 1 or n % 2 == 0:
            raise ValueError("untyped orthogonal groups are odd-dimensional")
        if q % 2 == 0:
            raise ValueError("odd-dimensional orthogonal needs odd q")
    elif n < 2 or n % 2:
        raise ValueError("symplectic dimension must be even and positive"
                         if kind == "Sp" else
                         "no form of type %s in dimension %d" % (family, n))
    m = n // 2
    order = q ** (m * m)  # |Sp(2m, q)|
    for i in range(1, m + 1):
        order *= q ** (2 * i) - 1
    if kind == "Sp":
        return order
    if family == "O":
        return 2 * order
    return 2 * order // (q ** m * (q ** m + (1 if family == "O+" else -1)))


# ---------------------------------------------------------------------------
# generator recipes

def _proj_vectors(F: FiniteField, n: int):
    """Nonzero vectors with first nonzero coordinate 1, ascending index."""
    for v in points(F, n)[1:]:
        if next(x for x in v if x) == 1:
            yield v


def _form_transvection(F: FiniteField, form: FormData, v: tuple, c: int) -> tuple:
    """x -> x + c B(v, x) v, the matrix I + c v B(v, e_j)."""
    n = len(v)
    pts = points(F, n)
    row = [F.mul(c, form_value(F, form, v, pts[F.size ** j])) for j in range(n)]
    return tuple(F.add(int(i == j), F.mul(v[i], row[j]))
                 for i in range(n) for j in range(n))


def _recipe_candidates(family: str, F: FiniteField, n: int, form: FormData):
    kind, det1 = _row(family)
    cands = []
    if kind == "GL":
        def unit(pos, lam):  # the identity with entry pos set to lam
            return tuple(lam if k == pos else x
                         for k, x in enumerate(mat_identity(n)))
        cands = [] if det1 else [unit(0, F.primitive())]
        return cands + [unit(i * n + j, lam) for i in range(n) for j in range(n)
                        if i != j for lam in range(1, F.size)]
    if kind == "Sp":
        # symplectic transvections x -> x + lam B(x, v) v
        return [_form_transvection(F, form, v, F.neg(lam))
                for v in _proj_vectors(F, n) for lam in range(1, F.size)]
    if kind == "O":
        # reflections x -> x - (B(v, x) / Q(v)) v for Q(v) != 0
        for v in _proj_vectors(F, n):
            qv = eval_quadratic(F, form, v)
            if qv:
                cands.append(_form_transvection(F, form, v, F.neg(F.inv(qv))))
        if n == 4 and F.p == 2:
            # O+(4,2) is not generated by its transvections (they give
            # order 36 of 72); the swap of the two hyperbolic pairs
            # completes it.  It does not preserve the minus-type form.
            cands.append((0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0))
        return cands
    # GU, SU: unitary transvections x -> x + lam B(v, x) v with B(v, v) = 0
    # and lam of trace zero
    lams = [x for x in range(1, F.size) if F.add(x, F.conj(x)) == 0]
    nonisotropic = []
    for v in _proj_vectors(F, n):
        if form_value(F, form, v, v):
            nonisotropic.append(v)
            continue
        cands.extend(_form_transvection(F, form, v, lam) for lam in lams)

    def quasi_reflection(v, lam):
        return _form_transvection(
            F, form, v, F.div(F.sub(lam, 1), form_value(F, form, v, v)))

    # quasi-reflections R(v, lam), of determinant lam for lam != 1 of norm
    # 1, extend SU to GU; their det-1 products R(v0, lam^-1) R(v, lam)
    # complete SU(3,2), which the transvections alone do not generate
    # (order 54 of 216)
    norm1 = [x for x in range(2, F.size) if F.mul(x, F.conj(x)) == 1]
    if not det1:
        cands.extend(quasi_reflection(v, lam)
                     for v in nonisotropic for lam in norm1)
    else:
        v0 = nonisotropic[0]
        cands.extend(mat_mul(F, quasi_reflection(v0, F.inv(lam)),
                             quasi_reflection(v, lam), n)
                     for v in nonisotropic[1:] for lam in norm1)
    return cands


class Closure:
    """The group generated by point permutations, enumerated breadth-first on
    basis images (Seress, Permutation Group Algorithms, CUP 2003, ch. 4):
    keys[i] and index are element i's basis images and their inverse map,
    element 0 is the identity and left[k][i] = index(gens[k] g_i).  The
    other elements come in runs (a, b, k): elements a..b-1 are gens[k]
    times element parent[j] < a.  A generator added later extends the
    closure without redoing it; passing limit raises.  The generators are
    those _greedy_generators adds: a few random subproducts of a recipe's
    candidates, then any candidate still outside."""

    def __init__(self, F: FiniteField, n: int, limit: int):
        ident = basis_images(F, mat_identity(n), n)
        self.keys, self.index = [ident], {ident: 0}
        self.parent, self.runs = array("i", [-1]), []
        self.gens, self.left = [], []
        self.limit = limit

    def key_of(self, perm):
        """The basis images of a point permutation."""
        return p_compose(perm, self.keys[0])

    def add(self, perm) -> None:
        """Close under perm as well: each generator takes the keys its left
        table lacks in one batch, and only the products not yet indexed get
        a step of their own."""
        keys, index, parent = self.keys, self.index, self.parent
        self.gens.append(perm)
        self.left.append(array("i"))
        steps = list(enumerate(zip(self.gens, self.left)))
        while any(len(table) < len(keys) for table in self.left):
            for k, (h, table) in steps:
                done, start = len(table), len(keys)
                batch = list(p_compose_all(h, keys[done:start]))
                found = list(map(index.get, batch))
                new = list(compress(range(len(batch)),
                                    map(is_, found, repeat(None))))
                for i in new:
                    # a key may occur twice in one batch
                    j = found[i] = index.setdefault(batch[i], len(keys))
                    if j == len(keys):
                        if j == self.limit:
                            raise RuntimeError(
                                "closure exceeded the expected order %d" % j)
                        keys.append(batch[i])
                        parent.append(done + i)
                table.extend(found)
                if len(keys) > start:
                    self.runs.append((start, len(keys), k))


#: the most random subproducts _greedy_generators draws before its greedy pass
SUBPRODUCT_DRAWS = 4


def _greedy_generators(F: FiniteField, n: int, cands, expected: int) -> Closure:
    """Pick a small generating set of the group of the candidate matrices.

    The closure starts from random subproducts of the candidates, each the
    product in list order of a random subset of them (Babai 1991; Seress,
    Permutation Group Algorithms, CUP 2003, 2.3).  Two of them generate
    most classical groups, so the tables and scans that walk one map per
    generator walk two or three.  The subsets come from a fixed seed, so a
    group gets the same generators on every run, and draws go on while the
    closure is short of the expected order, up to SUBPRODUCT_DRAWS.  Then a
    greedy pass takes the candidates in order: one whose basis images the
    closure lacks becomes a generator and extends it.  The order is checked
    only once every candidate lies in the closure, so a proper subgroup of
    what the candidates generate that reaches the expected order raises.
    Returns the closure."""
    closure = Closure(F, n, expected)
    rng = Random(0)
    for _ in range(SUBPRODUCT_DRAWS):
        if len(closure.keys) == expected:
            break
        m = mat_identity(n)
        for c in cands:
            if rng.getrandbits(1):
                m = mat_mul(F, m, c, n)
        if basis_images(F, m, n) not in closure.index:
            closure.add(perm_from_matrix(F, m, n))
    for m in cands:
        if basis_images(F, m, n) not in closure.index:
            closure.add(perm_from_matrix(F, m, n))
    if len(closure.keys) != expected:
        raise RuntimeError("candidates generate a group of order %d, expected %d"
                           % (len(closure.keys), expected))
    return closure


# ---------------------------------------------------------------------------
# the group object and its builders

class MatrixGroup:
    """An enumerated classical group, sorted by matrix: images[i] is the
    basis images of element i, matrix(i) its matrix, and gen_perms the
    generators as point permutations.  The closure that enumerated the
    group is kept until conj_table() reads it, but its index dict, which
    nothing after the closure reads, is dropped before the sort."""

    def __init__(self, family, n, q, field, form, closure):
        self.family = family
        self.n = n
        self.q = q
        self.field = field
        self.form = form
        size, keys = field.size, closure.keys
        closure.index = None
        tab = [vec_index(v[::-1], size ** n) for v in points(field, n)]
        packed = repeat(0)  # the row-major base-|F| number of each matrix
        for c in range(n):
            col = [x * size ** (n - 1 - c) for x in tab].__getitem__
            packed = list(map(add, packed, map(col, map(itemgetter(c), keys))))
        order = array("i", sorted(range(len(keys)), key=packed.__getitem__))
        self.images = [keys[i] for i in order]
        self.gen_perms = closure.gens
        self.order = len(order)
        self._closure = (closure, order, array("i", p_invert(order)))
        self._gen_inverses = None
        self._conj_table = None
        self._classes = None

    def matrix(self, i: int) -> tuple:
        """The matrix of element i: column c is the point images[i][c]."""
        cols = map(points(self.field, self.n).__getitem__, self.images[i])
        return tuple(chain.from_iterable(zip(*cols)))

    def gen_inverses(self) -> list:
        """The inverses of gen_perms, in the same order, inverted once."""
        if self._gen_inverses is None:
            self._gen_inverses = [p_invert(hp) for hp in self.gen_perms]
        return self._gen_inverses

    def conj_table(self) -> array:
        """For each generator h in turn, the index map i -> index of
        h g_i h^-1, all maps back to back (map k at offset k * order): in
        closure labels R_{h^-1} o L_h, with the right products one slice per
        closure run, relabelled to the sorted order.  h^-1 is the element
        that h sends to the identity, so R_{h^-1} starts from
        L_h.index(0).  The closure is dropped once read."""
        if self._conj_table is None:
            c, order, pos = self._closure  # pos = order^-1
            lefts, parent = c.left, c.parent
            out = array("i")
            for left in lefts:
                right = [left.index(0)] * self.order
                for a, b, k in c.runs:  # parents lie before their run
                    right[a:b] = map(lefts[k].__getitem__,
                                     map(right.__getitem__, parent[a:b]))
                out.extend([pos[right[left[i]]] for i in order])
            self._conj_table = out
            self._closure = None
        return self._conj_table


def field_order(family: str, q: int) -> int:
    """|F| for a family's groups over q, from q alone: q, a prime or the
    square of one, or q^2 for the unitary groups, which need a prime q."""
    k = prime_power(q)[1]
    if _row(family)[0] == "GU":
        if k != 1:
            raise ValueError("unitary groups need a prime q (field degree <= 2)")
        return q * q
    if k > 2:
        raise ValueError("q must be a prime or the square of a prime, got %r" % (q,))
    return q


def _resolve_form(family: str, F: FiniteField, n: int) -> FormData:
    """The form of a family whose dimension expected_order has accepted."""
    kind = _row(family)[0]
    if kind == "GL":
        return FormData(label="no form")
    if kind == "GU":
        return FormData(mat_identity(n), conj=True, label="identity Gram")
    if kind == "Sp":
        return symplectic_form(F, n)
    return orthogonal_form(F, n, family)


def build_group(family: str, n: int, q: int, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Enumerate a classical group by closing its generator recipe.

    The recipe lists elementary transvections (plus a primitive diagonal
    for GL) and, for the groups of a form B, maps x -> x + c B(v, x) v:
    symplectic transvections (c = -lam), orthogonal reflections in either
    characteristic (c = -1/Q(v)), unitary transvections (c = lam of trace
    0) and unitary quasi-reflections (c = (lam - 1)/B(v, v)).  Two groups
    are the classical exceptions to generation by these and get extra
    candidates: SU(3,2), det-1 products of unitary quasi-reflections, and
    O+(4,2), the swap of its two hyperbolic pairs.  Candidates outside the
    group are dropped before the closure, so the closure is a subgroup and
    reaching the order formula proves it is the whole group.  The form, and
    with it the type of an orthogonal group, is fixed before the closure
    (see the module docstring); the closure is taken once, and a recipe or
    form that misses the order raises.  The generators are not the
    candidates themselves but up to SUBPRODUCT_DRAWS random subproducts of
    them, from a fixed seed, plus any candidate those miss
    (_greedy_generators); class
    data do not depend on them, as representatives are least indices in the
    sorted order.  q is checked, and |G| and |V| are held to the cap, from
    integers before the field is built.
    """
    det1 = _row(family)[1]
    size = field_order(family, q)
    expected = expected_order(family, n, q)
    if expected > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (expected, cap))
    if size ** n > cap:
        # the point table and each generator's permutation hold |V| entries
        raise CapExceeded("%d points exceed cap %d" % (size ** n, cap))

    F = field_for_order(size)
    form = _resolve_form(family, F, n)
    cands = [m for m in _recipe_candidates(family, F, n, form)
             if preserves_form(F, form, m, n)
             and (not det1 or mat_det(F, m, n) == 1)]
    return MatrixGroup(family, n, q, F, form,
                       _greedy_generators(F, n, cands, expected))
