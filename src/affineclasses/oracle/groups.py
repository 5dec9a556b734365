"""Explicit classical matrix groups over small finite fields.

Matrices are tuples of n*n field elements in row-major order.  Every group
carries, for each element, the permutation it induces on the points of the
natural module V = F^n; points are indexed by little-endian base-|F| digits,
and points(F, n) lists their vectors in index order, so permutations and
matrices are read off one table.  Permutations over at most 256 points are
stored as 256-byte translation tables so composition runs through
bytes.translate.

Every group is built one way: the closure of a generator recipe, accepted
only when it reaches the standard order formula (see build_group).

Forms are fixed once:
  * symplectic: block-antidiagonal Gram [[0, I], [-I, 0]];
  * hermitian: identity Gram with conjugation x -> x^p;
  * orthogonal, odd characteristic: identity Gram, or the same with a single
    non-square in the corner.  A form of dimension 2m is of plus type iff
    (-1)^m det is a square (Kleidman-Liebeck, The Subgroup Structure of the
    Finite Classical Groups, 1990, 2.5), so the identity Gram is of plus
    type iff m is even or q = 1 mod 4, and the twisted one of the other;
  * orthogonal, characteristic 2: quadratic forms x1 x2 + x3 x4 + ... for
    plus type, with the last hyperbolic pair replaced by an anisotropic
    binary form for minus type.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from ..primes import prime_power
from .field import FiniteField, field_for_order, finite_field

DEFAULT_CAP = 2_000_000

GROUP_FAMILIES = ("GL", "SL", "GU", "SU", "Sp", "O", "O+", "O-")


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


def mat_rank(F: FiniteField, a: tuple, n: int) -> int:
    rows = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv, x) for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def mat_det(F: FiniteField, a: tuple, n: int) -> int:
    rows = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    det = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = F.neg(det)
        det = F.mul(det, rows[col][col])
        inv = F.inv(rows[col][col])
        for r in range(col + 1, n):
            if rows[r][col]:
                c = F.mul(inv, rows[r][col])
                rows[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(rows[r], rows[col])]
    return det


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


def p_compose(a, b):
    """The permutation x -> a[b[x]]."""
    if isinstance(a, bytes):
        return b.translate(a)
    return tuple(a[x] for x in b)


def p_invert(a):
    if isinstance(a, bytes):
        out = bytearray(256)
        for i, ai in enumerate(a):
            out[ai] = i
        return bytes(out)
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# forms

class FormData:
    """Invariant form of a group: kind is 'none', 'bilinear', 'hermitian', or
    'quadratic'.  gram holds the Gram matrix (for quadratic forms, of the
    polarization); quadratic holds the upper-triangular coefficient matrix."""

    __slots__ = ("kind", "gram", "quadratic", "label")

    def __init__(self, kind, gram=None, quadratic=None, label=""):
        self.kind = kind
        self.gram = gram
        self.quadratic = quadratic
        self.label = label

    def __repr__(self):
        return "FormData(%s, %s)" % (self.kind, self.label)


def symplectic_form(F: FiniteField, n: int) -> FormData:
    m = n // 2
    g = [0] * (n * n)
    for i in range(m):
        g[i * n + m + i] = 1
        g[(m + i) * n + i] = F.neg(1)
    return FormData("bilinear", tuple(g), label="[[0,I],[-I,0]]")


def hermitian_form(F: FiniteField, n: int) -> FormData:
    return FormData("hermitian", mat_identity(n), label="identity Gram")


def orthogonal_form_odd(F: FiniteField, n: int, twist: bool) -> FormData:
    g = list(mat_identity(n))
    label = "identity Gram"
    if twist:
        g[0] = F.nonsquare()
        label = "diag(%d,1,...,1)" % g[0]
    return FormData("bilinear", tuple(g), label=label)


def orthogonal_form_char2(F: FiniteField, n: int, plus: bool) -> FormData:
    quad = [0] * (n * n)
    m = n // 2
    for i in range(m):
        quad[2 * i * n + 2 * i + 1] = 1
    label = "x1x2+..."
    if not plus:
        a = None
        for cand in range(F.size):
            if all(F.add(F.add(F.mul(x, x), x), cand) for x in range(F.size)):
                a = cand
                break
        i, j = n - 2, n - 1
        quad[i * n + i] = 1
        quad[j * n + j] = a
        label = "x1x2+...+x%d^2+x%dx%d+%d*x%d^2" % (n - 1, n - 1, n, a, n)
    gram = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            if i < j:
                gram[i * n + j] = quad[i * n + j]
            elif i > j:
                gram[i * n + j] = quad[j * n + i]
    return FormData("quadratic", tuple(gram), tuple(quad), label=label)


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


def bilinear(F: FiniteField, gram: tuple, x: tuple, y: tuple) -> int:
    n = len(x)
    out = 0
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j] and gram[i * n + j]:
                    out = F.add(out, F.mul(x[i], F.mul(gram[i * n + j], y[j])))
    return out


def hermitian(F: FiniteField, x: tuple, y: tuple) -> int:
    out = 0
    for a, b in zip(x, y):
        if a and b:
            out = F.add(out, F.mul(F.conj(a), b))
    return out


def preserves_form(F: FiniteField, form: FormData, mat: tuple, n: int) -> bool:
    cols = [tuple(mat[i * n + j] for i in range(n)) for j in range(n)]
    if form.kind == "none":
        return mat_det(F, mat, n) != 0
    if form.kind == "bilinear":
        g = form.gram
        for i in range(n):
            for j in range(n):
                if bilinear(F, g, cols[i], cols[j]) != g[i * n + j]:
                    return False
        return True
    if form.kind == "hermitian":
        for i in range(n):
            for j in range(i, n):
                want = 1 if i == j else 0
                if hermitian(F, cols[i], cols[j]) != want:
                    return False
        return True
    # quadratic: preserve Q on a basis and the polarization on pairs
    q, g = form.quadratic, form.gram
    for j in range(n):
        if eval_quadratic(F, form, cols[j]) != q[j * n + j]:
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if bilinear(F, g, cols[i], cols[j]) != g[i * n + j]:
                return False
    return True


# ---------------------------------------------------------------------------
# order formulas

def expected_order(family: str, n: int, q: int) -> int:
    if family in ("GL", "SL"):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        order = 1
        qn = q ** n
        for i in range(n):
            order *= qn - q ** i
        return order if family == "GL" else order // (q - 1)
    if family in ("GU", "SU"):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        order = q ** (n * (n - 1) // 2)
        for i in range(1, n + 1):
            order *= q ** i - (-1) ** i
        return order if family == "GU" else order // (q + 1)
    if family == "Sp":
        if n < 2 or n % 2:
            raise ValueError("symplectic dimension must be even and positive")
        m = n // 2
        order = q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
        return order
    if family == "O":
        if n < 1 or n % 2 == 0:
            raise ValueError("untyped orthogonal groups are odd-dimensional")
        if q % 2 == 0:
            raise ValueError("odd-dimensional orthogonal needs odd q")
        m = n // 2
        order = 2 * q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
        return order
    if family in ("O+", "O-"):
        if n < 2 or n % 2:
            raise ValueError("no form of type %s in dimension %d" % (family, n))
        m = n // 2
        eps = 1 if family == "O+" else -1
        order = 2 * q ** (m * (m - 1)) * (q ** m - eps)
        for i in range(1, m):
            order *= q ** (2 * i) - 1
        return order
    raise ValueError("unknown family %r" % (family,))


# ---------------------------------------------------------------------------
# generator recipes

def _proj_vectors(F: FiniteField, n: int):
    """Nonzero vectors with first nonzero coordinate 1, ascending index."""
    for v in points(F, n)[1:]:
        if next(x for x in v if x) == 1:
            yield v


def _transvection(F: FiniteField, n: int, v: tuple, cvec: tuple) -> tuple:
    """x -> x + <x,cvec-functional> v realized as I + v * cvec^T."""
    out = list(mat_identity(n))
    for i in range(n):
        if v[i]:
            for j in range(n):
                if cvec[j]:
                    out[i * n + j] = F.add(out[i * n + j], F.mul(v[i], cvec[j]))
    return tuple(out)


def _quasi_reflection(F: FiniteField, n: int, v: tuple, lam: int) -> tuple:
    """x -> x + ((lam-1)/h(v,v)) h(v,x) v for non-isotropic v: a unitary
    map of determinant lam when lam has norm 1."""
    coef = F.div(F.sub(lam, 1), hermitian(F, v, v))
    return _transvection(F, n, tuple(F.mul(coef, x) for x in v),
                         tuple(F.conj(x) for x in v))


def _recipe_candidates(family: str, F: FiniteField, n: int, form: FormData):
    cands = []
    if family in ("GL", "SL"):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for lam in range(1, F.size):
                    m = list(mat_identity(n))
                    m[i * n + j] = lam
                    cands.append(tuple(m))
        if family == "GL":
            m = list(mat_identity(n))
            m[0] = F.primitive()
            cands.insert(0, tuple(m))
        return cands
    if family == "Sp":
        g = form.gram
        for v in _proj_vectors(F, n):
            # row functional x -> B(x, v)
            cvec = tuple(bilinear(F, g, tuple(1 if k == i else 0 for k in range(n)), v)
                         for i in range(n))
            for lam in range(1, F.size):
                lv = tuple(F.mul(lam, x) for x in v)
                cands.append(_transvection(F, n, lv, cvec))
        return cands
    if family in ("O", "O+", "O-") and F.p % 2 == 1:
        g = form.gram
        for v in _proj_vectors(F, n):
            qv = bilinear(F, g, v, v)
            if qv == 0:
                continue
            # reflection x -> x - (2 B(x,v) / B(v,v)) v
            coef = F.neg(F.mul(F.embed(2), F.inv(qv)))
            cvec = tuple(F.mul(coef, bilinear(
                F, g, tuple(1 if k == i else 0 for k in range(n)), v))
                for i in range(n))
            cands.append(_transvection(F, n, v, cvec))
        return cands
    if family in ("O+", "O-"):
        # characteristic 2: x -> x + (B(x,v)/Q(v)) v for Q(v) != 0
        for v in _proj_vectors(F, n):
            qv = eval_quadratic(F, form, v)
            if qv == 0:
                continue
            inv = F.inv(qv)
            cvec = tuple(F.mul(inv, bilinear(
                F, form.gram, tuple(1 if k == i else 0 for k in range(n)), v))
                for i in range(n))
            cands.append(_transvection(F, n, v, cvec))
        if n == 4:
            # O+(4,2) is not generated by its transvections (they give
            # order 36 of 72); the swap of the two hyperbolic pairs
            # completes it.  It does not preserve the minus-type form.
            cands.append((0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0))
        return cands
    if family in ("GU", "SU"):
        # unitary transvections x -> x + lam h(v,x) v with h(v,v)=0 and
        # lam of trace zero
        lams = [x for x in range(1, F.size) if F.add(x, F.conj(x)) == 0]
        nonisotropic = []
        for v in _proj_vectors(F, n):
            if hermitian(F, v, v):
                nonisotropic.append(v)
                continue
            cvec = tuple(F.conj(x) for x in v)  # functional x -> h(v, x)
            for lam in lams:
                lv = tuple(F.mul(lam, x) for x in v)
                cands.append(_transvection(F, n, lv, cvec))
        # quasi-reflections, lam != 1 of norm 1, extend SU to GU; their
        # det-1 products R(v0, lam^-1) R(v, lam) complete SU(3,2), which the
        # transvections alone do not generate (order 54 of 216)
        norm1 = [x for x in range(2, F.size) if F.mul(x, F.conj(x)) == 1]
        if family == "GU":
            cands.extend(_quasi_reflection(F, n, v, lam)
                         for v in nonisotropic for lam in norm1)
        else:
            v0 = nonisotropic[0]
            cands.extend(mat_mul(F, _quasi_reflection(F, n, v0, F.inv(lam)),
                                 _quasi_reflection(F, n, v, lam), n)
                         for v in nonisotropic[1:] for lam in norm1)
        return cands
    raise ValueError("no generator recipe for %s over this field" % (family,))


def _perm_closure(gen_perms, mv: int, limit: int):
    seen = {identity_perm(mv)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gen_perms:
                prod = p_compose(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > limit:
                        raise RuntimeError(
                            "closure exceeded the expected order %d" % limit)
        frontier = nxt
    return seen


def _greedy_generators(cand_perms, mv: int, expected: int):
    """Pick a small generating subset, scanning candidates in order.  The
    order is checked only after every candidate lies in the closure, so a
    closure that reaches the expected order as a proper subgroup of what
    the candidates generate raises instead of being accepted."""
    gens, closure = [], {identity_perm(mv)}
    for i, p in enumerate(cand_perms):
        if p in closure:
            continue
        gens.append(i)
        closure = _perm_closure([cand_perms[k] for k in gens], mv, expected)
    if len(closure) != expected:
        raise RuntimeError("candidates generate a group of order %d, expected %d"
                           % (len(closure), expected))
    return gens, closure


# ---------------------------------------------------------------------------
# the group object and its builders

class MatrixGroup:
    """An enumerated classical group with aligned matrix and permutation
    views of every element, sorted by matrix."""

    def __init__(self, family, n, q, field, form, elements, perms, generators,
                 gen_perms):
        self.family = family
        self.n = n
        self.q = q
        self.field = field
        self.form = form
        self.elements = elements
        self.perms = perms
        self.generators = generators
        self.gen_perms = gen_perms
        self.order = len(elements)
        self._perm_index = None
        self._conj_table = None
        self._classes = None

    def perm_index(self) -> dict:
        if self._perm_index is None:
            self._perm_index = {p: i for i, p in enumerate(self.perms)}
        return self._perm_index

    def conj_table(self) -> array:
        """For each generator h in turn, the index map i -> index of
        h g_i h^-1, all maps back to back (map k at offset k * order)."""
        if self._conj_table is None:
            idx = self.perm_index()
            out = array("i")
            for hp in self.gen_perms:
                hinv = p_invert(hp)
                out.extend(idx[p_compose(p_compose(hp, p), hinv)]
                           for p in self.perms)
            self._conj_table = out
        return self._conj_table

    def preserves_form(self, mat: tuple) -> bool:
        return preserves_form(self.field, self.form, mat, self.n)

    def __len__(self):
        return self.order

    def __repr__(self):
        return "MatrixGroup(%s(%d,%d), order=%d)" % (
            self.family, self.n, self.q, self.order)


def _field_for(family: str, q: int) -> FiniteField:
    if family in ("GU", "SU"):
        if prime_power(q)[1] != 1:
            raise ValueError("unitary groups need a prime q (field degree <= 2)")
        return finite_field(q, 2)
    return field_for_order(q)


def _resolve_form(family: str, F: FiniteField, n: int, q: int) -> FormData:
    if family in ("GL", "SL"):
        return FormData("none", label="no form")
    if family in ("GU", "SU"):
        return hermitian_form(F, n)
    if family == "Sp":
        if n < 2 or n % 2:
            raise ValueError("symplectic dimension must be even and positive")
        return symplectic_form(F, n)
    if family == "O":
        expected_order("O", n, q)  # validates n, q parity
        return orthogonal_form_odd(F, n, twist=False)
    if family in ("O+", "O-"):
        if n < 2 or n % 2:
            raise ValueError("no form of type %s in dimension %d" % (family, n))
        if q % 2 == 0:
            return orthogonal_form_char2(F, n, plus=family == "O+")
        identity_plus = (n // 2) % 2 == 0 or q % 4 == 1
        return orthogonal_form_odd(F, n, twist=identity_plus != (family == "O+"))
    raise ValueError("unknown family %r" % (family,))


def build_group(family: str, n: int, q: int, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Enumerate a classical group by closing its generator recipe.

    The recipe lists elementary transvections (plus a primitive diagonal
    for GL), symplectic transvections, orthogonal reflections or
    transvections, and unitary transvections with quasi-reflections.  Two
    groups are the classical exceptions to generation by transvections
    and get extra candidates: SU(3,2), det-1 products of unitary
    quasi-reflections, and O+(4,2), the swap of its two hyperbolic pairs.
    Candidates outside the group are dropped before the closure, so the
    closure is a subgroup and reaching the order formula proves it is the
    whole group.  The form, and with it the type of an orthogonal group, is
    fixed before the closure (see the module docstring); the closure is
    taken once, and a recipe or form that misses the order raises.
    """
    if family not in GROUP_FAMILIES:
        raise ValueError("unknown family %r (choose from %s)"
                         % (family, ", ".join(GROUP_FAMILIES)))
    F = _field_for(family, q)
    expected = expected_order(family, n, q)
    if expected > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (expected, cap))
    mv = F.size ** n
    if mv > 256 and expected * mv > 32 * cap:
        # up to 256 points an element is 256 bytes; beyond, it keeps |V|
        # 8-byte point images, so allow the same cap * 256 bytes
        raise CapExceeded("group order %d on %d points stores %d point images, "
                          "over 32 * cap %d" % (expected, mv, expected * mv, cap))

    form = _resolve_form(family, F, n, q)
    return _assemble(family, n, q, F, form, expected)


def _assemble(family, n, q, F, form, expected) -> MatrixGroup:
    size = F.size
    det1 = family in ("SL", "SU")
    cands = [m for m in _recipe_candidates(family, F, n, form)
             if preserves_form(F, form, m, n)
             and (not det1 or mat_det(F, m, n) == 1)]
    cand_perms = [perm_from_matrix(F, m, n) for m in cands]
    gen_pos, closure = _greedy_generators(cand_perms, size ** n, expected)
    generators = [cands[i] for i in gen_pos]
    gen_perms = [cand_perms[i] for i in gen_pos]
    # column j of an element is the image of e_j, which has index size**j
    pts = points(F, n)
    basis = [size ** j for j in range(n)]
    pairs = []
    for p in closure:
        cols = [pts[p[b]] for b in basis]
        pairs.append((tuple(x for row in zip(*cols) for x in row), p))
    pairs.sort(key=lambda t: t[0])
    mats = [t[0] for t in pairs]
    perms = [t[1] for t in pairs]
    return MatrixGroup(family, n, q, F, form, mats, perms, generators, gen_perms)

