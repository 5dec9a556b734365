"""Brute-force oracle tests: explicit groups, class counts, orbit sums.

Grid sizes follow the element cap; the one deliberately larger cell
(ASp(4,3), 4.2 million elements) raises the cap explicitly.  Set
AFFINECLASSES_BIG=1 to also run the 6.6-million-element ASU(4,2) cell.
"""

import hashlib
import os
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineclasses.classcount import affine_series, ao_split, classical_series
from affineclasses.oracle import (AffineGroup, CapExceeded, VERIFICATION_GRID,
                                  affine_order, build_affine, build_group,
                                  count_classes, formula_check_o,
                                  orbit_sum_check)
from affineclasses.oracle import engine as engine_mod
from affineclasses.oracle import field as field_mod
from affineclasses.oracle import groups as groups_mod
from affineclasses.oracle import kernels as kernel_mod
from affineclasses.oracle.engine import (centralizer_generators,
                                         unipotent_partition)
from affineclasses.oracle.field import field_for_order, finite_field
from affineclasses.oracle.groups import (DEFAULT_CAP, Closure,
                                        _greedy_generators, basis_images,
                                        expected_order, index_vec, mat_det,
                                        mat_identity, mat_mul, mat_rank,
                                        mat_vec, p_compose, p_compose_all,
                                        perm_from_matrix, points,
                                        preserves_form, vec_index)
from affineclasses.partitions import d_stat
from affineclasses.primes import is_prime
from test_partitions import enum_partitions


def affine_count(family, characteristic, q, n):
    """Closed-form k for one affine cell, indexed as the series is."""
    s = affine_series(family, q=q, order=n, ch=characteristic)
    from fractions import Fraction
    return int(Fraction(s.coeff(n)))


def ao_pair(characteristic, q, order):
    s = affine_series("AO-sum", q=q, order=order, ch=characteristic)
    d = affine_series("AO-diff", q=q, order=order, ch=characteristic)
    return ao_split(s.coeffs, d.coeffs)


# ---------------------------------------------------------------------------
# fields

class TestField:
    @pytest.mark.parametrize("p,degree", [(2, 1), (3, 1), (5, 1), (7, 1),
                                          (2, 2), (3, 2), (5, 2), (7, 2),
                                          (11, 2)])
    def test_field_axioms_exhaustive(self, p, degree):
        F = finite_field(p, degree)
        els = list(F.elements)
        assert len(els) == p ** degree
        for x in els:
            assert F.add(x, 0) == x
            assert F.mul(x, 1) == x
            assert F.add(x, F.neg(x)) == 0
            if x:
                assert F.mul(x, F.inv(x)) == 1
        for x in els:
            for y in els:
                assert F.add(x, y) == F.add(y, x)
                assert F.mul(x, y) == F.mul(y, x)
                for z in els:
                    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))

    def test_large_quadratic_field(self):
        F = finite_field(53, 2)
        for x in range(1, F.size):
            assert F.mul(x, F.inv(x)) == 1
        g = F.primitive()
        order = F.size - 1
        assert order == 2808 == 2 ** 3 * 3 ** 3 * 13
        assert F.pow_el(g, order) == 1
        assert all(F.pow_el(g, order // r) != 1 for r in (2, 3, 13))

    @pytest.mark.parametrize("p,modulus", [(2, (1, 1)), (3, (1, 0)), (5, (2, 0))])
    def test_modulus_scan_is_deterministic(self, p, modulus):
        assert finite_field(p, 2).modulus == modulus

    def test_conjugation_is_the_frobenius(self):
        F = finite_field(3, 2)
        for x in F.elements:
            assert F.conj(x) == F.pow_el(x, 3)
            assert F.conj(F.conj(x)) == x
        for a in range(3):
            assert F.conj(F.embed(a)) == F.embed(a)

    def test_field_cache_is_bounded(self):
        bound = finite_field.cache_info().maxsize
        assert bound is not None
        primes = [p for p in range(2, 200) if is_prime(p)][:bound + 3]
        for p in primes:
            finite_field(p)
        assert finite_field.cache_info().currsize == bound
        assert finite_field(primes[-1]) is finite_field(primes[-1])

    def test_division_and_errors(self):
        F = finite_field(5, 1)
        assert F.div(3, 4) == F.mul(3, F.inv(4))
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ValueError):
            finite_field(4, 1)
        with pytest.raises(ValueError):
            finite_field(2, 3)
        with pytest.raises(ValueError):
            field_for_order(12)

    def test_special_elements(self):
        assert finite_field(3, 1).nonsquare() == 2
        assert finite_field(7, 1).primitive() == 3
        assert finite_field(2, 1).primitive() == 1
        F = finite_field(2, 2)
        with pytest.raises(ValueError):
            F.nonsquare()


# ---------------------------------------------------------------------------
# groups

ORDER_CELLS = [
    ("GL", 1, 2, 1), ("GL", 2, 2, 6), ("GL", 2, 3, 48), ("GL", 3, 2, 168), ("GL", 3, 3, 11232),
    ("SL", 2, 3, 24), ("SL", 3, 2, 168), ("SL", 2, 9, 720),
    ("GU", 1, 2, 3), ("GU", 2, 2, 18), ("GU", 2, 3, 96), ("GU", 3, 2, 648),
    ("SU", 2, 2, 6), ("SU", 2, 3, 24), ("SU", 3, 2, 216),
    ("Sp", 2, 2, 6), ("Sp", 2, 3, 24), ("Sp", 4, 2, 720), ("Sp", 4, 3, 51840),
    ("O", 1, 3, 2), ("O", 3, 3, 48),
    ("O+", 2, 2, 2), ("O-", 2, 2, 6), ("O+", 4, 2, 72), ("O-", 4, 2, 120),
    ("O+", 2, 3, 4), ("O-", 2, 3, 8), ("O+", 4, 3, 1152), ("O-", 4, 3, 1440),
]


class TestElimination:
    """mat_rank and mat_det come from one forward elimination."""

    @pytest.mark.parametrize("q", [4, 9])
    def test_every_2x2_matrix(self, q):
        F = field_for_order(q)
        mats = list(product(range(q), repeat=4))
        rng = random.Random(q)
        for a in mats:
            det = mat_det(F, a, 2)
            assert det == F.sub(F.mul(a[0], a[3]), F.mul(a[1], a[2]))
            assert (det != 0) == (mat_rank(F, a, 2) == 2)
            assert (mat_rank(F, a, 2) == 0) == (a == (0, 0, 0, 0))
            b = rng.choice(mats)
            assert mat_det(F, mat_mul(F, a, b, 2), 2) == F.mul(det, mat_det(F, b, 2))

    @pytest.mark.parametrize("q", [4, 9])
    def test_random_3x3_matrices(self, q):
        F = field_for_order(q)
        rng = random.Random(q)
        for _ in range(500):
            # sparse entries reach the singular matrices too
            a, b = (tuple(rng.choice((0, 0, rng.randrange(q))) for _ in range(9))
                    for _ in range(2))
            det = mat_det(F, a, 3)
            assert (det != 0) == (mat_rank(F, a, 3) == 3)
            assert mat_det(F, mat_mul(F, a, b, 3), 3) == F.mul(det, mat_det(F, b, 3))


class TestBuildGroup:
    @pytest.mark.parametrize("family,n,q,order", ORDER_CELLS)
    def test_orders_match_the_standard_formulas(self, family, n, q, order):
        g = build_group(family, n, q)
        assert g.order == order == expected_order(family, n, q)

    def test_elements_are_sorted_and_unique(self):
        g = build_group("Sp", 2, 3)
        assert g.elements == sorted(set(g.elements))

    def test_generators_are_a_small_subset(self):
        g = build_group("GL", 3, 3)
        assert 0 < len(g.generators) < 8
        for m in g.generators:
            assert m in set(g.elements)

    @pytest.mark.parametrize("family,n,q", [("Sp", 2, 3), ("GU", 2, 2),
                                            ("SU", 3, 2), ("O+", 4, 2),
                                            ("O-", 4, 2), ("O+", 4, 3)])
    def test_every_element_preserves_the_form(self, family, n, q):
        g = build_group(family, n, q)
        for m in g.elements:
            assert preserves_form(g.field, g.form, m, g.n)

    def test_group_closure_exhaustive_small(self):
        # full multiplication-table sanity on groups up to 10^5 pairs
        for family, n, q in [("GL", 2, 2), ("Sp", 2, 3), ("GU", 1, 3),
                             ("O-", 2, 3)]:
            g = build_group(family, n, q)
            if g.order ** 2 > 100_000:
                continue
            els = set(g.elements)
            for a in g.elements:
                for b in g.elements:
                    assert mat_mul(g.field, a, b, g.n) in els

    def test_determinants(self):
        g = build_group("SL", 2, 3)
        for m in g.elements:
            assert mat_det(g.field, m, 2) == 1

    def test_perms_match_matrices(self):
        # GL(2,3) keeps byte tables (9 points), SL(2,19) tuples (361 points;
        # every 40th of its 6840 elements keeps the test short)
        for family, q, step in [("GL", 3, 1), ("SL", 19, 40)]:
            g = build_group(family, 2, q)
            F, size = g.field, g.field.size
            basis = [index_vec(size ** j, size, 2) for j in range(2)]
            assert g.gen_perms == [perm_from_matrix(F, m, 2)
                                   for m in g.generators]
            for m, key in zip(g.elements[::step], g.images[::step]):
                assert list(key) == [vec_index(mat_vec(F, m, e, 2), size)
                                     for e in basis]
                p = perm_from_matrix(F, m, 2)
                assert key == basis_images(F, m, 2)
                assert key == Closure(F, 2, 1).key_of(p)
                for x in range(size ** 2):
                    v = index_vec(x, size, 2)
                    assert p[x] == vec_index(mat_vec(F, m, v, 2), size)

    def test_orthogonal_types_differ(self):
        plus = build_group("O+", 2, 3)
        minus = build_group("O-", 2, 3)
        assert plus.order == 4 and minus.order == 8
        assert plus.form.gram != minus.form.gram

    @pytest.mark.parametrize("family,n,q", [
        (f, 2, q) for q in (3, 5, 7, 9, 11, 13) for f in ("O+", "O-")]
        + [("O+", 4, 3), ("O-", 4, 3)])
    def test_orthogonal_type_follows_discriminant(self, family, n, q):
        # a form of dimension 2m is of plus type iff (-1)^m det is a square
        g = build_group(family, n, q)
        F, m = g.field, n // 2
        disc = mat_det(F, g.form.gram, n)
        if m % 2:
            disc = F.neg(disc)
        squares = {F.mul(x, x) for x in range(1, F.size)}
        assert (disc in squares) == (family == "O+")
        identity_plus = m % 2 == 0 or q % 4 == 1
        want = ("identity Gram" if identity_plus == (family == "O+")
                else "diag(%d,1,...,1)" % F.nonsquare())
        assert g.form.label == want

    @pytest.mark.parametrize("family,n,q", [("O-", 4, 3), ("O+", 2, 3),
                                            ("O-", 2, 5)])
    def test_odd_orthogonal_closed_once(self, family, n, q, monkeypatch):
        # each of these takes the twisted Gram; it is chosen, not found by
        # closing the identity Gram first
        calls = []
        real = groups_mod._greedy_generators
        monkeypatch.setattr(groups_mod, "_greedy_generators",
                            lambda *a: calls.append(a) or real(*a))
        build_group(family, n, q)
        assert len(calls) == 1

    def test_closure_must_contain_every_candidate(self):
        # the first transvection alone closes to the expected order 2, but
        # the second lies outside that subgroup: GL(2,2) is not of order 2
        F = finite_field(2, 1)
        with pytest.raises(RuntimeError):
            _greedy_generators(F, 2, [(1, 1, 0, 1), (1, 0, 1, 1)], 2)

    @pytest.mark.parametrize("family,n,q", [
        ("GL", 2, 3), ("Sp", 4, 2), ("SU", 3, 2), ("SL", 2, 19)])
    def test_closure_runs(self, family, n, q):
        # the closure build_group keeps, generators added one at a time;
        # SL(2,19) acts on 361 points, so its keys are tuples
        g = build_group(family, n, q)
        c = g._closure[0]
        N = g.order
        assert len(c.keys) == len(c.parent) == N
        covered = [j for a, b, _ in sorted(c.runs) for j in range(a, b)]
        assert covered == list(range(1, N))
        for a, b, k in c.runs:
            assert all(c.parent[j] < a for j in range(a, b))
            for j in range(a, b):
                assert c.keys[j] == p_compose(c.gens[k], c.keys[c.parent[j]])
                assert c.left[k][c.parent[j]] == j
        for h, table in zip(c.gens, c.left):
            assert list(table) == [c.index[p_compose(h, key)] for key in c.keys]

    @pytest.mark.parametrize("q", [3, 19])
    def test_compose_all_matches_p_compose(self, q):
        g = build_group("SL", 2, q)
        for h in g.gen_perms:
            assert list(p_compose_all(h, g.images)) == \
                [p_compose(h, key) for key in g.images]

    @pytest.mark.parametrize("q", [3, 19])
    def test_closure_limit_raises(self, q):
        g = build_group("SL", 2, q)
        c = Closure(g.field, 2, g.order - 1)
        with pytest.raises(RuntimeError, match="exceeded the expected order"):
            for h in g.gen_perms:
                c.add(h)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_group("Sp", 3, 3)        # odd symplectic dimension
        with pytest.raises(ValueError):
            build_group("O-", 0, 3)        # no form in dimension 0
        with pytest.raises(ValueError):
            build_group("O", 2, 3)         # typed dimension needs O+/O-
        with pytest.raises(ValueError):
            build_group("O", 3, 2)         # odd-dimensional needs odd q
        with pytest.raises(ValueError):
            build_group("GU", 2, 4)        # q must be prime for degree 2
        with pytest.raises(ValueError):
            build_group("PSL", 2, 3)
        with pytest.raises(CapExceeded):
            build_group("GL", 4, 5)

    def test_cap_checked_before_building(self):
        with pytest.raises(CapExceeded):
            build_affine("Sp", 4, 3)       # 4.2e6 > default cap
        with pytest.raises(CapExceeded):
            build_affine("GL", 2, 2, cap=20)
        with pytest.raises(CapExceeded, match="83521 points"):
            build_group("SU", 2, 17, cap=80_000)  # 4896 elements fit

    def test_points_fit_the_cap(self):
        # 120 elements on 625 points; the old rule refused |G| |V| > 32 cap
        assert count_classes(build_group("SU", 2, 5, cap=1000)).k == 9

    def test_large_prime_capped_without_a_field(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a field was built")
        monkeypatch.setattr(field_mod.FiniteField, "__init__", refuse)
        assert affine_order("GL", 1, 1_000_003) == 1_000_002 * 1_000_003
        with pytest.raises(CapExceeded, match="points"):
            build_group("GL", 1, 1_000_003, cap=1_000_002)
        with pytest.raises(CapExceeded, match="%d points" % 1_000_003 ** 2):
            build_group("GU", 1, 1_000_003)  # q + 1 elements fit
        with pytest.raises(CapExceeded, match="1018081 entries"):
            build_affine("GL", 1, 1009, cap=1_017_500)  # |G| |V| fits

    @pytest.mark.parametrize("family,n,q", [("SL", 2, 1), ("SU", 1, -1)])
    def test_affine_order_checks_q_first(self, family, n, q):
        # the order formulas divide by q - 1 and q + 1
        with pytest.raises(ValueError):
            affine_order(family, n, q)


# ---------------------------------------------------------------------------
# affine groups

class TestAffineGroup:
    def test_orders(self):
        assert build_affine("GL", 2, 3).order == 432
        assert build_affine("GL", 2, 2).order == 24

    @pytest.mark.parametrize("family,n,q", [("GL", 2, 2), ("O", 1, 3)])
    def test_every_index_decodes_to_a_distinct_pair(self, family, n, q):
        # the pair (A, v) has index index(A) * |V| + index(v)
        ag = build_affine(family, n, q)
        pts = points(ag.field, n)
        assert [vec_index(v, ag.field.size) for v in pts] == list(range(ag.mv))
        seen = [(ag.base.elements[gi], pts[vi])
                for gi, vi in (divmod(e, ag.mv) for e in range(ag.order))]
        assert len(set(seen)) == ag.order


# ---------------------------------------------------------------------------
# class decompositions

class TestCountClasses:
    def test_agl22(self):
        dec = count_classes(build_affine("GL", 2, 2))
        assert dec.k == 5
        assert sorted(dec.sizes) == [1, 3, 6, 6, 8]

    def test_asl23(self):
        assert count_classes(build_affine("SL", 2, 3)).k == 10

    def test_asu32_golden(self):
        assert count_classes(build_affine("SU", 3, 2)).k == 24

    def test_class_equation(self):
        for builder in (lambda: build_group("Sp", 2, 3),
                        lambda: build_affine("GU", 2, 2)):
            g = builder()
            dec = count_classes(g)
            order = g.order
            assert sum(dec.sizes) == order
            for s, c in zip(dec.sizes, dec.centralizer_orders):
                assert s * c == order

    def test_representatives_are_least_indices(self):
        g = build_group("Sp", 2, 3)
        dec = count_classes(g)
        assert dec.rep_indices == sorted(dec.rep_indices)
        assert dec.rep_indices[0] == 0

    def test_matrix_group_counts(self):
        assert count_classes(build_group("GL", 2, 2)).k == 3
        assert count_classes(build_group("Sp", 2, 3)).k == 7

    def test_cached(self):
        g = build_group("GL", 2, 3)
        assert count_classes(g) is count_classes(g)


ORACLE_GRID = VERIFICATION_GRID


def closed_form_count(family, dim, q):
    ch = "odd" if q % 2 else "even"
    if family == "GL":
        return affine_count("AGL", ch, q, dim)
    if family == "GU":
        return affine_count("AGU", ch, q, dim)
    if family == "Sp":
        return affine_count("ASp", ch, q, dim // 2)
    plus, minus = ao_pair(ch, q, dim)
    if ch == "odd":
        seq = minus if family == "O-" else plus
        return seq[dim]
    seq = minus if family == "O-" else plus
    return seq[dim // 2]


class TestOracleGrid:
    @pytest.mark.parametrize("family,dim,q", ORACLE_GRID)
    def test_count_matches_closed_form(self, family, dim, q):
        k = count_classes(build_affine(family, dim, q)).k
        assert k == closed_form_count(family, dim, q)

    def test_asp43_with_raised_cap(self):
        ag = build_affine("Sp", 4, 3, cap=8_000_000)
        assert count_classes(ag).k == 58

    def test_orthogonal_4_5_against_the_series(self):
        # O+(4,5) and O-(4,5) act on 625 points (tuple permutations) with
        # 28,800 and 31,200 elements; the sum and difference of their class
        # counts are the u^4 coefficients of the O-sum and O-diff series
        plus = count_classes(build_group("O+", 4, 5)).k
        minus = count_classes(build_group("O-", 4, 5)).k
        assert plus + minus == classical_series("O-sum", 5).coeff(4)
        assert plus - minus == classical_series("O-diff", 5).coeff(4)

    @pytest.mark.skipif(os.environ.get("AFFINECLASSES_BIG") != "1",
                        reason="6.6M-element cell; set AFFINECLASSES_BIG=1")
    def test_asu42_big_cell(self):
        ag = build_affine("SU", 4, 2, cap=7_000_000)
        assert count_classes(ag).k == 49


#: sha256 of each grid cell's class data (see class_data_digest); a change
#: to how groups are built must leave every one unchanged.  Generators are
#: left out, as they are not canonical.
CLASS_DATA_DIGESTS = {
    ("GL", 1, 2): "7e12410b836e7f3b31876acc0d4614226967ab896a79aeae498cb579d8bd8632",
    ("GL", 1, 3): "e0ca0200b9a6131de01c0abd389db090423fbd0c5ab3373b86c1d85244a06609",
    ("GL", 2, 2): "e73b36418816c0836c0404285b0bed65177103a4ded55c8d5cfccab809512877",
    ("GL", 2, 3): "c2ba009a716c1ec0c3522275f178a231be1cf90a280462e152424cb258ede613",
    ("GL", 3, 2): "9e42a8d00c98f5303ccd97f25301f1f12d4b390cce5253dae2347d02ccce5c38",
    ("GL", 3, 3): "1fbe26ffb5e7fc6c420a34ee31bad93470cbfa1fa401f1e9ae6159b518342905",
    ("GU", 1, 2): "00d50fdf4a849253f5461bd8cc3ee43a9f8a4e0168e684dd315a7d320e347e14",
    ("GU", 1, 3): "5e38bc01c9c1319c596377d2fe241a66e827042c7ebe45f356ae12d6935d152c",
    ("GU", 2, 2): "e767395b816a7edb7152f73a48ddcc2ffd6086c1fc650dc46d88bd6aef89dea1",
    ("GU", 2, 3): "ea10ca4b12a58bd2aa057b34b85ac4065bda7f7b57a98f088471981557277588",
    ("Sp", 2, 2): "4ed343d7aa9c474d6bd90b63315ff2b3d3b44e984f984217bc84a9881b96e3c6",
    ("Sp", 2, 3): "b76123dcf8e054e14c4a33552270b6e8061e36b4806daebce5fc90de66832d00",
    ("Sp", 2, 5): "80b7b86340bf712d163b6eb649e11abe6aa84f2eb6e3bab82cf4b982d85ab6af",
    ("Sp", 4, 2): "be0286003eec68da31d3dd8b9a83e7f3dd9a782199fd1e8ee625372cf4791062",
    ("O", 1, 3): "0fc96d5b74833af8d87f6200799f7db6b5fa40b72f8634b98e18a40c847270af",
    ("O", 3, 3): "0819cd7c124eecf47c1c0e9dcb6c3b749c7edc84ca3cb1ad0d079c247e071355",
    ("O+", 2, 3): "731236a2065ed0518e380fac2324d26ce49ec13ada9fd9569bb19840cd36a7b0",
    ("O-", 2, 3): "e00da20181078d68f2f31a2899d99ac1a259b8da20e7544bf26c8ec30e4d0636",
    ("O+", 4, 3): "4a9ef5184648a123644645dc867658f4b3388794b9ccb42c8289fad1f8b6d4a5",
    ("O-", 4, 3): "d72f35d0059378f6dddb5862a96c66b0bf0aff82f5ed5a2ecc568fa3bf21ac0e",
    ("O+", 2, 2): "e2bf561cd92a2facd3d8ed7f201b7e35960e58e00f46d7ccdbd0434ff90be451",
    # O-(2,2) = Sp(2,2) = GL(2,2), with the same Gram in characteristic 2
    ("O-", 2, 2): "4ed343d7aa9c474d6bd90b63315ff2b3d3b44e984f984217bc84a9881b96e3c6",
    ("O+", 4, 2): "3da9ca82b49a9c568172eda2c23d5436a538c2ad30c0eeef8b0a1bbf712cd654",
    ("O-", 4, 2): "355fba8d1d7c19a55ec9c4c06f969def23c1d6d2ba59410a2d18174a79ae1bf7",
}


def class_data_digest(family, dim, q, cap=DEFAULT_CAP):
    """sha256 over the sorted elements, the Gram, the matrix and affine
    class representatives and sizes, and the per-class orbit counts."""
    ag = build_affine(family, dim, q, cap=cap)
    g = ag.base
    mdec, adec = count_classes(g), count_classes(ag)
    orbits, _ = orbit_sum_check(g)
    data = (tuple(g.elements), g.form.gram,
            list(mdec.rep_indices), list(mdec.sizes),
            list(adec.rep_indices), list(adec.sizes), list(orbits))
    return hashlib.sha256(repr(data).encode()).hexdigest()


class TestClassDataDigests:
    def test_digests_cover_the_grid(self):
        assert tuple(CLASS_DATA_DIGESTS) == VERIFICATION_GRID

    @pytest.mark.parametrize("family,dim,q", VERIFICATION_GRID)
    def test_class_data_unchanged(self, family, dim, q):
        assert class_data_digest(family, dim, q) == \
            CLASS_DATA_DIGESTS[(family, dim, q)]

    def test_asp43_class_data_unchanged(self):
        # the benchmark cell, 4.2 million affine elements over the default cap
        assert class_data_digest("Sp", 4, 3, cap=8_000_000) == \
            "0419d188c07393c974a8932cb710c8607d112bf17b4e61518627b1dac1c71cb8"


def reference_commutator_space(group, i):
    """labels and cosets of [g,V] for g = group.elements[i], from the
    columns (g-1)e_j by mat_vec, reduced to echelon form; the point sets of
    the reduced bases are kept in _SPACES."""
    F, n, size = group.field, group.n, group.field.size
    g = group.elements[i]
    rows = []
    for j in range(n):
        e = index_vec(size ** j, size, n)
        v = [F.sub(a, b) for a, b in zip(mat_vec(F, g, e, n), e)]
        for r in rows:  # clear the pivots of the rows kept so far
            p = next(k for k, x in enumerate(r) if x)
            if v[p]:
                c = v[p]
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, r)]
        if any(v):
            inv = F.inv(next(x for x in v if x))
            v = [F.mul(inv, x) for x in v]
            p = next(k for k, x in enumerate(v) if x)
            rows = [[F.sub(x, F.mul(r[p], y)) for x, y in zip(r, v)]
                    for r in rows] + [v]
    key = (id(F), n, tuple(sorted(map(tuple, rows))))
    if key not in _SPACES:
        space = [(0,) * n]
        for r in rows:
            space = [tuple(F.add(x, F.mul(c, y)) for x, y in zip(s, r))
                     for s in space for c in range(size)]
        space = [vec_index(s, size) for s in space]
        pts = points(F, n)
        label, reps = [-1] * len(pts), []
        for v in range(len(pts)):
            if label[v] < 0:
                reps.append(v)
                for s in space:
                    w = tuple(F.add(x, y)
                              for x, y in zip(pts[v], index_vec(s, size, n)))
                    label[vec_index(w, size)] = v
        _SPACES[key] = (F, label, reps)
    return _SPACES[key][1:]


_SPACES = {}


class TestCommutatorCosets:
    @pytest.mark.parametrize("family,dim,q",
                             VERIFICATION_GRID + (("SU", 3, 2), ("SL", 2, 19)))
    def test_every_element_against_its_columns(self, family, dim, q):
        # SL(2,19) has 361 points: its basis images are tuples
        g = build_group(family, dim, q)
        add, neg = engine_mod._vector_tables(g.field, dim, DEFAULT_CAP)
        sub_of, labels, cosets = engine_mod._commutator_cosets(g, add, neg)
        assert len(sub_of) == g.order
        for i in range(g.order):
            label, reps = reference_commutator_space(g, i)
            s = sub_of[i]
            assert list(labels[s]) == label
            assert list(cosets[s]) == reps


# ---------------------------------------------------------------------------
# orbit sums (the exact lemma, group by group)

class TestOrbitSums:
    def test_gl1_total_is_q(self):
        for q in (2, 3, 5, 7):
            _, total = orbit_sum_check(build_group("GL", 1, q))
            assert total == q

    def test_sp23_total(self):
        o, total = orbit_sum_check(build_group("Sp", 2, 3))
        assert total == 10
        assert sorted(o) == [1, 1, 1, 1, 2, 2, 2]

    def test_gu12_total(self):
        o, total = orbit_sum_check(build_group("GU", 1, 2))
        assert total == 4 and sorted(o) == [1, 1, 2]

    def test_gl22_per_class(self):
        o, total = orbit_sum_check(build_group("GL", 2, 2))
        assert o == [2, 1, 2] and total == 5

    @pytest.mark.parametrize("family,dim,q", ORACLE_GRID)
    def test_orbit_total_equals_affine_count(self, family, dim, q):
        g = build_group(family, dim, q)
        _, total = orbit_sum_check(g)
        assert total == count_classes(build_affine(family, dim, q)).k

    def test_sp43_orbit_total(self):
        # linear part fits the cap even though the affine group does not
        o, total = orbit_sum_check(build_group("Sp", 4, 3))
        assert o == [1, 1, 2, 1, 2, 1, 1, 1, 2, 1, 2, 4, 2, 2, 1, 1, 1,
                     2, 2, 2, 2, 2, 2, 2, 1, 3, 1, 2, 3, 1, 3, 1, 2, 1]
        assert total == 58


class TestCentralizerGenerators:
    @pytest.mark.parametrize("family,dim,q", VERIFICATION_GRID)
    def test_generators_span_the_centralizer(self, family, dim, q):
        g = build_group(family, dim, q)
        dec = count_classes(g)
        for gi, size in zip(dec.rep_indices, dec.sizes):
            pg = perm_from_matrix(g.field, g.elements[gi], dim)
            gens = centralizer_generators(g, gi, size)
            assert all(p_compose(h, pg) == p_compose(pg, h) for h in gens)
            sub = Closure(g.field, dim, g.order)
            for h in gens:
                sub.add(h)
            assert len(sub.keys) == g.order // size
            if size == 1:
                assert gens == g.gen_perms

    @pytest.mark.parametrize("wrong", [24, 6])
    def test_wrong_class_size_raises(self, wrong):
        # GL(2,3) has order 48; a class of 12 elements has a centralizer of
        # order 4, so 24 asks for one of order 2, which a subgroup of it
        # reaches before the walk is done, and 6 for one of order 8
        g = build_group("GL", 2, 3)
        dec = count_classes(g)
        i = dec.sizes.index(12)
        with pytest.raises(RuntimeError):
            centralizer_generators(g, dec.rep_indices[i], wrong)
        dec.sizes = dec.sizes[:i] + [wrong] + dec.sizes[i + 1:]
        with pytest.raises(RuntimeError):
            orbit_sum_check(g)


# ---------------------------------------------------------------------------
# per-class diagnostics

class TestUnipotentPartition:
    def test_identity(self):
        g = build_group("GL", 3, 2)
        assert unipotent_partition(g, mat_identity(3)).parts() == [1, 1, 1]

    def test_transvection(self):
        g = build_group("GL", 2, 2)
        assert unipotent_partition(g, (1, 1, 0, 1)).parts() == [2]

    def test_rank_one_nilpotent_with_square_zero(self):
        g = build_group("GL", 3, 2)
        assert unipotent_partition(g, (1, 1, 0, 0, 1, 0, 0, 0, 1)).parts() == [2, 1]

    def test_no_eigenvalue_one(self):
        g = build_group("GL", 2, 2)
        # order-3 element: z^2+z+1, no fixed vectors
        m = (0, 1, 1, 1)
        assert unipotent_partition(g, m).parts() == []

    def test_sizes_weighted_by_multiplicity_recover_fixed_space(self):
        g = build_group("GL", 3, 2)
        for m in g.elements:
            lam = unipotent_partition(g, m)
            from affineclasses.oracle.groups import mat_rank, mat_sub
            fixed = 3 - mat_rank(g.field, mat_sub(g.field, m, mat_identity(3)), 3)
            assert len(lam.parts()) == fixed


class TestFormulaCheck:
    @pytest.mark.parametrize("family,n,q", [("GL", 1, 2), ("GL", 2, 2),
                                            ("GL", 2, 3), ("GL", 3, 2),
                                            ("GU", 1, 2), ("GU", 1, 3),
                                            ("GU", 2, 2), ("GU", 2, 3)])
    def test_closed_formulas_match_measured_orbits(self, family, n, q):
        g = build_group(family, n, q)
        o_vals, _ = orbit_sum_check(g)
        report = formula_check_o(g, o_vals)
        assert report.ok
        assert [e["measured"] for e in report.entries] == o_vals

    def test_gl22_report_values(self):
        g = build_group("GL", 2, 2)
        report = formula_check_o(g, orbit_sum_check(g)[0])
        assert [e["measured"] for e in report.entries] == [2, 1, 2]
        assert [e["expected"] for e in report.entries] == [2, 1, 2]

    def test_a_wrong_count_fails_its_class(self):
        report = formula_check_o(build_group("GL", 2, 2), [2, 1, 3])
        assert not report.ok
        assert [e["ok"] for e in report.entries] == [True, True, False]

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            formula_check_o(build_group("Sp", 2, 3), [])


def _poly_rem(F, a, b):
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


def _irreducible_polys(F, maxdeg):
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
    return [p for p in irr if p != (0, 1)]


def gl_direct_class_sum(n, q):
    """Class count of AGL(n, q) summed directly over the polynomial and
    partition data of GL classes: every class assigns a partition to each
    monic irreducible (z excluded), total weighted degree n, and contributes
    d+1 orbits through its z-1 partition, 1 otherwise."""
    F = field_for_order(q)
    zm1 = (F.neg(1), 1)
    degs = [len(p) - 1 for p in _irreducible_polys(F, n) if p != zm1]
    npart = [len(enum_partitions(j)) for j in range(n + 1)]

    def assignments(i, w):
        if w == 0:
            return 1
        if i == len(degs):
            return 0
        return sum(npart[j] * assignments(i + 1, w - j * degs[i])
                   for j in range(w // degs[i] + 1))

    return sum((d_stat(lam) + 1) * assignments(0, n - m)
               for m in range(n + 1) for lam in enum_partitions(m))


class TestDirectClassSum:
    """A fourth, test-side route to the AGL series, from the polynomial data
    of GL classes."""

    @pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3, 4)
                                     for q in (2, 3, 4, 5)])
    def test_matches_generating_function(self, n, q):
        ch = "odd" if q % 2 else "even"
        assert gl_direct_class_sum(n, q) == affine_count("AGL", ch, q, n)

    def test_examples(self):
        assert gl_direct_class_sum(1, 2) == 2
        assert gl_direct_class_sum(2, 2) == 5

    def test_irreducible_counts_match_necklaces(self):
        from affineclasses.classcount import necklace
        for q in (2, 3, 4):
            F = field_for_order(q)
            polys = _irreducible_polys(F, 4)
            for d in (1, 2, 3, 4):
                got = sum(1 for p in polys if len(p) - 1 == d)
                want = necklace(q, d) if d > 1 else q - 1
                assert got == want


# ---------------------------------------------------------------------------
# kernels and the translation quotient

def reference_affine_classes(ag):
    """Least index and size of every class of V x| G, by closing the
    materialized pairs (A, v) under conjugation, with no quotient.

    (h, w) conjugates (g, v) to (h g h^-1, h v + w - h g h^-1 w).  The
    generators are (h, 0) for the base generators h and (1, c e_j) for c in
    a basis of F over its prime field, which generate V x| G."""
    base, F, n = ag.base, ag.field, ag.n
    index = {m: i for i, m in enumerate(base.elements)}
    ident = mat_identity(n)
    zero = (0,) * n
    gens = [(h, next(m for m in base.elements if mat_mul(F, h, m, n) == ident), zero)
            for h in base.generators]
    scalars = [1] if F.degree == 1 else [1, F.p]
    gens += [(ident, ident, tuple(c if k == j else 0 for k in range(n)))
             for j in range(n) for c in scalars]

    def conjugate(e, h, hinv, w):
        gi, vi = divmod(e, ag.mv)
        g = base.elements[gi]
        g2 = mat_mul(F, mat_mul(F, h, g, n), hinv, n)
        hv = mat_vec(F, h, index_vec(vi, F.size, n), n)
        v2 = tuple(F.sub(F.add(a, b), c)
                   for a, b, c in zip(hv, w, mat_vec(F, g2, w, n)))
        return index[g2] * ag.mv + vec_index(v2, F.size)

    seen = set()
    reps, sizes = [], []
    for e0 in range(ag.order):
        if e0 in seen:
            continue
        orbit = {e0}
        stack = [e0]
        while stack:
            e = stack.pop()
            for h, hinv, w in gens:
                e2 = conjugate(e, h, hinv, w)
                if e2 not in orbit:
                    orbit.add(e2)
                    stack.append(e2)
        seen |= orbit
        reps.append(e0)
        sizes.append(len(orbit))
    return reps, sizes


class TestConjugationTables:
    @pytest.mark.parametrize("family,dim,q",
                             VERIFICATION_GRID + (("SU", 3, 2), ("SL", 2, 19)))
    def test_every_entry_from_matrix_products(self, family, dim, q):
        # h g_i h^-1 by mat_mul, looked up in a dict built here; SL(2,19)
        # has 361 points, so its basis images and generators are tuples
        g = build_group(family, dim, q)
        F, els = g.field, g.elements
        index = {m: i for i, m in enumerate(els)}
        conj = g.conj_table()
        assert len(conj) == len(g.generators) * g.order
        for k, h in enumerate(g.generators):
            hinv = _mat_inverse(g, h)
            off = k * g.order
            for i, m in enumerate(els):
                want = index[mat_mul(F, mat_mul(F, h, m, dim), hinv, dim)]
                assert conj[off + i] == want


class TestKernels:
    def test_backend_flag(self):
        assert kernel_mod.BACKEND == "pure"

    @pytest.mark.parametrize("family,n,q", [
        ("GL", 2, 3), ("GU", 2, 2), ("Sp", 2, 3), ("O", 3, 3), ("O-", 4, 2),
        ("SL", 2, 3), ("GU", 1, 3), ("GL", 1, 263)])
    def test_quotient_scan_matches_full_closure(self, family, n, q):
        ag = build_affine(family, n, q)
        dec = count_classes(ag)
        reps, sizes = reference_affine_classes(ag)
        assert dec.rep_indices == reps
        assert dec.sizes == sizes

    def test_wide_points(self):
        # 263 points per vector: permutations are tuples, not byte tables
        dec = count_classes(build_affine("GL", 1, 263))
        assert dec.k == 263

    def test_conjugation_tables_built_once(self, monkeypatch):
        g = build_group("Sp", 4, 2)
        calls = []
        real = groups_mod.p_invert
        monkeypatch.setattr(groups_mod, "p_invert",
                            lambda a: calls.append(a) or real(a))
        count_classes(g)
        count_classes(AffineGroup(g))
        orbit_sum_check(g)
        assert len(calls) == len(g.gen_perms)

    def test_vector_table_checked_against_cap(self):
        g = build_group("GL", 1, 257)
        # |V|^2 = 66049 entries exceed the cap even though |G| does not
        with pytest.raises(CapExceeded):
            orbit_sum_check(g, cap=60_000)
        with pytest.raises(CapExceeded):
            count_classes(AffineGroup(g, cap=66_000))


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=25, deadline=None)
@given(st.sampled_from([("GL", 2, 3), ("Sp", 2, 3), ("GU", 1, 3), ("O", 3, 3)]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_conjugation_stays_in_class(cell, seed):
    """Conjugating by any element never leaves the computed class."""
    family, n, q = cell
    g = build_group(family, n, q)
    dec = count_classes(g)
    rng = random.Random(seed)
    i = rng.randrange(g.order)
    j = rng.randrange(g.order)
    F, els = g.field, g.elements
    conj = mat_mul(F, mat_mul(F, els[j], els[i], n),
                   _mat_inverse(g, els[j]), n)
    ci = els.index(conj)
    for pos in range(dec.k):
        members = _class_members(g, pos)
        if i in members:
            assert ci in members
            break
    else:
        raise AssertionError("element not found in any class")


_members_cache = {}


def _mat_inverse(g, m):
    """The inverse of m in g, found among its elements."""
    ident = mat_identity(g.n)
    return next(x for x in g.elements if mat_mul(g.field, m, x, g.n) == ident)


def _class_members(g, pos):
    key = (id(g), pos)
    if key not in _members_cache:
        dec = count_classes(g)
        # closure of the representative under generator conjugation
        seen = {dec.rep_indices[pos]}
        stack = [dec.rep_indices[pos]]
        F, n, els = g.field, g.n, g.elements
        idx = {m: i for i, m in enumerate(els)}
        pairs = [(h, _mat_inverse(g, h)) for h in g.generators]
        while stack:
            e = stack.pop()
            for h, hinv in pairs:
                c = idx[mat_mul(F, mat_mul(F, h, els[e], n), hinv, n)]
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        assert len(seen) == dec.sizes[pos]
        # holding g keeps its id from being reused by a later group
        _members_cache[key] = (g, seen)
    return _members_cache[key][1]
