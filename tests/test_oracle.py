"""Brute-force oracle tests: explicit groups, class counts, orbit sums.

Grid sizes follow the element cap; the one deliberately larger cell
(ASp(4,3), 4.2 million elements) raises the cap explicitly.  Set
AFFINECLASSES_BIG=1 to also run the 6.6-million-element ASU(4,2) cell.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineclasses.classcount import FamilyKey, affine_series, ao_split
from affineclasses.oracle import (AffineGroup, CapExceeded, VERIFICATION_GRID,
                                  build_affine, build_group, count_classes,
                                  expected_order, field_for_order,
                                  finite_field, formula_check_o,
                                  gl_direct_class_sum, mat_det, mat_identity,
                                  mat_mul, orbit_sum_check, preserves_form,
                                  unipotent_partition)
from affineclasses.oracle import groups as groups_mod
from affineclasses.oracle import kernels as kernel_mod
from affineclasses.oracle.groups import (_greedy_generators, index_vec,
                                        mat_vec, p_compose, p_invert,
                                        perm_from_matrix, vec_index)


def affine_count(family, characteristic, q, n):
    """Closed-form k for one affine cell, indexed as the series is."""
    key = FamilyKey(family, characteristic)
    s = affine_series(key, q=q, order=n)
    from fractions import Fraction
    return int(Fraction(s.coeff(n)))


def ao_pair(characteristic, q, order):
    s = affine_series(FamilyKey("AO-sum", characteristic), q=q, order=order)
    d = affine_series(FamilyKey("AO-diff", characteristic), q=q, order=order)
    return ao_split(s, d, q=q)


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
        g = build_group("GL", 2, 3)
        for m, p in zip(g.elements, g.perms):
            assert p == perm_from_matrix(g.field, m, 2)

    def test_orthogonal_types_differ(self):
        plus = build_group("O+", 2, 3)
        minus = build_group("O-", 2, 3)
        assert plus.order == 4 and minus.order == 8
        assert plus.form.gram != minus.form.gram

    def test_closure_must_contain_every_candidate(self):
        # the first transvection alone closes to the expected order 2, but
        # the second lies outside that subgroup: GL(2,2) is not of order 2
        F = finite_field(2, 1)
        cands = [perm_from_matrix(F, m, 2) for m in [(1, 1, 0, 1), (1, 0, 1, 1)]]
        with pytest.raises(RuntimeError):
            _greedy_generators(cands, 4, 2)

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
        with pytest.raises(CapExceeded):
            build_group("SU", 2, 17)       # 4896 elements x 83521 points


# ---------------------------------------------------------------------------
# affine groups

class TestAffineGroup:
    def test_orders(self):
        assert build_affine("GL", 2, 3).order == 432
        assert build_affine("GL", 2, 2).order == 24

    @pytest.mark.parametrize("family,n,q", [("GL", 2, 2), ("O", 1, 3)])
    def test_every_index_decodes_to_a_distinct_pair(self, family, n, q):
        ag = build_affine(family, n, q)
        members = set(ag.base.elements)
        seen = [ag.element(e) for e in range(ag.order)]
        assert len(set(seen)) == ag.order
        assert all(mat in members for mat, _ in seen)


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

    @pytest.mark.skipif(os.environ.get("AFFINECLASSES_BIG") != "1",
                        reason="6.6M-element cell; set AFFINECLASSES_BIG=1")
    def test_asu42_big_cell(self):
        ag = build_affine("SU", 4, 2, cap=7_000_000)
        assert count_classes(ag).k == 49


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
        _, total = orbit_sum_check(build_group("Sp", 4, 3))
        assert total == 58


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
        report = formula_check_o(build_group(family, n, q))
        assert report.ok
        assert report.total == sum(e["measured"] for e in report.entries)

    def test_gl22_report_values(self):
        report = formula_check_o(build_group("GL", 2, 2))
        assert [e["measured"] for e in report.entries] == [2, 1, 2]
        assert report.total == 5

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            formula_check_o(build_group("Sp", 2, 3))


class TestDirectClassSum:
    @pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3, 4)
                                     for q in (2, 3, 4, 5)])
    def test_matches_generating_function(self, n, q):
        ch = "odd" if q % 2 else "even"
        assert gl_direct_class_sum(n, q) == affine_count("AGL", ch, q, n)

    def test_examples(self):
        assert gl_direct_class_sum(1, 2) == 2
        assert gl_direct_class_sum(2, 2) == 5

    def test_range_limits(self):
        with pytest.raises(ValueError):
            gl_direct_class_sum(5, 2)
        with pytest.raises(ValueError):
            gl_direct_class_sum(2, 7)
        assert gl_direct_class_sum(5, 2, n_limit=5) > 0

    def test_irreducible_counts_match_necklaces(self):
        from affineclasses.classcount import necklace
        from affineclasses.oracle.engine import _irreducible_polys
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
    conj = p_compose(p_compose(g.perms[j], g.perms[i]), p_invert(g.perms[j]))
    ci = g.perm_index()[conj]
    for pos in range(dec.k):
        members = _class_members(g, pos)
        if i in members:
            assert ci in members
            break
    else:
        raise AssertionError("element not found in any class")


_members_cache = {}


def _class_members(g, pos):
    key = (id(g), pos)
    if key not in _members_cache:
        dec = count_classes(g)
        # closure of the representative under generator conjugation
        seen = {dec.rep_indices[pos]}
        stack = [dec.rep_indices[pos]]
        idx = g.perm_index()
        while stack:
            e = stack.pop()
            for hp in g.gen_perms:
                c = idx[p_compose(p_compose(hp, g.perms[e]), p_invert(hp))]
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        assert len(seen) == dec.sizes[pos]
        # holding g keeps its id from being reused by a later group
        _members_cache[key] = (g, seen)
    return _members_cache[key][1]
