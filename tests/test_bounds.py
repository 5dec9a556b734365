"""Tests for the bound grid, the AH theorem checks and the constant
certificates.

Reference decimals for the constants were computed independently with
mpmath at 40 digits (400-term partial products, and the symmetrized series
evaluated at u = 1/sqrt(3)); each certified enclosure must contain its
reference.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from affineclasses import bounds, classcount
from affineclasses.bounds import (BOUND_SPECS, CONSTANT_IDS, Q_ALL, BoundSpec,
                                  Interval, certify_all, certify_constant,
                                  check_ah_theorem, check_all_bounds,
                                  check_bound, geometric_factor_product,
                                  k_agl, k_ao_even_dim, k_asp)
from affineclasses.classcount import affine_counts, affine_recursive
from affineclasses.series import FactorFamily

SPECS = {spec.id: spec for spec in BOUND_SPECS}


def width(iv):
    return iv.hi - iv.lo

# independently computed (40-digit arithmetic, different algorithm)
CONSTANT_REFERENCES = {
    "doubling-product-2.4": 2.3842310290313717,
    "agu-master-20": 19.263971850149250,
    "asp-odd-master-27": 26.769381768736442,
    "asp-even-master-56": 55.884379799248573,
    "ao-odd-sum-53": 52.590900024229969,
    "ao-odd-diff-3.3": 3.2608228340284467,
    "ao-odd-combine-29": 28.15,
    "o-odd-dim-14.2": 14.085126076903546,
    "o-even-dim-16.3": 16.280431913615251,
    "ao-even-sum-111.6": 111.76875959849715,
    "ao-even-diff-8.4": 8.3848617785853292,
    "ao-even-combine-60": 60.0,
}


class TestInterval:
    def test_basic_arithmetic(self):
        a = Interval(1, 2)
        b = Interval(3, 5)
        assert (a * b).lo == 3 and (a * b).hi == 10
        assert (a + b).lo == 4 and (a + b).hi == 7
        assert (a * 3).lo == 3 and (3 * a).hi == 6
        assert (a + 1).lo == 2

    def test_power(self):
        a = Interval(Fraction(1, 2), Fraction(3, 4))
        p = a.power(3)
        assert p.lo == Fraction(1, 8) and p.hi == Fraction(27, 64)
        assert a.power(0).lo == 1 and a.power(0).hi == 1

    def test_power_rejects_negative_exponent(self):
        a = Interval(Fraction(1, 2), Fraction(3, 4))
        for k in (-1, -2):
            with pytest.raises(ValueError):
                a.power(k)
        one = Interval(0, 2).power(0)
        assert one.lo == one.hi == 1

    def test_rejects_float_endpoints(self):
        with pytest.raises(TypeError):
            Interval(0.1, 0.2)
        with pytest.raises(TypeError):
            Interval(0, 0.5)
        with pytest.raises(TypeError):
            Interval(0, 1) * 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_rejects_negative_products(self):
        with pytest.raises(ValueError):
            Interval(-1, 1) * Interval(0, 1)
        with pytest.raises(ValueError):
            Interval(0, 1) * (-2)


class TestGeometricProduct:
    def test_doubling_product_encloses_reference(self):
        iv = geometric_factor_product(Fraction(1, 2), FactorFamily(1, 1))
        pad = Fraction(1, 10**12)  # float literals carry ~16 digits
        assert iv.lo - pad <= Fraction(2.3842310290313717) <= iv.hi + pad
        assert width(iv) < Fraction(1, 10**12)

    def test_inverse_product_encloses_reference(self):
        # prod 1/(1-2^-i) = 3.462746619455062...
        iv = geometric_factor_product(Fraction(1, 2), FactorFamily(-1, 1, power=-1))
        pad = Fraction(1, 10**12)
        assert iv.lo - pad <= Fraction(3.462746619455062) <= iv.hi + pad

    def test_decreasing_shapes_bounded_by_one(self):
        down = geometric_factor_product(Fraction(1, 2), FactorFamily(-1, 1))
        assert down.hi <= 1
        inv = geometric_factor_product(Fraction(1, 2), FactorFamily(1, 1, power=-1))
        assert inv.hi <= 1

    def test_more_terms_nest(self):
        coarse = geometric_factor_product(Fraction(1, 2), FactorFamily(1, 1), terms=10)
        fine = geometric_factor_product(Fraction(1, 2), FactorFamily(1, 1), terms=40)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
        assert width(fine) < width(coarse)

    def test_power_argument(self):
        single = geometric_factor_product(Fraction(1, 3), FactorFamily(1, 1))
        fourth = geometric_factor_product(Fraction(1, 3), FactorFamily(1, 1, power=4))
        assert fourth.lo == single.lo ** 4

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            geometric_factor_product(Fraction(3, 2), FactorFamily(1, 1))
        with pytest.raises(ValueError):
            geometric_factor_product(Fraction(1, 2), FactorFamily(1, 1), terms=0)

    def test_rejects_float_base(self):
        with pytest.raises(TypeError):
            geometric_factor_product(0.7, FactorFamily(1, 2, -1))

    def test_rejects_negative_terms(self):
        with pytest.raises(ValueError):
            geometric_factor_product(Fraction(1, 2), FactorFamily(1, 1, 5), terms=-2)

    def test_zero_terms_is_the_tail_alone(self):
        # S = (1/3) / (1 - 1/3) = 1/2, so the product lies in [1, 2]
        iv = geometric_factor_product(Fraction(1, 3), FactorFamily(1, 1), terms=0)
        assert (iv.lo, iv.hi) == (1, 2)

    def test_rejects_coefficient_other_than_unit(self):
        with pytest.raises(ValueError):
            geometric_factor_product(Fraction(1, 2), FactorFamily(-3, 1))


def _reference_product(t, fam, terms):
    """The enclosure as first written: one exact factor at a time, then the
    power by repeated multiplication; returns (lo, hi)."""
    sign, step, offset = fam.coefficient, fam.step, fam.offset
    invert = fam.power < 0
    val = Fraction(1)
    for i in range(1, terms + 1):
        f = 1 + sign * t ** (step * i + offset)
        val = val / f if invert else val * f
    tail_sum = t ** (step * (terms + 1) + offset) / (1 - t ** step)
    if tail_sum >= 1:
        raise ValueError("truncation too short for a tail majorant")
    if (sign > 0) != invert:
        lo, hi = val, val / (1 - tail_sum)
    else:
        lo, hi = val * (1 - tail_sum), val
    out_lo = out_hi = Fraction(1)
    for _ in range(abs(fam.power)):
        out_lo, out_hi = out_lo * lo, out_hi * hi
    return out_lo, out_hi


def _sampled_products(seed=19, count=40):
    rng = Random(seed)
    for _ in range(count):
        step = rng.randint(1, 4)
        fam = FactorFamily(rng.choice((1, -1)), step, rng.randint(1 - step, 3),
                           power=rng.choice((-2, -1, 1, 2, 4)))
        t = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 9),
                        Fraction(7, 10)))
        yield t, fam, rng.choice((1, 7, 60))


@pytest.mark.parametrize("t,fam,terms", list(_sampled_products()))
def test_product_matches_reference(t, fam, terms):
    try:
        want = _reference_product(t, fam, terms)
    except ValueError:
        with pytest.raises(ValueError):
            geometric_factor_product(t, fam, terms)
        return
    iv = geometric_factor_product(t, fam, terms)
    assert (iv.lo, iv.hi) == want


def _framed(part: bytes) -> bytes:
    return len(part).to_bytes(8, "big") + part


def _int_bytes(x: int) -> bytes:
    return x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)


#: sha256 of every constant's id and exact enclosure, in CONSTANT_IDS order
ENCLOSURES_SHA256 = \
    "8ef7aebb03cb062f52e148d31beeed9425f339bd2d63bafd3141f35cb73a0fa7"


def test_enclosures_pinned():
    h = hashlib.sha256()
    for cid in CONSTANT_IDS:
        iv = certify_constant(cid).interval
        h.update(_framed(cid.encode()))
        for x in (iv.lo.numerator, iv.lo.denominator,
                  iv.hi.numerator, iv.hi.denominator):
            h.update(_framed(_int_bytes(x)))
    assert h.hexdigest() == ENCLOSURES_SHA256


class TestConstants:
    def test_twelve_ids(self):
        assert len(CONSTANT_IDS) == 12
        assert len(set(CONSTANT_IDS)) == 12

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            certify_constant("no-such-constant")

    @pytest.mark.parametrize("cid", CONSTANT_IDS)
    def test_enclosure_contains_reference(self, cid):
        rep = certify_constant(cid)
        ref = CONSTANT_REFERENCES[cid]
        pad = Fraction(1, 10**9)
        assert rep.interval.lo - pad <= Fraction(ref) <= rep.interval.hi + pad, \
            "%s: [%s, %s] misses %s" % (cid, float(rep.interval.lo),
                                        float(rep.interval.hi), ref)

    @pytest.mark.parametrize("cid", CONSTANT_IDS)
    def test_enclosure_is_tight(self, cid):
        rep = certify_constant(cid)
        assert width(rep.interval) < Fraction(1, 10**6)

    @pytest.mark.parametrize("cid", [c for c in CONSTANT_IDS
                                     if c != "ao-even-sum-111.6"])
    def test_certified(self, cid):
        rep = certify_constant(cid)
        assert rep.ok, "%s: upper end %s exceeds claimed %s" % (
            cid, float(rep.interval.hi), float(rep.claimed))
        assert not rep.exceeded

    def test_even_sum_constant_exceeded(self):
        # the one claimed constant whose true value is rigorously larger:
        # the exact lower end of the enclosure is already past 111.6
        rep = certify_constant("ao-even-sum-111.6")
        assert not rep.ok
        assert rep.exceeded
        assert rep.interval.lo > Fraction(558, 5)
        assert rep.interval.lo < Fraction(1118, 10)  # but well below 111.8

    def test_combine_constants_exact(self):
        c29 = certify_constant("ao-odd-combine-29")
        assert c29.interval.lo == c29.interval.hi == Fraction(563, 20)
        c60 = certify_constant("ao-even-combine-60")
        assert c60.interval.lo == c60.interval.hi == 60
        assert c60.ok  # non-strict: 60 <= 60

    def test_certify_all_covers_ids(self):
        reps = certify_all()
        assert [r.id for r in reps] == list(CONSTANT_IDS)
        assert sum(1 for r in reps if not r.ok) == 1


GRID_EXCEPTIONS = {
    "asp-odd-q2n": {(1, 3): 10},
    "asp-even-q2n": {(1, 2): 5, (2, 2): 21, (3, 2): 67},
    "ao-plus-even-q2n": {(1, 2): 5, (2, 2): 20},
    "ao-minus-even-q2n": {(1, 2): 5, (2, 2): 18, (3, 2): 65},
}


class TestBoundGrid:
    def test_default_grid_no_violations(self):
        reports = check_all_bounds()
        assert all(r.ok for r in reports), \
            [(r.id, r.violations[:2]) for r in reports if not r.ok]

    def test_exception_cells_match(self):
        for spec_id, expected in GRID_EXCEPTIONS.items():
            rep = check_bound(SPECS[spec_id])
            seen = {(c["n"], c["q"]): c["k"] for c in rep.cells
                    if c["verdict"] == "exception"}
            assert seen == expected, spec_id

    def test_specs_without_exceptions_have_none(self):
        for spec in BOUND_SPECS:
            if spec.id in GRID_EXCEPTIONS:
                continue
            rep = check_bound(spec)
            assert all(c["verdict"] == "holds" for c in rep.cells), spec.id

    def test_agl_equality_and_window(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert k_agl(q, 1) == q
        for q, n in [(2, 2), (2, 10), (3, 5), (9, 3)]:
            k = k_agl(q, n)
            assert q ** n < k < 2 * q ** n  # strict on both sides

    def test_exceptional_values_are_exact(self):
        assert k_asp(3, 1) == 10
        assert k_asp(2, 1) == 5
        assert k_asp(2, 2) == 21
        assert k_asp(2, 3) == 67
        assert k_ao_even_dim(2, 1, True) == 5
        assert k_ao_even_dim(2, 2, True) == 20
        assert k_ao_even_dim(2, 1, False) == 5
        assert k_ao_even_dim(2, 2, False) == 18
        assert k_ao_even_dim(2, 3, False) == 65

    def test_small_dimension_closed_forms(self):
        for q in (3, 5, 7, 9):
            ao_odd = affine_counts("ao-odd", q, 1)
            assert ao_odd[0] == (q + 3) // 2
            assert ao_odd[1] == (q * q + 10 * q + 5) // 2
            assert k_asp(q, 1) == 2 * q + 4
        for q in (2, 4, 8):
            assert k_ao_even_dim(q, 1, True) == 5 * q // 2
            assert k_ao_even_dim(q, 1, False) == 5 * q // 2
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert affine_counts("agu", q, 1)[1] == 2 * q

    def test_stated_symplectic_values(self):
        assert k_asp(3, 2) == 58
        assert k_asp(5, 2) == 110

    def test_open_question_small_odd_orthogonal(self):
        # dimension-5 odd orthogonal cell at q=3: strictly below q^5,
        # cross-checked against the recursion route
        k = affine_counts("ao-odd", 3, 2)[2]
        rec = affine_recursive("AO-sum", 3, 5)
        assert 2 * k == rec[5]  # the sum series doubles the odd-dim count
        assert k == 119
        assert k < 3 ** 5

    def test_asu_sandwich_handles_tight_cells(self):
        rep = check_bound(SPECS["asu-sandwich-q2n"], q_set=(2,), n_max=6)
        assert rep.ok
        # the index majorant alone would fail at q=2, n=3: 3 k(AGU(3,2)) > 64
        assert 3 * affine_counts("agu", 2, 3)[3] > 2 ** 6

    def test_violation_path(self):
        bad = BoundSpec("too-tight", "agl", "any", (1, 1, 0), "le")
        rep = check_bound(bad, q_set=(2, 3), n_max=4)
        assert not rep.ok
        assert all(c["verdict"] == "VIOLATION" for c in rep.cells
                   if c["n"] >= 2)

    def test_exception_value_mismatch_is_violation(self):
        bad = BoundSpec("wrong-exception", "asp", "odd", (1, 2, 0), "le",
                        exceptions={(1, 3): 11})
        rep = check_bound(bad, q_set=(3,), n_max=2)
        assert [c["verdict"] for c in rep.cells] == ["VIOLATION", "holds"]

    def test_characteristic_filter(self):
        spec = SPECS["asp-odd-27qn"]
        assert spec.q_set((2, 3, 4, 5)) == [3, 5]
        spec = SPECS["asp-even-56qn"]
        assert spec.q_set((2, 3, 4, 5)) == [2, 4]

    def test_spec_ids_unique(self):
        ids = [s.id for s in BOUND_SPECS]
        assert len(ids) == len(set(ids))

    def test_odd_dim_needs_odd_q(self):
        with pytest.raises(ValueError):
            affine_counts("ao-odd", 2, 1)

    def test_each_series_is_built_once(self, monkeypatch):
        calls = Counter()
        real = classcount.affine_series

        def counted(family, q, order, ch=""):
            calls[family, ch, q] += 1
            return real(family, q, order, ch)

        monkeypatch.setattr(classcount, "affine_series", counted)
        classcount._closed_form.cache_clear()
        check_all_bounds(Q_ALL, 25)
        assert calls and max(calls.values()) == 1


class TestAHTheorem:
    def test_default_grid_ok(self):
        report = check_ah_theorem()
        assert report["ok"], report["violations"][:3]
        assert report["rows"]

    def test_exceptions_exact(self):
        report = check_ah_theorem()
        seen = {(r["q"], r["e"], r["n"]): r["value"]
                for r in report["rows"] if r["verdict"] == "exception"}
        expected = {(q, 1, 1): q for q in (3, 4, 5, 7, 8, 9)}
        expected[(3, 1, 2)] = 10
        assert seen == expected

    def test_routes(self):
        report = check_ah_theorem(q_set=(5,), n_max=3)
        routes = {(r["e"], r["n"]): r["route"] for r in report["rows"]}
        # e=1: index 4, chain for n>=2; e=2: index 2, exact subgroup counts
        assert routes[(1, 1)] == "exact-dim1"
        assert routes[(1, 2)] == "chain"
        assert routes[(2, 2)] == "index-2-exact"

    def test_q2_vacuous(self):
        assert check_ah_theorem(q_set=(2,))["rows"] == []

    @pytest.mark.parametrize("q", [6, 10])
    def test_rejects_q_not_a_prime_power(self, q):
        with pytest.raises(ValueError):
            check_ah_theorem(q_set=(q,), n_max=3)

    def test_index2_values(self):
        # q=5, e=2: the subgroup counts come from halved general linear
        # counts: k(H(1)) = 2, k(H(2)) = 24/2 + (3/2)*4 = 18
        report = check_ah_theorem(q_set=(5,), n_max=2)
        vals = {(r["e"], r["n"]): r["value"] for r in report["rows"]}
        assert vals[(2, 1)] == 4          # e + (q-1)/e
        assert vals[(2, 2)] == 2 + 2 + 18

    def test_chain_tightest_cell(self):
        # q=4, e=1, n=2 has the least slack: 3 + 2.5*15/3 = 15.5 vs 16
        report = check_ah_theorem(q_set=(4,), n_max=2)
        row = [r for r in report["rows"] if r["n"] == 2][0]
        assert row["value"] == Fraction(31, 2)
        assert row["verdict"] == "holds"


def test_h_enclosed_once():
    # ao-odd-sum-53, o-odd-dim-14.2 and o-even-dim-16.3 share H(7/10)
    for cached in (bounds._h_value_interval, bounds._h_series, certify_constant):
        cached.cache_clear()
    certify_all()
    info = bounds._h_value_interval.cache_info()
    assert (info.misses, info.hits) == (1, 2)
