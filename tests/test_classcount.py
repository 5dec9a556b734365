from collections import Counter
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from affineclasses import classcount
from affineclasses.classcount import (
    AFFINE_FAMILIES,
    TABLE_FAMILIES,
    affine_counts,
    affine_recursive,
    affine_series,
    ao_split,
    characteristic,
    classical_series,
    k_ah,
    necklace,
    necklace_product,
    orbit_built_series,
    orbit_counts,
    recursion_counts,
    row_dimension,
    row_index,
    series_order,
    sp_even_proof_form,
)
from affineclasses.partitions import lemma_rhs
from affineclasses.primes import MR_LIMIT, divisors, is_prime, moebius, prime_power
from affineclasses.series import (
    Q,
    QPOLY,
    QPoly,
    RATIONAL,
    TruncatedSeries,
    geometric,
)

VALUE_QS = (2, 3, 4, 5, 7, 8, 9)


def series_at(s, q0):
    """Specialize a symbolic-ring series at a numeric q."""
    vals = []
    for n in range(s.order + 1):
        c = s.coeff(n)
        vals.append(c(q0) if isinstance(c, QPoly) else Fraction(c))
    return TruncatedSeries.from_coeffs(vals, RATIONAL)


class TestCharacteristic:
    def test_value_mode_takes_it_from_q(self):
        assert [characteristic(q) for q in (2, 3, 4, 9, 27)] == [
            "even", "odd", "even", "odd", "odd"]
        assert characteristic(4, "even") == "even"

    def test_symbolic_mode_takes_ch(self):
        assert characteristic(Q) == "odd"
        assert characteristic(Q, "even") == "even"
        with pytest.raises(ValueError):
            characteristic(Q, "zero")

    @pytest.mark.parametrize("q,ch", [(4, "odd"), (3, "even"), (3, "zero"),
                                      (6, ""), (1, ""), (-4, ""),
                                      (Fraction(5, 2), "")])
    def test_rejects(self, q, ch):
        with pytest.raises(ValueError):
            characteristic(q, ch)

    @pytest.mark.parametrize("q", [3.0, Fraction(3), True])
    def test_only_int_q(self, q):
        # a q equal to an int would share its cache keys, so it is refused
        # before any cache is read, whichever call came first
        _clear_series_caches()
        with pytest.raises(ValueError):
            characteristic(q)
        with pytest.raises(ValueError):
            affine_counts("agl", q, 3)
        assert affine_counts("agl", 3, 3) == (1, 3, 11, 35)
        with pytest.raises(ValueError):
            affine_counts("agl", q, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            affine_series("AGL", 4, 5, ch="odd")
        with pytest.raises(ValueError):
            affine_series("AGL", 6, 5)
        with pytest.raises(ValueError):
            orbit_built_series("ASp", 4, 5)
        with pytest.raises(ValueError):
            affine_series("SL", 3, 5)
        with pytest.raises(ValueError):
            classical_series("GL", 3, 5, "zero")
        with pytest.raises(ValueError):
            affine_recursive("AGL", 6, 5)
        with pytest.raises(ValueError):
            classical_series("GL", 9, 5, "even")
        with pytest.raises(ValueError):
            affine_counts("ao-odd", Q, 3, "even")


class TestRows:
    def test_conventions(self):
        assert [row_dimension(f, 3) for f in TABLE_FAMILIES] == [3, 3, 6, 6, 6, 7]
        # orthogonal series: full dimension in odd characteristic, half in even
        assert [row_index(f, "odd", 3) for f in TABLE_FAMILIES] == [3, 3, 3, 6, 6, 7]
        assert [row_index(f, "even", 3) for f in TABLE_FAMILIES] == [3, 3, 3, 3, 3, 3]

    def test_unknown_table_family(self):
        with pytest.raises(ValueError):
            affine_counts("asl", 3, 2)

    @pytest.mark.parametrize("call", [
        lambda: row_dimension("AGL", 3),  # a series name, not a table family
        lambda: row_dimension("foo", 3),
        lambda: row_index("foo", "odd", 1),
        lambda: row_index("AGL", "odd", 3),
        lambda: series_order("asl", "odd", 3),
    ])
    def test_unknown_names_raise(self, call):
        with pytest.raises(ValueError):
            call()

    def test_series_order(self):
        # the orthogonal families share the order of ao-odd's last row
        assert [series_order(f, "odd", 3) for f in TABLE_FAMILIES] == [3, 3, 3, 7, 7, 7]
        assert [series_order(f, "even", 3) for f in TABLE_FAMILIES] == [3] * 6


class TestPrimePower:
    def test_agrees_with_trial_division(self):
        # least prime factors below 10^5 by a sieve
        bound = 100_000
        least = list(range(bound))
        for d in range(2, 317):
            if least[d] == d:
                for m in range(d * d, bound, d):
                    least[m] = min(least[m], d)
        for q in range(2, bound):
            p, k, r = least[q], 0, q
            while r % p == 0:
                r //= p
                k += 1
            assert is_prime(q) == (p == q), q
            if r == 1:
                assert prime_power.__wrapped__(q) == (p, k), q
            else:
                with pytest.raises(ValueError):
                    prime_power.__wrapped__(q)

    @pytest.mark.parametrize("q", [2047, 3215031751])
    def test_strong_pseudoprimes_refused(self, q):
        # strong pseudoprimes to base 2, and to bases 2, 3, 5 and 7
        assert not is_prime(q)
        with pytest.raises(ValueError):
            prime_power(q)

    def test_large_powers(self):
        p = 10 ** 9 + 7
        assert prime_power(p * p) == (p, 2)
        assert prime_power(10 ** 14 + 31) == (10 ** 14 + 31, 1)
        assert prime_power(3 ** 40) == (3, 40)
        with pytest.raises(ValueError):
            prime_power(p * (p + 2))

    def test_refused_at_the_limit(self):
        # 2^89 - 1 is prime, but passing every base proves nothing there
        with pytest.raises(ValueError, match=str(MR_LIMIT)):
            prime_power(2 ** 89 - 1)
        # a composite answer stays exact beyond the limit
        with pytest.raises(ValueError, match="prime power"):
            prime_power((2 ** 89 - 1) * (2 ** 61 - 1))


class TestNecklace:
    def test_divisors(self):
        for m in range(1, 3001):
            assert divisors(m) == [d for d in range(1, m + 1) if m % d == 0], m
        # factored, not scanned: trying every d takes a minute
        assert divisors(1_000_000_006) == [1, 2, 500000003, 1000000006]

    def test_divisors_match_the_square_root_scan(self):
        # the scan divisors ran before it factored m: each d <= sqrt(m)
        # paired with m // d; and the Moebius function by least factors
        for m in range(1, 10_001):
            small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
            assert divisors(m) == small + [m // d for d in reversed(small)
                                           if d * d != m], m
            mu, e = 1, m
            while e > 1:
                p = next(d for d in range(2, e + 1) if e % d == 0)
                e //= p
                mu = 0 if e % p == 0 else -mu
                if mu == 0:
                    break
            assert moebius(m) == mu, m

    @pytest.mark.parametrize("primes", [
        (2, 3, 7, 61, 65701, 594085421),   # 10^17 + 2, squarefree
        (10 ** 9 + 7, 10 ** 9 + 7),        # a prime square beyond trial division
        (43, 43, 43, 47, 10 ** 9 + 7, 10 ** 9 + 9),
    ])
    def test_divisors_of_large_m(self, primes):
        # Pollard rho splits what trial division by the small primes leaves
        m = prod(primes)
        exponents = Counter(primes)
        assert all(is_prime(p) for p in exponents)
        ds = divisors(m)
        assert ds == sorted(set(ds)) and ds[-1] == m
        assert all(m % d == 0 for d in ds)
        assert len(ds) == prod(k + 1 for k in exponents.values())
        assert moebius(m) == (0 if len(exponents) < len(primes)
                              else (-1) ** len(primes))

    def test_moebius(self):
        assert [moebius(e) for e in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
        with pytest.raises(ValueError):
            moebius(0)

    def test_degree_one(self):
        assert necklace(Q, 1) == Q - 1
        assert necklace(7, 1) == 6

    def test_small_counts(self):
        # exhaustive irreducibility over 2-element field: z^2+z+1 only in
        # degree 2; three irreducible quartics
        assert necklace(2, 2) == 1
        assert necklace(2, 4) == 3
        assert necklace(3, 2) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            necklace(2, 0)

    def test_product_telescopes(self):
        # prod_d (1-u^d)^(-N(q;d)) = (1-u)/(1-qu), symbolically
        order = 25
        got = necklace_product(Q, order)
        want = ((TruncatedSeries.one(QPOLY, order)
                 - TruncatedSeries.from_coeffs([0, 1], QPOLY, order))
                * geometric(Q, 1, QPOLY, order))
        assert got == want

    @pytest.mark.parametrize("q", VALUE_QS)
    def test_product_telescopes_in_value_mode(self, q):
        # (1-u)/(1-qu) = 1 + sum (q-1) q^(n-1) u^n; the exponents N(q;d) pass
        # 2^53 well before n = 25, so a float anywhere in the product shows
        got = necklace_product(q, 25)
        assert list(got.coeffs) == [1] + [(q - 1) * q ** (n - 1) for n in range(1, 26)]


class TestValueModeCoefficientsAreInts:
    """With an int q every input of the value-mode series is an int, so every
    coefficient must stay one: type(c) is int, never an integral Fraction."""

    @pytest.mark.parametrize("q", VALUE_QS)
    @pytest.mark.parametrize("family", ("GL", "GU", "Sp", "O-sum", "O-diff"))
    def test_classical(self, family, q):
        s = classical_series(family, q, 25)
        assert [type(c) for c in s.coeffs] == [int] * 26

    @pytest.mark.parametrize("q", VALUE_QS)
    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    def test_affine(self, family, q):
        s = affine_series(family, q, 25)
        assert [type(c) for c in s.coeffs] == [int] * 26


class TestClassicalSeries:
    def test_gl_symbolic_prefix(self):
        s = classical_series("GL", Q, 6)
        want = [QPoly(1), Q - 1, Q * Q - 1, Q ** 3 - Q, Q ** 4 - Q]
        assert [QPoly(0) + s.coeff(n) for n in range(5)] == want

    def test_gl22(self):
        assert classical_series("GL", 2, 4, "even").coeff(2) == 3

    def test_gu_first(self):
        s = classical_series("GU", Q, 4)
        assert QPoly(0) + s.coeff(1) == Q + 1
        assert QPoly(0) + s.coeff(2) == (Q + 1) ** 2

    def test_sp_odd_first(self):
        assert QPoly(0) + classical_series("Sp", Q, 3).coeff(1) == Q + 4

    def test_sp_even_values(self):
        s = classical_series("Sp", 2, 4, "even")
        # Sp(2,2) and Sp(4,2) are symmetric groups S3 and S6
        assert [s.coeff(n) for n in range(3)] == [1, 3, 11]

    def test_sp_even_forms_agree_symbolically(self):
        assert classical_series("Sp", Q, 40, "even") == sp_even_proof_form(Q, 40)

    @pytest.mark.parametrize("q", [3, 6])
    def test_sp_even_proof_form_needs_even_prime_power(self, q):
        with pytest.raises(ValueError):
            sp_even_proof_form(q, 4)

    def test_o_odd_first(self):
        assert classical_series("O-sum", Q, 3).coeff(1) == 4
        d = classical_series("O-diff", Q, 8)
        assert d.coeff(1) == 0
        assert d.coeff(2) == -1

    def test_o_even_first(self):
        # O+(2,2) has 2 classes, O-(2,2) is S3 with 3
        s = classical_series("O-sum", 2, 3, "even")
        d = classical_series("O-diff", 2, 3, "even")
        assert s.coeff(1) == 5
        assert d.coeff(1) == -1

    def test_rejects_affine_key(self):
        with pytest.raises(ValueError):
            classical_series("AGL", 3, 5)

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            classical_series("GL", 4, 5, "odd")
        with pytest.raises(ValueError):
            classical_series("Sp", 6, 5, "even")
        with pytest.raises(ValueError):
            classical_series("GL", 1, 5, "even")


class TestAffineSeries:
    def test_symbolic_degree_one(self):
        assert QPoly(0) + affine_series("AGL", Q, 3).coeff(1) == Q
        assert QPoly(0) + affine_series("AGU", Q, 3).coeff(1) == 2 * Q
        assert QPoly(0) + affine_series("ASp", Q, 3).coeff(1) == 2 * Q + 4

    def test_asp_odd_values(self):
        s3 = affine_series("ASp", 3, 3)
        assert s3.coeff(1) == 10
        assert s3.coeff(2) == 58
        assert affine_series("ASp", 5, 3).coeff(2) == 110

    def test_asp_even_values(self):
        s = affine_series("ASp", 2, 4, "even")
        assert [s.coeff(n) for n in (1, 2, 3)] == [5, 21, 67]

    def test_ao_odd_symbolic(self):
        s = affine_series("AO-sum", Q, 4)
        assert QPoly(0) + s.coeff(1) == Q + 3
        assert QPoly(0) + s.coeff(3) == Q * Q + 10 * Q + 5

    def test_ao_even_symbolic_dim2(self):
        s = affine_series("AO-sum", Q, 3, "even")
        assert QPoly(0) + s.coeff(1) == 5 * Q

    def test_ao_diff_odd_even_powers_only(self):
        s = affine_series("AO-diff", 3, 15)
        assert all(s.coeff(n) == 0 for n in range(1, 16, 2))

    def test_rejects_classical_key(self):
        with pytest.raises(ValueError):
            affine_series("GL", 3, 5)

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            affine_series("ASp", 2, 5, "odd")
        with pytest.raises(ValueError):
            affine_series("AO-sum", 3, 5, "even")


class TestAoSplit:
    def test_even_char_q2(self):
        s = affine_series("AO-sum", 2, 4, "even")
        d = affine_series("AO-diff", 2, 4, "even")
        plus, minus = ao_split(s.coeffs, d.coeffs)
        assert plus[:4] == (1, 5, 20, 64)
        assert minus[:4] == (0, 5, 18, 65)

    def test_odd_char_dim1(self):
        s = affine_series("AO-sum", 3, 4)
        d = affine_series("AO-diff", 3, 4)
        plus, minus = ao_split(s.coeffs, d.coeffs)
        assert plus[1] == minus[1] == 3  # (q+3)/2 at q=3
        # odd dims: plus equals minus
        assert plus[3] == minus[3]

    def test_symbolic_split(self):
        s = affine_series("AO-sum", Q, 2)
        d = affine_series("AO-diff", Q, 2)
        plus, minus = ao_split(s.coeffs, d.coeffs)
        assert QPoly(0) + plus[1] == (Q + 3) / 2

    def test_order_mismatch(self):
        s = affine_series("AO-sum", 3, 4)
        d = affine_series("AO-diff", 3, 5)
        with pytest.raises(ValueError):
            ao_split(s.coeffs, d.coeffs)

    def test_non_integer_split_detected(self):
        s = TruncatedSeries.from_coeffs([1, 1], RATIONAL)
        d = TruncatedSeries.from_coeffs([1, 0], RATIONAL)
        with pytest.raises(ValueError):
            ao_split(s.coeffs, d.coeffs)


def eval_ratio(identity, q0, order):
    """lemma_rhs(part)/lemma_rhs(part 1) specialized at q0."""
    num = series_at(lemma_rhs(identity, order), q0)
    return num


class TestOrbitAssembly:
    @pytest.mark.parametrize("name,key", [
        ("AGL", ("AGL", "odd")),
        ("AGU", ("AGU", "odd")),
        ("ASp-odd", ("ASp", "odd")),
        ("AO-sum-odd", ("AO-sum", "odd")),
        ("AO-diff-odd", ("AO-diff", "odd")),
    ])
    def test_total_matches_closed_form(self, name, key):
        family, ch = key
        pieces = orbit_built_series(family, Q, 12, ch)
        assert pieces.total() == affine_series(family, Q, 12, ch), name

    def test_total_matches_value_mode(self):
        pieces = orbit_built_series("ASp", 3, 10)
        assert pieces.total() == affine_series("ASp", 3, 10)

    def test_t2_t3_from_weighted_unipotent_series(self):
        # reproduce T2 and T3 by dividing out the plain unipotent series and
        # multiplying by the weighted one, at q = 3
        order, q0 = 10, 3
        cases = [
            ("AGU", "genfunU-1", "genfunU-2", "genfunU-3", q0, 1),
            ("ASp", "genfun-1", "genfun-2", "genfun-3", 1, 1),
            ("AO-sum", "genfunO-1", "genfunO-2", "genfunO-3", 1, 1),
        ]
        for family, i1, i2, i3, c2, c3 in cases:
            pieces = orbit_built_series(family, q0, order)
            inv_u1 = series_at(lemma_rhs(i1, order), q0).invert()
            t2 = pieces.T1 * inv_u1 * series_at(lemma_rhs(i2, order), q0) * c2
            t3 = pieces.T1 * inv_u1 * series_at(lemma_rhs(i3, order), q0) * c3
            assert pieces.T2 == t2, family
            assert pieces.T3 == t3, family

    def test_agl_t2_ratio(self):
        pieces = orbit_built_series("AGL", 2, 10)
        ratio = (TruncatedSeries.from_coeffs([0, 1], RATIONAL, 10)
                 * geometric(1, 1, RATIONAL, 10))
        assert pieces.T2 == pieces.T1 * ratio
        assert pieces.T3 == TruncatedSeries.from_coeffs([], RATIONAL, 10)

    def test_agu_combination_subtracts_t3(self):
        pieces = orbit_built_series("AGU", 2, 6)
        total = pieces.total()
        assert total == pieces.T1 + pieces.T2 - pieces.T3

    def test_odd_families_reject_even_q(self):
        with pytest.raises(ValueError):
            orbit_built_series("ASp", 2, 5)
        with pytest.raises(ValueError):
            orbit_built_series("nope", 3, 5)


RECURSION_CASES = [
    ("AGL", "odd", 3), ("AGL", "odd", 5), ("AGL", "even", 2), ("AGL", "even", 4),
    ("AGU", "odd", 3), ("AGU", "even", 2),
    ("ASp", "odd", 3), ("ASp", "odd", 5), ("ASp", "even", 2), ("ASp", "even", 4),
    ("AO-sum", "odd", 3), ("AO-sum", "odd", 5), ("AO-sum", "even", 2),
    ("AO-diff", "odd", 3), ("AO-diff", "even", 2),
]

SYMBOLIC_CASES = [(f, ch) for ch in ("odd", "even") for f in sorted(AFFINE_FAMILIES)]


class TestRecursions:
    @pytest.mark.parametrize("family,ch,q", RECURSION_CASES)
    def test_recursion_matches_closed_form(self, family, ch, q):
        rec = affine_recursive(family, q, 12, ch)
        ser = affine_series(family, q, 12, ch)
        assert list(rec) == [ser.coeff(n) for n in range(13)]

    @pytest.mark.parametrize("family,ch", SYMBOLIC_CASES,
                             ids=[f + ("" if ch == "odd" else "-even")
                                  for f, ch in SYMBOLIC_CASES])
    def test_symbolic_recursion(self, family, ch):
        rec = affine_recursive(family, Q, 8, ch)
        ser = affine_series(family, Q, 8, ch)
        for n in range(9):
            assert QPoly(0) + rec[n] == QPoly(0) + ser.coeff(n)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_per_type_orthogonal_recursions(self, q):
        # the paper's recursions per type, with the cross term the plus and
        # minus types share, against the split of the sum and difference
        n_max = 12
        plus, minus = ao_split(affine_recursive("AO-sum", q, n_max),
                               affine_recursive("AO-diff", q, n_max))
        osum = classical_series("O-sum", q, n_max).coeffs
        pbase, mbase = ao_split(osum, classical_series("O-diff", q, n_max).coeffs)
        if q % 2:
            shift, cross = 2, [(q - 1) // 2 * s for s in osum]
        else:
            shift = 1
            cross = [2 * (q - 1) * s for s in classical_series("Sp", q, n_max).coeffs]
        assert (plus[0], minus[0]) == (1, 0)
        for n in range(1, n_max + 1):
            for own, base in ((plus, pbase), (minus, mbase)):
                back = own[n - shift] if n >= shift else 0
                assert own[n] == base[n] + back + cross[n - 1]

    def test_agl22(self):
        assert affine_recursive("AGL", 2, 2, "even")[2] == 5

    def test_base_conventions(self):
        assert affine_recursive("AGU", 3, 0)[0] == 1
        assert affine_recursive("AO-sum", 2, 0, "even")[0] == 1
        assert affine_recursive("AO-diff", 2, 0, "even")[0] == 1

    def test_rejects_classical(self):
        with pytest.raises(ValueError):
            affine_recursive("GL", 3, 4)


def _clear_series_caches():
    classcount._closed_form.cache_clear()
    classcount._classical.cache_clear()


def _run_routes(family, q, n_max, ch=""):
    """The three table routes, as `table` runs them by default."""
    affine_counts(family, q, n_max, ch)
    recursion_counts(family, q, n_max, ch)
    if family in ("agl", "agu") or characteristic(q, ch) == "odd":
        orbit_counts(family, q, n_max, ch)


def _typed(series):
    return series.ring, series.order, [(type(c), c) for c in series.coeffs]


class TestClassicalCache:
    """One classical product per (family, ch, q, order), shared by the
    three routes."""

    def test_bounded(self):
        assert classcount._classical.cache_info().maxsize == 64

    def test_symbolic_ao_plus_table(self):
        # O-sum and O-diff are built once each; the recursions read them
        # once per classical term (O-sum twice, O-diff once) and the orbit
        # assembly once each
        _clear_series_caches()
        _run_routes("ao-plus", Q, 10)
        info = classcount._classical.cache_info()
        assert (info.hits, info.misses) == (5, 2)

    def test_cached_series_equal_fresh_builds(self):
        _clear_series_caches()
        n_max = 6
        cells = [(3, ""), (4, ""), (Q, "odd"), (Q, "even")]
        for family in TABLE_FAMILIES:
            for q, ch in cells:
                if family != "ao-odd" or characteristic(q, ch) == "odd":
                    _run_routes(family, q, n_max, ch)
        cached = classcount._classical.cache_info().currsize
        assert cached > 0
        keys = [(family, ch, q, order)
                for family, ch in classcount._CLASSICAL
                for q in (3, 4, Q) if isinstance(q, QPoly) or characteristic(q) == ch
                for order in (n_max, 2 * n_max + 1)]
        seen = 0
        for key in keys:
            hits = classcount._classical.cache_info().hits
            series = classcount._classical(*key)
            if classcount._classical.cache_info().hits == hits:
                continue  # no route built this key; the call just did
            seen += 1
            assert isinstance(series.coeffs, tuple)
            assert _typed(series) == _typed(classcount._classical.__wrapped__(*key))
        assert seen == cached


def k_bsp(q, n_max):
    """Class counts of the extended even-characteristic symplectic groups:
    k(BSp(2n,q)) = k(ASp(2n,q)) + (q-1)(k(O+(2n,q)) + k(O-(2n,q)))."""
    asp = affine_series("ASp", q, n_max, "even").coeffs
    osum = classical_series("O-sum", q, n_max, "even").coeffs
    return [asp[n] + (q - 1) * osum[n] for n in range(n_max + 1)]


class TestBSp:
    def test_base(self):
        assert k_bsp(2, 3)[0] == 2

    def test_reconstruction(self):
        # k(ASp(2n,q)) = k(Sp(2n,q)) + k(BSp(2n-2,q))
        b = k_bsp(2, 5)
        sp = classical_series("Sp", 2, 6, "even")
        asp = affine_series("ASp", 2, 6, "even")
        for n in range(1, 6):
            assert asp.coeff(n) == sp.coeff(n) + b[n - 1]
        assert asp.coeff(1) == 5
        assert asp.coeff(3) == 67

    def test_rejects_odd_q(self):
        with pytest.raises(ValueError):
            k_bsp(3, 3)


class TestKAh:
    def test_asl_dim1(self):
        assert k_ah(5, 1, 1) == (1, 5)
        assert k_ah(7, 1, 1)[1] == 7

    def test_asl23(self):
        assert k_ah(3, 1, 2)[2] == 10

    def test_full_group_reduces_to_agl(self):
        got = k_ah(5, 4, 6)
        want = affine_recursive("AGL", 5, 6)
        assert got == want

    def test_index_two(self):
        assert k_ah(5, 2, 2)[2] == 22

    def test_explicit_kh(self):
        # supplying the index-2 subgroup counts explicitly matches the
        # built-in route
        q = 7
        kh = [1]
        gl = classical_series("GL", q, 4)
        for n in range(1, 5):
            v = Fraction(gl.coeff(n), 2)
            if n % 2 == 0:
                v += Fraction(3, 2) * gl.coeff(n // 2)
            kh.append(int(v))
        assert k_ah(q, 3, 4, kH=kh) == k_ah(q, 3, 4, kH=tuple(kh))

    def test_errors(self):
        with pytest.raises(ValueError):
            k_ah(5, 3, 2)  # index 2 route needs odd q... 3 divides 4? no
        with pytest.raises(ValueError):
            k_ah(8, 1, 3)  # index 7, no kH
        with pytest.raises(ValueError):
            k_ah(5, 1, 3, kH=[1, 1])  # too short
        with pytest.raises(TypeError):
            k_ah(Q, 1, 2)


@given(st.sampled_from([(f, ch, q) for f, ch, q in RECURSION_CASES]),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_value_mode_counts_are_integers(case, n):
    family, ch, q = case
    v = affine_series(family, q, 10, ch).coeff(n)
    assert Fraction(v).denominator == 1
    if family != "AO-diff":
        assert v >= (1 if n == 0 and family != "AO-diff" else 0)


@given(st.sampled_from([3, 5, 7, 9]), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_odd_char_diff_vanishes_in_odd_dims(q, n):
    s = affine_series("AO-diff", q, 8)
    if n % 2 == 1:
        assert s.coeff(n) == 0
