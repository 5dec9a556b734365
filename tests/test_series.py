"""Core arithmetic of the truncated series layer."""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from affineclasses.series import (
    FactorFamily,
    Q,
    QPOLY,
    QPoly,
    RATIONAL,
    TruncatedSeries,
    apply_product,
    apply_weight,
    evaluate_q,
    geometric,
    pow_factor,
)

ONE = TruncatedSeries.one


def series(coeffs, ring=RATIONAL, order=8):
    return TruncatedSeries.from_coeffs(coeffs, ring, order)


def coeffs(p):
    """A QPoly's coefficients as Fractions, lowest degree first."""
    return tuple(Fraction(x, p.d) for x in p.n)


class TestQPoly:
    def test_normalization(self):
        assert coeffs(QPoly([1, 2, 0, 0])) == (Fraction(1), Fraction(2))
        assert coeffs(QPoly([0])) == ()
        assert not QPoly()
        assert QPoly(5).degree == 0

    def test_arithmetic(self):
        p = (Q + 1) * (Q - 1)
        assert p == Q * Q - 1
        assert (Q + 2) - Q == 2
        assert 3 * Q == Q + Q + Q
        assert coeffs(Q**3) == (0, 0, 0, 1)
        assert coeffs(Q / 2) == (0, Fraction(1, 2))

    def test_evaluate(self):
        p = (Q * Q + 10 * Q + 5) / 2
        assert p(3) == 22
        assert evaluate_q(2 * Q + 4, 3) == 10
        assert evaluate_q(7, 5) == 7

    def test_str_canonical(self):
        assert str((Q * Q + 10 * Q + 5) / 2) == "(1/2)q^2 + 5q + (5/2)"
        assert str(QPoly()) == "0"
        assert str(Q - 1) == "q - 1"
        assert str(-Q) == "-q"
        assert str(Q**2) == "q^2"

    def test_integer_fields(self):
        p = QPoly([Fraction(1, 2), Fraction(-1, 3), 0])
        assert (p.n, p.d) == ((3, -2), 6)
        assert ((Q + 1) * (Q - 1)).n == (-1, 0, 1)
        assert ((Q + 1) * (Q - 1)).d == 1
        assert (QPoly().n, QPoly().d) == ((), 1)
        assert ((Q / 2) * 2).d == 1

    def test_constants_agree_with_numbers(self):
        half = Fraction(1, 2)
        assert QPoly(half) == half and hash(QPoly(half)) == hash(half)
        assert QPoly(3) == 3 and hash(QPoly(3)) == hash(3)
        assert QPoly() == 0 and hash(QPoly()) == hash(0)
        assert len({QPoly(3), 3, Fraction(3)}) == 1

    def test_division_by_zero_raises(self):
        for p in (QPoly(), QPoly(3), Q, (Q + 1) / 3):
            for zero in (0, Fraction(0), QPoly()):
                with pytest.raises(ZeroDivisionError):
                    p / zero


class TestOps:
    def test_add(self):
        a = series([1, 1])
        b = series([1, -1])
        assert (a + b) == series([2])
        z = series([])
        assert a + z == a
        aq = series([1, Q], QPOLY)
        bq = series([1, 1], QPOLY)
        assert (aq + bq) == series([2, Q + 1], QPOLY)

    def test_rational_ring_refuses_floats(self):
        with pytest.raises(TypeError):
            TruncatedSeries.from_coeffs([0.5])
        with pytest.raises(TypeError):
            series([1, 2]) * 0.5

    def test_qpoly_ring_refuses_floats(self):
        for make in (lambda: TruncatedSeries.from_coeffs([0.5], QPOLY, 2),
                     lambda: QPoly((0.1,)),
                     lambda: QPoly(0.5),
                     lambda: Q / 0.5,
                     lambda: 0.5 - Q,
                     lambda: Q(2.5),
                     lambda: evaluate_q(Q, 2.0),
                     lambda: evaluate_q(0.1, 2),
                     lambda: evaluate_q(7, 2.0)):
            with pytest.raises(TypeError):
                make()

    def test_a_coefficient_is_a_fraction_only_if_one_went_into_it(self):
        s = series([1, 2], order=3) * series([1, 0, Fraction(1, 2)], order=3)
        assert s.coeffs == (1, 2, Fraction(1, 2), 1)
        assert [type(c) for c in s.coeffs] == [int, int, Fraction, Fraction]

    def test_add_ring_mismatch(self):
        with pytest.raises(TypeError):
            series([1]) + series([1], QPOLY)

    def test_mul(self):
        a = series([1, 1], order=2)
        b = series([1, -1], order=2)
        assert a * b == series([1, 0, -1], order=2)
        assert a * ONE(order=2) == a
        geo = geometric(1, 1, order=10)
        assert geo * series([1, -1], order=10) == ONE(order=10)

    def test_invert(self):
        geo = series([1, -1], order=10).invert()
        assert geo.coeffs == tuple(Fraction(1) for _ in range(11))
        gq = series([1, -Q], QPOLY, order=6).invert()
        assert [gq.coeff(n) for n in range(4)] == [1, Q, Q**2, Q**3]
        a = series([2, 5, -1, 3], order=9)
        assert a.invert().invert() == a

    def test_invert_non_unit(self):
        with pytest.raises(ZeroDivisionError):
            series([0, 1]).invert()
        with pytest.raises(ZeroDivisionError):
            series([Q, 1], QPOLY).invert()

    def test_coeff(self):
        a = series([1, 0, 3])
        assert a.coeff(2) == 3
        with pytest.raises(IndexError):
            a.coeff(9)


class TestApplyProduct:
    def test_pentagonal_prefix(self):
        # prod (1 - u^i) starts 1 - u - u^2 + u^5 + u^7 - ...
        fam = FactorFamily(-1, 1)
        got = apply_product(ONE(order=7), [fam])
        assert got == series([1, -1, -1, 0, 0, 1, 0, 1], order=7)

    def test_inverse_factors_cancel(self):
        fam = FactorFamily(-1, 1)
        inv = FactorFamily(-1, 1, power=-1)
        assert apply_product(ONE(order=12), [fam, inv]) == ONE(order=12)

    def test_gl_rank_one_coefficient(self):
        # prod (1-u^i)/(1-qu^i): coefficient of u is q-1, the class count of
        # the abelian group of invertible 1x1 matrices
        fams = [
            FactorFamily(-1, 1),
            FactorFamily(-Q, 1, power=-1),
        ]
        got = apply_product(ONE(QPOLY, order=3), fams)
        assert got.coeff(1) == Q - 1

    def test_power_four(self):
        fam = FactorFamily(1, 1, power=4)
        got = apply_product(ONE(order=2), [fam])
        # (1+u)^4 (1+u^2)^4 = 1 + 4u + 10u^2 + ...
        assert [got.coeff(n) for n in range(3)] == [1, 4, 10]

    def test_exponents_are_an_arithmetic_progression(self):
        assert FactorFamily(1, 4, -2).exponents_up_to(14) == range(2, 15, 4)
        assert list(FactorFamily(1, 2, -1).exponents_up_to(6)) == [1, 3, 5]

    def test_family_rejects_exponents_below_one(self):
        with pytest.raises(ValueError):
            FactorFamily(-1, 0)
        with pytest.raises(ValueError):
            FactorFamily(-1, 2, -2)  # step + offset = 0


def _weight_by_products(base, weight):
    """base times the weight, built the way apply_weight replaces: each term
    a monomial c u^k, times geometric(1, j) unless j = 0."""
    ring, order = base.ring, base.order
    w = series([], ring, order)
    for c, k, j in weight:
        term = series([0] * k + [c], ring, order)
        w = w + (term * geometric(1, j, ring, order) if j else term)
    return base * w


def _random_weight(rng, ring, order):
    """One to three random terms, plus a plain term (j = 0) and a term past
    the truncation order (k > order)."""
    if ring == QPOLY:
        coeff = lambda: rng.choice((Q, Q - 1, -Q, 2, QPoly((1, -3, 2)) / 5))
    else:
        coeff = lambda: rng.choice((1, -1, 2, 7, -12))
    terms = [(coeff(), rng.randrange(order + 2), rng.randrange(6))
             for _ in range(rng.randrange(1, 4))]
    terms += [(coeff(), rng.randrange(order), 0), (coeff(), order + 3, 2)]
    rng.shuffle(terms)
    return tuple(terms)


class TestApplyWeight:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("ring", (RATIONAL, QPOLY))
    def test_matches_monomial_times_geometric(self, ring, seed):
        rng = Random(seed)
        order = rng.randrange(1, 16)
        if ring == QPOLY:
            coeffs = [QPoly([rng.randrange(-3, 4) for _ in range(3)])
                      for _ in range(order + 1)]
        else:
            coeffs = [rng.randrange(-9, 10) for _ in range(order + 1)]
        base = series(coeffs, ring, order)
        weight = _random_weight(rng, ring, order)
        assert apply_weight(base, weight) == _weight_by_products(base, weight)

    @pytest.mark.parametrize("seed", range(6))
    def test_int_inputs_give_int_coefficients(self, seed):
        rng = Random(seed)
        base = series([rng.randrange(-9, 10) for _ in range(13)], order=12)
        got = apply_weight(base, _random_weight(rng, RATIONAL, 12))
        assert all(type(x) is int for x in got.coeffs)

    def test_geometric_and_plain_terms(self):
        # 1 + 3u^2/(1 - u^2) = 1 + 3u^2 + 3u^4 + ..., and 5u^9 truncates away
        got = apply_weight(ONE(order=6), ((1, 0, 0), (3, 2, 2), (5, 9, 1)))
        assert got == series([1, 0, 3, 0, 3, 0, 3], order=6)
        assert apply_weight(ONE(order=6), ()) == series([], order=6)


class TestPowFactor:
    def test_integer_exponents_match_repeated_mul(self):
        base = series([1, 0, Fraction(1, 2)], order=12)
        for e in (1, 2, -1, -3):
            direct = pow_factor(Fraction(1, 2), 2, e, order=12)
            want = ONE(order=12)
            step = base if e > 0 else base.invert()
            for _ in range(abs(e)):
                want = want * step
            assert direct == want

    def test_negative_binomial(self):
        # (1 - u)^-2 = sum (k+1) u^k
        got = pow_factor(-1, 1, -2, order=6)
        assert [got.coeff(k) for k in range(7)] == [1, 2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("c", (1, -1, 3, -7))
    @pytest.mark.parametrize("e", (0, 1, 5, -1, -4, 10 ** 20, -(3 ** 50)))
    def test_int_exponent_gives_exact_binomials(self, e, c):
        # generalized binomial binom(e, k) c^k, an int for every int e; the
        # large exponents are far past the 53 bits a float keeps exactly
        def binom(e, k):
            return comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)
        got = pow_factor(c, 2, e, order=24)
        want = [0] * 25
        for k in range(13):
            want[2 * k] = binom(e, k) * c ** k
        assert list(got.coeffs) == want
        assert all(type(x) is int for x in got.coeffs)

    def test_qpoly_exponent(self):
        # (1-u)^-q at order 2: 1 + q u + q(q+1)/2 u^2
        got = pow_factor(-1, 1, -Q, QPOLY, order=2)
        assert got.coeff(1) == Q
        assert got.coeff(2) == Q * (Q + 1) / 2


def _pent_numbers(order):
    vals = {0: 1}
    n = 1
    while n * (3 * n - 1) // 2 <= order:
        s = -1 if n % 2 else 1
        vals[n * (3 * n - 1) // 2] = s
        if n * (3 * n + 1) // 2 <= order:
            vals[n * (3 * n + 1) // 2] = s
        n += 1
    return vals


def test_pentagonal_theorem_order_60():
    got = apply_product(ONE(order=60), [FactorFamily(-1, 1)])
    want = _pent_numbers(60)
    for n in range(61):
        assert got.coeff(n) == want.get(n, 0)
        assert got.coeff(n) in (-1, 0, 1)


@lru_cache(maxsize=None)
def _distinct_parts(n, largest):
    # partitions of n into distinct parts of size at most `largest`
    if n == 0:
        return 1
    return sum(_distinct_parts(n - i, i - 1) for i in range(min(n, largest), 0, -1))


def test_product_bound_constant():
    # prod_{i<=40} (1 + 2^-i) lands in [2.38, 2.4]
    prod = Fraction(1)
    for i in range(1, 41):
        prod *= 1 + Fraction(1, 2**i)
    assert Fraction(238, 100) < prod < Fraction(24, 10)
    # prod_i (1 + u^i) counts partitions into distinct parts
    val = apply_product(ONE(order=40), [FactorFamily(1, 1)])
    assert [val.coeff(n) for n in range(41)] == [_distinct_parts(n, n) for n in range(41)]
    assert val.coeff(40) == 1113


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def _series_strategy(order=8):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TruncatedSeries(RATIONAL, order, cs)
    )


@settings(max_examples=80, deadline=None)
@given(_series_strategy(6), _series_strategy(6), _series_strategy(6))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(_series_strategy(9), st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=5))
def test_invert_two_sided(a, unit):
    if unit == 0:
        unit = Fraction(1)
    a = TruncatedSeries(RATIONAL, a.order, (unit,) + a.coeffs[1:])
    inv = a.invert()
    one = ONE(order=a.order)
    assert a * inv == one
    assert inv * a == one


@settings(max_examples=100, deadline=None)
@given(_series_strategy(10), rationals)
def test_family_and_negated_twin_cancel(base, c):
    fam = FactorFamily(c, 1, power=2)
    twin = FactorFamily(c, 1, power=-2)
    assert apply_product(base, [fam, twin]) == base


# --- QPoly against a Fraction-coefficient reference ---------------------

coefficients = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
coefficient_lists = st.lists(coefficients, max_size=7)
nonzero_scalars = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
).filter(bool)


def _ref(cs):
    out = [Fraction(x) for x in cs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_eval(a, x):
    return sum((c * x**k for k, c in enumerate(a)), Fraction(0))


def _ref_str(cs):
    """QPoly's text as first written, from its Fraction coefficients."""
    if not cs:
        return "0"
    parts = []
    for deg in range(len(cs) - 1, -1, -1):
        x = cs[deg]
        if not x:
            continue
        neg = x < 0
        x = -x if neg else x
        text = str(x.numerator) if x.denominator == 1 else \
            "(%d/%d)" % (x.numerator, x.denominator)
        if deg == 0:
            body = text
        else:
            var = "q" if deg == 1 else "q^%d" % deg
            body = var if x == 1 else text + var
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def _assert_canonical(p):
    assert all(type(x) is int for x in p.n) and type(p.d) is int
    assert p.d > 0
    assert not p.n or p.n[-1] != 0
    assert gcd(p.d, *p.n) == 1
    if not p.n:
        assert p.d == 1


@settings(max_examples=100, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_qpoly_ring_ops_match_reference(xs, ys):
    a, b = _ref(xs), _ref(ys)
    p, r = QPoly(xs), QPoly(ys)
    _assert_canonical(p)
    assert coeffs(p) == a
    for got, want in ((p + r, _ref_add(a, b)), (p - r, _ref_add(a, b, -1)),
                      (p * r, _ref_mul(a, b)), (-p, _ref_add((), a, -1))):
        _assert_canonical(got)
        assert coeffs(got) == want
        assert got == QPoly(want) and hash(got) == hash(QPoly(want))


@settings(max_examples=100, deadline=None)
@given(coefficient_lists, nonzero_scalars)
def test_qpoly_scalar_division_matches_reference(xs, s):
    p = QPoly(xs)
    got = p / s
    _assert_canonical(got)
    assert coeffs(got) == _ref(x / Fraction(s) for x in _ref(xs))
    assert got == p / QPoly(s)
    assert (p / 2) * 2 == p
    assert (got * s) == p


@settings(max_examples=60, deadline=None)
@given(coefficient_lists, st.sampled_from(
    [0, 1, -1, 2, 3, -7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]))
def test_qpoly_evaluation_matches_reference(xs, x):
    got = QPoly(xs)(x)
    assert type(got) is Fraction
    assert got == _ref_eval(_ref(xs), Fraction(x))


@settings(max_examples=100, deadline=None)
@given(coefficient_lists)
def test_qpoly_str_matches_reference(xs):
    assert str(QPoly(xs)) == _ref_str(_ref(xs))
