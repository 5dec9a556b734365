from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from affineclasses import partitions
from affineclasses.partitions import (
    IDENTITIES,
    KINDS,
    MINUS,
    PLUS,
    Partition,
    SignedPartition,
    b_stat,
    d_stat,
    lemma_rhs,
    lemma_sum,
    o_gl,
    o_gu,
    o_signed,
    sp_f,
)
from affineclasses.series import Q, QPoly


def as_qpoly(x):
    return QPoly(0) + x


# ---------------------------------------------------------------------------
# the object enumeration: every (signed) partition as a Partition or
# SignedPartition, the reference that lemma_sum's integer tallies are
# checked against

def _mult_dicts(total, largest, allowed):
    # multiplicity dicts, largest part first, multiplicities descending
    if total == 0:
        yield {}
        return
    for i in range(min(largest, total), 0, -1):
        for a in range(total // i, 0, -1):
            if allowed(i, a):
                for rest in _mult_dicts(total - i * a, i - 1, allowed):
                    yield {i: a, **rest}


def enum_partitions(n: int):
    """All partitions of n, ordered by largest part descending."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [Partition(m) for m in _mult_dicts(n, n, lambda i, a: True)]


def enum_signed(size: int, parity: int):
    """Signed partitions of the given total size: parity 0 for the
    symplectic family (the size must be even), 1 for the orthogonal one.
    Signs run over the signed sizes largest first, '+' before '-'."""
    if size < 0 or (parity == 0 and size % 2):
        raise ValueError("size must be >= 0, and even for parity 0")
    out = []
    for m in _mult_dicts(size, size, lambda i, a: i % 2 == parity or a % 2 == 0):
        signed = sorted((i for i in m if i % 2 == parity), reverse=True)
        out.extend(SignedPartition(m, dict(zip(signed, signs)), parity)
                   for signs in product((PLUS, MINUS), repeat=len(signed)))
    return out


class TestEnumeration:
    def test_partition_counts(self):
        # 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
        assert [len(enum_partitions(n)) for n in range(11)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_partition_order_deterministic(self):
        assert [p.parts() for p in enum_partitions(4)] == [
            [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]

    def test_partition_from_parts_list(self):
        assert Partition([2, 1, 1]) == Partition({2: 1, 1: 2})
        assert Partition([3, 3]).size == 6

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition({0: 1})
        with pytest.raises(ValueError):
            Partition({2: 0})

    def test_sp_signed_small(self):
        assert len(enum_signed(0, 0)) == 1
        assert len(enum_signed(2, 0)) == 3
        got = enum_signed(2, 0)
        assert got[0] == SignedPartition({2: 1}, {2: PLUS}, 0)
        assert got[1] == SignedPartition({2: 1}, {2: MINUS}, 0)
        assert got[2] == SignedPartition({1: 2}, {}, 0)

    def test_sp_signed_counts_match_series(self):
        rhs = lemma_rhs("genfun-1", 16)
        for n in range(8):
            assert len(enum_signed(2 * n, 0)) == rhs.coeff(n)

    def test_sp_signed_rejects_odd_total(self):
        with pytest.raises(ValueError):
            enum_signed(3, 0)

    def test_sp_signed_validation(self):
        with pytest.raises(ValueError):
            SignedPartition({1: 1, 2: 1}, {2: PLUS}, 0)  # odd size, odd mult
        with pytest.raises(ValueError):
            SignedPartition({2: 1}, {}, 0)  # missing sign
        with pytest.raises(ValueError):
            SignedPartition({2: 1}, {2: "x"}, 0)

    def test_o_signed_small(self):
        assert len(enum_signed(0, 1)) == 1
        assert len(enum_signed(1, 1)) == 2
        got = enum_signed(1, 1)
        assert got[0] == SignedPartition({1: 1}, {1: PLUS}, 1)
        assert got[1] == SignedPartition({1: 1}, {1: MINUS}, 1)

    def test_o_signed_counts_match_series(self):
        rhs = lemma_rhs("genfunO-1", 16)
        for n in range(12):
            assert len(enum_signed(n, 1)) == rhs.coeff(n)

    def test_o_signed_validation(self):
        with pytest.raises(ValueError):
            SignedPartition({2: 1}, {}, 1)  # even size, odd mult
        with pytest.raises(ValueError):
            SignedPartition({1: 1}, {}, 1)  # missing sign

    def test_parity_separates_equal_data(self):
        # only the empty partition has equal mult and signs in both families
        sp, o = SignedPartition({}, {}, 0), SignedPartition({}, {}, 1)
        assert sp != o
        assert len({sp, o}) == 2
        with pytest.raises(ValueError):
            SignedPartition({}, {}, 2)

    def test_sign_order_largest_size_first(self):
        # two signed sizes: the larger one flips slower, '+' before '-'
        got = [l.signs for l in enum_signed(6, 0) if l.mult == {4: 1, 2: 1}]
        assert got == [
            {4: PLUS, 2: PLUS}, {4: PLUS, 2: MINUS},
            {4: MINUS, 2: PLUS}, {4: MINUS, 2: MINUS}]


class TestStats:
    def test_d_and_b(self):
        lam = Partition([3, 2, 2, 1])
        assert d_stat(lam) == 3
        assert b_stat(lam) == 2
        assert d_stat(Partition({})) == 0
        assert b_stat(Partition({})) == 0

    def test_o_gl(self):
        assert o_gl(Partition({})) == 1
        assert o_gl(Partition([2, 1])) == 3

    def test_o_gu_numeric_and_symbolic(self):
        lam = Partition([2, 1])
        assert o_gu(lam, 3) == 1 + 3 * 2 - 2
        assert as_qpoly(o_gu(lam, Q)) == 2 * Q - 1
        assert o_gu(Partition({}), 5) == 1

    def test_sp_f_table(self):
        assert sp_f(3, PLUS, 5) == 5
        assert sp_f(3, MINUS, 5) == 5
        assert sp_f(2, PLUS, 5) == 5
        assert sp_f(2, MINUS, 5) == 4
        assert sp_f(1, PLUS, 5) == 2
        assert sp_f(1, MINUS, 5) == 2
        assert as_qpoly(sp_f(1, PLUS, Q)) == (Q - 1) / 2

    def test_sp_f_rejects_even_q(self):
        with pytest.raises(ValueError):
            sp_f(1, PLUS, 4)

    def test_o_sp(self):
        # [2^2, 1^2] with sign on size 2
        lam = SignedPartition({2: 2, 1: 2}, {2: PLUS}, 0)
        assert o_signed(lam, 3) == 1 + 1 + 3
        lam = SignedPartition({2: 2, 1: 2}, {2: MINUS}, 0)
        assert o_signed(lam, 3) == 1 + 1 + 2
        lam = SignedPartition({2: 1}, {2: PLUS}, 0)
        assert o_signed(lam, 5) == 1 + 2
        assert o_signed(SignedPartition({}, {}, 0), 3) == 1

    def test_o_orth(self):
        lam = SignedPartition({3: 1, 2: 2}, {3: MINUS}, 1)
        assert o_signed(lam, 3) == 1 + 1 + 1
        lam = SignedPartition({1: 1}, {1: PLUS}, 1)
        assert o_signed(lam, 7) == 1 + 3
        assert o_signed(SignedPartition({}, {}, 1), 3) == 1


def kind_of(identity):
    return next(k for k in KINDS if identity in lemma_sum(k, 0))


class TestIdentities:
    @pytest.mark.parametrize("identity", IDENTITIES)
    def test_lemma_sum_matches_rhs(self, identity):
        # plain partitions are cheap; signed ones grow faster
        kind = kind_of(identity)
        n_max = 14 if kind == "plain" else 9
        lhs = lemma_sum(kind, n_max)[identity]
        rhs = lemma_rhs(identity, n_max)
        assert len(lhs) == n_max + 1
        for n in range(n_max + 1):
            assert as_qpoly(lhs[n]) == as_qpoly(rhs.coeff(n)), (identity, n)

    def test_distinct_small_values(self):
        assert lemma_sum("plain", 3)["distinct"] == [1, 2, 4, 7]

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            lemma_sum("nope", 3)
        with pytest.raises(ValueError):
            lemma_rhs("nope")

    def test_unknown_kind(self):
        # an identity name is not a kind
        for kind in ("distinct", "sp", ""):
            with pytest.raises(ValueError):
                lemma_sum(kind, 3)

    def test_each_kind_has_exactly_its_identities(self):
        got = {kind: list(lemma_sum(kind, 2)) for kind in KINDS}
        assert got == {
            "plain": ["distinct", "genfunU-1", "genfunU-2", "genfunU-3"],
            "Sp": ["genfun-1", "genfun-2", "genfun-3"],
            "O": ["genfunO-1", "genfunO-2", "genfunO-3"],
        }
        assert [i for kind in KINDS for i in got[kind]] == list(IDENTITIES)

    def test_sum_types(self):
        # counts stay ints; the symbolic sums are QPolys from n = 0 on
        for kind in KINDS:
            for identity, sums in lemma_sum(kind, 3).items():
                symbolic = identity in ("genfun-3", "genfunO-3")
                assert all(isinstance(x, QPoly if symbolic else int) for x in sums)

    def test_symbolic_specialize_matches_numeric(self):
        # the two symbolic identities, evaluated at odd q, agree with
        # running the whole sum numerically at that q
        from affineclasses.partitions import _f_sum  # noqa: PLC2701

        for q0 in (3, 5):
            sym = lemma_sum("Sp", 5)["genfun-3"]
            for n in range(6):
                num = sum(_f_sum(l, q0) for l in enum_signed(2 * n, 0))
                assert as_qpoly(sym[n])(q0) == num

    def test_orbit_sums_assemble_from_identities(self):
        # sum of o_signed over symplectic signed partitions = genfun-1 + genfun-2 + genfun-3
        for n in range(6):
            total = 0
            for lam in enum_signed(2 * n, 0):
                total = total + o_signed(lam, Q)
            sums = lemma_sum("Sp", n)
            parts = sums["genfun-1"][n] + sums["genfun-2"][n] + sums["genfun-3"][n]
            assert as_qpoly(total) == as_qpoly(parts)

    def test_orbit_sums_assemble_orthogonal(self):
        for n in range(7):
            total = 0
            for lam in enum_signed(n, 1):
                total = total + o_signed(lam, Q)
            sums = lemma_sum("O", n)
            parts = sums["genfunO-1"][n] + sums["genfunO-2"][n] + sums["genfunO-3"][n]
            assert as_qpoly(total) == as_qpoly(parts)

    def test_gu_orbit_sum_assembles(self):
        # sum of o_gu = genfunU-1 + q*genfunU-2 - genfunU-3
        for n in range(9):
            total = QPoly(0)
            for lam in enum_partitions(n):
                total = total + o_gu(lam, Q)
            sums = lemma_sum("plain", n)
            parts = sums["genfunU-1"][n] + Q * sums["genfunU-2"][n] - sums["genfunU-3"][n]
            assert total == as_qpoly(parts)


def unsigned_sizes(lam):
    return len(lam.mult) - len(lam.signs)


def weight_rows(q0):
    """The genfun-3 row for n <= 9 and the genfunO-3 row for n <= 12 from
    lemma_sum's tallies, evaluated at q0."""
    return {"genfun-3": [p(q0) for p in lemma_sum("Sp", 9)["genfun-3"]],
            "genfunO-3": [p(q0) for p in lemma_sum("O", 12)["genfunO-3"]]}


def weight_reference(q0):
    """The same rows from the per-class formula: o_signed minus 1 for the
    class and 1 per unsigned part size, summed over the objects."""
    def row(signed):
        return [sum(o_signed(lam, q0) - 1 - unsigned_sizes(lam) for lam in objects)
                for objects in signed]
    return {"genfun-3": row(enum_signed(2 * n, 0) for n in range(10)),
            "genfunO-3": row(enum_signed(n, 1) for n in range(13))}


class TestWeightTallies:
    """lemma_sum counts signed part sizes per weight class in ints; the
    rows it builds from those counts must match o_signed class by class."""

    @pytest.mark.parametrize("q0", [3, 5, 7])
    def test_tallies_match_per_class_formula(self, q0):
        assert weight_rows(q0) == weight_reference(q0)

    @pytest.mark.parametrize("swap", [(0, 1), (1, 2), (0, 2)])
    def test_swapped_weight_class_fails(self, monkeypatch, swap):
        # with two weight classes swapped in the tally, the check must fail
        want = weight_reference(5)
        weights = list(partitions._WEIGHTS)
        i, j = swap
        weights[i], weights[j] = weights[j], weights[i]
        monkeypatch.setattr(partitions, "_WEIGHTS", tuple(weights))
        got = weight_rows(5)
        assert got["genfun-3"] != want["genfun-3"]
        assert got["genfunO-3"] != want["genfunO-3"]


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_partition_sizes_and_order(n):
    seen = set()
    prev_largest = None
    for lam in enum_partitions(n):
        assert lam.size == n
        assert lam not in seen
        seen.add(lam)
        largest = max(lam.mult) if lam.mult else 0
        if prev_largest is not None:
            assert largest <= prev_largest
        prev_largest = largest


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=20, deadline=None)
def test_sp_signed_constraints(n):
    for lam in enum_signed(2 * n, 0):
        assert lam.size == 2 * n
        for i, a in lam.mult.items():
            if i % 2 == 1:
                assert a % 2 == 0
        assert set(lam.signs) == {i for i in lam.mult if i % 2 == 0}


@given(st.integers(min_value=0, max_value=9))
@settings(max_examples=20, deadline=None)
def test_o_signed_constraints(n):
    for lam in enum_signed(n, 1):
        assert lam.size == n
        for i, a in lam.mult.items():
            if i % 2 == 0:
                assert a % 2 == 0
        assert set(lam.signs) == {i for i in lam.mult if i % 2 == 1}


@given(st.integers(min_value=0, max_value=7), st.sampled_from([3, 5, 7, 9]))
@settings(max_examples=40, deadline=None)
def test_o_sp_positive_integer(n, q):
    for lam in enum_signed(2 * n, 0):
        v = o_signed(lam, q)
        assert isinstance(v, int) and v >= 1
