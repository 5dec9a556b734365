"""Acceptance gate.

One test per criterion, so the verbose test report carries exactly one
pass/fail line for each.  Every comparison is exact; the runtime budgets
are asserted, not aspirational.

Criterion 5 is expected to fail: the quoted even-characteristic constant
111.6 sits below the exact value of its own defining expression (see the
certificate message), so certifying it is impossible.  The inequality it
was quoted for still holds on the whole grid.
"""

import time
from fractions import Fraction

from affineclasses.bounds import (BOUND_SPECS, Q_ALL, certify_all,
                                  check_ah_theorem, check_all_bounds,
                                  k_ao_even_dim, k_asp)
from affineclasses.classcount import affine_counts, affine_series, k_ah
from affineclasses.cli import suite_cross_method, suite_identities, suite_oracle
from affineclasses.oracle import build_affine, build_group, count_classes
from affineclasses.series import Q, QPoly


def _within(budget_s):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, (
            "criterion exceeded its %ds budget: %.1fs" % (budget_s, elapsed))
        return elapsed

    return check


def _no_failures(cases, label):
    bad = [c for c in cases if c["status"] == "fail"]
    assert not bad, "%s: %d of %d checks failed, first: %s expected=%s got=%s" % (
        label, len(bad), len(cases), bad[0]["name"],
        bad[0]["expected"], bad[0]["got"])
    return len(cases)


def _coeff1(family, ch):
    return affine_series(family, Q, 1, ch).coeff(1)


def test_criterion_1_golden_values():
    done = _within(10)
    half = Fraction(1, 2)

    # symbolic identities straight from the generating functions
    assert _coeff1("AGL", "odd") == Q
    assert _coeff1("AGU", "odd") == QPoly((0, 2))
    assert _coeff1("ASp", "odd") == QPoly((4, 2))
    ao_odd = affine_counts("ao-odd", Q, 1)   # dimensions 1 and 3
    assert ao_odd[0] == QPoly((3 * half, half))
    assert ao_odd[1] == QPoly((5 * half, 5, half))
    assert affine_counts("ao-plus", Q, 1, "even")[1] == QPoly((0, 5 * half))
    assert affine_counts("ao-minus", Q, 1, "even")[1] == QPoly((0, 5 * half))

    # fixed numeric values
    assert k_ah(3, 1, 2)[2] == 10
    assert count_classes(build_affine("SL", 2, 3)).k == 10
    assert k_asp(3, 2) == 58
    assert k_asp(5, 2) == 110
    assert [k_asp(2, n) for n in (1, 2, 3)] == [5, 21, 67]
    assert count_classes(build_affine("SU", 3, 2)).k == 24
    assert k_ao_even_dim(2, 1, True) == 5
    assert k_ao_even_dim(2, 1, False) == 5
    assert k_ao_even_dim(2, 2, True) == 20
    assert k_ao_even_dim(2, 2, False) == 18
    assert k_ao_even_dim(2, 3, False) == 65

    # k(SL(2,q)) = q + 4 as a polynomial: brute-force counts at q = 3, 5
    # pin the degree-one polynomial, q = 7, 9 confirm it
    counts = {q: count_classes(build_group("SL", 2, q)).k for q in (3, 5, 7, 9)}
    slope = Fraction(counts[5] - counts[3], 5 - 3)
    intercept = counts[3] - slope * 3
    assert QPoly((intercept, slope)) == QPoly((4, 1))
    assert all(counts[q] == q + 4 for q in (7, 9))

    done()


def test_criterion_2_triple_agreement():
    done = _within(60)
    n = _no_failures(suite_cross_method("full"), "cross-method")
    assert n == 40  # 35 numeric family/q pairs + 5 symbolic orbit assemblies
    done()


def test_criterion_3_oracle_agreement():
    done = _within(600)
    cases = suite_oracle("full")
    _no_failures(cases, "oracle")
    names = [c["name"] for c in cases]
    assert sum(1 for s in names if s.endswith("-count")) == 24
    assert sum(1 for s in names if s.endswith("-orbit-sum")) == 24
    assert sum(1 for s in names if s.endswith("-o-formula")) == 10
    done()


def test_criterion_4_identity_suites():
    done = _within(120)
    cases = suite_identities("full")
    _no_failures(cases, "identities")
    names = {c["name"] for c in cases}
    assert "identities/pentagonal-60" in names
    assert "identities/irreducible-product-symbolic" in names
    assert "identities/sp-even-forms-symbolic" in names
    assert sum(1 for s in names if "partition-" in s) == 10
    done()


def test_criterion_5_bounds_and_constants():
    done = _within(60)

    reports = check_all_bounds(Q_ALL, 25)
    assert len(reports) == len(BOUND_SPECS)
    failures = []
    exceptions = 0
    for rep in reports:
        exceptions += sum(1 for c in rep.cells if c["verdict"] == "exception")
        for c in rep.violations:
            failures.append("%s n=%d q=%d k=%d bound=%s"
                            % (rep.id, c["n"], c["q"], c["k"], c["bound"]))
    assert exceptions == 9, "expected the nine quoted exceptional cells"

    ah = check_ah_theorem(Q_ALL, 25)
    for r in ah["violations"]:
        failures.append("sl-tower q=%d e=%d n=%d value=%s"
                        % (r["q"], r["e"], r["n"], r["value"]))
    ah_exceptions = {(r["q"], r["e"], r["n"]): r["value"]
                     for r in ah["rows"] if r["verdict"] == "exception"}
    want = {(q, 1, 1): q for q in (3, 4, 5, 7, 8, 9)}
    want[(3, 1, 2)] = 10
    assert ah_exceptions == want

    for rep in certify_all():
        if not rep.ok:
            failures.append(
                "constant %s: claimed %s, exact enclosure [%.12f, %.12f]%s"
                % (rep.id, rep.claimed, rep.interval.lo, rep.interval.hi,
                   " - the exact value exceeds the claim" if rep.exceeded
                   else ""))

    elapsed = done()
    assert not failures, (
        "bounds criterion failed %d check(s) in %.1fs:\n  %s"
        % (len(failures), elapsed, "\n  ".join(failures)))


def test_criterion_6_everything_is_desk_scale():
    """No claim needs more than small exact computations: the largest
    brute-force group fits under the default cap, the deepest series
    truncation is order 60, and the bound grid is a finite enumeration."""
    done = _within(10)
    from affineclasses.oracle import DEFAULT_CAP, VERIFICATION_GRID, affine_order
    largest = max(affine_order(f, n, q) for f, n, q in VERIFICATION_GRID)
    assert largest <= DEFAULT_CAP == 2 * 10 ** 6
    assert len(VERIFICATION_GRID) == 24
    # the widest grids used anywhere in the acceptance run
    assert len(Q_ALL) == 7 and max(Q_ALL) == 9
    done()
