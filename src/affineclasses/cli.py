"""Command-line surface: count tables, verification suites, bound grids and
direct group-enumeration reports.

Subcommands:
  table    counts per dimension for one affine family, by every requested route
  verify   named invariant suites with per-case pass/fail lines
  bounds   inequality grid, subgroup-tower checks and constant certificates
  oracle   brute-force class data for a single group cell

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap.
The cap of table, verify and oracle resolves as flag > AFFINECLASSES_CAP env
> config file > default; bounds has no flag and starts at the env.
Config files are plain `key = value` lines (# comments allowed) with keys
order, cap, grid, format.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import bounds as bounds_mod
from .cap import DEFAULT_CAP, CapExceeded, check, resolve as resolve_cap
from .classcount import (AFFINE_FAMILIES, ORBIT_BOTH_CHARS, TABLE_FAMILIES,
                         affine_counts, affine_recursive, affine_series,
                         characteristic, classical_series, k_ah,
                         necklace_product, orbit_built_series, orbit_counts,
                         recursion_counts, row_dimension, series_order,
                         sp_even_proof_form)
from .oracle import (FORMULA_FAMILIES, VERIFICATION_GRID, AffineGroup,
                     affine_order, build_affine, build_group, check_affine,
                     count_classes, formula_check_o, orbit_sum_check)
from .partitions import IDENTITIES, KINDS, lemma_rhs, lemma_sum
from .series import (QPOLY, Q, RATIONAL, QPoly, FactorFamily, TruncatedSeries,
                     apply_product, evaluate_q, geometric)


class UsageError(Exception):
    """Bad arguments or config; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# records and serialization

CSV_COLUMNS = ("family", "char", "n", "dim", "q", "method", "value", "status")


def _text_rows(records) -> list:
    return [list(CSV_COLUMNS)] + [[str(v) for v in r.values()] for r in records]


def render_csv(records) -> str:
    return "".join(",".join(row) + "\n" for row in _text_rows(records))


def render_json(records) -> str:
    return json.dumps(records, indent=2) + "\n"


def render_md(records) -> str:
    rows = _text_rows(records)
    rows.insert(1, ["---"] * len(CSV_COLUMNS))
    return "".join("| " + " | ".join(row) + " |\n" for row in rows)


RENDERERS = {"csv": render_csv, "json": render_json, "md": render_md}


def _emit(text: str, out_path):
    """Write text to out_path, or to stdout when there is none; a path that
    cannot be written is a usage error."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write output %s: %s" % (out_path, e))


# ---------------------------------------------------------------------------
# configuration

CONFIG_KEYS = ("order", "cap", "grid", "format")


def load_config(path) -> dict:
    if path is None:
        return {}
    try:
        raw = open(path).read()
    except OSError as e:
        raise UsageError("cannot read config %s: %s" % (path, e))
    cfg = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("config %s line %d: expected key = value"
                             % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError("config %s line %d: unknown key %r"
                             % (path, lineno, key))
        cfg[key] = value
    return cfg


def _config_int(cfg, key):
    if key not in cfg:
        return None
    try:
        return int(cfg[key])
    except ValueError:
        raise UsageError("config key %s must be an integer, got %r"
                         % (key, cfg[key]))


# ---------------------------------------------------------------------------
# per-family count routes

METHOD_ORDER = ("closed-form", "recursion", "orbit-assembly", "oracle")

# the message of a run whose longest series, of series_order + 1
# coefficients, is over the cap
SERIES_CAP = "n_max %d needs a series of %%s coefficients, which exceeds"


def _orbit_supported(fam: str, ch: str) -> bool:
    return TABLE_FAMILIES[fam][3] in ORBIT_BOTH_CHARS or ch == "odd"


def oracle_values(fam: str, q: int, n_max: int, cap: int):
    """k of the affine group of each row, every row's cell held to the cap
    from integers before the first is built; the check stops at the first
    row over the cap, so no list of n_max rows is made for it."""
    group = TABLE_FAMILIES[fam][0]
    rows = range(1, n_max + 1)
    for n in rows:
        check_affine(group, row_dimension(fam, n), q, cap)
    return [count_classes(build_affine(group, row_dimension(fam, n), q, cap=cap)).k
            for n in rows]


def _route_values(method, fam, ch, q, n_max, cap):
    if method == "closed-form":
        return affine_counts(fam, q, n_max, ch)[1:]
    if method == "recursion":
        return recursion_counts(fam, q, n_max, ch)[1:]
    if method == "orbit-assembly":
        return orbit_counts(fam, q, n_max, ch)[1:]
    return oracle_values(fam, q, n_max, cap)


# ---------------------------------------------------------------------------
# table

def cmd_table(args) -> int:
    cfg = load_config(args.config)
    fam = args.family
    display = "A" + TABLE_FAMILIES[fam][0]

    if args.symbolic_q:
        if args.q is not None:
            raise UsageError("--q and --symbolic-q are mutually exclusive")
        q, q_label = Q, "symbolic"
    else:
        if args.q is None:
            raise UsageError("one of --q or --symbolic-q is required")
        q, q_label = args.q, str(args.q)
    # q, --char and every route raise ValueError on input outside the domain
    try:
        ch = characteristic(q, args.char or "")
        n_max = args.n_max if args.n_max is not None else _config_int(cfg, "order")
        if n_max is None:
            n_max = 8
        if n_max < 1:
            raise UsageError("--n-max must be at least 1")

        if args.methods is not None:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            if not methods:
                raise UsageError("--methods names no route")
            for m in methods:
                if m not in METHOD_ORDER:
                    raise UsageError("unknown method %r" % (m,))
            if "oracle" in methods and args.symbolic_q:
                raise UsageError("the oracle route has no symbolic mode")
            if "orbit-assembly" in methods and not _orbit_supported(fam, ch):
                raise UsageError("orbit-assembly for %s needs odd characteristic"
                                 % (display,))
            methods = [m for m in METHOD_ORDER if m in methods]
        else:
            methods = ["closed-form", "recursion"]
            if _orbit_supported(fam, ch):
                methods.append("orbit-assembly")

        cap = resolve_cap(args.cap, cfg.get("cap"))
        if methods != ["oracle"]:
            check(cap, SERIES_CAP % n_max, series_order(fam, ch, n_max) + 1)
        values = {m: _route_values(m, fam, ch, q, n_max, cap) for m in methods}
    except ValueError as e:
        raise UsageError(str(e))
    # a row is ok when every route that ran gives the same value at its n
    agree = [all(v == row[0] for v in row) for row in zip(*values.values())]
    # a record is a dict keyed by CSV_COLUMNS, in that order
    records = [dict(zip(CSV_COLUMNS, (display, ch, n, row_dimension(fam, n), q_label, method,
                                      str(value), "ok" if agree[n - 1] else "MISMATCH")))
               for method, vals in values.items() for n, value in enumerate(vals, 1)]

    fmt = args.format or cfg.get("format") or "csv"
    if fmt not in RENDERERS:
        raise UsageError("unknown format %r" % (fmt,))
    _emit(RENDERERS[fmt](records), args.out)
    return 0 if all(agree) else 1


# ---------------------------------------------------------------------------
# verification suites

def _case(name, compute):
    """One case, run at once: compute() returns (expected, got), equal for a
    pass.  A case that raises fails, with the exception as got, and the run
    goes on; CapExceeded is not caught, so the command exits 3.  Work that
    cases share is a functools.cache of a thunk, run again by each case that
    reads it if it raised."""
    try:
        expected, got = compute()
        return {"name": name, "status": "pass" if expected == got else "fail",
                "expected": str(expected), "got": str(got)}
    except CapExceeded:
        raise
    except Exception as e:
        return {"name": name, "status": "fail", "expected": "not computed",
                "got": "raised %s: %s" % (type(e).__name__, e)}


def _coeffs(series):
    """A series' coefficients as a case prints them: a rational series' as
    Fractions, whether it holds ints or Fractions, so the report text does
    not follow which coefficients the arithmetic kept as ints."""
    if series.ring == RATIONAL:
        return [Fraction(c) for c in series.coeffs]
    return list(series.coeffs)


def _pentagonal_coeffs(order):
    want = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        s = -1 if k % 2 else 1
        want[k * (3 * k - 1) // 2] = s
        if k * (3 * k + 1) // 2 <= order:
            want[k * (3 * k + 1) // 2] = s
        k += 1
    return [want.get(n, 0) for n in range(order + 1)]


def suite_identities(grid: str, cap: int | None = None):
    full = grid == "full"
    cases = []

    order = 60
    cases.append(_case("identities/pentagonal-%d" % order, lambda: (
        _pentagonal_coeffs(order),
        _coeffs(apply_product(TruncatedSeries.one(order=order),
                              [FactorFamily(-1, 1)])))))

    order = 25 if full else 12
    cases.append(_case("identities/irreducible-product-symbolic", lambda: (
        _coeffs(TruncatedSeries.from_coeffs([1, -1], QPOLY, order)
                * geometric(Q, 1, QPOLY, order)),
        _coeffs(necklace_product(Q, order)))))

    n_plain = 30 if full else 10
    n_signed = 14 if full else 6
    sums = cache(lambda: {ident: got for kind in KINDS for ident, got in lemma_sum(
        kind, n_plain if kind == "plain" else n_signed).items()})
    for ident in IDENTITIES:
        cases.append(_case("identities/partition-%s" % ident, lambda: (
            _coeffs(lemma_rhs(ident, len(sums()[ident]) - 1)), sums()[ident])))

    order = 40
    qs = ((2, 4, 8, Q) if full else (2, Q))
    for q in qs:
        label = "symbolic" if isinstance(q, QPoly) else "q%d" % q
        cases.append(_case("identities/sp-even-forms-%s" % label, lambda: (
            _coeffs(classical_series("Sp", q, order, "even")),
            _coeffs(sp_even_proof_form(q, order)))))
    return cases


def suite_cross_method(grid: str, cap: int | None = None):
    full = grid == "full"
    qs = (2, 3, 4, 5, 7, 8, 9) if full else (2, 3)
    n_max = 25 if full else 10
    cases = []
    for family in AFFINE_FAMILIES:
        for ch in ("odd", "even"):
            for q in qs:
                if (q % 2 == 0) != (ch == "even"):
                    continue
                cases.append(_case(
                    "cross-method/%s-%s-q%d" % (family, ch, q), lambda: (
                        _coeffs(affine_series(family, q, n_max)),
                        list(affine_recursive(family, q, n_max)))))
    order = 25 if full else 12
    for family in AFFINE_FAMILIES:
        # the case names keep the odd-characteristic suffix of the families
        # that are assembled only there
        name = family if family in ORBIT_BOTH_CHARS else family + "-odd"
        cases.append(_case("cross-method/orbit-%s-symbolic" % name, lambda: (
            _coeffs(affine_series(family, Q, order)),
            _coeffs(orbit_built_series(family, Q, order).total()))))
    return cases


def _grid_expected(group, dim, q):
    """k of the affine group of an oracle cell, off its table family's row."""
    fam, (_, a, b, _) = next(
        (f, row) for f, row in TABLE_FAMILIES.items() if row[0] == group)
    n = (dim - b) // a
    return affine_counts(fam, q, n)[n]


def _oracle_cases(family, dim, q, cap):
    """The cases of one oracle cell, which share its expected count, its
    affine group and its orbit sums."""
    label = "%s(%d,%d)" % (family, dim, q)
    expected = cache(lambda: _grid_expected(family, dim, q))
    ag = cache(lambda: build_affine(family, dim, q, cap))
    orbits = cache(lambda: orbit_sum_check(ag().base, cap))
    cases = [_case("oracle/%s-count" % label,
                   lambda: (expected(), count_classes(ag()).k)),
             _case("oracle/%s-orbit-sum" % label,
                   lambda: (expected(), orbits()[1]))]
    if family in FORMULA_FAMILIES:
        cases.append(_case("oracle/%s-o-formula" % label, lambda: (
            True, formula_check_o(ag().base, orbits()[0]).ok)))
    return cases


def suite_oracle(grid: str, cap: int | None = None):
    full = grid == "full"
    cap = DEFAULT_CAP if cap is None else cap
    cases = []
    for family, dim, q in VERIFICATION_GRID:
        if full or affine_order(family, dim, q) <= 250_000:
            cases.extend(_oracle_cases(family, dim, q, cap))
    return cases


#: the cap of paper-values/asu42-oracle when nothing sets one: ASU(4,2) has
#: 6,635,520 elements
ASU42_CAP = 7_000_000


def suite_paper_values(grid: str, cap: int | None = None):
    full = grid == "full"
    big_cap = ASU42_CAP if cap is None else cap
    cap = DEFAULT_CAP if cap is None else cap
    cases = []
    half = Fraction(1, 2)

    for name, want, fam, ch, n in (
            ("agl-dim1", Q, "agl", "odd", 1),
            ("agu-dim1", QPoly((0, 2)), "agu", "odd", 1),
            ("asp-dim2", QPoly((4, 2)), "asp", "odd", 1),
            ("ao-dim1", QPoly((3 * half, half)), "ao-odd", "odd", 0),
            ("ao-dim3", QPoly((5 * half, 5, half)), "ao-odd", "odd", 1),
            ("ao-plus-even-dim2", QPoly((0, 5 * half)), "ao-plus", "even", 1),
            ("ao-minus-even-dim2", QPoly((0, 5 * half)), "ao-minus", "even", 1)):
        cases.append(_case("paper-values/%s-symbolic" % name,
                           lambda: (want, affine_counts(fam, Q, n, ch)[n])))

    for q in (3, 5, 7, 9) if full else (3, 5):
        cases.append(_case("paper-values/sl2-q%d" % q, lambda: (
            int(evaluate_q(QPoly((4, 1)), q)),
            count_classes(build_group("SL", 2, q, cap)).k)))

    cases.append(_case("paper-values/asl23-recursion",
                       lambda: (10, k_ah(3, 1, 2)[2])))
    cases.append(_case("paper-values/asl23-oracle", lambda: (
        10, count_classes(build_affine("SL", 2, 3, cap)).k)))
    cases.append(_case("paper-values/agl22", lambda: (5, bounds_mod.k_agl(2, 2))))
    cases.append(_case("paper-values/asp43", lambda: (58, bounds_mod.k_asp(3, 2))))
    cases.append(_case("paper-values/asp45", lambda: (110, bounds_mod.k_asp(5, 2))))
    for n, want in ((1, 5), (2, 21), (3, 67)):
        cases.append(_case("paper-values/asp-2n%d-q2" % n,
                           lambda: (want, bounds_mod.k_asp(2, n))))
    for plus_type, n, want in ((True, 1, 5), (False, 1, 5), (True, 2, 20),
                               (False, 2, 18), (False, 3, 65)):
        name = "paper-values/ao-%s-dim%d-q2" % ("plus" if plus_type else "minus", 2 * n)
        cases.append(_case(name, lambda: (
            want, bounds_mod.k_ao_even_dim(2, n, plus_type))))

    cases.append(_case("paper-values/asu32-oracle", lambda: (
        24, count_classes(build_affine("SU", 3, 2, cap)).k)))
    if full:
        cases.append(_case("paper-values/asu42-oracle", lambda: (
            49, count_classes(build_affine("SU", 4, 2, big_cap)).k)))
    return cases


#: every suite is called as suite(grid, cap), cap None when no flag, env or
#: config sets one; the identities and cross-method suites have fixed sizes
#: and build no group, so they do not read it
SUITES = {
    "identities": suite_identities,
    "cross-method": suite_cross_method,
    "oracle": suite_oracle,
    "paper-values": suite_paper_values,
}


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    grid = args.grid or cfg.get("grid") or "small"
    if grid not in ("small", "full"):
        raise UsageError("grid must be small or full, got %r" % (grid,))
    try:
        cap = resolve_cap(args.cap, cfg.get("cap"), default=None)
    except ValueError as e:
        raise UsageError(str(e))
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cases = []
    for name in names:
        cases.extend(SUITES[name](grid, cap))
    failed = [c for c in cases if c["status"] == "fail"]
    report = {"suites": names, "grid": grid, "ok": not failed,
              "total": len(cases), "failed": len(failed), "cases": cases}

    if args.format == "json" and not args.out:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for c in cases:
            if c["status"] == "pass":
                print("PASS %s" % c["name"])
            else:
                print("FAIL %s\n  expected: %s\n  got:      %s"
                      % (c["name"], c["expected"], c["got"]))
        print("%d cases: %d passed, %d failed"
              % (len(cases), len(cases) - len(failed), len(failed)))
    if args.out:
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bounds

def _parse_q_set(text):
    try:
        qs = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError:
        raise UsageError("--q-set wants comma-separated integers, got %r" % (text,))
    if not qs:
        raise UsageError("--q-set wants at least one value")
    return qs


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)  # bounds take only the cap from it
    q_set = _parse_q_set(args.q_set)
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")

    try:
        # every q is checked first; the cap bounds every row's longest series
        chars = {characteristic(q) for q in q_set}
        order = max(series_order(f, ch, args.n_max)
                    for f in TABLE_FAMILIES for ch in chars)
        check(resolve_cap(None, cfg.get("cap")), SERIES_CAP % args.n_max, order + 1)
        reports = bounds_mod.check_all_bounds(q_set, args.n_max)
        ah = bounds_mod.check_ah_theorem(q_set, args.n_max)
    except ValueError as e:
        raise UsageError(str(e))
    constants = bounds_mod.certify_all() if args.constants else []

    lines = []
    violations = 0
    for rep in reports:
        ex = sum(1 for c in rep.cells if c["verdict"] == "exception")
        status = "ok" if rep.ok else "VIOLATIONS"
        lines.append("%-11s %-22s cells=%-4d exceptions=%d"
                     % (status, rep.id, len(rep.cells), ex))
        for c in rep.violations:
            violations += 1
            lines.append("  VIOLATION n=%d q=%d k=%d bound=%s"
                         % (c["n"], c["q"], c["k"], c["bound"]))
    ah_ex = sum(1 for r in ah["rows"] if r["verdict"] == "exception")
    lines.append("%-11s %-22s cells=%-4d exceptions=%d"
                 % ("ok" if ah["ok"] else "VIOLATIONS", "sl-tower-theorem",
                    len(ah["rows"]), ah_ex))
    for r in ah["violations"]:
        violations += 1
        lines.append("  VIOLATION q=%d e=%d n=%d value=%s route=%s"
                     % (r["q"], r["e"], r["n"], r["value"], r["route"]))

    failed_constants = 0
    for rep in constants:
        mark = "certified" if rep.ok else "FAILED"
        if not rep.ok:
            failed_constants += 1
        lines.append("%-11s %-22s claimed=%-8s enclosure=[%s, %s]"
                     % (mark, rep.id, str(rep.claimed),
                        float(rep.interval.lo), float(rep.interval.hi)))
        if not rep.ok and rep.exceeded:
            lines.append("  exact lower bound %s already exceeds the claim"
                         % float(rep.interval.lo))

    summary = "bound specs: %d, cells: %d, violations: %d" % (
        len(reports), sum(len(r.cells) for r in reports) + len(ah["rows"]),
        violations)
    if constants:
        summary += "; constants: %d certified, %d failed" % (
            len(constants) - failed_constants, failed_constants)
    lines.append(summary)

    if args.format == "json":
        payload = {
            "q_set": list(q_set), "n_max": args.n_max,
            "bounds": [{"id": r.id, "ok": r.ok, "cells": len(r.cells),
                        "violations": r.violations} for r in reports],
            "ah": {"ok": ah["ok"], "rows": len(ah["rows"]),
                   "violations": ah["violations"]},
            "constants": [{"id": c.id, "claimed": str(c.claimed),
                           "lower": float(c.interval.lo),
                           "upper": float(c.interval.hi), "ok": c.ok}
                          for c in constants],
            "ok": violations == 0 and failed_constants == 0,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if (violations or failed_constants) else 0


# ---------------------------------------------------------------------------
# oracle

ORACLE_FAMILIES = {
    "agl": "GL", "asl": "SL", "agu": "GU", "asu": "SU",
    "asp": "Sp", "ao": "O", "ao-plus": "O+", "ao-minus": "O-",
}


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    family = ORACLE_FAMILIES[args.family]
    try:
        cap = resolve_cap(args.cap, cfg.get("cap"))
        total_affine = affine_order(family, args.n, args.q, cap)
        base = build_group(family, args.n, args.q, cap=cap)
    except ValueError as e:
        raise UsageError(str(e))
    per_class, k_affine = orbit_sum_check(base, cap)
    dec = count_classes(base)

    direct = None
    if total_affine <= cap:
        direct = count_classes(AffineGroup(base, cap=cap)).k
    ok = direct is None or direct == k_affine

    if args.format == "json":
        payload = {
            "family": args.family, "dim": args.n, "q": args.q,
            "classical_order": base.order, "classical_classes": dec.k,
            "affine_order": total_affine, "k": k_affine,
            "direct_enumeration": direct,
            "status": "ok" if ok else "MISMATCH",
            "classes": [
                {"rep_index": dec.rep_indices[i], "size": dec.sizes[i],
                 "centralizer": dec.centralizer_orders[i],
                 "orbits": per_class[i]}
                for i in range(dec.k)
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [
            "%s(%d, %d): classical order %d, %d classes"
            % (family, args.n, args.q, base.order, dec.k),
            "affine order %d, k = %d (sum of per-class orbit counts)"
            % (total_affine, k_affine),
        ]
        if direct is None:
            lines.append("direct affine enumeration skipped (exceeds cap %d)"
                         % cap)
        else:
            lines.append("direct affine enumeration: k = %d (%s)"
                         % (direct, "agreement" if ok else "MISMATCH"))
        lines.append("class  size  centralizer  orbits")
        for i in range(dec.k):
            lines.append("%5d %6d %12d %7d"
                         % (i, dec.sizes[i], dec.centralizer_orders[i],
                            per_class[i]))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineclasses",
        description="Exact conjugacy class counts of affine classical groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out", help="write output to this path")

    p = sub.add_parser("table", parents=[common],
                       help="count table for one affine family")
    p.add_argument("--family", required=True, choices=sorted(TABLE_FAMILIES))
    p.add_argument("--q", type=int, help="field size (prime power)")
    p.add_argument("--symbolic-q", action="store_true",
                   help="polynomial values in a formal q")
    p.add_argument("--char", choices=("odd", "even"),
                   help="characteristic; needed only with --symbolic-q")
    p.add_argument("--n-max", type=int)
    p.add_argument("--methods",
                   help="comma list from closed-form,recursion,orbit-assembly,oracle")
    p.add_argument("--format", choices=("csv", "json", "md"))
    p.add_argument("--cap", type=int,
                   help="cap on oracle elements and points and on series length")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   choices=("identities", "cross-method", "oracle",
                            "paper-values", "all"))
    p.add_argument("--grid", choices=("small", "full"))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap", type=int,
                   help="cap on the oracle's elements and points")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", parents=[common],
                       help="check the inequality grid")
    p.add_argument("--q-set", default="2,3,4,5,7,8,9")
    p.add_argument("--n-max", type=int, default=25)
    p.add_argument("--constants", action="store_true",
                   help="also certify the numeric constants")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force class data for one group")
    p.add_argument("--family", required=True, choices=sorted(ORACLE_FAMILIES))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--cap", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except CapExceeded as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
