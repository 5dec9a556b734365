"""End-to-end checks of the command-line interface.

Everything goes through main(argv) so the tests see exactly what a shell
user sees: rendered text, exit codes, config and environment handling.
"""

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineclasses import cli, primes
from affineclasses.cap import CAP_ENV
from affineclasses.classcount import affine_counts, row_dimension
from affineclasses.cli import (CSV_COLUMNS, ORACLE_FAMILIES, SUITES,
                               TABLE_FAMILIES, main)
from affineclasses.oracle import VERIFICATION_GRID
from affineclasses.oracle import field as field_mod
from affineclasses.oracle.groups import GROUP_FAMILIES
from affineclasses.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def column(rows, method, field="value"):
    return [r[field] for r in rows if r["method"] == method]


# ---------------------------------------------------------------------------
# table

# every table family at every grid q it applies to, and symbolically in both
# characteristics
ROUTE_CELLS = [(f, q) for f in sorted(TABLE_FAMILIES)
               for q in (2, 3, 4, 5, 7, 8, 9, "odd", "even")
               if not (f == "ao-odd" and q in (2, 4, 8, "even"))]

class TestTable:
    def test_agl_q2_values(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--n-max", "5")
        assert code == 0
        rows = csv_rows(out)
        want = ["2", "5", "11", "25", "52"]
        for method in ("closed-form", "recursion", "orbit-assembly"):
            assert column(rows, method) == want

    def test_asp_q3_values(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "asp", "--q", "3",
                           "--n-max", "2")
        assert code == 0
        assert column(csv_rows(out), "closed-form") == ["10", "58"]

    def test_ao_minus_q2_values(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "ao-minus", "--q", "2",
                           "--n-max", "3")
        assert code == 0
        rows = csv_rows(out)
        assert column(rows, "closed-form") == ["5", "18", "65"]
        assert column(rows, "recursion") == ["5", "18", "65"]
        # even characteristic: no orbit-assembly route
        assert column(rows, "orbit-assembly") == []

    @pytest.mark.parametrize("family,q", ROUTE_CELLS)
    def test_routes_agree(self, capsys, family, q):
        where = ("--symbolic-q", "--char", q) if isinstance(q, str) else ("--q", str(q))
        code, out, _ = run(capsys, "table", "--family", family, *where,
                           "--n-max", "8")
        assert code == 0
        rows = csv_rows(out)
        methods = ["closed-form", "recursion"]
        if family in ("agl", "agu") or q == "odd" or q in (3, 5, 7, 9):
            methods.append("orbit-assembly")
        assert {r["method"] for r in rows} == set(methods)
        want = column(rows, "closed-form")
        assert len(want) == 8
        for method in methods[1:]:
            assert column(rows, method) == want

    def test_mismatch_status_exits_1(self, capsys, monkeypatch):
        # one route off by one at n = 2 marks that row MISMATCH on every
        # route and fails the command; the other rows stay ok
        real = cli.recursion_counts

        def off_by_one(family, q, n_max, ch=""):
            counts = list(real(family, q, n_max, ch))
            counts[2] += 1
            return tuple(counts)

        monkeypatch.setattr(cli, "recursion_counts", off_by_one)
        code, out, _ = run(capsys, "table", "--family", "agl", "--q", "3",
                           "--n-max", "3")
        assert code == 1
        status = {(r["method"], r["n"]): r["status"] for r in csv_rows(out)}
        assert len(status) == 9
        assert {k for k, v in status.items() if v != "ok"} == {
            ("closed-form", "2"), ("recursion", "2"), ("orbit-assembly", "2")}
        assert set(status.values()) == {"ok", "MISMATCH"}

    def test_ao_odd_dimensions(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "ao-odd", "--q", "3",
                           "--n-max", "2")
        assert code == 0
        rows = csv_rows(out)
        assert column(rows, "closed-form") == ["22", "119"]
        assert column(rows, "closed-form", "dim") == ["3", "5"]

    def test_asp_dim_column(self, capsys):
        _, out, _ = run(capsys, "table", "--family", "asp", "--q", "2",
                        "--n-max", "3")
        rows = csv_rows(out)
        assert column(rows, "closed-form", "dim") == ["2", "4", "6"]
        assert column(rows, "closed-form") == ["5", "21", "67"]

    def test_oracle_method(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "table", "--family", "agu", "--q", "2",
                           "--n-max", "2", "--methods", "oracle,closed-form")
        assert code == 0
        rows = csv_rows(out)
        assert column(rows, "oracle") == ["4", "14"]
        assert column(rows, "closed-form") == ["4", "14"]
        assert column(rows, "recursion") == []

    def test_symbolic_values(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "ao-odd",
                           "--symbolic-q", "--n-max", "1")
        assert code == 0
        rows = csv_rows(out)
        assert all(r["q"] == "symbolic" for r in rows)
        assert column(rows, "closed-form") == ["(1/2)q^2 + 5q + (5/2)"]

    def test_symbolic_agu(self, capsys):
        _, out, _ = run(capsys, "table", "--family", "agu", "--symbolic-q",
                        "--n-max", "2")
        assert column(csv_rows(out), "recursion") == ["2q", "2q^2 + 3q"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "agl", "--q", "3",
                           "--n-max", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [list(r) for r in records] == [list(CSV_COLUMNS)] * len(records)
        closed = [r for r in records if r["method"] == "closed-form"]
        assert [r["value"] for r in closed] == ["3", "11"]

    def test_md_format(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--n-max", "1", "--format", "md")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| " + " | ".join(CSV_COLUMNS) + " |"
        assert lines[1].startswith("|") and "---" in lines[1]

    @pytest.mark.parametrize("fmt,digest", [
        ("md", "7506be2cd73deacdf771fce7c5bd3248f883335a853ef0fc88343219c96c1649"),
        ("json", "fdae9fc532d53939be9e3ebb307df8e31c4cc5704d9fca8d8282c3d4bb82e652"),
    ])
    def test_md_and_json_pinned(self, capsys, monkeypatch, fmt, digest):
        # reference.json pins only csv; all four routes, one AO(3,3) row
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "table", "--family", "ao-odd", "--q", "3",
                           "--n-max", "1", "--methods",
                           "closed-form,recursion,orbit-assembly,oracle",
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_q_trial_divided_once(self, capsys, monkeypatch):
        # every route and series call of this table validates q, 8 calls,
        # and one primality test (trial division, then Miller-Rabin) of q
        q = 1_000_000_000_039
        test, calls = primes.is_prime, []
        monkeypatch.setattr(primes, "is_prime",
                            lambda m: calls.append(m) or test(m))
        primes.prime_power.cache_clear()
        code, _, _ = run(capsys, "table", "--family", "agl", "--q", str(q),
                         "--n-max", "2")
        assert code == 0 and calls.count(q) == 1

    def test_large_prime_q(self, capsys):
        # q near 10^16 is tested for primality, not trial-divided to 10^8
        code, out, _ = run(capsys, "table", "--family", "agl", "--q",
                           "10000000000000061", "--n-max", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "1ae19bca3ebb965467489e2e8a6a5c9b8736ee52670203e8d224fae4605a2fb3"

    def test_q_beyond_the_primality_limit(self, capsys):
        # the prime 2^89 - 1 passes every base but lies above the bound
        # below which passing them proves primality
        code, out, err = run(capsys, "table", "--family", "agl", "--q",
                             str(2 ** 89 - 1), "--n-max", "1")
        assert code == 2 and out == ""
        assert str(primes.MR_LIMIT) in err

    def test_deterministic_output(self, tmp_path):
        paths = []
        for i in (1, 2):
            p = tmp_path / ("run%d.json" % i)
            assert main(["table", "--family", "agu", "--q", "3",
                         "--n-max", "8", "--format", "json",
                         "--out", str(p)]) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_out_file(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        code, out, _ = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--n-max", "1", "--out", str(p))
        assert code == 0 and out == ""
        assert p.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


class TestTableFamilies:
    def test_groups_are_oracle_families(self):
        for group, *_ in TABLE_FAMILIES.values():
            assert group in GROUP_FAMILIES
            assert group in ORACLE_FAMILIES.values()

    @pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
    def test_grid_expected_reads_the_row(self, family):
        group = TABLE_FAMILIES[family][0]
        for q in (2, 3, 4, 5):
            if family == "ao-odd" and q % 2 == 0:
                continue
            counts = affine_counts(family, q, 3)
            for n in (1, 2, 3):
                got = cli._grid_expected(group, row_dimension(family, n), q)
                assert got == counts[n], (family, q, n)

    def test_every_grid_cell_has_one_row(self):
        for group, dim, _ in VERIFICATION_GRID:
            rows = [f for f, (g, a, b, _) in TABLE_FAMILIES.items()
                    if g == group and dim >= b and (dim - b) % a == 0]
            assert len(rows) == 1, (group, dim)


class TestTableUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("table", "--family", "agl"),                         # no q at all
        ("table", "--family", "agl", "--q", "2", "--symbolic-q"),
        ("table", "--family", "agl", "--q", "2", "--char", "odd"),
        ("table", "--family", "agl", "--q", "1"),
        ("table", "--family", "ao-odd", "--q", "2"),          # needs odd q
        ("table", "--family", "ao-odd", "--symbolic-q", "--char", "even"),
        ("table", "--family", "asp", "--q", "4", "--methods", "orbit-assembly"),
        ("table", "--family", "agl", "--q", "2", "--methods", "sorcery"),
        ("table", "--family", "agl", "--q", "2", "--methods", " , "),
        ("table", "--family", "agl", "--symbolic-q", "--methods", "oracle"),
        ("table", "--family", "agl", "--q", "2", "--n-max", "0"),
        ("table", "--family", "agl", "--q", "15"),            # not a prime power
        ("table", "--family", "agl", "--q", "6"),
        ("table", "--family", "agu", "--q", "4", "--methods", "oracle"),
        ("bounds", "--q-set", "6,15"),
    ])
    def test_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_family_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["table", "--family", "axy", "--q", "2"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv,longest", [
        (("table", "--family", "agl", "--q", "2", "--n-max", "100000000"),
         100_000_001),
        # indexed by dimension: 2 n_max + 2 coefficients in odd characteristic
        (("table", "--family", "ao-odd", "--symbolic-q", "--n-max", "1000000"),
         2_000_002),
        (("bounds", "--q-set", "2", "--n-max", "100000000"), 100_000_001),
        (("bounds", "--q-set", "2,3", "--n-max", "1000000"), 2_000_002),
    ])
    def test_series_checked_against_cap(self, capsys, monkeypatch, argv, longest):
        def refuse(*args):
            raise AssertionError("a series was built")
        monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("error: n_max %s needs a series of %d coefficients, "
                       "which exceeds cap 2000000\n" % (argv[-1], longest))

    @pytest.mark.parametrize("argv,fits", [
        (("table", "--family", "agl", "--q", "2", "--n-max", "9"), True),
        (("table", "--family", "agl", "--q", "2", "--n-max", "10"), False),
        (("table", "--family", "ao-plus", "--q", "3", "--n-max", "4"), True),
        (("table", "--family", "ao-plus", "--q", "3", "--n-max", "5"), False),
        (("table", "--family", "ao-plus", "--q", "4", "--n-max", "9"), True),
        (("bounds", "--q-set", "2,4", "--n-max", "9"), True),
        (("bounds", "--q-set", "2,3", "--n-max", "5"), False),
    ])
    @pytest.mark.parametrize("source", ["env", "config"])
    def test_series_cap_boundary(self, tmp_path, capsys, monkeypatch, argv,
                                 fits, source):
        # cap 10: ten coefficients fit, eleven do not; bounds reads its cap
        # from the environment or the config file like the other commands
        monkeypatch.delenv(CAP_ENV, raising=False)
        if source == "env":
            monkeypatch.setenv(CAP_ENV, "10")
        else:
            cfg = tmp_path / "cfg"
            cfg.write_text("cap = 10\n")
            argv += ("--config", str(cfg))
        code, _, err = run(capsys, *argv)
        assert code == (0 if fits else 3)
        assert ("exceeds cap 10" in err) != fits

    def test_cap_exceeded_exit_3(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, _, err = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--n-max", "3", "--methods", "oracle",
                           "--cap", "100")
        assert code == 3
        assert "cap" in err

    def test_oracle_rows_checked_until_one_exceeds_the_cap(self, capsys,
                                                           monkeypatch):
        # AGL(5,2) is the first row over the default cap; the check stops
        # there rather than listing all 100,000 rows first
        monkeypatch.delenv(CAP_ENV, raising=False)
        calls = []
        monkeypatch.setattr(cli, "row_dimension",
                            lambda f, n: calls.append(n) or row_dimension(f, n))
        code, _, err = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--n-max", "100000", "--methods", "oracle")
        assert code == 3 and "cap" in err
        assert calls == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# config file and environment

class TestConfigAndEnv:
    def test_config_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("order = 3\nformat = md  # trailing comment\n")
        code, out, _ = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--config", str(cfg))
        assert code == 0
        assert out.startswith("| family |") or out.startswith("| " + CSV_COLUMNS[0])
        # three rows per method
        assert out.count("closed-form") == 3

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("order = 3\n")
        _, out, _ = run(capsys, "table", "--family", "agl", "--q", "2",
                        "--n-max", "1", "--config", str(cfg))
        assert out.count("closed-form") == 1

    def test_cap_precedence(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("cap = 10\n")  # below |Sp(2,3)| = 24
        monkeypatch.delenv(CAP_ENV, raising=False)
        argv = ("oracle", "--family", "asp", "--q", "3", "--n", "2",
                "--config", str(cfg))
        assert run(capsys, *argv)[0] == 3
        monkeypatch.setenv(CAP_ENV, "1000")
        assert run(capsys, *argv)[0] == 0       # env beats config
        assert run(capsys, *argv, "--cap", "10")[0] == 3  # flag beats env

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_1_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                          source, cap):
        monkeypatch.delenv(CAP_ENV, raising=False)
        argv = ["oracle", "--family", "agl", "--q", "2", "--n", "2"]
        if source == "flag":
            argv += ["--cap", cap]
        elif source == "env":
            monkeypatch.setenv(CAP_ENV, cap)
        else:
            cfg = tmp_path / "cfg"
            cfg.write_text("cap = %s\n" % cap)
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: the cap must be at least 1, got %s\n" % cap

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv(CAP_ENV, "many")
        code, _, err = run(capsys, "oracle", "--family", "asp", "--q", "3",
                           "--n", "1")
        assert code == 2 and CAP_ENV in err

    @pytest.mark.parametrize("text", [
        "cap 100\n",            # missing =
        "speed = 11\n",         # unknown key
        "order = fast\n",       # non-integer where one is needed
    ])
    def test_bad_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        code, _, err = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--config", str(cfg))
        assert code == 2 and err.startswith("error:")

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "table", "--family", "agl", "--q", "2",
                           "--config", "/nonexistent/cfg")
        assert code == 2 and "config" in err


# ---------------------------------------------------------------------------
# verify

# every subcommand that takes --out, with arguments that finish quickly
OUT_COMMANDS = {
    "table": ("table", "--family", "agl", "--q", "2", "--n-max", "1"),
    "bounds": ("bounds", "--q-set", "2", "--n-max", "2"),
    "verify": ("verify", "--suite", "identities", "--grid", "small"),
    "oracle": ("oracle", "--family", "agl", "--q", "2", "--n", "1"),
}


class TestUnwritableOut:
    @pytest.mark.parametrize("cmd", sorted(OUT_COMMANDS))
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_usage_error_without_traceback(self, tmp_path, capsys, cmd, where):
        out = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
        code, _, err = run(capsys, *OUT_COMMANDS[cmd], "--out", str(out))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write output %s: " % out)
        assert "Traceback" not in err


class TestVerify:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_suites_pass_small(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--grid", "small")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(l.startswith("PASS ") for l in lines[:-1])
        assert lines[-1].endswith("0 failed")

    def test_raising_case_fails_alone(self, capsys, monkeypatch):
        def boom(*args):
            raise ValueError("boom")
        monkeypatch.setattr(cli, "orbit_built_series", boom)
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           "--grid", "small")
        assert code == 1
        lines = out.splitlines()
        failed = [l[5:] for l in lines if l.startswith("FAIL ")]
        assert len(failed) == 5
        assert all(f.startswith("cross-method/orbit-") for f in failed)
        assert out.count("  got:      raised ValueError: boom\n") == 5
        assert sum(l.startswith("PASS ") for l in lines) == 102
        assert lines[-1] == "107 cases: 102 passed, 5 failed"

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           "--grid", "small")
        assert code == 0
        total = int(out.strip().splitlines()[-1].split()[0])
        assert total == out.count("PASS ")
        assert total > 80

    def test_json_report(self, tmp_path, capsys):
        p = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--suite", "identities",
                         "--grid", "small", "--out", str(p))
        assert code == 0
        report = json.loads(p.read_text())
        assert report["ok"] is True
        assert report["grid"] == "small"
        assert report["total"] == len(report["cases"])
        assert all(c["status"] == "pass" for c in report["cases"])

    def test_identities_json_pinned(self, capsys):
        # the JSON report prints each coefficient list through str(), so it
        # also pins the coefficient types (int, Fraction, QPoly) of both sides
        code, out, _ = run(capsys, "verify", "--suite", "identities",
                           "--grid", "small", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "85bc411def59fd14d90f22137a385573725eb40686435573151eb685e83bc657")

    def test_cross_method_json_pinned(self, capsys):
        # like the identities pin: the expected side prints the series'
        # coefficients, the got side the recursion's ints
        code, out, _ = run(capsys, "verify", "--suite", "cross-method",
                           "--grid", "small", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f4206e46f69a191352eb4c83dc4629ee3764c51fa217b4b6c7b5faed86961721")

    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cross-method",
                           "--grid", "small", "--format", "json")
        assert code == 0
        assert json.loads(out)["failed"] == 0

    def test_failure_exits_1(self, capsys, monkeypatch):
        def broken(grid, cap):
            return [{"name": "stub/forced", "status": "fail",
                     "expected": "1", "got": "2"}]
        monkeypatch.setitem(SUITES, "identities", broken)
        code, out, _ = run(capsys, "verify", "--suite", "identities",
                           "--grid", "small")
        assert code == 1
        assert "FAIL stub/forced" in out
        assert "expected: 1" in out

    def test_bad_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("grid = huge\n")
        code, _, err = run(capsys, "verify", "--suite", "identities",
                           "--config", str(cfg))
        assert code == 2 and "grid" in err

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_cap_exceeded(self, tmp_path, capsys, monkeypatch, source):
        # SL(2,3), the first group paper-values builds, has order 24
        monkeypatch.delenv(CAP_ENV, raising=False)
        argv = ["verify", "--suite", "paper-values", "--grid", "small"]
        if source == "flag":
            argv += ["--cap", "10"]
        elif source == "env":
            monkeypatch.setenv(CAP_ENV, "10")
        else:
            cfg = tmp_path / "cfg"
            cfg.write_text("cap = 10\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: group order 24 exceeds cap 10\n"

    def test_oracle_suite_held_to_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv(CAP_ENV, "100")
        code, out, err = run(capsys, "verify", "--suite", "oracle",
                             "--grid", "small")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.endswith(" exceeds cap 100\n")

    def test_asu42_cap_only_when_none_is_set(self, capsys, monkeypatch):
        # ASU(4,2) is checked at 7,000,000 only when nothing sets a cap; a
        # cap set to the default refuses it
        monkeypatch.delenv(CAP_ENV, raising=False)
        argv = ("verify", "--suite", "paper-values", "--grid", "full")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "PASS paper-values/asu42-oracle\n" in out
        code, out, err = run(capsys, *argv, "--cap", "2000000")
        assert (code, out) == (3, "")
        assert err == "error: affine group order 6635520 exceeds cap 2000000\n"

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_cap_below_1(self, capsys, monkeypatch, source):
        monkeypatch.delenv(CAP_ENV, raising=False)
        argv = ["verify", "--suite", "identities", "--grid", "small"]
        if source == "flag":
            argv += ["--cap", "0"]
        else:
            monkeypatch.setenv(CAP_ENV, "0")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: the cap must be at least 1, got 0\n"


# ---------------------------------------------------------------------------
# recorded outputs

# the benchmark's recorded exit codes and stdout digests of every command it
# runs: bounds, the cross-method and identity suites and every table,
# numeric-q and symbolic, and the oracle's three
REFERENCE = json.loads((Path(__file__).resolve().parent.parent
                        / "perfbench" / "reference.json").read_text())["commands"]
REFERENCE_COMMANDS = sorted(REFERENCE)


def test_exact_commands_replayed():
    # 41 value-mode commands, the full identity suite, six symbolic tables
    # and three oracle commands
    assert len(REFERENCE_COMMANDS) == 51
    assert "verify --suite identities --grid full" in REFERENCE_COMMANDS
    assert sum("--symbolic-q --n-max 30" in c for c in REFERENCE_COMMANDS) == 6
    assert sum(c.startswith(("oracle ", "verify --suite oracle ",
                             "verify --suite paper-values "))
               for c in REFERENCE_COMMANDS) == 3


@pytest.mark.parametrize("command", REFERENCE_COMMANDS)
def test_reference_output(capsys, monkeypatch, command):
    # recorded with no cap set anywhere
    monkeypatch.delenv(CAP_ENV, raising=False)
    code, out, _ = run(capsys, *command.split())
    want = REFERENCE[command]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        want["exit"], want["sha256"])


# ---------------------------------------------------------------------------
# bounds

class TestBounds:
    def test_grid_clean(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q-set", "2,3,4,5",
                           "--n-max", "20")
        assert code == 0
        assert "violations: 0" in out
        assert "VIOLATION" not in out
        # 19 named specs plus the subgroup-tower theorem
        assert len(out.strip().splitlines()) == 21

    def test_constants_flag_exits_1(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q-set", "2,3",
                           "--n-max", "4", "--constants")
        assert code == 1
        assert "11 certified, 1 failed" in out
        assert "FAILED      ao-even-sum-111.6" in out
        assert "exceeds the claim" in out

    def test_constants_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q-set", "2,3", "--n-max", "4",
                           "--constants", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert len(payload["bounds"]) == 19
        assert payload["ah"]["ok"] is True
        bad = [c for c in payload["constants"] if not c["ok"]]
        assert [c["id"] for c in bad] == ["ao-even-sum-111.6"]

    def test_constants_json_pinned(self, capsys):
        # reference.json replays the text form of this command; the JSON
        # form prints the enclosures' endpoints as floats
        code, out, _ = run(capsys, "bounds", "--q-set", "2,3,4,5,7,8,9",
                           "--n-max", "25", "--constants", "--format", "json")
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "84cc102c8c0dd344128cb714f1d92836678cda0dca281c6be6b1e87af0160190")

    def test_json_without_constants(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q-set", "3", "--n-max", "6",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True and payload["constants"] == []

    def test_large_prime_q(self, capsys):
        # the subgroup tower reads the divisors of q - 1 = 10^17 + 2 from
        # its factorisation, not from a scan to 3 * 10^8
        code, out, _ = run(capsys, "bounds", "--q-set", "100000000000000003",
                           "--n-max", "2")
        assert code == 0 and "violations: 0" in out
        # one n = 1 and one n = 2 cell for each of its 63 proper divisors e
        assert "sl-tower-theorem       cells=126  exceptions=1" in out

    def test_q_minus_one_beyond_the_primality_limit(self, capsys):
        # 2^127 - 1 passes every base but lies above the bound below which
        # that proves it prime, so the divisors of q - 1 are undecided
        code, out, err = run(capsys, "bounds", "--q-set", str(2 ** 127),
                             "--n-max", "2")
        assert code == 2 and out == ""
        assert str(primes.MR_LIMIT) in err

    @pytest.mark.parametrize("argv", [
        ("bounds", "--q-set", "2,x"),
        ("bounds", "--q-set", "1,3"),
        ("bounds", "--q-set", ""),
        ("bounds", "--n-max", "0"),
    ])
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# oracle

class TestOracle:
    def test_asu_3_2(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "oracle", "--family", "asu", "--q", "2",
                           "--n", "3")
        assert code == 0
        assert "k = 24 (sum of per-class orbit counts)" in out
        assert "direct affine enumeration: k = 24 (agreement)" in out

    def test_asp_2_3(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "oracle", "--family", "asp", "--q", "3",
                           "--n", "2")
        assert code == 0
        assert "Sp(2, 3): classical order 24, 7 classes" in out
        assert "k = 10" in out

    def test_json_classes_sum(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "oracle", "--family", "ao-minus",
                           "--q", "3", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert sum(c["orbits"] for c in payload["classes"]) == payload["k"]
        assert payload["direct_enumeration"] == payload["k"]
        assert len(payload["classes"]) == payload["classical_classes"]

    def test_skips_direct_above_cap(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "oracle", "--family", "asp", "--q", "3",
                           "--n", "2", "--cap", "100")
        assert code == 0
        assert "skipped (exceeds cap 100)" in out

    def test_invalid_cell(self, capsys):
        code, _, err = run(capsys, "oracle", "--family", "ao", "--q", "2",
                           "--n", "3")
        assert code == 2 and "odd" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "--family", "agl", "--q", "-4", "--n", "1"),
        ("oracle", "--family", "agu", "--q", "4", "--n", "1"),
        ("oracle", "--family", "agl", "--q", "8", "--n", "1"),   # degree 3
        ("oracle", "--family", "asl", "--q", "1", "--n", "2"),   # |G| / (q - 1)
        ("oracle", "--family", "asu", "--q", "-1", "--n", "1"),  # |G| / (q + 1)
    ])
    def test_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("cap,reason", [
        # GL(1,257) has 256 elements on 257 points, but its |V|^2 addition
        # table has 66,049 entries, refused before any field is built
        ("2000", "66049 entries"),
        ("60000", "66049 entries"),
        ("66000", "66049 entries"),
    ])
    def test_allocations_checked_against_cap(self, capsys, cap, reason):
        code, _, err = run(capsys, "oracle", "--family", "agl", "--q", "257",
                           "--n", "1", "--cap", cap)
        assert code == 3 and reason in err

    def test_point_images_allowed_past_the_cap(self, capsys, monkeypatch):
        # 6,840 elements x 361 points exceed the default cap; each alone fits
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "oracle", "--family", "asl", "--q", "19",
                           "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        orbits = [c["orbits"] for c in payload["classes"]]
        assert orbits == [1, 1, 10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                          1, 1, 10, 1, 2, 1]
        assert payload["k"] == sum(orbits) == 42
        assert payload["direct_enumeration"] is None

    @pytest.mark.parametrize("family,q,n,digest", [
        ("agl", 3, 2, "7cbaa1d9b85c65ff5140477cb881fd36f85c9fecfd08788cc0ca13447fd3683f"),
        ("asl", 3, 2, "6d0e52bbde6ecbdfade639d998766b7464d30c83e991aca8e01fb4f8e7c7fcb3"),
        ("agu", 3, 2, "edff11ac23b217f771085c173ef04ee6808585b54497892735f7a48f1d87969f"),
        ("asu", 2, 3, "bc0088454393047e39a2ec7355ed7b077013af5e0d609e26be2292284ee39b6b"),
        ("asp", 3, 2, "0bb4de6a1107b47f5252c4a10e8398e1ff7581557365dd6fd4a5d793fab3377f"),
        ("ao", 3, 3, "2c8741929166456612e326fbef25b59d78ee063e2665b3d27462a3d43346ad76"),
        ("ao-plus", 3, 4, "8becb3c4435b8168a0c3393e19fe6f3c372377d5f2a38cdf8dea711544b0071b"),
        ("ao-minus", 2, 4, "631b5abaf0ce0e2a9befa8e6d40c18f6cdc4579981d375b37bc64954c86217ca"),
    ])
    def test_json_pinned_per_group_family(self, capsys, monkeypatch, family, q, n, digest):
        # one cell per group family: the F_{q^2} path of the unitary rows and
        # the det-1 filter of SL and SU, which reference.json does not reach
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "oracle", "--family", family, "--q", str(q),
                           "--n", str(n), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_table_checks_every_row_before_building(self, capsys, monkeypatch):
        # ASp(2,3) and ASp(4,3) fit the cap, ASp(6,3) does not
        def refuse(*args, **kwargs):
            raise AssertionError("a group was built")
        monkeypatch.setattr(cli, "build_affine", refuse)
        code, _, err = run(capsys, "table", "--family", "asp", "--q", "3",
                           "--n-max", "3", "--methods", "oracle",
                           "--cap", "5000000")
        assert code == 3 and "6685442749440" in err

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, _, err = run(capsys, "oracle", "--family", "agl", "--q", "5",
                           "--n", "4")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "--family", "agl", "--q", "3", "--n", "100000"),
        ("oracle", "--family", "agl", "--q", "3", "--n", "100000000"),
        # a series of 2 n_max + 2 coefficients, a number of 4301 digits
        ("table", "--family", "ao-odd", "--q", "3", "--n-max", "9" * 4300),
    ])
    def test_cap_decided_without_the_count(self, capsys, monkeypatch, argv):
        # 3^(2n) table entries are over the cap by their exponent, so the
        # power is never computed, and no count in the message has more
        # digits than str() converts
        monkeypatch.delenv(CAP_ENV, raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "exceeds cap 2000000" in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv,reason", [
        (("oracle", "--family", "agl", "--q", "1000003", "--n", "1"),
         "exceeds cap 2000000"),
        # |G| |V| = 1,017,072 fits, the 1,018,081-entry addition table not
        (("table", "--family", "agl", "--q", "1009", "--n-max", "1",
          "--methods", "oracle", "--cap", "1017500"), "1018081 entries"),
    ])
    def test_capped_without_a_field(self, capsys, monkeypatch, argv, reason):
        def refuse(*args):
            raise AssertionError("a field was built")
        monkeypatch.setattr(field_mod.FiniteField, "__init__", refuse)
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, _, err = run(capsys, *argv)
        assert code == 3 and reason in err


# ---------------------------------------------------------------------------
# any argv: an exit code, never a traceback

@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.just("oracle"), st.sampled_from(sorted(ORACLE_FAMILIES)),
              st.just("--n"), st.just(None)),
    st.tuples(st.just("table"), st.sampled_from(sorted(TABLE_FAMILIES)),
              st.just("--n-max"),
              st.sampled_from([None, "oracle", "closed-form,oracle"]))),
    st.integers(-5, 30), st.integers(-1, 4), st.sampled_from([-1, 0, 1, 50, 5000]))
def test_any_argv_exits_cleanly(cmd, q, n, cap):
    command, family, n_flag, methods = cmd
    argv = [command, "--family", family, "--q", str(q), n_flag, str(n),
            "--cap", str(cap)]
    if methods:
        argv += ["--methods", methods]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:      # argparse rejects its input this way
            code = e.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
