"""End-to-end checks of the command-line interface.

Everything goes through main(argv) so the tests see exactly what a shell
user sees: rendered text, exit codes, config and environment handling.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineclasses import cli
from affineclasses.cli import (CAP_ENV, CSV_COLUMNS, ORACLE_FAMILIES, SUITES,
                               TABLE_FAMILIES, main)
from affineclasses.oracle import field as field_mod
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
        def broken(grid):
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


# ---------------------------------------------------------------------------
# recorded outputs

# the benchmark's recorded exit codes and stdout digests of the exact
# commands: bounds, the cross-method and identity suites and every table,
# numeric-q and symbolic
REFERENCE = json.loads((Path(__file__).resolve().parent.parent
                        / "perfbench" / "reference.json").read_text())["commands"]
EXACT_COMMANDS = sorted(
    c for c in REFERENCE
    if c.startswith(("bounds ", "table ", "verify --suite cross-method ",
                     "verify --suite identities ")))


def test_exact_commands_replayed():
    # 41 value-mode commands, the full identity suite and six symbolic tables
    assert len(EXACT_COMMANDS) == 48
    assert "verify --suite identities --grid full" in EXACT_COMMANDS
    assert sum("--symbolic-q --n-max 30" in c for c in EXACT_COMMANDS) == 6


@pytest.mark.parametrize("command", EXACT_COMMANDS)
def test_reference_output(capsys, command):
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

    def test_json_without_constants(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q-set", "3", "--n-max", "6",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True and payload["constants"] == []

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

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, _, err = run(capsys, "oracle", "--family", "agl", "--q", "5",
                           "--n", "4")
        assert code == 3 and "cap" in err

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
