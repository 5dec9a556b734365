"""End-to-end checks of the command-line interface.

Everything goes through main(argv) so the tests see exactly what a shell
user sees: rendered text, exit codes, config and environment handling.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineclasses.cli import (CAP_ENV, CSV_COLUMNS, ORACLE_FAMILIES, SUITES,
                               TABLE_FAMILIES, main)


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
    ])
    def test_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("cap,reason", [
        ("2000", "point images"),           # 65,792 images of GL(1,257)
        ("60000", "66049 entries"),         # its |V|^2 addition table
        ("66000", "66049 entries"),
    ])
    def test_allocations_checked_against_cap(self, capsys, cap, reason):
        code, _, err = run(capsys, "oracle", "--family", "agl", "--q", "257",
                           "--n", "1", "--cap", cap)
        assert code == 3 and reason in err

    def test_point_images_allowed_past_the_cap(self, capsys, monkeypatch):
        # 6,840 x 361 point images exceed the default cap but fit 32 * cap
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, out, _ = run(capsys, "oracle", "--family", "asl", "--q", "19",
                           "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == sum(c["orbits"] for c in payload["classes"]) == 42
        assert payload["direct_enumeration"] is None

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.delenv(CAP_ENV, raising=False)
        code, _, err = run(capsys, "oracle", "--family", "agl", "--q", "5",
                           "--n", "4")
        assert code == 3 and "cap" in err


# ---------------------------------------------------------------------------
# any argv: an exit code, never a traceback

@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.just("oracle"), st.sampled_from(sorted(ORACLE_FAMILIES)),
              st.just("--n"), st.just(None)),
    st.tuples(st.just("table"), st.sampled_from(sorted(TABLE_FAMILIES)),
              st.just("--n-max"),
              st.sampled_from([None, "oracle", "closed-form,oracle"]))),
    st.integers(-5, 30), st.integers(-1, 4), st.sampled_from([-1, 0, 50, 5000]))
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
