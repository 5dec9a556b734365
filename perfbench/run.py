"""End-to-end and per-layer benchmark of the affineclasses command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record        # rewrite perfbench/reference.json

Run it from the repository root; it needs ``src/affineclasses`` there and
runs the sources directly (PYTHONPATH=src), so nothing has to be installed.

Every command runs through ``affineclasses.cli.main`` in a fresh interpreter
(perfbench/worker.py), one at a time, so the lru_caches start empty the way a
user pays for them.  The untraced run launches the workload's commands in
turn, round after round, while the next launch is expected to end within
``--seconds``; every command runs at least once.  Each command's exit code and
stdout digest are compared with perfbench/reference.json before any time is
reported.

The host's speed changes from second to second by more than the benchmark's
bounds (a shared, virtualised host).  So while each command runs, a thread
in its worker times a fixed pure-Python probe every 50 ms
(perfbench/probe.py), and the command's time is scaled by
REFERENCE_PROBE_S / (mean probe time during the command): seconds at the
host speed where the probe takes REFERENCE_PROBE_S.  A command too short for
MIN_LAUNCH_PROBES samples, and setup_s, use the mean over the whole run.
The unscaled times and the probe times are printed on the summary lines.

With ``--trace 0`` the last stdout line reports:
  wall_s       entering cli.main to its return: the median over each
               command's launches, summed over the commands, scaled to the
               reference host speed
  setup_s      interpreter start plus the affineclasses.cli import, summed
               over the commands (the median of at least 24 launches, times
               the number of commands), scaled the same way
  peak_rss_mb  the highest, over the commands, of the median ru_maxrss of
               the command's workers
Failed commands are the result's ``failed`` out of ``attempted``; their ratio
(failed_ratio) is printed on the summary lines above it.

With ``--trace 1`` the untraced rounds run first, then two traced passes
with perfbench/tracer.py installed in every worker; the last line reports
the per-layer metrics named in BENCHMARK.json.  The traced run fails its
self-checks when a wrapped function records no call on its home workload,
when span counts disagree with the exact counters, or when the exact counts
of the two traced passes differ.  Its spans are written to
``.perfbench/spans-<workload>-seed<N>.json``.
"""

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
TIME_LIMIT = 165          # seconds; every run must end within 180
SETUP_SAMPLES = 24        # launches behind the setup_s median
TRACED_PASSES = 2
REFERENCE_PROBE_S = 0.0008  # probe.probe time that end-to-end times are scaled to
MIN_LAUNCH_PROBES = 5     # samples a command needs to be scaled by its own

# ---------------------------------------------------------------------------
# workloads: a fixed part (the runs users make) plus seed-drawn inputs

TABLE_FAMILIES = ("agl", "agu", "asp", "ao-plus", "ao-minus", "ao-odd")
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
VALUE_CELLS = tuple((f, q) for f in TABLE_FAMILIES for q in PRIME_POWERS
                    if f != "ao-odd" or q % 2)
VALUE_DRAWS = 4
VALUE_N_MAX = "25"
SYMBOLIC_N_MAX = "30"

ORACLE_GRID = [["verify", "--suite", "oracle", "--grid", "full"],
               ["verify", "--suite", "paper-values", "--grid", "small"]]
ORACLE_LARGE = [["oracle", "--family", "asp", "--q", "3", "--n", "4",
                 "--cap", "5000000"]]
BOUNDS = ["bounds", "--q-set", "2,3,4,5,7,8,9", "--n-max", "25", "--constants"]
CROSS = ["verify", "--suite", "cross-method", "--grid", "full"]
IDENTITIES = ["verify", "--suite", "identities", "--grid", "full"]


def value_table(fam, q):
    return ["table", "--family", fam, "--q", str(q), "--n-max", VALUE_N_MAX]


def symbolic_table(fam):
    return ["table", "--family", fam, "--symbolic-q", "--n-max", SYMBOLIC_N_MAX]


def workload_commands(name, seed):
    rng = random.Random(seed)
    if name == "oracle-grid":
        return [list(c) for c in ORACLE_GRID]
    if name == "oracle-large":
        return [list(c) for c in ORACLE_LARGE]
    if name == "exact-value":
        return [BOUNDS, CROSS] + [value_table(f, q)
                                  for f, q in rng.sample(VALUE_CELLS, VALUE_DRAWS)]
    if name == "exact-symbolic":
        fams = list(TABLE_FAMILIES)
        rng.shuffle(fams)
        return [IDENTITIES] + [symbolic_table(f) for f in fams]
    raise KeyError(name)


def every_command():
    """Every command any seed can draw, for the reference file."""
    cmds = ORACLE_GRID + ORACLE_LARGE + [BOUNDS, CROSS, IDENTITIES]
    cmds += [value_table(f, q) for f, q in VALUE_CELLS]
    cmds += [symbolic_table(f) for f in TABLE_FAMILIES]
    return cmds


WORKLOADS = ("oracle-grid", "oracle-large", "exact-value", "exact-symbolic")

# workloads on which a wrapped function must record at least one call
HOME = {
    "oracle.groups.build_group": ("oracle-grid", "oracle-large"),
    "oracle.groups.preserves_form": ("oracle-grid",),
    "oracle.groups.perm_from_matrix": ("oracle-grid", "oracle-large"),
    "oracle.groups.MatrixGroup": ("oracle-grid", "oracle-large"),
    "oracle.kernels.orbit_scan": ("oracle-grid", "oracle-large"),
    "oracle.kernels.affine_orbit_scan": ("oracle-grid", "oracle-large"),
    "oracle.engine.count_classes": ("oracle-grid", "oracle-large"),
    "oracle.engine.orbit_sum_check": ("oracle-grid", "oracle-large"),
    "oracle.engine.formula_check_o": ("oracle-grid",),
    "oracle.field.finite_field": ("oracle-grid", "oracle-large"),
    "classcount.affine_series": ("exact-value", "exact-symbolic"),
    "classcount.affine_recursive": ("exact-value", "exact-symbolic"),
    "classcount.orbit_built_series": ("exact-value", "exact-symbolic"),
    "classcount.classical_series": ("exact-value", "exact-symbolic"),
    "series.mul": ("exact-value", "exact-symbolic"),
    "series.apply_product": ("exact-value", "exact-symbolic"),
    "series.invert": (),      # no CLI command reaches it
    "partitions.lemma_sum": ("exact-symbolic",),
    "partitions.lemma_rhs": ("exact-symbolic",),
    "bounds.check_all_bounds": ("exact-value",),
    "bounds.check_ah_theorem": ("exact-value",),
    "bounds.certify_all": ("exact-value",),
    "cli.main": WORKLOADS,
}

# ---------------------------------------------------------------------------
# running one command


class Runner:
    def __init__(self, reference, deadline):
        self.reference = reference
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.report_path = WORK / ("worker-%d.json" % os.getpid())
        self.attempted = 0
        self.failures = []

    def launch(self, argv, mode):
        """Run the worker once; returns (exit code, stdout, report or None)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("time limit reached before %s" % " ".join(argv))
        if self.report_path.exists():
            self.report_path.unlink()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(self.report_path), mode] + argv,
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=remaining)
        report = None
        if self.report_path.exists():
            report = json.loads(self.report_path.read_text())
            self.report_path.unlink()
            report["setup_s"] = report["ready"] - t0
        return proc.returncode, proc.stdout, report

    def setup_probe(self):
        _, _, report = self.launch([], "setup")
        return report["setup_s"]

    def command(self, argv, mode):
        """One checked command: its report, with ``ok`` and ``stdout``."""
        self.attempted += 1
        t0 = time.perf_counter()
        rc, out, report = self.launch(argv, mode)
        launch_s = time.perf_counter() - t0
        ref = self.reference["commands"].get(" ".join(argv))
        digest = hashlib.sha256(out).hexdigest()
        problem = None
        if report is None or "rc" not in report:
            problem = "no worker report (exit %d)" % rc
        elif report["raised"]:
            problem = "raised %s" % report["raised"]
        elif ref is None:
            problem = "no reference recorded"
        elif rc != ref["exit"] or digest != ref["sha256"]:
            problem = "exit %d digest %s, reference exit %d digest %s" % (
                rc, digest[:12], ref["exit"], ref["sha256"][:12])
        if problem:
            self.failures.append("%s: %s" % (" ".join(argv), problem))
            report = dict(report or {}, main_s=0.0, maxrss_kb=0)
        report["ok"] = problem is None
        report["launch_s"] = launch_s
        report["stdout"] = out.decode(errors="replace")
        return report


def run_rounds(runner, commands, seconds):
    """Launch the commands in turn, round after round, while the next launch
    is expected to end within ``seconds``; each runs at least once.  Returns
    each command's reports."""
    rounds = [[] for _ in commands]
    start = time.perf_counter()
    i = 0
    while (i < len(commands) or time.perf_counter() - start
           + rounds[i % len(commands)][-1]["launch_s"] <= seconds):
        rounds[i % len(commands)].append(runner.command(commands[i % len(commands)], "run"))
        i += 1
    return rounds


def pass_wall(p):
    return sum(r["main_s"] for r in p)


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes

SPAN_STATS = (   # span name, inclusive or self time, ring/kind suffixes
    ("oracle.groups.build_group", "self_s", None),
    ("oracle.kernels.orbit_scan", "s", None),
    ("oracle.kernels.affine_orbit_scan", "s", None),
    ("oracle.engine.count_classes", "self_s", ("matrix", "affine")),
    ("oracle.engine.orbit_sum_check", "self_s", None),
    ("oracle.engine.formula_check_o", "self_s", None),
    ("oracle.field.finite_field", "s", None),
    ("classcount.affine_series", "self_s", ("value", "symbolic")),
    ("classcount.affine_recursive", "self_s", ("value", "symbolic")),
    ("classcount.orbit_built_series", "self_s", ("value", "symbolic")),
    ("classcount.classical_series", "self_s", ("value", "symbolic")),
    ("series.mul", "s", ("value", "symbolic")),
    ("series.apply_product", "s", ("value", "symbolic")),
    ("series.invert", "s", None),
    ("partitions.lemma_sum", "s", None),
    ("partitions.lemma_rhs", "s", None),
)
TIME_ONLY = (("bounds.check_all_bounds", "self_s"), ("bounds.check_ah_theorem", "self_s"),
             ("bounds.certify_all", "s"), ("cli.main", "self_s"))
COUNTERS = ("oracle.groups.elements", "oracle.groups.generators",
            "oracle.groups.preserves_form.calls", "oracle.groups.preserves_form.true",
            "oracle.groups.perm_from_matrix.calls",
            "oracle.kernels.orbit_scan.states", "oracle.kernels.affine_orbit_scan.states",
            "oracle.engine.classes", "bounds.cells",
            "bounds.constants.certified", "bounds.constants.failed")


def merge_traces(reports):
    """Sum the span statistics and counters of one pass's commands."""
    spans, counts = {}, {}
    for r in reports:
        tr = r.get("trace")
        if tr is None:
            continue
        for key, st in tr["spans"].items():
            acc = spans.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for key, v in tr["counts"].items():
            counts[key] = counts.get(key, 0) + v
    return spans, counts


def calls_of(spans, counts, name):
    """Calls of a span or count-only target, over all of its suffixes."""
    total = counts.get(name + ".calls", 0)
    for key, st in spans.items():
        if key == name or key.startswith(name + "|"):
            total += st["calls"]
    return total


def layer_metrics(spans, counts):
    """(name, value, unit) for every per-layer metric but the trace ones."""
    def stat(key, k):
        return spans.get(key, {}).get(k, 0)
    out = []
    for name, tstat, suffixes in SPAN_STATS:
        if suffixes:
            for k in ("calls", tstat):
                for sfx in suffixes:
                    out.append(("%s.%s.%s" % (name, k, sfx), stat(name + "|" + sfx, k),
                                "count" if k == "calls" else "s"))
        else:
            out.append((name + ".calls", stat(name, "calls"), "count"))
            out.append(("%s.%s" % (name, tstat), stat(name, tstat), "s"))
    for name, tstat in TIME_ONLY:
        out.append(("%s.%s" % (name, tstat), stat(name, tstat), "s"))
    for name in COUNTERS:
        out.append((name, counts.get(name, 0), "count"))
    return out


TRACE_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"))


def per_layer_names():
    return [n for n, _, _ in layer_metrics({}, {})] + [n for n, _ in TRACE_METRICS]


def exact_counts(spans, counts):
    out = {k: v["calls"] for k, v in spans.items()}
    out.update(counts)
    return out


def self_check(workload, spans, counts, reports, missed):
    """Problems with the trace itself: coverage, zero calls, disagreements."""
    problems = ["unwrapped binding %s" % m for m in missed]
    for name, homes in HOME.items():
        if workload in homes and calls_of(spans, counts, name) == 0:
            problems.append("%s recorded no call on its home workload" % name)
    pairs = (
        ("build_group calls vs MatrixGroup constructions",
         calls_of(spans, counts, "oracle.groups.build_group"),
         counts.get("oracle.groups.MatrixGroup.calls", 0)),
        ("orbit_scan calls vs matrix class scans",
         calls_of(spans, counts, "oracle.kernels.orbit_scan"),
         counts.get("oracle.engine.scans.matrix", 0)),
        ("affine_orbit_scan calls vs affine class scans",
         calls_of(spans, counts, "oracle.kernels.affine_orbit_scan"),
         counts.get("oracle.engine.scans.affine", 0)),
        ("orbit_scan states vs scanned matrix group orders",
         counts.get("oracle.kernels.orbit_scan.states", 0),
         counts.get("oracle.engine.scanned.matrix", 0)),
        ("affine_orbit_scan states vs scanned affine group orders",
         counts.get("oracle.kernels.affine_orbit_scan.states", 0),
         counts.get("oracle.engine.scanned.affine", 0)),
        ("classes vs kernel orbit representatives",
         counts.get("oracle.engine.classes", 0), counts.get("oracle.kernels.reps", 0)),
        ("cli.main calls vs commands", calls_of(spans, counts, "cli.main"), len(reports)),
    )
    for label, a, b in pairs:
        if a != b:
            problems.append("%s: %d != %d" % (label, a, b))
    if workload == "exact-value":
        text = "".join(r["stdout"] for r in reports)
        printed = sum(int(m) for m in re.findall(r"cells: (\d+)", text))
        status = re.findall(r"^(certified|FAILED) ", text, re.M)
        for label, a, b in (
                ("bounds cells vs printed", counts.get("bounds.cells", 0), printed),
                ("certified constants vs printed", counts.get("bounds.constants.certified", 0),
                 status.count("certified")),
                ("failed constants vs printed", counts.get("bounds.constants.failed", 0),
                 status.count("FAILED"))):
            if a != b:
                problems.append("%s: %d != %d" % (label, a, b))
    return problems


# ---------------------------------------------------------------------------
# checks against an independent route, and the environment record

def cross_check(workload, first_pass):
    """The oracle's ASp(4,3) count against the generating-function route."""
    if workload != "oracle-large":
        return []
    sys.path.insert(0, str(SRC))
    from affineclasses.bounds import k_asp
    want = k_asp(3, 2)
    text = first_pass[0]["stdout"]
    got = [int(k) for k in re.findall(r"k = (\d+) \(sum of per-class", text)
           + re.findall(r"direct affine enumeration: k = (\d+)", text)]
    if len(got) != 2 or any(k != want for k in got):
        return ["ASp(4,3) oracle counts %s, bounds.k_asp(3, 2) = %d" % (got, want)]
    return []


def environment(reports, seed, workload, trace):
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    backends = sorted({r["backend"] for r in reports if "backend" in r})
    pythons = sorted({r["python"] for r in reports if "python" in r})
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": ",".join(pythons), "backend": ",".join(backends),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": h.hexdigest()}


def spread(values):
    """Median, quartiles, min and max of a sample, for the summary lines."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


# ---------------------------------------------------------------------------
# main


def record(runner):
    commands = {}
    for argv in every_command():
        rc, out, report = runner.launch(argv, "run")
        key = " ".join(argv)
        commands[key] = {"exit": rc, "sha256": hashlib.sha256(out).hexdigest()}
        if key == " ".join(BOUNDS):
            commands[key]["note"] = (
                "exit 1 is expected: the certificate for ao-even-sum-111.6 fails "
                "on purpose (acceptance criterion 5)")
        print("%d %s %s" % (rc, commands[key]["sha256"][:12], key))
    REFERENCE.write_text(json.dumps(
        {"backend": report["backend"], "python": report["python"],
         "commands": commands}, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from the current sources")
    args = ap.parse_args(argv)

    if not (SRC / "affineclasses" / "cli.py").is_file():
        sys.exit("error: %s/affineclasses not found; run from a checkout "
                 "of the repository" % SRC)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = ([m["name"] for m in spec["per_layer"]] if args.trace
            else [m["name"] for m in spec["end_to_end"]])
    have = per_layer_names() if args.trace else ["wall_s", "setup_s", "peak_rss_mb"]
    if want != have:
        sys.exit("error: BENCHMARK.json metrics differ from run.py's: %s"
                 % sorted(set(want) ^ set(have)))
    WORK.mkdir(exist_ok=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None
    runner = Runner(reference, time.perf_counter() + (3600 if args.record else TIME_LIMIT))
    if args.record:
        record(runner)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if reference is None:
        sys.exit("error: %s is missing" % REFERENCE)

    commands = workload_commands(args.workload, args.seed)
    rounds = run_rounds(runner, commands, args.seconds)
    all_reports = [r for rs in rounds for r in rs]
    # every launch pays the same interpreter start and import, so setup_s is
    # the median over all launches (topped up to SETUP_SAMPLES) per command
    setups = [r["setup_s"] for r in all_reports if r["ok"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_probe())
    setup_s = len(commands) * statistics.median(setups)
    wall = sum(statistics.median(r["main_s"] for r in rs) for rs in rounds)
    probes = [d for r in all_reports for d in r.get("probes", ())]
    problems = cross_check(args.workload, [rs[0] for rs in rounds])
    if not probes:
        problems.append("no host speed samples")
        probes = [REFERENCE_PROBE_S]
    probe_mean = statistics.mean(probes)

    def scaled(r):
        own = r.get("probes", ())
        speed = statistics.mean(own) if len(own) >= MIN_LAUNCH_PROBES else probe_mean
        return r["main_s"] * REFERENCE_PROBE_S / speed
    mains = [statistics.median(scaled(r) for r in rs) for rs in rounds]
    rss = max(statistics.median(r["maxrss_kb"] for r in rs) for rs in rounds) / 1024
    extra = {}

    if args.trace:
        traced = [[runner.command(c, "trace") for c in commands]
                  for _ in range(TRACED_PASSES)]
        all_reports += [r for p in traced for r in p]
        merged = [merge_traces(p) for p in traced]
        tables = [dict((n, v) for n, v, _ in layer_metrics(*m)) for m in merged]
        units = {n: u for n, _, u in layer_metrics({}, {})}
        # counts are exact (checked equal below); times are medians
        metrics = {n: {"value": tables[0][n] if u == "count"
                       else statistics.median(t[n] for t in tables), "unit": u}
                   for n, u in units.items()}
        traced_walls = [pass_wall(p) for p in traced]
        n_spans = [sum(len(r.get("trace", {}).get("raw", {}).get("name", ())) for r in p)
                   for p in traced]
        metrics["trace.wall_s"] = {"value": statistics.median(traced_walls), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - wall, "unit": "s"}
        metrics["trace.spans"] = {"value": n_spans[0], "unit": "count"}
        for p, (spans, counts) in zip(traced, merged):
            missed = sorted({m for r in p for m in r.get("trace", {}).get("missed", ())})
            problems += self_check(args.workload, spans, counts, p, missed)
        counts = [exact_counts(*m) for m in merged]
        if any(c != counts[0] for c in counts[1:]):
            diff = sorted(k for k in set(counts[0]) | set(counts[1])
                          if counts[0].get(k) != counts[1].get(k))
            problems.append("exact counts differ between traced passes: %s" % diff)
        extra["exact_counts_sha256"] = hashlib.sha256(
            json.dumps(counts[0], sort_keys=True).encode()).hexdigest()
        spans_path = WORK / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        spans_path.write_text(json.dumps(
            [{"command": " ".join(r_argv), "spans": r.get("trace", {}).get("raw"),
              "sites": r.get("trace", {}).get("sites")}
             for r_argv, r in zip(commands, traced[-1])]))
        print("spans written to %s" % spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": {"value": sum(mains), "unit": "s"},
            "setup_s": {"value": setup_s * REFERENCE_PROBE_S / probe_mean, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    env = environment(all_reports, args.seed, args.workload, args.trace)
    if "," in env["backend"]:
        problems.append("workers ran on different backends: %s" % env["backend"])
    failed = len(runner.failures)
    for line in runner.failures + problems:
        print("FAIL %s" % line)
    launches = [len(rs) for rs in rounds]
    print("workload %s seed %d: %d commands launched %s times, failed_ratio %d/%d = %g"
          % (args.workload, args.seed, len(commands), launches, failed,
             runner.attempted, failed / runner.attempted))
    probe = spread(probes)
    print("unscaled wall_s %.4f s, setup_s %.4f s; host probe mean %.4g s, median %.4g s,"
          " quartiles %.4g..%.4g, n=%d"
          % (wall, setup_s, probe_mean, probe["median"], probe["q1"], probe["q3"],
             probe["n"]))
    print("record " + json.dumps(dict(env, commands=[" ".join(c) for c in commands],
                                      launches=launches, scaled_main_s=mains,
                                      unscaled_wall_s=wall, unscaled_setup_s=setup_s,
                                      host_probe_s=dict(probe, mean=probe_mean),
                                      peak_rss_mb=rss,
                                      failed_ratio=failed / runner.attempted, **extra)))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
