"""Compare saved benchmark runs of two commits, metric by metric.

    python3 perfbench/compare.py --base a1.out a2.out ... --new b1.out b2.out ...

Each file is the stdout of one ``perfbench/run.py`` run.  Runs are compared
only when they agree on workload, trace mode, Python version and kernel
backend: a pure and a compiled run measure different programs.  For each
metric it prints both sides' median and quartiles, the change of the median,
the base side's own spread (quartile distance over median) and, for
end-to-end metrics, whether the change exceeds the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MATCH = ("workload", "trace", "python", "backend")


def load(path):
    lines = Path(path).read_text().splitlines()
    records = [json.loads(line[len("record "):]) for line in lines
               if line.startswith("record ")]
    if not records:
        sys.exit("error: %s holds no record line" % path)
    return records[-1], json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)

    sides = {name: [load(p) for p in paths]
             for name, paths in (("base", args.base), ("new", args.new))}
    runs = sides["base"] + sides["new"]
    for key in MATCH:
        seen = sorted({str(rec[key]) for rec, _ in runs})
        if len(seen) > 1:
            sys.exit("error: refusing to compare runs with different %s: %s"
                     % (key, ", ".join(seen)))
    if not all(res["correct"] for _, res in runs):
        sys.exit("error: a run reported incorrect output; no times are compared")

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("workload %s, %d base runs, %d new runs"
          % (runs[0][0]["workload"], len(sides["base"]), len(sides["new"])))
    for name in runs[0][1]["metrics"]:
        vals = {s: [res["metrics"][name]["value"] for _, res in sides[s]] for s in sides}
        med = {s: statistics.median(v) for s, v in vals.items()}
        (bq1, bq3), (nq1, nq3) = quartiles(vals["base"]), quartiles(vals["new"])
        change = (med["new"] - med["base"]) / med["base"] if med["base"] else 0.0
        own = (bq3 - bq1) / med["base"] if med["base"] else 0.0
        verdict = ""
        if name in bounds:
            verdict = "WORSE THAN BOUND" if change > bounds[name] else "within bound"
        print("%-48s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  change %+.2f%%"
              "  base spread %.2f%%  %s"
              % (name, med["base"], bq1, bq3, med["new"], nq1, nq3,
                 100 * change, 100 * own, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
