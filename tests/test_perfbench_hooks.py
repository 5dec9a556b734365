"""The benchmark's hooks into the program: every function its tracer wraps
and every name its runner imports must be where they look for it, and every
wrapped function must be called on its home workloads, or a traced run
breaks while every other test passes.

perfbench/tracer.py and perfbench/run.py are only read here: each source is
compiled and run in a namespace of its own, so nothing is written beside
them.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / name
    namespace = {"__name__": "perfbench_" + path.stem, "__file__": str(path)}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


TARGETS = _load("tracer.py")["TARGETS"]
RUN = _load("run.py")
HOME = RUN["HOME"]


@pytest.mark.parametrize("modname,attr", [(t[0], t[1]) for t in TARGETS])
def test_target_resolves(modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        # a method is patched in its class's own __dict__
        clsname, meth = attr.split(".")
        assert callable(vars(getattr(module, clsname)).get(meth))
    else:
        assert callable(getattr(module, attr, None))


def test_home_names_are_spans():
    assert set(HOME) <= {t[2] for t in TARGETS}


def test_runner_imports_k_asp():
    from affineclasses.bounds import k_asp
    assert k_asp(3, 2) == 58


# Runs one workload's commands through cli.main with the tracer installed,
# the way a traced worker does (the package imported first), and prints the
# trace's spans, counters and missed bindings, and each command's stdout, as
# JSON.
TRACED_COMMANDS = """
import contextlib, io, json, sys
import affineclasses.cli as cli
path = sys.argv[1]
namespace = {"__name__": "perfbench_tracer", "__file__": path}
with open(path) as fh:
    exec(compile(fh.read(), path, "exec"), namespace)
tracer = namespace["Tracer"]()
tracer.install()
outs = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    outs.append(out.getvalue())
report = tracer.report()
trace = {k: report[k] for k in ("spans", "counts", "missed")}
print(json.dumps(dict(trace, stdout=outs)))
"""


@pytest.mark.parametrize("workload", ["exact-value", "exact-symbolic",
                                      "oracle-grid", "oracle-large"])
def test_home_targets_record_calls(workload):
    commands = RUN["workload_commands"](workload, 101)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMMANDS, str(PERFBENCH / "tracer.py"),
         json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True)
    trace = json.loads(proc.stdout)
    assert trace["missed"] == []
    silent = [name for name, homes in HOME.items() if workload in homes
              and RUN["calls_of"](trace["spans"], trace["counts"], name) == 0]
    assert silent == []
    if workload.startswith("oracle"):
        # the runner's own check: kernel states and representatives against
        # the engine's counters, and one cli.main span per command
        reports = [{"stdout": out} for out in trace["stdout"]]
        assert RUN["self_check"](workload, trace["spans"], trace["counts"],
                                 reports, trace["missed"]) == []
