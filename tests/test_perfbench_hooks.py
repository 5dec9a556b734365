"""The benchmark's hooks into the program: every function its tracer wraps
and every name its runner imports must be where they look for it, or a
traced run breaks while every other test passes.

perfbench/tracer.py and perfbench/run.py are only read here: each source is
compiled and run in a namespace of its own, so nothing is written beside
them.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / name
    namespace = {"__name__": "perfbench_" + path.stem, "__file__": str(path)}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


TARGETS = _load("tracer.py")["TARGETS"]
HOME = _load("run.py")["HOME"]


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
