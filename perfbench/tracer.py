"""Outside-in tracing of the affineclasses layers, for the traced benchmark run.

The tracer replaces public functions of each module with wrappers, at every
place the function object is bound: its home module and every module that
imported it by name (``from .classcount import affine_series`` makes a second
binding that a wrapper on the home module alone would never see).  Nothing in
the program changes; the wrappers live in this process only.

Span wrappers record (name, start, end, parent) in memory; count wrappers
only count, for functions called hundreds of thousands of times whose cost
belongs to their caller's self time.  ``Tracer.report`` turns the spans into
per-name calls, inclusive seconds and self seconds, and adds the exact
counters the hooks collected.
"""

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "affineclasses"


def _ring(series):
    return "symbolic" if series.ring == "q-polynomial" else "value"


def _q_ring(args, kwargs):
    q = kwargs["q"] if "q" in kwargs else args[1]
    return "symbolic" if type(q).__name__ == "QPoly" else "value"


def _group_kind(args, kwargs):
    return "affine" if hasattr(args[0], "base") else "matrix"


# (owner module, attribute, span name, ring/kind suffix or None, span?)
# Attributes with a dot are methods patched on their class.
TARGETS = (
    ("affineclasses.oracle.groups", "build_group", "oracle.groups.build_group", None, True),
    ("affineclasses.oracle.groups", "preserves_form", "oracle.groups.preserves_form", None, False),
    ("affineclasses.oracle.groups", "perm_from_matrix", "oracle.groups.perm_from_matrix", None, False),
    ("affineclasses.oracle.groups", "MatrixGroup.__init__", "oracle.groups.MatrixGroup", None, False),
    ("affineclasses.oracle.kernels", "orbit_scan", "oracle.kernels.orbit_scan", None, True),
    ("affineclasses.oracle.kernels", "affine_orbit_scan", "oracle.kernels.affine_orbit_scan", None, True),
    ("affineclasses.oracle.engine", "count_classes", "oracle.engine.count_classes", _group_kind, True),
    ("affineclasses.oracle.engine", "orbit_sum_check", "oracle.engine.orbit_sum_check", None, True),
    ("affineclasses.oracle.engine", "formula_check_o", "oracle.engine.formula_check_o", None, True),
    ("affineclasses.oracle.field", "finite_field", "oracle.field.finite_field", None, True),
    ("affineclasses.classcount", "affine_series", "classcount.affine_series", _q_ring, True),
    ("affineclasses.classcount", "affine_recursive", "classcount.affine_recursive", _q_ring, True),
    ("affineclasses.classcount", "orbit_built_series", "classcount.orbit_built_series", _q_ring, True),
    ("affineclasses.classcount", "classical_series", "classcount.classical_series", _q_ring, True),
    ("affineclasses.series", "TruncatedSeries.__mul__", "series.mul",
     lambda a, k: _ring(a[0]), True),
    ("affineclasses.series", "apply_product", "series.apply_product",
     lambda a, k: _ring(a[0] if a else k["base"]), True),
    ("affineclasses.series", "TruncatedSeries.invert", "series.invert", None, True),
    ("affineclasses.partitions", "lemma_sum", "partitions.lemma_sum", None, True),
    ("affineclasses.partitions", "lemma_rhs", "partitions.lemma_rhs", None, True),
    ("affineclasses.bounds", "check_all_bounds", "bounds.check_all_bounds", None, True),
    ("affineclasses.bounds", "check_ah_theorem", "bounds.check_ah_theorem", None, True),
    ("affineclasses.bounds", "certify_all", "bounds.certify_all", None, True),
    ("affineclasses.cli", "main", "cli.main", None, True),
)


class Tracer:
    """Spans and counters of one process; ``install`` patches the program."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.nested = []        # an enclosing span has the same name
        self._stack = []
        self._open = {}         # name -> number of open spans
        self.counts = {}        # exact counters, name -> int
        self.sites = {}         # span name -> modules or classes rebound
        self.missed = []        # bindings of an original left unwrapped

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    # -- hooks: exact counts read from arguments and results ---------------

    def _before(self, name, args, kwargs):
        if name == "oracle.engine.count_classes":
            group = args[0]
            return group._classes is None, group.order
        return None

    def _after(self, name, suffix, state, args, result):
        bump = self.bump
        if name == "oracle.groups.build_group":
            bump("oracle.groups.elements", result.order)
            bump("oracle.groups.generators", len(result.gen_perms))
        elif name == "oracle.kernels.orbit_scan":
            bump("oracle.kernels.orbit_scan.states", args[2])
            bump("oracle.kernels.reps", len(result[0]))
        elif name == "oracle.kernels.affine_orbit_scan":
            bump("oracle.kernels.affine_orbit_scan.states", args[5] * args[6])
            bump("oracle.kernels.reps", len(result[0]))
        elif name == "oracle.engine.count_classes":
            miss, order = state
            if miss:
                bump("oracle.engine.classes", result.k)
                bump("oracle.engine.scans." + suffix)
                bump("oracle.engine.scanned." + suffix, order)
        elif name == "bounds.check_all_bounds":
            bump("bounds.cells", sum(len(r.cells) for r in result))
        elif name == "bounds.check_ah_theorem":
            bump("bounds.cells", len(result["rows"]))
        elif name == "bounds.certify_all":
            ok = sum(1 for r in result if r.ok)
            bump("bounds.constants.certified", ok)
            bump("bounds.constants.failed", len(result) - ok)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, suffix_of):
        names, starts, ends = self.names, self.starts, self.ends
        parents, nested, stack, open_ = self.parents, self.nested, self._stack, self._open
        before, after = self._before, self._after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            suffix = suffix_of(args, kwargs) if suffix_of else None
            key = name + "|" + suffix if suffix else name
            state = before(name, args, kwargs)
            idx = len(names)
            names.append(key)
            parents.append(stack[-1] if stack else -1)
            depth = open_.get(key, 0)
            nested.append(depth > 0)
            open_[key] = depth + 1
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                open_[key] = depth
            after(name, suffix, state, args, result)
            return result
        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = name + ".calls"
        # preserves_form also counts the matrices it accepts
        true_key = name + ".true" if name == "oracle.groups.preserves_form" else None
        counts[key] = 0
        if true_key:
            counts[true_key] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if true_key and result:
                counts[true_key] += 1
            return result
        return counted

    def install(self):
        """Wrap every target at every binding in the loaded package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        originals = {}
        for modname, attr, name, suffix_of, span in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                clsname, meth = attr.split(".")
                owners = [getattr(module, clsname)]
                orig = owners[0].__dict__[meth]
            else:
                owners = modules
                orig = getattr(module, attr)
            wrapper = (self._span_wrapper(orig, name, suffix_of) if span
                       else self._count_wrapper(orig, name))
            sites = []
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, key, wrapper)
                        sites.append("%s.%s" % (owner.__name__, key))
            self.sites[name] = sites
            originals[id(orig)] = orig
        # a binding the scan above missed would bypass the wrapper silently
        classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
        for owner in modules + classes:
            for key, value in vars(owner).items():
                if id(value) in originals and originals[id(value)] is value:
                    self.missed.append("%s.%s" % (owner.__name__, key))

    # -- results -----------------------------------------------------------

    def report(self):
        """Per span name: calls, inclusive seconds (outermost spans only)
        and self seconds; plus the exact counters and the raw spans."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        spans = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            rec = spans.setdefault(self.names[i], [0, 0.0, 0.0])
            rec[0] += 1
            if not self.nested[i]:
                rec[1] += dur
            rec[2] += dur - child[i]
        return {
            "spans": {k: {"calls": c, "s": s, "self_s": ss}
                      for k, (c, s, ss) in spans.items()},
            "counts": dict(self.counts),
            "sites": self.sites,
            "missed": self.missed,
            "raw": {"name": self.names, "start": self.starts,
                    "end": self.ends, "parent": self.parents},
        }
