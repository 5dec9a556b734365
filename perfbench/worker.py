"""Run one affineclasses CLI command in this fresh interpreter.

    python3 perfbench/worker.py REPORT MODE [CLI ARGS...]

MODE is ``run`` (time cli.main while probe.py samples the host's speed),
``trace`` (time cli.main with the tracer installed) or ``setup`` (import
only).  The command's stdout and exit code are the CLI's own; timings go to
the JSON file REPORT.  All times are perf_counter readings, which on Linux
is the system-wide CLOCK_MONOTONIC, so run.py can subtract its own launch
reading from ``ready``.
"""

import sys
import time

import affineclasses.cli as cli

ready = time.perf_counter()


def main():
    import json
    import platform
    import resource
    import traceback

    from affineclasses.oracle import kernels

    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report = {"ready": ready, "backend": kernels.BACKEND,
              "python": platform.python_version()}
    rc = 0
    if mode != "setup":
        tracer = sampler = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        else:
            from probe import Sampler
            sampler = Sampler()
            sampler.start()
        raised = None
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:   # argparse rejects its input this way
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:
            traceback.print_exc()
            raised, rc = repr(e), 1
        end = time.perf_counter()
        if sampler is not None:
            report["probes"] = sampler.stop()
        sys.stdout.flush()
        report.update(main_s=end - start, rc=rc, raised=raised,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            report["trace"] = tracer.report()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
