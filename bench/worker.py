"""One benchmark process: set wrapkit up, run a task list, report as JSON.

``bench/run.py`` starts this script in a fresh interpreter as
``worker.py <trace 0|1>``, writes the task spec to its stdin and reads the
result from the last line of its stdout.  Set-up (``import wrapkit`` and
``wrapkit.cli`` plus ``make_group`` on the whole catalog) is timed first,
before this process imports anything else it needs, so the cost of modules
that wrapkit shares with the benchmark counts as wrapkit's.  The task list
is timed after it (``passes.py``).
"""

import sys
from time import perf_counter

# plans.CATALOG, repeated so that nothing of the benchmark's is imported
# before set-up is timed
CATALOG = ("torus1", "torus2", "su2", "so3", "su2xsu2", "su3")


def main() -> int:
    trace = sys.argv[1] == "1"
    start = perf_counter()
    import numpy  # noqa: F401  (wrapkit's first import; its time gauges the host)
    numpy_s = perf_counter() - start
    import wrapkit  # noqa: F401
    import_s = perf_counter() - start
    rec = None
    if trace:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    from wrapkit import cli, groups  # noqa: F401
    for name in CATALOG:
        groups.make_group(name)
    setup_s = perf_counter() - start

    import json

    import numpy
    import scipy

    import passes

    spec = json.load(sys.stdin)
    result = {"import_s": import_s, "setup_s": setup_s, "numpy_import_s": numpy_s,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    wk = passes.Wrapkit()
    if spec["mode"] == "pass":
        result.update(passes.run_pass(wk, spec, rec))
    elif spec["mode"] == "queries":
        result.update(passes.run_queries(wk, spec, rec))
    if rec is not None:
        rec.enabled = False
        result["layers"] = spans.layer_metrics(
            rec, result["passes"],
            lambda name, cutoff: len(wk.groups.enumerate_weights(
                wk.groups.make_group(name), cutoff)))
        if spec.get("trace_path"):
            rec.dump(spec["trace_path"])
    import resource
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
