"""wrapkit benchmark: one workload, one seed, every output checked.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload checks --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``checks``   the analytic identity sweep through ``cli.main``;
* ``queries``  a closed loop, one caller, single-point ``auto_kernel`` queries;
* ``paths``    the Monte Carlo sweep through ``cli.main --threads 1``;
* ``paths-mt`` the same task list at ``--threads 2`` (at most the CPU count);
  its reports must be byte-identical to a ``--threads 1`` reference pass.

Every pass runs in a fresh interpreter (``bench/worker.py``) with
``src/`` on its path, one process at a time.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, including the tracing
overhead.  Reported times are divided by the host's speed over the run,
measured as the time each process takes to import numpy (see
``HOST_REFERENCE_S``).  The last stdout line is the JSON result; the line
before it, prefixed ``bench-info``, records the environment, the input
properties, the raw times and per-task details, and is also written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import plans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 1
MIN_PASSES = {"checks": 3, "queries": 3, "paths": 5, "paths-mt": 5}
QUERY_CHILDREN = 6        # queries: processes the run's time is split over
TRACED_MIN_PASSES = 2
TAIL_BEYOND = 10          # samples beyond the tail percentile
RUN_LIMIT_S = 170.0
# Host speed.  On a shared 2-vCPU host the same pass ran up to 1.6 times
# slower for minutes at a time, in every layer and in set-up alike, with no
# CPU steal time to show for it.  Every worker times ``import numpy`` as the
# first step of its set-up; numpy is not part of wrapkit, and its import
# slowed down with the host.  Each reported time is divided by the run's
# median numpy import time over HOST_REFERENCE_S, about that median on the
# host above at full speed.
HOST_REFERENCE_S = 0.075
TIME_UNITS = {"s", "ms", "ns"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WRAPKIT_THREADS", None)      # --threads is always passed explicitly
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    def __init__(self, started: float):
        self.started = started
        self.env = _child_env()
        self.children = []

    def child(self, spec: dict) -> dict:
        left = RUN_LIMIT_S - (perf_counter() - self.started)
        if left <= 0:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "1" if spec["trace"] else "0"],
                input=json.dumps(spec),
                capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker exceeded the run time limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
        result = json.loads(lines[-1])
        result["traced"] = bool(spec["trace"])
        self.children.append(result)
        return result


def _quantile(values: list[float], p: float) -> float:
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _median(values):
    return statistics.median(values)


def _zero_on_violations(workload: str, metrics: dict, wall: float) -> list[str]:
    """Per-layer metrics that interactions.json expects to be about zero on
    this workload but are not: counts above 0, times above 0.1% of a pass."""
    inter = json.loads((BENCH / "interactions.json").read_text())
    out = []
    for name, row in inter.items():
        if workload in row["zero_on"]:
            limit = 1e-3 * wall if name.endswith("_s") else 0.0
            if abs(metrics[name]) > limit:
                out.append(name)
    return out


def _load_declaration() -> dict:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    inter = json.loads((BENCH / "interactions.json").read_text())
    e2e = {m["name"] for m in decl["end_to_end"]}
    workloads = {w["name"] for w in decl["workloads"]}
    layers = {m["name"] for m in decl["per_layer"]}
    if set(inter) != layers:
        raise BenchError(f"interactions.json and BENCHMARK.json per_layer differ: "
                         f"{sorted(set(inter) ^ layers)}")
    for name, row in inter.items():
        if not (set(row["moves"]) <= e2e and set(row["on"]) <= workloads
                and set(row["zero_on"]) <= workloads):
            raise BenchError(f"interactions.json row {name} names unknown metrics or workloads")
        if set(row["on"]) & set(row["zero_on"]):
            raise BenchError(f"interactions.json row {name} lists a workload in both "
                             f"'on' and 'zero_on'")
    return decl


def _unit(decl: dict, name: str) -> str:
    return next(m["unit"] for m in decl["end_to_end"] + decl["per_layer"] if m["name"] == name)


def _plan(workload: str, seed: int) -> tuple[list[dict], list[int]]:
    if workload == "checks":
        return plans.checks(seed), []
    if workload == "queries":
        return plans.queries(seed)
    return plans.paths(seed), []


def _src_lines() -> dict:
    return {p.name: len(p.read_text().splitlines())
            for p in sorted((ROOT / "src" / "wrapkit").glob("*.py"))}


def run(args, decl: dict) -> tuple[dict, dict]:
    started = perf_counter()
    runner = Runner(started)
    workload = args.workload
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(2, cpus) if workload == "paths-mt" else 1
    tasks, cross_check = _plan(workload, args.seed)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"

    setups = [runner.child({"mode": "setup", "trace": False})["setup_s"]
              for _ in range(SETUP_PROBES)]

    base = {"tasks": tasks, "threads": threads}
    reference = None
    if workload == "paths-mt":                # untimed --threads 1 reference
        reference = runner.child({**base, "mode": "pass", "threads": 1, "trace": False})

    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    if workload == "queries":
        # several processes, because the median pass time differed by up to a
        # factor of two between processes of one run; the first one also
        # re-evaluates the seeded subsample by the other route, the others
        # must return the same values
        spec = {**base, "mode": "queries", "min_passes": 1,
                "budget_s": args.seconds / QUERY_CHILDREN}
        for i in range(QUERY_CHILDREN):
            checked = {**spec, "cross_check": cross_check if i == 0 else []}
            if args.trace and i % 2:
                traced.append(runner.child({**checked, "trace": True, "trace_path": str(
                    out_dir / f"spans-{tag}-proc{len(traced)}.jsonl")}))
            else:
                untraced.append(runner.child({**checked, "trace": False}))
        for child in untraced[1:] + traced:
            for task, value, first in zip(child["tasks"], child["values"], untraced[0]["values"]):
                if task["error"] is None and value != first:
                    task["error"] = f"value {value!r} differs from the first process: {first!r}"
    else:
        while True:
            trace_now = bool(args.trace) and len(traced) < len(untraced)
            if args.trace:
                enough = (len(untraced) >= TRACED_MIN_PASSES
                          and len(traced) >= TRACED_MIN_PASSES)
            else:
                enough = len(untraced) >= MIN_PASSES[workload]
            if enough and perf_counter() >= deadline:
                break
            spec = {**base, "mode": "pass", "trace": trace_now,
                    "properties": not untraced and not trace_now}
            if trace_now:
                spec["trace_path"] = str(out_dir / f"spans-{tag}-pass{len(traced)}.jsonl")
            (traced if trace_now else untraced).append(runner.child(spec))

    # -- checks across passes ------------------------------------------------
    ref_tasks = (reference or untraced[0])["tasks"]
    failures = []
    attempted = 0
    for child in ([reference] if reference else []) + untraced + traced:
        for task, ref in zip(child["tasks"], ref_tasks):
            attempted += 1
            error = task["error"]
            if error is None and "digest" in task and task["digest"] != ref["digest"]:
                error = "report differs from the reference pass"
            if error is not None:
                failures.append({"task": task["id"], "error": error})
    if workload == "queries":
        attempted = sum(len(c["tasks"]) * (c["passes"] + 1) for c in untraced + traced)

    setups += [c["setup_s"] for c in untraced]
    walls = [w for c in untraced for w in c["pass_wall_s"]]
    # pass-mode latencies come from the first MIN_PASSES passes only: the
    # task times are clumped, and a fixed percentile over a varying number
    # of passes moved the tail from one task to another
    latency_runs = untraced if workload == "queries" else untraced[:MIN_PASSES[workload]]
    latencies = [x for c in latency_runs for x in c["latencies_s"]]
    # the tail is the highest percentile with TAIL_BEYOND samples beyond it
    # in the minimum number of passes; every queries process makes at least
    # one pass, so a queries run makes at least MIN_PASSES of them traced or not
    if workload == "queries" or not args.trace:
        min_passes = MIN_PASSES[workload]
    else:
        min_passes = TRACED_MIN_PASSES
    tail_p = 100.0 * (1.0 - TAIL_BEYOND / (len(tasks) * min_passes))
    tail_p = math.floor(tail_p * 10) / 10

    if args.trace:
        layer_rows = [c["layers"] for c in traced]
        metrics = {k: _median([row[k] for row in layer_rows]) for k in layer_rows[0]}
        metrics["setup.import_s"] = _median(
            [c["import_s"] for c in runner.children if not c["traced"]])
        metrics["cli.report_bytes"] = _median(
            [sum(t.get("report_bytes", 0) for t in c["tasks"]) for c in traced])
        traced_walls = [w for c in traced for w in c["pass_wall_s"]]
        metrics["trace.overhead_s"] = _median(traced_walls) - _median(walls)
        zero_on_violations = _zero_on_violations(workload, metrics, _median(walls))
    else:
        zero_on_violations = None
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median(walls),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
            "latency_p50_ms": 1e3 * _median(latencies),
            "latency_tail_ms": 1e3 * _quantile(latencies, tail_p),
        }

    slowdown = _median([c["numpy_import_s"] for c in runner.children]) / HOST_REFERENCE_S
    raw_metrics = dict(metrics)
    for name in metrics:
        if _unit(decl, name) in TIME_UNITS:
            metrics[name] /= slowdown

    first = untraced[0]
    props = plans.properties(workload, tasks, threads)
    if workload == "queries":
        props["measured_wrapped_route_share"] = first["wrapped_route_share"]
        props["process_warmup_s"] = [c["warmup_s"] for c in untraced]
        props["process_cross_check_s"] = [c["cross_check_s"] for c in untraced]
    if first.get("weights_under_cutoff"):
        props["weights_under_cutoff"] = first["weights_under_cutoff"]
    info = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {"nproc": cpus, "threads": threads, **first["versions"],
                        "blas_threads": 1, "WRAPKIT_THREADS": "ignored"},
        "src_lines": _src_lines(),
        "input_properties": props,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "zero_on_violations": zero_on_violations,
        "passes": {"untraced": len(walls), "traced": len(traced)},
        "latency": {"samples": len(latencies), "tail_percentile": tail_p},
        "pass_wall_s": walls,
        "process_pass_wall_median_s": [_median(c["pass_wall_s"]) for c in untraced],
        "setup_samples_s": setups,
        "host_slowdown": slowdown,
        "numpy_import_s": [c["numpy_import_s"] for c in runner.children],
        "raw_metrics": raw_metrics,
        "task_median_s": {t["id"]: _median([c["tasks"][i]["wall_s"] for c in untraced])
                          for i, t in enumerate(first["tasks"]) if "wall_s" in t},
        "run_s": perf_counter() - started,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (ROOT / "src" / "wrapkit" / "__init__.py").is_file():
            raise BenchError(f"no wrapkit sources under {ROOT / 'src'}")
        decl = _load_declaration()
        if args.workload not in {w["name"] for w in decl["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        info, result = run(args, decl)
        declared = {m["name"]: m["unit"]
                    for m in decl["per_layer" if args.trace else "end_to_end"]}
        if set(result["metrics"]) != set(declared):
            raise BenchError("printed metrics differ from BENCHMARK.json: "
                             f"{sorted(set(result['metrics']) ^ set(declared))}")
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": declared[k]}
                         for k, v in sorted(result["metrics"].items())}
    print("bench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
