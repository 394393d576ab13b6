"""Seeded task lists for the benchmark workloads (standard library only).

Every task comes from the repository's recorded traffic; the source is
named next to each constant:

* README  - the command-line examples in ``README.md`` ("Command line");
* demo02, demo03, demo04 - the scripts of the same number in ``demos/``;
* crit N  - acceptance criterion N in ``tests/test_acceptance.py``;
* crit 9  - its ``_determinism_runs`` list of CLI runs.

Where the benchmark departs from a recording (a group no recording covers, fewer
paths), the comment says so and ``bench/README.md`` gives the measured
reason.  The seed moves inputs, never the amount of work: it sets the query
points and their order, the points where ``wrap`` outputs are cross-checked
and the Monte Carlo seeds.  The ``checks`` list keeps one order, because
tasks that share a (group, t) share cached coefficients and the order would
move cost from one task to another.
"""

from __future__ import annotations

import math
import random

CATALOG = ("torus1", "torus2", "su2", "so3", "su2xsu2", "su3")

# checks -------------------------------------------------------------------
# poisson-check: crit 1 and crit 9 use these times on every group but su3;
# su3 is added so that the sweep covers every catalog group, without t=0.1
POISSON_TIMES = ("0.1", "0.5", "1.0", "2.0")
POISSON_SU3_TIMES = ("0.5", "1.0", "2.0")
# wraplap-check: crit 3 and crit 9, all six groups, and demo03 at t=0.7
WRAPLAP_TIMES = ("0.5", "1.0")
WRAPLAP_DEMO = (("torus1", "0.7"), ("su2", "0.7"), ("so3", "0.7"), ("su3", "0.7"))
# semigroup-check: crit 4 and crit 9 on su2; su2xsu2 and su3 are added
# with the first pair, so that the rank-2 groups are covered
SEMIGROUPS = (("su2", "0.5", "0.5"), ("su2", "0.3", "0.7"),
              ("su2xsu2", "0.5", "0.5"), ("su3", "0.5", "0.5"))
# wrap: crit 9 (su2, su3), README (su3), demo03 (the t=0.8 Gaussian on
# su2); su2xsu2 is added with the README mixture to cover a product group
WRAPS = (("su2", "0.6:0.5,0.4:0.8"), ("su2", "1:0.8"), ("su3", "1:0.6"),
         ("su3", "0.7:0.5,0.3:1.1"), ("su2xsu2", "0.7:0.5,0.3:1.1"))
WRAP_CHECK_POINTS = 3            # seeded alcove points per wrap cross-check
# wrapping_formula_check: crit 2 and demo03 on su2 (crit 2 on su3 is left out)
CONVOLUTION = (("su2", 0.5, 0.8),)
CONVOLUTION_TOL, CONVOLUTION_GRID = 1e-9, 32

# queries ------------------------------------------------------------------
# demo02 sweeps these times (t < 0.25 takes the wrapped route); the groups
# are the four non-torus groups, weighted equally because nothing recorded
# weights them.  A (group, t) cell holds 8 queries on the spectral route and
# 7 on the wrapped one: with equal cells the median fell exactly between
# two cells whose costs differ by 1.7x, and now it falls inside one.
QUERY_GROUPS = ("su2", "so3", "su2xsu2", "su3")
QUERY_TIMES = ("0.05", "0.1", "0.25", "0.5", "1.0", "2.0")
QUERIES_PER_CELL = {"spectral": 8, "wrapped": 7}
ROUTE_SWITCH_T = 0.25
CROSS_CHECK_PER_CELL = 1

# paths --------------------------------------------------------------------
# (command, group, t, step, paths, extra flags); path counts are scaled down
# from the recordings so that a pass takes about 2.5 s and no engine hides the
# others (see bench/README.md); the seed replaces the recorded Monte Carlo
# seeds (20260823 in the tests, 7 in demo04)
PATH_TASKS = (
    # crit 6 / crit 9: torus1 at t=0.5, step 5e-3; 50000 paths
    ("wrap-bm-check", "torus1", "0.5", "5e-3", 50000, ()),
    # the same settings on torus2, which no recording covers; 40000 paths
    ("wrap-bm-check", "torus2", "0.5", "5e-3", 40000, ()),
    # demo04: su2 at t=0.5, step 5e-3; 20000 paths, and --chunk 10000 so
    # that it runs as two chunks
    ("wrap-bm-check", "su2", "0.5", "5e-3", 20000, ("--chunk", "10000")),
    # README: so3 --t 0.5 --rep 2 (default 100000 paths), at 10000 paths
    ("wrap-bm-check", "so3", "0.5", "5e-3", 10000, ("--rep", "2")),
    # crit 6 settings on su2xsu2, which no recording covers; 10000 paths, and
    # --chunk 5000 so that it runs as two chunks
    ("wrap-bm-check", "su2xsu2", "0.5", "5e-3", 10000, ("--chunk", "5000")),
    # crit 6 settings on su3, which no recording covers; 1000 paths
    ("wrap-bm-check", "su3", "0.5", "5e-3", 1000, ()),
    # demo04: the su2 density table at t=1, step 5e-3, 8 bins; 10000 paths
    ("simulate", "su2", "1.0", "5e-3", 10000, ("--bins", "8")),
    # the demo04 table on so3, the other rank-one group; 4000 paths
    ("simulate", "so3", "1.0", "5e-3", 4000, ("--bins", "8")),
)
DEFAULT_CHUNK = 20000            # cli default for --chunk


def _route(t: str) -> str:
    return "wrapped" if float(t) < ROUTE_SWITCH_T else "spectral"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"wrapkit-bench:{workload}:{seed}")


def _cli(argv: list[str], group: str, t: str | None, check: str = "pass") -> dict:
    return {"kind": "cli", "check": check, "group": group, "t": t, "argv": argv}


def checks(seed: int) -> list[dict]:
    rng = _rng("checks", seed)
    tasks = []
    for group in CATALOG:
        for t in POISSON_SU3_TIMES if group == "su3" else POISSON_TIMES:
            tasks.append(_cli(["poisson-check", "--group", group, "--t", t], group, t))
        for t in WRAPLAP_TIMES:
            tasks.append(_cli(["wraplap-check", "--group", group, "--t", t], group, t))
    for group, t in WRAPLAP_DEMO:
        tasks.append(_cli(["wraplap-check", "--group", group, "--t", t], group, t))
    for group, t, s in SEMIGROUPS:
        tasks.append(_cli(["semigroup-check", "--group", group, "--t", t, "--s", s],
                          group, t))
    for group, mixture in WRAPS:
        task = _cli(["wrap", "--group", group, "--mixture", mixture], group, None, "wrap")
        task["points"] = [[rng.random(), rng.random()] for _ in range(WRAP_CHECK_POINTS)]
        tasks.append(task)
    for group, t1, t2 in CONVOLUTION:
        tasks.append({"kind": "convolution", "group": group, "t": t1, "t2": t2,
                      "tol": CONVOLUTION_TOL, "grid": CONVOLUTION_GRID})
    return tasks


def queries(seed: int) -> tuple[list[dict], list[int]]:
    """The closed-loop query list and the indices re-checked by the other
    route.  ``u`` holds uniform draws that the worker maps into the group's
    alcove."""
    rng = _rng("queries", seed)
    tasks = [{"kind": "query", "group": g, "t": t, "u": [rng.random(), rng.random()]}
             for g in QUERY_GROUPS for t in QUERY_TIMES
             for _ in range(QUERIES_PER_CELL[_route(t)])]
    rng.shuffle(tasks)
    sample = []
    for g in QUERY_GROUPS:
        for t in QUERY_TIMES:
            members = [i for i, q in enumerate(tasks) if q["group"] == g and q["t"] == t]
            sample += rng.sample(members, CROSS_CHECK_PER_CELL)
    return tasks, sorted(sample)


def paths(seed: int) -> list[dict]:
    rng = _rng("paths", seed)
    tasks = []
    for command, group, t, step, n_paths, extra in PATH_TASKS:
        chunk = int(extra[extra.index("--chunk") + 1]) if "--chunk" in extra else DEFAULT_CHUNK
        task = _cli([command, "--group", group, "--t", t, "--step", step,
                     "--paths", str(n_paths), "--seed", str(rng.getrandbits(63)), *extra],
                    group, t)
        task["chunks"] = math.ceil(n_paths / chunk)
        task["path_steps"] = n_paths * round(float(t) / float(step))
        tasks.append(task)
    return tasks


def properties(workload: str, tasks: list[dict], threads: int) -> dict:
    """Input properties that later performance claims cite."""
    keyed = [(t["group"], t["t"]) for t in tasks if t.get("t") is not None]
    props = {"tasks": len(tasks), "distinct_group_t": len(set(keyed))}
    if workload == "queries":
        wrapped = sum(_route(t["t"]) == "wrapped" for t in tasks)
        props["wrapped_route_share"] = wrapped / len(tasks)
    if workload.startswith("paths"):
        props["threads"] = threads
        props["chunks_per_task"] = {" ".join(t["argv"][:3]): t["chunks"] for t in tasks}
        steps = {}
        for t in tasks:
            steps[t["group"]] = steps.get(t["group"], 0) + t["path_steps"]
        props["group_path_steps_per_engine"] = steps
    return props
