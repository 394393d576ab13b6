"""Task execution and output checks inside one benchmark process.

``worker.py`` imports this module after set-up has been timed.  A pass runs
the task list once and times each task; outputs are verified after the
timed loop, so verification never warms a cache a later task would use.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from time import perf_counter

TWO_PI = 2.0 * math.pi
ALCOVE_MARGIN = 0.05
QUERY_AGREEMENT = 1e-8
CONVOLUTION_GAPS = (1e-12, 1e-6)     # coefficient gap, quadrature gap
WRAP_COEFF_RTOL = 1e-12


class Wrapkit:
    """The wrapkit modules, looked up after tracing is installed."""

    def __init__(self):
        from wrapkit import brownian, cli, groups, heat, wrapping
        self.brownian, self.cli, self.groups = brownian, cli, groups
        self.heat, self.wrapping = heat, wrapping


def _parse(report: str) -> tuple[list[list[str]], dict]:
    """CSV report -> (data rows without the header, footer key/values)."""
    rows, footer = [], {}
    for row in list(csv.reader(io.StringIO(report)))[1:]:
        if len(row) == 1 and row[0].startswith("# "):
            key, _, value = row[0][2:].partition("=")
            footer[key] = value
        else:
            rows.append(row)
    return rows, footer


def alcove_point(g, u):
    """Map two uniform draws to a point of the fundamental alcove, kept off
    every wall by the relative margin."""
    m = ALCOVE_MARGIN
    lo = [m + (1 - 2 * m) * x for x in u]
    if g.name == "su2":
        return [TWO_PI * lo[0]]
    if g.name == "so3":
        return [math.pi * lo[0]]
    if g.name == "su2xsu2":
        return [TWO_PI * lo[0], TWO_PI * lo[1]]
    if g.name == "su3":
        a, b = sorted(u)
        bary = [m / 3 + (1 - m) * x for x in (a, b - a, 1 - b)]
        verts = [[0.0] * g.rank, *(2 * TWO_PI * row for row in g.weight_basis)]
        return [sum(c * v[k] for c, v in zip(bary, verts)) for k in range(g.rank)]
    raise ValueError(f"no alcove map for {g.name}")


def _run_task(wk, task: dict, threads: int) -> dict:
    if task["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wk.cli.main([*task["argv"], "--threads", str(threads)])
        return {"code": code, "report": out.getvalue(), "stderr": err.getvalue()}
    g = wk.groups.make_group(task["group"])
    nu1 = wk.wrapping.RadialFunction.gaussian(g.dim, float(task["t"]))
    nu2 = wk.wrapping.RadialFunction.gaussian(g.dim, float(task["t2"]))
    cutoff = max(wk.wrapping.auto_cutoff(g, nu1, task["tol"]),
                 wk.wrapping.auto_cutoff(g, nu2, task["tol"]))
    coeff_gap, quad_gap = wk.wrapping.wrapping_formula_check(
        g, nu1, nu2, cutoff, grid_points=task["grid"])
    return {"coeff_gap": coeff_gap, "quad_gap": quad_gap}


def _check_wrap(wk, task: dict, report: str) -> str | None:
    """The wrap report lists d_lambda * sum_i w_i exp(-s_i |lambda+rho|^2 / 2)
    for every weight under the effective cutoff, sorted by norm, and the
    series it lists must match the lattice-sum route (``wrap_lattice``) at
    seeded regular points within the requested tolerance: a dropped weight
    or a cutoff too small for the tolerance shows there."""
    g = wk.groups.make_group(task["group"])
    pairs = [tuple(map(float, p.split(":"))) for p in task["argv"][-1].split(",")]
    rows, footer = _parse(report)
    if not rows or int(footer.get("terms", -1)) != len(rows):
        return "terms footer does not match the rows"
    cutoff, tol = float(footer["effective_cutoff"]), float(footer["tol"])
    coeffs, last = {}, -1.0
    for coords, dim, coeff in rows:
        w = g.weight(tuple(int(c) for c in coords.split(";")))
        q2 = w.lambda_plus_rho_norm_sq
        expected = w.dimension * sum(a * math.exp(-s * q2 / 2) for a, s in pairs)
        if int(dim) != w.dimension or q2 > cutoff * (1 + 1e-12) or q2 < last or w in coeffs:
            return f"row {coords} is out of place"
        if abs(float(coeff) - expected) > WRAP_COEFF_RTOL * abs(expected):
            return f"coefficient of {coords} is {coeff}, expected {expected!r}"
        coeffs[w] = float(coeff)
        last = q2

    import numpy as np

    series = wk.wrapping.CentralFunction(group=g, coeffs=coeffs, cutoff=cutoff)
    nu = wk.wrapping.RadialFunction.mixture(g.dim, pairs)
    for u in task["points"]:
        H = np.array(alcove_point(g, u))
        spectral = float(series.evaluate(H))
        lattice = float(wk.wrapping.wrap_lattice(g, nu, H, tol))
        if abs(spectral - lattice) > tol * max(1.0, abs(lattice)):
            return f"series {spectral!r} and lattice sum {lattice!r} differ at {H.tolist()}"
    return None


def _verify(wk, task: dict, res: dict) -> str | None:
    """None when the output is right, else the reason it is not."""
    if "error" in res:
        return res["error"]
    if task["kind"] == "convolution":
        if res["coeff_gap"] < CONVOLUTION_GAPS[0] and res["quad_gap"] < CONVOLUTION_GAPS[1]:
            return None
        return f"convolution gaps {res['coeff_gap']:.3e} {res['quad_gap']:.3e}"
    if res["code"] != 0:
        return f"exit code {res['code']}: {res['stderr'].strip()}"
    if task["check"] == "wrap":
        return _check_wrap(wk, task, res["report"])
    if _parse(res["report"])[1].get("pass") != "true":
        return "footer does not say pass=true"
    return None


def run_pass(wk, spec: dict, rec) -> dict:
    tasks = spec["tasks"]
    results = []
    start = perf_counter()
    for task in tasks:
        t0 = perf_counter()
        try:
            res = _run_task(wk, task, spec["threads"])
        except Exception as exc:  # a failing task is counted, the pass goes on
            res = {"error": f"{type(exc).__name__}: {exc}"}
        res["wall_s"] = perf_counter() - t0
        results.append(res)
    wall = perf_counter() - start
    if rec is not None:
        rec.enabled = False

    out = []
    for task, res in zip(tasks, results):
        report = res.get("report", "")
        out.append({
            "id": " ".join(task["argv"]) if task["kind"] == "cli" else
                  f"convolution {task['group']} t={task['t']},{task['t2']}",
            "wall_s": res["wall_s"],
            "error": _verify(wk, task, res),
            "digest": hashlib.sha256(report.encode()).hexdigest(),
            "report_bytes": len(report.encode()),
            "cutoff": _parse(report)[1].get("effective_cutoff"),
        })
    props = {}
    if spec.get("properties"):
        for task, r in zip(tasks, out):
            if r["cutoff"] is not None:
                g = wk.groups.make_group(task["group"])
                key = f"{task['group']} K={r['cutoff']}"
                props[key] = len(wk.groups.enumerate_weights(g, float(r["cutoff"])))
    return {"pass_wall_s": [wall], "latencies_s": [r["wall_s"] for r in out],
            "tasks": out, "weights_under_cutoff": props, "passes": 1}


def run_queries(wk, spec: dict, rec) -> dict:
    import numpy as np

    heat = wk.heat
    prepared = []
    for q in spec["tasks"]:
        g = wk.groups.make_group(q["group"])
        prepared.append((g, np.array(alcove_point(g, q["u"])), float(q["t"])))
    errors = [None] * len(prepared)
    reference = []
    warm_start = perf_counter()
    for i, (g, H, t) in enumerate(prepared):       # warm-up: fills the caches
        if not wk.groups.is_regular(g, H):
            errors[i] = "query point is not regular"
        value, route = heat.auto_kernel(g, H, t)
        reference.append((value, route))
        if not (math.isfinite(value) and value > -QUERY_AGREEMENT):
            errors[i] = f"kernel value {value!r}"
    warmup_s = perf_counter() - warm_start
    if rec is not None:
        rec.reset()

    latencies, walls = [], []
    deadline = perf_counter() + spec["budget_s"]
    while len(walls) < spec["min_passes"] or perf_counter() < deadline:
        values = [None] * len(prepared)
        start = perf_counter()
        for i, (g, H, t) in enumerate(prepared):
            t0 = perf_counter()
            values[i] = heat.auto_kernel(g, H, t)
            latencies.append(perf_counter() - t0)
        walls.append(perf_counter() - start)
        for i, (got, ref) in enumerate(zip(values, reference)):
            if got != ref:
                errors[i] = f"query changed between passes: {got} vs {ref}"

    if rec is not None:
        rec.enabled = False
    check_start = perf_counter()
    for i in spec["cross_check"]:                  # the other route, untimed
        g, H, t = prepared[i]
        value, route = reference[i]
        if route == "wrapped":
            other = heat.spectral_heat_kernel(g, H, t)
        else:
            other = heat.wrapped_heat_kernel(g, H, t)
        if abs(other - value) > QUERY_AGREEMENT * max(1.0, abs(value)):
            errors[i] = f"routes disagree: {value!r} vs {other!r}"

    tasks = [{"id": f"auto_kernel {q['group']} t={q['t']} u={q['u']}", "error": e}
             for q, e in zip(spec["tasks"], errors)]
    wrapped = sum(route == "wrapped" for _, route in reference)
    return {"pass_wall_s": walls, "latencies_s": latencies, "tasks": tasks,
            "passes": len(walls), "wrapped_route_share": wrapped / len(reference),
            "values": [value for value, _ in reference],
            "warmup_s": warmup_s, "cross_check_s": perf_counter() - check_start}
