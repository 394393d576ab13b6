"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion N [PASS|FAIL]`` line (run with
``pytest -s`` to see them live) and then asserts both the numeric
tolerance and the runtime budget it was printed with.
"""

import math
from time import perf_counter

import numpy as np

from wrapkit import cli
from wrapkit.brownian import (
    SdeConfig,
    empirical_density_table,
    mc_expect_central,
    real_character,
    wrap_bm_check,
)
from wrapkit.groups import alcove_points, make_group
from wrapkit.heat import (
    bend_complex,
    flat_heat_kernel,
    j_complex,
    semigroup_gap,
    spectral_heat_kernel,
    wrapped_heat_kernel,
)
from wrapkit.wrapping import (
    RadialFunction,
    auto_cutoff,
    wraplap_check,
    wrapping_formula_check,
)

SEED = 20260823

ALL_GROUPS = ("torus1", "torus2", "su2", "so3", "su2xsu2", "su3")


def _report(num: int, label: str, ok: bool, detail: str, elapsed: float):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{state}] {label}: {detail} ({elapsed:.2f}s)",
          flush=True)


def test_criterion_1_lattice_sum_matches_character_series():
    start = perf_counter()
    worst = 0.0
    for name in ("torus1", "torus2", "su2", "so3", "su2xsu2", "su3"):
        g = make_group(name)
        pts = alcove_points(g, 20)
        for t in (0.1, 0.5, 1.0, 2.0):
            spectral = np.atleast_1d(spectral_heat_kernel(g, pts, t, True))
            wrapped = np.atleast_1d(wrapped_heat_kernel(g, pts, t))
            worst = max(worst, float(np.max(np.abs(spectral - wrapped))))
    elapsed = perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(1, "wrapped vs spectral kernel", ok, f"max_gap={worst:.3e}",
            elapsed)
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_2_wrap_of_convolution_is_convolution_of_wraps():
    start = perf_counter()
    worst_coeff = worst_quad = 0.0
    for name in ("su2", "su3"):
        g = make_group(name)
        nu1 = RadialFunction.gaussian(g.dim, 0.5)
        nu2 = RadialFunction.gaussian(g.dim, 0.8)
        cutoff = max(auto_cutoff(g, nu1, 1e-9), auto_cutoff(g, nu2, 1e-9))
        coeff_gap, quad_gap = wrapping_formula_check(
            g, nu1, nu2, cutoff, grid_points=32
        )
        worst_coeff = max(worst_coeff, coeff_gap)
        worst_quad = max(worst_quad, quad_gap)
    elapsed = perf_counter() - start
    ok = worst_coeff < 1e-12 and worst_quad < 1e-6 and elapsed < 5.0
    _report(2, "convolution transport identity", ok,
            f"coeff={worst_coeff:.3e} quad={worst_quad:.3e}", elapsed)
    assert worst_coeff < 1e-12
    assert worst_quad < 1e-6
    assert elapsed < 5.0


def test_criterion_3_shifted_laplacian_commutes_with_wrapping():
    start = perf_counter()
    worst = 0.0
    for name in ALL_GROUPS:
        g = make_group(name)
        for t in (0.5, 1.0):
            nu = RadialFunction.gaussian(g.dim, t)
            cutoff = auto_cutoff(g, nu, 1e-10)
            worst = max(worst, wraplap_check(g, nu, cutoff))
    elapsed = perf_counter() - start
    ok = worst < 1e-12 and elapsed < 2.0
    _report(3, "shifted-Laplacian identity", ok, f"max_gap={worst:.3e}",
            elapsed)
    assert worst < 1e-12
    assert elapsed < 2.0


def test_criterion_4_semigroup_property():
    start = perf_counter()
    worst_coeff = worst_quad = 0.0
    cases = [("su2", 0.5, 0.5), ("su2", 0.3, 0.7)]
    cases += [(name, 0.5, 0.5) for name in ("so3", "su2xsu2", "su3")]
    for name, t, s in cases:
        coeff_gap, quad_gap = semigroup_gap(make_group(name), t, s, grid_points=32)
        worst_coeff = max(worst_coeff, coeff_gap)
        worst_quad = max(worst_quad, quad_gap)
    elapsed = perf_counter() - start
    ok = worst_coeff < 1e-12 and worst_quad < 1e-6 and elapsed < 5.0
    _report(4, "heat semigroup composition", ok,
            f"coeff={worst_coeff:.3e} quad={worst_quad:.3e}", elapsed)
    assert worst_coeff < 1e-12
    assert worst_quad < 1e-6
    assert elapsed < 5.0


def test_criterion_5_simulated_character_decay():
    start = perf_counter()
    g = make_group("su2")
    cfg = SdeConfig(group=g, t=1.0, step=1e-3, paths=100_000, seed=SEED)
    est = mc_expect_central(real_character(g, (1,)), cfg)
    # dimension 2, eigenvalue gap ||mu+rho||^2 - ||rho||^2 = 3/4
    target = 2.0 * math.exp(-0.75 * cfg.t / 2.0)
    gap = abs(est.mean - target)
    allowance = 3.0 * est.stderr + 5.0 * cfg.step
    elapsed = perf_counter() - start
    ok = gap <= allowance and elapsed < 60.0
    _report(5, "character decay under simulated paths", ok,
            f"gap={gap:.3e} allowance={allowance:.3e}", elapsed)
    assert gap <= allowance
    assert elapsed < 60.0


def test_criterion_6_wrapped_law_of_brownian_motion():
    start = perf_counter()
    worst_z = 0.0
    all_ok = True
    # the product layout and the su<n> matrix engine at fewer paths: an su3
    # path-step costs some 20 times an su2 one.  The so3 cases are not a
    # second sample: so3 rides the su2 engine at the same seed, tag and
    # dimension, so it walks the su2 cases' increments and their z move together
    for name, paths in (("torus1", 100_000), ("su2", 100_000), ("so3", 100_000),
                        ("su2xsu2", 50_000), ("su3", 20_000)):
        g = make_group(name)
        f = real_character(g, (1,) + (0,) * (g.rank - 1))
        for t in (0.5, 1.0):
            cfg = SdeConfig(group=g, t=t, step=5e-3, paths=paths, seed=SEED)
            rep = wrap_bm_check(g, f, cfg)
            gap = abs(rep.lhs.mean - rep.rhs.mean)
            allowance = (3.0 * math.hypot(rep.lhs.stderr, rep.rhs.stderr)
                         + 5.0 * cfg.step)
            worst_z = max(worst_z, abs(rep.z))
            all_ok = all_ok and gap <= allowance
    elapsed = perf_counter() - start
    ok = all_ok and elapsed < 180.0
    _report(6, "flat-side vs group-side expectations", ok,
            f"max|z|={worst_z:.2f}", elapsed)
    assert all_ok
    assert elapsed < 180.0


def test_criterion_7_empirical_radial_density():
    start = perf_counter()
    g = make_group("su2")
    cfg = SdeConfig(group=g, t=1.0, step=2e-3, paths=200_000, seed=SEED)
    score, rows = empirical_density_table(g, cfg, 12)
    counted = [r for r in rows if math.isfinite(r[4])]
    skipped = [r for r in rows if not math.isfinite(r[4])]
    elapsed = perf_counter() - start
    ok = bool(len(counted) >= 8 and score < 1.0 and elapsed < 120.0)
    _report(7, "histogram vs predicted conjugacy density", ok,
            f"score={score:.3f} over {len(counted)} counted bins", elapsed)
    assert len(counted) >= 8
    for _, _, expected, observed, dev, thr in counted:
        assert dev <= thr
    # bins under the 100-endpoint resolution floor may only hold stray mass
    for _, _, expected, observed, _, _ in skipped:
        assert expected < 100.0
        assert observed <= expected + 4.0 * math.sqrt(expected) + 10.0
    assert score < 1.0
    assert elapsed < 120.0


def test_criterion_8_complex_group_closed_form():
    start = perf_counter()
    g = make_group("su2")
    n = 2 * g.dim
    origin_exact = all(
        float(np.asarray(bend_complex(g, np.zeros(g.rank), t)))
        == (2.0 * math.pi * t) ** (-n / 2)
        for t in (1e-4, 0.5, 1.0, 2.0)
    )
    t = 1e-4
    pts = alcove_points(g, 5) * 0.06
    ratio = np.asarray(bend_complex(g, pts, t)) / flat_heat_kernel(
        np.sum(pts * pts, axis=1), t, n
    )
    gap = float(np.max(np.abs(ratio - 1.0 / np.asarray(j_complex(g, pts)))))
    elapsed = perf_counter() - start
    ok = origin_exact and gap < 1e-4 and elapsed < 1.0
    _report(8, "closed-form kernel on the complexified group", ok,
            f"origin_exact={origin_exact} small_time_gap={gap:.3e}", elapsed)
    assert origin_exact
    assert gap < 1e-4
    assert elapsed < 1.0


def test_su4_meets_criteria_1_3_4():
    # su4 is not hand-listed anywhere: the same tolerances as criteria 1, 3
    # and 4, reached from the generic A_{n-1} root data
    g = make_group("su4")
    pts = alcove_points(g, 20)
    worst1 = worst3 = 0.0
    for t in (0.5, 1.0):
        spectral = np.atleast_1d(spectral_heat_kernel(g, pts, t, True))
        wrapped = np.atleast_1d(wrapped_heat_kernel(g, pts, t))
        worst1 = max(worst1, float(np.max(np.abs(spectral - wrapped))))
        nu = RadialFunction.gaussian(g.dim, t)
        worst3 = max(worst3, wraplap_check(g, nu, auto_cutoff(g, nu, 1e-10)))
    coeff_gap, quad_gap = semigroup_gap(g, 0.5, 0.5, grid_points=32)
    assert worst1 < 1e-8
    assert worst3 < 1e-12
    assert coeff_gap < 1e-12
    assert quad_gap < 1e-6


def test_su4_wrap_bm_check_and_catalog_row(tmp_path):
    out = tmp_path / "su4.csv"
    code = cli.main(["wrap-bm-check", "--group", "su4", "--t", "0.5",
                     "--step", "5e-3", "--paths", "2000", "--seed", str(SEED),
                     "--out", str(out)])
    text = out.read_text()
    assert code == 0 and "# pass=true" in text
    out = tmp_path / "catalog.csv"
    assert cli.main(["catalog", "--group", "su4", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("su4,3,15,6,24,false,2.5,")


def _determinism_runs():
    runs = []
    for name in ("torus1", "torus2", "su2", "so3", "su2xsu2"):
        for t in ("0.1", "0.5", "1.0", "2.0"):
            runs.append(["poisson-check", "--group", name, "--t", t])
    runs.append(["wrap", "--group", "su2", "--mixture", "0.6:0.5,0.4:0.8"])
    runs.append(["wrap", "--group", "su3", "--mixture", "1:0.6"])
    for name in ALL_GROUPS:
        for t in ("0.5", "1.0"):
            runs.append(["wraplap-check", "--group", name, "--t", t])
    for t, s in (("0.5", "0.5"), ("0.3", "0.7")):
        runs.append(["semigroup-check", "--group", "su2", "--t", t, "--s", s])
    runs.append(["semigroup-check", "--group", "so3", "--t", "0.5", "--s", "0.5"])
    runs.append(["wrap-bm-check", "--group", "su2", "--t", "1.0",
                 "--step", "1e-3", "--paths", "100000", "--seed", str(SEED)])
    for name in ("torus1", "su2", "so3"):
        for t in ("0.5", "1.0"):
            runs.append(["wrap-bm-check", "--group", name, "--t", t,
                         "--step", "5e-3", "--paths", "100000",
                         "--seed", str(SEED)])
    # the product layout, the su<n> matrix engine and the one-step torus
    # endpoint, in two chunks each
    for name, paths, chunk in (("su2xsu2", "10000", "5000"), ("su3", "2000", "1000"),
                               ("torus2", "40000", "20000")):
        runs.append(["wrap-bm-check", "--group", name, "--t", "0.5",
                     "--step", "5e-3", "--paths", paths, "--chunk", chunk,
                     "--seed", str(SEED)])
    runs.append(["simulate", "--group", "su2", "--t", "1.0",
                 "--step", "2e-3", "--paths", "200000",
                 "--seed", str(SEED), "--bins", "12"])
    runs.append(["bend", "--group", "su2", "--t", "1e-4",
                 "--scale", "0.06", "--grid", "5"])
    return runs


def test_criterion_9_byte_identical_across_thread_counts(tmp_path):
    start = perf_counter()
    runs = _determinism_runs()
    identical = 0
    for i, argv in enumerate(runs):
        one = tmp_path / f"run{i}_threads1.csv"
        four = tmp_path / f"run{i}_threads4.csv"
        code1 = cli.main([*argv, "--threads", "1", "--out", str(one)])
        code4 = cli.main([*argv, "--threads", "4", "--out", str(four)])
        assert code1 == 0, f"run {argv} failed under --threads 1"
        assert code4 == 0, f"run {argv} failed under --threads 4"
        assert one.read_bytes() == four.read_bytes(), f"run {argv} diverged"
        identical += 1
    elapsed = perf_counter() - start
    ok = identical == len(runs)
    _report(9, "reports invariant under worker count", ok,
            f"{identical}/{len(runs)} command runs byte-identical", elapsed)
    assert identical == len(runs)
