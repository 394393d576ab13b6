"""Heat kernels by series, by lattice sum, and on the complexified groups."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wrapkit import cli
from wrapkit import (
    CentralFunction,
    DomainError,
    ResourceLimitError,
    alcove_points,
    auto_kernel,
    bend_complex,
    enumerate_weights,
    flat_heat_kernel,
    fourier_coefficients,
    heat_coefficients,
    j_complex,
    make_group,
    preferred_route,
    semigroup_gap,
    spectral_heat_kernel,
    wrapped_heat_kernel,
)

TWO_PI = 2.0 * math.pi

GROUPS = ("torus1", "torus2", "su2", "so3", "su2xsu2", "su3")


# ---------------------------------------------------------------------------
# flat kernel
# ---------------------------------------------------------------------------

def test_flat_heat_kernel_formula():
    t, n = 0.7, 3
    r2 = 1.3
    assert_allclose(flat_heat_kernel(r2, t, n),
                    (TWO_PI * t) ** (-n / 2) * math.exp(-r2 / (2 * t)),
                    rtol=1e-15)
    arr = flat_heat_kernel(np.array([0.0, 1.0]), t, n)
    assert arr.shape == (2,)
    assert_allclose(arr[0], (TWO_PI * t) ** (-n / 2), rtol=1e-15)
    with pytest.raises(DomainError):
        flat_heat_kernel(1.0, 0.0, 3)
    with pytest.raises(DomainError):
        flat_heat_kernel(-1.0, 0.5, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_flat_heat_kernel_refuses_a_non_finite_time(bad):
    with pytest.raises(DomainError, match="t must be positive and finite"):
        flat_heat_kernel(1.0, bad, 3)


# ---------------------------------------------------------------------------
# group kernels
# ---------------------------------------------------------------------------

def test_su2_coefficients_closed_form():
    su2 = make_group("su2")
    f = heat_coefficients(su2, 0.6, shifted=True, tol=1e-10)
    for w, c in f.coeffs.items():
        k = w.coords[0]
        assert_allclose(c, (k + 1) * math.exp(-((k + 1) / 2.0) ** 2 * 0.3),
                        rtol=1e-14)
    plain = heat_coefficients(su2, 0.6, shifted=False, tol=1e-10)
    for w, c in plain.coeffs.items():
        assert_allclose(c, f.coeffs[w] * math.exp(0.25 * 0.3), rtol=1e-14)


@pytest.mark.parametrize("name", GROUPS)
def test_routes_agree(name):
    g = make_group(name)
    pts = alcove_points(g, 10)
    for t in (0.1, 1.0):
        a = spectral_heat_kernel(g, pts, t, True, 1e-10)
        b = wrapped_heat_kernel(g, pts, t, 1e-10)
        assert np.max(np.abs(a - b)) < 1e-10


def test_su4_short_time_routes_agree():
    # the weight scan bounds each axis on its own (k_i <= reach / ||omega_i||):
    # su4 at t = 0.2 scans 114444 candidates, where one box side
    # reach / sigma_min for every axis scanned 512000 and hit the cap
    g = make_group("su4")
    pts = 0.1 * alcove_points(g, 5)
    spectral = np.atleast_1d(spectral_heat_kernel(g, pts, 0.2))
    wrapped = np.atleast_1d(wrapped_heat_kernel(g, pts, 0.2))
    assert np.all(np.abs(spectral - wrapped) <= 1e-10 * np.maximum(1.0, np.abs(wrapped)))


@pytest.mark.parametrize("name, t", [("su4", "0.15"), ("su4", "0.2"), ("su3", "0.05")])
def test_short_time_poisson_check_passes(name, t, tmp_path):
    # f(0) grows like t^(-dim/2), and a synthesis of the weight form rounds to
    # about eps f(0) at every point (1.8e-10 on su4 at t = 0.2); the alcove
    # points are regular, so the Weyl quotient's eps |W| sum c / |Delta(H)| holds
    out = tmp_path / "out.csv"
    assert cli.main(["poisson-check", "--group", name, "--t", t, "--out", str(out)]) == 0
    assert "# pass=true" in out.read_text()


def test_plain_kernel_positive_and_normalized():
    # positivity wherever the truncated series resolves the value above the
    # double-precision noise floor, and unit Haar mass by grid quadrature
    for name in ("torus1", "su2", "so3"):
        g = make_group(name)
        vals = spectral_heat_kernel(g, alcove_points(g, 30), 1.0,
                                    shifted=False, tol=1e-10)
        assert np.all(vals > 0)
        near = alcove_points(g, 30) * 0.6
        vals = spectral_heat_kernel(g, near, 0.3, shifted=False, tol=1e-10)
        assert np.all(vals > 0)
        # cutoff 1600 sets a grid of 81 points (torus1, so3) or 161 (su2)
        coeffs = fourier_coefficients(
            g, lambda H: spectral_heat_kernel(g, H, 0.3, shifted=False, tol=1e-8),
            1600.0).coeffs
        mass = coeffs[g.weight((0,) * g.rank)]
        assert abs(mass - 1.0) < 1e-6


def test_trace_identity_at_origin():
    # kernel at H = 0 equals the dimension-squared series
    for name in GROUPS:
        g = make_group(name)
        t = 0.7
        tr = float(np.asarray(
            spectral_heat_kernel(g, np.zeros(g.rank), t, True, 1e-12)))
        series = sum(w.dimension**2 * math.exp(-w.lambda_plus_rho_norm_sq * t / 2)
                     for w in enumerate_weights(g, 160.0))
        assert_allclose(tr, series, rtol=1e-10)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_su4_kernel_near_the_identity_matches_its_taylor_value(t):
    # f(H) = sum c d - |H|^2 / (2 dim) sum c d (|lambda+rho|^2 - |rho|^2) + R:
    # each weight mu of lambda gives cos(mu(H)) = 1 - mu(H)^2/2 + r with
    # |r| <= mu(H)^4/24 <= |H|^4 |lambda + rho|^4 / 24, and W acts
    # irreducibly on the Cartan of a simple group, so sum_mu m(mu) mu(H)^2 =
    # d C |H|^2 / dim.  Regular points this close to the six walls through
    # the identity are where a Weyl quotient loses every digit.
    g = make_group("su4")
    f = heat_coefficients(g, t)
    c = np.array(list(f.coeffs.values()))
    d = np.array([w.dimension for w in f.coeffs], dtype=float)
    q2 = np.array([w.lambda_plus_rho_norm_sq for w in f.coeffs])
    scale = float(np.abs(c) @ d)
    dirs = np.random.default_rng(11).normal(size=(30, g.rank))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for dist in (1e-3, 2e-3, 4e-3, 1e-2):
        vals = f.evaluate(dist * dirs)
        taylor = c @ d - dist**2 / (2 * g.dim) * (c * d) @ (q2 - g.rho_norm_sq)
        bound = dist**4 / 24 * (np.abs(c) * d) @ q2**2 + 1e-13 * scale
        assert np.all(np.abs(vals - taylor) <= bound)


def test_spectral_small_time_advises_lattice_route():
    with pytest.raises(ResourceLimitError, match="wrapped"):
        spectral_heat_kernel(make_group("su3"), [0.7, 0.3], 1e-4, True, 1e-10)


def test_capped_series_names_the_wrapped_route_for_regular_points():
    # the wrapped route serves regular points only, so the cap message may not
    # send every short-time caller there
    with pytest.raises(ResourceLimitError) as info:
        heat_coefficients(make_group("su4"), 0.1)
    assert "cap 200000" in str(info.value)
    assert "wrapped_heat_kernel, serves regular points" in str(info.value)
    assert "instead" not in str(info.value)


def test_clearing_the_coeffs_view_leaves_the_cached_expansion_alone():
    su2 = make_group("su2")
    pts = np.vstack([alcove_points(su2, 8), np.zeros((1, 1))])
    f = heat_coefficients(su2, 0.37)
    n = len(f.coeffs)
    f.coeffs.clear()
    assert len(f.coeffs) == n > 3
    with pytest.raises(ValueError):
        f.values[0] = 0.0
    assert heat_coefficients(su2, 0.37) is f
    np.testing.assert_array_equal(f.evaluate(pts), spectral_heat_kernel(su2, pts, 0.37))
    np.testing.assert_array_equal(
        f.evaluate(pts), CentralFunction(su2, f.coeffs, f.cutoff).evaluate(pts))


def test_semigroup_property():
    su2 = make_group("su2")
    coeff_gap, quad_gap = semigroup_gap(su2, 0.5, 0.5)
    assert coeff_gap < 1e-12
    assert quad_gap < 1e-6
    t1 = make_group("torus1")
    coeff_gap, quad_gap = semigroup_gap(t1, 0.3, 0.7)
    assert coeff_gap < 1e-12
    assert quad_gap < 1e-10
    with pytest.raises(DomainError):
        semigroup_gap(su2, 0.0, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_entry_points_refuse_a_non_finite_time_or_tolerance(bad):
    su2 = make_group("su2")
    H = np.array([1.0])
    calls = [lambda: heat_coefficients(su2, bad), lambda: heat_coefficients(su2, 0.5, tol=bad),
             lambda: spectral_heat_kernel(su2, H, bad), lambda: wrapped_heat_kernel(su2, H, bad),
             lambda: wrapped_heat_kernel(su2, H, 0.5, tol=bad), lambda: auto_kernel(su2, H, bad),
             lambda: semigroup_gap(su2, bad, 0.5), lambda: semigroup_gap(su2, 0.5, bad),
             lambda: semigroup_gap(su2, 0.5, 0.5, tol=bad)]
    for call in calls:
        with pytest.raises(DomainError, match="positive and finite"):
            call()


def test_preferred_route():
    su2 = make_group("su2")
    assert preferred_route(su2, np.array([1.0]), 0.1) == "wrapped"
    assert preferred_route(su2, np.array([1.0]), 0.5) == "spectral"
    # singular point forces the series even at small time
    assert preferred_route(su2, np.array([0.0]), 0.1) == "spectral"
    # a batch takes the geodesic sum only if every point is regular
    su3 = make_group("su3")
    batch = np.array([[1.0, 1.0], [0.5, 2.0], [2.0, 0.7]])
    assert preferred_route(su3, batch, 0.1) == "wrapped"
    assert preferred_route(su3, np.vstack([batch, [[0.0, 1.5]]]), 0.1) == "spectral"


def test_auto_kernel_matches_both_routes():
    su2 = make_group("su2")
    H = np.array([2.0])
    for t, route in ((0.05, "wrapped"), (1.0, "spectral")):
        vals, used = auto_kernel(su2, H, t)
        assert used == route
        assert_allclose(vals, wrapped_heat_kernel(su2, H, t), rtol=1e-9)


# ---------------------------------------------------------------------------
# complexified side
# ---------------------------------------------------------------------------

def test_j_complex_closed_form():
    g = make_group("su2")
    for theta in (0.4, 1.7, 3.0):
        expect = math.sinh(theta / 2.0) / (theta / 2.0)
        assert_allclose(float(j_complex(g, [theta])), expect, rtol=1e-12)
    assert_allclose(float(j_complex(g, [0.0])), 1.0, rtol=1e-12)
    # tori have no roots, so the factor is identically one
    assert_allclose(float(j_complex(make_group("torus2"), [1.0, -2.0])), 1.0, rtol=1e-15)


def test_j_complex_grows_off_origin():
    su3 = make_group("su3")
    pts = alcove_points(su3, 8) * 0.3
    vals = np.asarray(j_complex(su3, pts))
    assert np.all(vals > 1.0)


def test_bend_complex_at_origin_and_small_time():
    g = make_group("su2")
    n = 6  # real dimension of the complexified su2
    for t in (1e-4, 0.3):
        assert_allclose(bend_complex(g, np.zeros(1), t),
                        (TWO_PI * t) ** (-n / 2), rtol=1e-12)
    # small-time ratio to the flat kernel approaches 1/j_c
    t = 1e-4
    H = np.array([0.25])
    ratio = bend_complex(g, H, t) / flat_heat_kernel(float(H @ H), t, n)
    assert_allclose(ratio, 1.0 / float(j_complex(g, H)), rtol=1e-4)
    with pytest.raises(DomainError):
        bend_complex(g, np.zeros(1), 0.0)


def test_synthesis_memory_stays_small():
    # su3 at t = 0.1 has 2412 weights; a weights x Weyl x points phase tensor
    # on 1000 points peaked at 589 MiB, the frequency-box synthesis at ~2.5 MiB
    su3 = make_group("su3")
    f = heat_coefficients(su3, 0.1)
    pts = alcove_points(su3, 1000)
    cold = CentralFunction(su3, f.coeffs, f.cutoff)    # table built under the trace
    tracemalloc.start()
    try:
        vals = cold.evaluate(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert_allclose(vals, f.evaluate(pts), rtol=0, atol=1e-12 * cold.table().scale)
