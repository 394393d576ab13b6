"""Radial profiles, the two transport routes, and their cross-checks.

The circle case has a brute-force oracle written out below (plain phase
sums and shifted Gaussian sums with local literals); everything else is
checked through identities that hold in exact arithmetic.
"""

import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wrapkit
from wrapkit import (
    ContractError,
    DomainError,
    InstabilityError,
    RadialFunction,
    ResourceLimitError,
    SingularityError,
    alcove_points,
    auto_cutoff,
    convolve_central,
    fourier_coefficients,
    j_compact,
    laplacian_spectral,
    make_group,
    spectral_heat_kernel,
    wall_distance,
    weight,
    wrap_lattice,
    wrap_spectral,
    wraplap_check,
    wrapped_heat_kernel,
    wrapping_formula_check,
)
from wrapkit.wrapping import _ring_width, _tail_radius

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# radial functions
# ---------------------------------------------------------------------------

def test_gaussian_profile_and_transform():
    nu = RadialFunction.gaussian(3, 0.5)
    x = np.array([[0.3, -0.1, 0.2]])
    r2 = float(np.sum(x * x))
    assert_allclose(nu(x)[0], (TWO_PI * 0.5) ** -1.5 * math.exp(-r2), rtol=1e-14)
    assert_allclose(float(nu.fourier(np.array([2.0]))[0]), math.exp(-0.5),
                    rtol=1e-14)
    with pytest.raises(DomainError):
        RadialFunction.gaussian(3, 0.0)
    with pytest.raises(DomainError):
        RadialFunction.mixture(2, [])
    with pytest.raises(DomainError):
        RadialFunction.mixture(2, [(1.0, -0.3)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussians_refuse_a_non_finite_variance_or_weight(bad):
    with pytest.raises(DomainError, match="positive and finite"):
        RadialFunction.gaussian(3, bad)
    for pairs in ([(1.0, bad)], [(bad, 0.5)], [(0.6, 0.5), (0.4, bad)]):
        with pytest.raises(DomainError, match="weights must be finite"):
            RadialFunction.mixture(3, pairs)


def assert_fourier_pair(f):
    """nu_hat(q) must match the Hankel-transform quadrature
    (2 pi)^{d/2} q^{1-d/2} * int_0^inf profile(r^2) J_{d/2-1}(q r) r^{d/2} dr
    at two probe frequencies, to 1e-6 relative."""
    from scipy.integrate import quad
    from scipy.special import jv

    d = f.dim
    amp, var = f.decay
    r_max = math.sqrt(max(2 * var * math.log(max(amp, 1.0) / 1e-16 + 10.0), 9.0)) + 8.0
    order = d / 2 - 1
    for q in (0.8, 1.7):
        val, _ = quad(
            lambda r: float(f.profile(np.array([r * r]))[0]) * jv(order, q * r) * r ** (d / 2),
            0.0, r_max, limit=400, epsabs=1e-12, epsrel=1e-10,
        )
        direct = TWO_PI ** (d / 2) * q ** (1 - d / 2) * val
        expected = float(np.asarray(f.fourier(np.array([q * q])))[0])
        assert abs(direct - expected) <= 1e-6 * max(abs(expected), 1e-8), (d, q, direct, expected)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 8, 16])
def test_closed_forms_pass_the_fourier_pair_check(d):
    # profile and transform are separate closed forms; a quadrature ties them
    forms = [RadialFunction.gaussian(d, 0.05), RadialFunction.gaussian(d, 2.5),
             RadialFunction.mixture(d, [(0.6, 0.3), (0.4, 1.7)]),
             RadialFunction.mixture(d, [(1.5, 0.1), (-0.5, 0.9)])]
    forms.append(forms[2].convolve(forms[3]))
    forms += [f.laplacian() for f in list(forms)]
    for f in forms:
        assert_fourier_pair(f)


def test_closed_forms_and_cli_never_import_scipy():
    # scipy is a test dependency only: no route of the package loads it
    script = (
        "import os, sys, numpy as np, wrapkit, wrapkit.cli\n"
        "assert wrapkit.cli.main(['catalog', '--out', os.devnull]) == 0\n"
        "g = wrapkit.make_group('su2')\n"
        "nu = wrapkit.RadialFunction.gaussian(3, 0.5)\n"
        "nu.laplacian()\n"
        "wrapkit.wrap_lattice(g, nu, [1.0])\n"
        "wrapkit.auto_cutoff(g, nu, 1e-10)\n"
        "assert wrapkit.auto_kernel(g, [1.0], 0.1)[1] == 'wrapped'\n"
        "assert wrapkit.auto_kernel(g, [1.0], 0.5)[1] == 'spectral'\n"
        "wrapkit.fourier_coefficients(g, lambda H: np.ones(len(H)), 2.25)\n"
        "cfg = wrapkit.SdeConfig(group=g, t=0.1, step=0.01, paths=200, seed=1)\n"
        "wrapkit.mc_expect_central(lambda H: np.ones(len(H)), cfg)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    src = str(Path(wrapkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mixture_convolution_adds_variances():
    a = RadialFunction.gaussian(3, 0.4)
    b = RadialFunction.gaussian(3, 0.6)
    conv = a.convolve(b)
    assert conv.components == ((1.0, 1.0),)
    x = np.array([[0.5, 0.0, 0.1]])
    assert_allclose(conv(x), RadialFunction.gaussian(3, 1.0)(x), rtol=1e-14)
    with pytest.raises(DomainError):
        a.convolve(RadialFunction.gaussian(2, 0.4))


def test_laplacian_against_finite_differences():
    nu = RadialFunction.mixture(3, [(0.7, 0.5), (0.3, 1.2)])
    lap = nu.laplacian()
    x0 = np.array([0.4, -0.2, 0.7])
    h = 1e-4
    num = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        num += (nu(x0 + e)[0] - 2 * nu(x0)[0] + nu(x0 - e)[0]) / h**2
    assert_allclose(lap(x0[None, :])[0], num, rtol=1e-6)
    # transform side: multiplication by -||xi||^2
    q2 = np.array([0.9, 3.3])
    assert_allclose(lap.fourier(q2), -q2 * nu.fourier(q2), rtol=1e-14)


def test_laplacian_needs_mixture_form():
    lap = RadialFunction.gaussian(2, 1.0).laplacian()
    with pytest.raises(ContractError, match="mixture"):
        lap.laplacian()
    with pytest.raises(ContractError, match="mixture"):
        lap.convolve(RadialFunction.gaussian(2, 1.0))


# ---------------------------------------------------------------------------
# circle oracle: both routes by brute force
# ---------------------------------------------------------------------------

def circle_spectral(t, theta, m_max=40):
    total = 1.0
    for m in range(1, m_max + 1):
        total += 2.0 * math.exp(-m * m * t / 2.0) * math.cos(m * theta)
    return total


def circle_wrapped(t, theta, n_max=40):
    total = 0.0
    for n in range(-n_max, n_max + 1):
        total += math.exp(-((theta + TWO_PI * n) ** 2) / (2 * t))
    return TWO_PI * (TWO_PI * t) ** -0.5 * total


def test_circle_routes_against_brute_force():
    t1 = make_group("torus1")
    nu = RadialFunction.gaussian(1, 0.5)
    f = wrap_spectral(t1, nu, auto_cutoff(t1, nu, 1e-12))
    for theta in (0.0, 0.7, -2.9):
        oracle = circle_spectral(0.5, theta)
        assert_allclose(f.evaluate(np.array([theta])), oracle, rtol=1e-12)
        assert_allclose(wrap_lattice(t1, nu, [theta]),
                        circle_wrapped(0.5, theta), rtol=1e-12)
    # frozen spot values, t = 0.5, theta = 0.7
    assert_allclose(f.evaluate(np.array([0.7])), 2.1717040230771611, rtol=1e-14)
    assert_allclose(wrap_lattice(t1, nu, [0.7]), 2.1717040230771603, rtol=1e-14)


def test_wrap_spectral_su2_coefficients_closed_form():
    su2 = make_group("su2")
    t = 0.8
    f = wrap_spectral(su2, RadialFunction.gaussian(3, t), 9.0)
    for w, c in f.coeffs.items():
        k = w.coords[0]
        assert_allclose(c, (k + 1) * math.exp(-((k + 1) / 2.0) ** 2 * t / 2.0),
                        rtol=1e-14)


def test_wrap_spectral_dimension_mismatch():
    with pytest.raises(DomainError, match="R\\^3"):
        wrap_spectral(make_group("su2"), RadialFunction.gaussian(1, 0.5), 4.0)
    with pytest.raises(DomainError):
        wrap_lattice(make_group("su2"), RadialFunction.gaussian(1, 0.5), [0.4])


# ---------------------------------------------------------------------------
# the identity checks
# ---------------------------------------------------------------------------

GROUPS = ("torus1", "torus2", "su2", "so3", "su2xsu2", "su3")


@pytest.mark.parametrize("name", GROUPS)
def test_poisson_gap_small(name):
    g = make_group(name)
    pts = alcove_points(g, 6)
    spectral = np.atleast_1d(spectral_heat_kernel(g, pts, 0.5))
    wrapped = np.atleast_1d(wrapped_heat_kernel(g, pts, 0.5))
    assert np.max(np.abs(spectral - wrapped)) < 1e-10


def test_wraplap_identity():
    for name in ("torus1", "su2", "su3"):
        g = make_group(name)
        nu = RadialFunction.mixture(g.dim, [(0.6, 0.5), (0.4, 1.1)])
        assert wraplap_check(g, nu, 8.0) < 1e-12


def test_wrapping_formula_su2():
    su2 = make_group("su2")
    nu1 = RadialFunction.gaussian(3, 0.6)
    nu2 = RadialFunction.mixture(3, [(0.5, 0.5), (0.5, 0.9)])
    cutoff = max(auto_cutoff(su2, nu1, 1e-9), auto_cutoff(su2, nu2, 1e-9))
    coeff_gap, quad_gap = wrapping_formula_check(su2, nu1, nu2, cutoff)
    assert coeff_gap < 1e-12
    assert quad_gap < 1e-6


def test_convolution_coefficients_divide_by_dimension():
    su2 = make_group("su2")
    w1 = weight(su2, (1,))
    from wrapkit import CentralFunction
    a = CentralFunction(su2, {w1: 3.0}, 4.0)
    b = CentralFunction(su2, {w1: 5.0}, 4.0)
    conv = convolve_central(a, b)
    assert_allclose(conv.coeffs[w1], 3.0 * 5.0 / 2.0, rtol=1e-15)
    with pytest.raises(DomainError, match="mismatch"):
        convolve_central(a, CentralFunction(make_group("so3"),
                                            {weight(make_group("so3"), (1,)): 1.0},
                                            4.0))


def test_laplacian_spectral_multipliers():
    su2 = make_group("su2")
    w1 = weight(su2, (1,))
    from wrapkit import CentralFunction
    f = CentralFunction(su2, {w1: 2.0}, 4.0)
    shifted = laplacian_spectral(f)
    assert_allclose(shifted.coeffs[w1], -2.0 * 1.0, rtol=1e-15)   # ||l+r||^2 = 1


# ---------------------------------------------------------------------------
# quadrature extraction
# ---------------------------------------------------------------------------

def test_fourier_coefficients_round_trip():
    from wrapkit import CentralFunction, enumerate_weights
    for name in ("su2", "so3", "su3"):
        g = make_group(name)
        ws = enumerate_weights(g, 6.0)
        # norm-dependent coefficients stay symmetric under conjugation, so
        # the combination is real-valued and evaluate() accepts it
        coeffs = {w: 0.3 + 0.1 * w.lambda_plus_rho_norm_sq for w in ws}
        f = CentralFunction(g, coeffs, 6.0)
        back = fourier_coefficients(g, f, 6.0)
        for w, c in coeffs.items():
            assert_allclose(back.coeffs[w], c, rtol=1e-11, atol=1e-12)


def test_so3_quadrature_grid_is_odd():
    # so3 frequencies w(lambda + rho) are half-integral against the dual of
    # gamma_basis; the rho-shifted ones are integral and the grid rounds up
    # (the grid size is the expression fourier_coefficients computes)
    from wrapkit.groups import _frequencies, enumerate_weights
    so3 = make_group("so3")
    for cutoff, need in ((0.3, 3), (5.0, 5), (37.3, 13), (615.0, 51)):
        got = 2 * _frequencies(so3, enumerate_weights(so3, cutoff))[1] + 1
        assert isinstance(got, int) and got % 2 == 1
        assert got == need


def test_fourier_coefficients_callable_contract():
    su2 = make_group("su2")
    f = fourier_coefficients(su2, lambda H: np.ones(len(H)), 2.25)
    # constant function: trivial coefficient 1, first character 0
    assert_allclose(f.coeffs[weight(su2, (0,))], 1.0, atol=1e-13)
    assert_allclose(f.coeffs[weight(su2, (1,))], 0.0, atol=1e-13)
    with pytest.raises(DomainError, match="shape"):
        fourier_coefficients(su2, lambda H: np.ones((len(H), 2)), 2.25)


# ---------------------------------------------------------------------------
# failure modes of the lattice route
# ---------------------------------------------------------------------------

def test_wrap_lattice_singular_point():
    su2 = make_group("su2")
    with pytest.raises(SingularityError, match="singular"):
        wrap_lattice(su2, RadialFunction.gaussian(3, 0.5), [TWO_PI])


def test_wrap_lattice_rejects_lying_decay_bound():
    # profile has variance 30 but the declared bound promises variance 2, so
    # the truncation radius leaves real mass in the outermost ring; the ring
    # check must trip instead of returning a silently truncated sum
    d = 3
    liar = RadialFunction.gaussian(d, 30.0)
    liar.decay = ((TWO_PI * 30.0) ** (-d / 2), 2.0)
    with pytest.raises(InstabilityError, match="ring"):
        wrap_lattice(make_group("su2"), liar, [3.0])


def test_wrap_lattice_rejects_a_nan_ring():
    # a NaN ring mass compares false against tol/5: the check fails closed
    nan = RadialFunction.gaussian(3, 0.5)
    nan.profile = lambda r2: np.full_like(np.asarray(r2, float), np.nan)
    with pytest.raises(InstabilityError, match="ring"):
        wrap_lattice(make_group("su2"), nan, [1.0])


def test_wrap_lattice_input_validation():
    su2 = make_group("su2")
    nu = RadialFunction.gaussian(3, 0.5)
    with pytest.raises(DomainError):
        wrap_lattice(su2, nu, [0.4, 0.5])
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            wrap_lattice(su2, nu, [0.4], tol=tol)
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            auto_cutoff(su2, nu, tol)


def test_auto_cutoff_tightens_with_tolerance():
    su2 = make_group("su2")
    nu = RadialFunction.gaussian(3, 0.5)
    loose = auto_cutoff(su2, nu, 1e-6)
    tight = auto_cutoff(su2, nu, 1e-12)
    assert tight >= loose
    # the tail actually left out is below the requested tolerance
    f_lo = wrap_spectral(su2, nu, tight)
    f_hi = wrap_spectral(su2, nu, 2.0 * tight)
    pts = alcove_points(su2, 8)
    assert np.max(np.abs(f_lo.evaluate(pts) - f_hi.evaluate(pts))) < 1e-12


def test_auto_cutoff_enumerates_no_weights(monkeypatch):
    def refuse(*args):
        raise AssertionError("auto_cutoff enumerated weights")

    monkeypatch.setattr(wrapkit.wrapping, "enumerate_weights", refuse)
    for name in ("torus2", "su2", "so3", "su2xsu2", "su3", "su4"):
        g = make_group(name)
        assert auto_cutoff(g, RadialFunction.gaussian(g.dim, 0.1), 1e-10) > g.rho_norm_sq


# ---------------------------------------------------------------------------
# one lattice scan per batch
# ---------------------------------------------------------------------------

def per_point_lattice_sum(g, nu, H, tol=1e-10):
    """The lattice route one point at a time, as it ran before batching: the
    point's own radius, its own integer box sorted by (distance, integer
    coordinates), then j, the profile and one np.sum over its terms."""
    center = np.asarray(H, dtype=float)
    amp, var = nu.decay
    wd = max(float(wall_distance(g, center)), 1e-12)
    target = tol / 10.0 * (2.0 * wd) ** g.n_positive_roots / (g.volume * amp)
    radius = _tail_radius(g, "gamma_basis", g.n_positive_roots, var, target) + _ring_width(g)
    reach = radius + float(np.linalg.norm(center))
    stretch = np.linalg.norm(np.linalg.inv(g.gamma_basis).T, axis=1)
    bound = [math.ceil(reach * float(c)) + 1 for c in stretch]
    k = np.indices([2 * b + 1 for b in bound], dtype=np.int64).reshape(g.rank, -1).T - bound
    gams = k @ g.gamma_basis
    d2 = np.sum((center + gams) ** 2, axis=1)
    keep = np.flatnonzero(d2 <= radius * radius + 1e-12)
    pts = center[None, :] + gams[keep[np.lexsort((*k[keep].T[::-1], d2[keep]))]]
    terms = nu.profile(np.sum(pts * pts, axis=1)) / j_compact(g, pts)
    return g.volume * float(np.sum(terms))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("t", [0.05, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("name", GROUPS)
def test_batched_lattice_sum_keeps_the_per_point_bits(name, t):
    g = make_group(name)
    nu = RadialFunction.gaussian(g.dim, t)
    for n in (20, 200):
        pts = alcove_points(g, n)
        reference = [per_point_lattice_sum(g, nu, p) for p in pts]
        assert same_bits(wrapped_heat_kernel(g, pts, t), reference)


@pytest.mark.parametrize("name", ["su2", "su3"])
def test_batched_lattice_sum_of_a_laplacian_keeps_the_per_point_bits(name):
    g = make_group(name)
    nu = RadialFunction.gaussian(g.dim, 0.4).laplacian()
    for n in (20, 200):
        pts = alcove_points(g, n)
        assert same_bits(wrap_lattice(g, nu, pts), [per_point_lattice_sum(g, nu, p) for p in pts])


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_a_batch_raises_what_its_first_failing_point_raises():
    su2 = make_group("su2")
    nu = RadialFunction.gaussian(3, 0.5)
    # a singular point after regular ones names the gamma it names alone
    alone = raised(lambda: wrap_lattice(su2, nu, [TWO_PI]))
    assert alone[0] is SingularityError
    assert raised(lambda: wrap_lattice(su2, nu, [[1.0], [2.0], [TWO_PI], [3.0]])) == alone
    # the lying decay bound fails at every point, each with its own ring mass
    liar = RadialFunction.gaussian(3, 30.0)
    liar.decay = ((TWO_PI * 30.0) ** (-1.5), 2.0)
    alone = raised(lambda: wrap_lattice(su2, liar, [3.0]))
    assert alone[0] is InstabilityError
    assert raised(lambda: wrap_lattice(su2, liar, [[3.0], [1.0], [2.0]])) == alone
    # a ring failure before a singular point wins, as it did point by point
    assert raised(lambda: wrap_lattice(su2, liar, [[3.0], [TWO_PI]])) == alone
    # the last point alone needs a box over LATTICE_CAP
    t2 = make_group("torus2")
    flat = RadialFunction.gaussian(2, 0.5)
    alone = raised(lambda: wrap_lattice(t2, flat, [1e5, 0.0]))
    assert alone[0] is ResourceLimitError
    assert raised(lambda: wrap_lattice(t2, flat, [[0.1, 0.2], [0.3, 0.4], [1e5, 0.0]])) == alone


def test_an_empty_batch_gives_an_empty_array():
    for name in GROUPS:
        g = make_group(name)
        empty = np.zeros((0, g.rank))
        assert wrap_lattice(g, RadialFunction.gaussian(g.dim, 0.5), empty).shape == (0,)
        assert wrapped_heat_kernel(g, empty, 0.5).shape == (0,)


def test_wrapped_heat_kernel_builds_one_box_per_call(monkeypatch):
    built = []
    scan_bound = wrapkit.groups._scan_bound
    monkeypatch.setattr(wrapkit.groups, "_scan_bound",
                        lambda g, basis, *rest: built.append(basis) or scan_bound(g, basis, *rest))
    for name in GROUPS:
        g = make_group(name)
        pts = alcove_points(g, 20)
        built.clear()
        wrapped_heat_kernel(g, pts, 0.1)
        assert built == ["gamma_basis"]
    # and no loop or comprehension over the points comes back
    tree = ast.parse(inspect.getsource(wrapkit.heat.wrapped_heat_kernel))
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [node for node in ast.walk(tree) if isinstance(node, loops)]
