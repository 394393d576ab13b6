"""Concrete heat kernels on the catalog groups, evaluable by two independent
routes, plus the closed-form kernel for the complexified groups.

The spectral route sums the character series with coefficients
d_lambda e^{-||lambda+rho||^2 t/2} (shifted variant) or with the exponent
reduced by ||rho||^2 (plain group Laplacian variant, the probability
density of Brownian motion).  The wrapped route sums Gaussians over the
exponential kernel lattice through the wrapping module.  Agreement of the
two is the package's central analytic acceptance check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceLimitError
from .groups import (
    GroupSpec,
    _as_points,
    _sin_over_y,
    is_regular,
    make_group,
)
from .wrapping import (
    CentralFunction,
    RadialFunction,
    auto_cutoff,
    convolve_central,
    _check_positive_finite,
    _quadrature_gap,
    wrap_lattice,
    wrap_spectral,
)


def flat_heat_kernel(x_norm_sq, t: float, n: int):
    """Gaussian heat kernel on R^n: (2 pi t)^{-n/2} e^{-||x||^2 / 2t}.

    Accepts a scalar or an array of squared norms; returns matching shape.
    """
    _check_positive_finite(t=t)
    if n < 1:
        raise DomainError("n must be a positive integer")
    q = np.asarray(x_norm_sq, dtype=float)
    if np.any(q < 0):
        raise DomainError("x_norm_sq must be nonnegative")
    out = (2 * math.pi * t) ** (-n / 2) * np.exp(-q / (2 * t))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=256)
def _heat_coeff_cached(name: str, t: float, shifted: bool, tol: float):
    g = make_group(name)
    nu = RadialFunction.gaussian(g.dim, t)
    try:
        cutoff = auto_cutoff(g, nu, tol)
        base = wrap_spectral(g, nu, cutoff)
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            f"{exc}; at this time scale the wrapped (lattice) evaluator, "
            f"wrapped_heat_kernel, serves regular points"
        ) from exc
    if shifted:
        return base
    lift = math.exp(g.rho_norm_sq * t / 2)
    return CentralFunction._of_rows(g, base.coords, base.values * lift, base.cutoff)


def heat_coefficients(
    g: GroupSpec, t: float, shifted: bool = True, tol: float = 1e-10
) -> CentralFunction:
    """Character expansion of the heat kernel at time t (cached)."""
    _check_positive_finite(t=t, tol=tol)
    return _heat_coeff_cached(g.name, float(t), bool(shifted), float(tol))


def spectral_heat_kernel(g: GroupSpec, H, t: float, shifted: bool = True,
                         tol: float = 1e-10):
    """Heat kernel at torus point(s) H by character-series summation.

    Valid at every H including singular points (the character evaluator
    takes the analytic limit there).  The plain variant is the transition
    density of group Brownian motion; the shifted variant differs by the
    exact factor e^{-||rho||^2 t / 2}.
    """
    return heat_coefficients(g, t, shifted, tol).evaluate(H)


def wrapped_heat_kernel(g: GroupSpec, H, t: float, tol: float = 1e-10):
    """Shifted heat kernel by the geodesic route: the group volume times the
    lattice sum of the dim-G Gaussian over H + Gamma divided by j."""
    _check_positive_finite(t=t, tol=tol)
    return wrap_lattice(g, RadialFunction.gaussian(g.dim, t), H, tol)


def preferred_route(g: GroupSpec, H, t: float) -> str:
    """Which evaluator auto_kernel would trust: the geodesic sum at small
    times on regular points, the character series everywhere else."""
    pts, _ = _as_points(g, H)
    if t < 0.25 and is_regular(g, pts):
        return "wrapped"
    return "spectral"


def auto_kernel(g: GroupSpec, H, t: float, tol: float = 1e-10):
    """Evaluate the shifted kernel choosing the better-conditioned route.

    Small times favor the geodesic sum (few lattice terms, slow character
    series); otherwise, and always at singular points, the spectral series
    is authoritative.  Returns (values, route_name).
    """
    pts, single = _as_points(g, H)
    route = preferred_route(g, pts, t)
    vals = (wrapped_heat_kernel if route == "wrapped" else spectral_heat_kernel)(g, pts, t, tol=tol)
    return (float(vals[0]) if single else vals), route


def semigroup_gap(
    g: GroupSpec,
    t: float,
    s: float,
    grid_points: int = 16,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Two-level check of q_t * q_s = q_{t+s} (group convolution).

    Returns ``(coeff_gap, quad_gap)``: the exact-coefficient gap (the
    exponentials must add), and the max pointwise gap over regular alcove
    points when both factors are re-extracted by quadrature before
    convolving, which exercises the full analysis loop.
    """
    _check_positive_finite(t=t, s=s, tol=tol)
    K = auto_cutoff(g, RadialFunction.gaussian(g.dim, t + s), tol)
    direct = wrap_spectral(g, RadialFunction.gaussian(g.dim, t + s), K)
    f_t = wrap_spectral(g, RadialFunction.gaussian(g.dim, t), K)
    f_s = wrap_spectral(g, RadialFunction.gaussian(g.dim, s), K)
    conv = convolve_central(f_t, f_s)
    coeff_gap = float(np.max(np.abs(direct.values - conv.values), initial=0.0))
    return coeff_gap, _quadrature_gap(g, f_t, f_s, direct, K, grid_points)


# ---------------------------------------------------------------------------
# complexified groups
# ---------------------------------------------------------------------------

def j_complex(g: GroupSpec, H):
    """prod over positive roots of sinh(alpha(H)/2) / (alpha(H)/2) on the
    complexification of g: the analytic square root of det(d exp) along the
    real Cartan directions, where the sin factors of ``j_compact`` continue
    to sinh.  Equals 1 at H = 0 and is >= 1 everywhere."""
    pts, single = _as_points(g, H)
    y = (pts @ g.positive_roots.T) / 2.0
    out = _sin_over_y(y, hyperbolic=True).prod(axis=1)
    return float(out[0]) if single else out


def bend_complex(g: GroupSpec, H, t: float):
    """Closed-form heat kernel on the complexification of g along the
    compact Cartan directions: the flat Gaussian on R^(2 dim), the real
    dimension of the complex group, divided by j_complex."""
    pts, single = _as_points(g, H)
    out = flat_heat_kernel(np.sum(pts * pts, axis=1), t, 2 * g.dim) / j_complex(g, pts)
    return float(out[0]) if single else out
