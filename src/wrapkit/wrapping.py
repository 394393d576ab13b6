"""Transport of radial functions from the Lie algebra to central functions
on the group, in two independently computable forms.

The spectral form expands the transported function in irreducible characters
with coefficients d_lambda * nu_hat(lambda + rho), evaluated by
``groups.CharacterTable``, whose spectrum ``fourier_coefficients`` also reads
for its inverse FFT.  The geodesic form sums
nu / j over the translates of a torus point by the exponential kernel
lattice and scales by the Riemannian group volume.  For a Gaussian these are
the two sides of the Poisson summation identity on the group, and the
package's main analytic cross-checks compare them.

Conventions used throughout (fixed once, here and in the README):

* flat Fourier transform nu_hat(xi) = integral nu(x) e^{-i<xi, x>} dx, so
  the Gaussian of variance t has nu_hat(xi) = e^{-||xi||^2 t / 2};
* Haar measure on the group normalized to total mass 1; the geodesic sum
  natively produces a density for the Riemannian volume measure, hence the
  group-volume factor in wrap_lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    InstabilityError,
    ResolutionError,
    SingularityError,
)
from .groups import (
    CharacterTable,
    GroupSpec,
    Weight,
    alcove_points,
    as_real_checked,
    TWO_PI,
    _SINGULAR_SIN,
    _as_points,
    _frequencies,
    cell_grid,
    enumerate_weights,
    j_compact,
    lattice_points,
    wall_distance,
    weyl_denominator,
)

_J_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# radial functions on the algebra
# ---------------------------------------------------------------------------

class RadialFunction:
    """A rotation-invariant function on R^dim with Gaussian-type decay.

    The evaluation contract maps ||x||^2 to nu(x); the optional Fourier
    contract maps ||xi||^2 to nu_hat(xi).  ``decay = (amp, var)`` bounds
    |nu(x)| <= amp * e^{-||x||^2/(2 var)} and drives truncation radii;
    ``fourier_decay`` plays the same role on the transform side.

    A Fourier contract passed to the constructor is always spot-checked
    against the evaluation contract by a direct Hankel-transform quadrature
    (an independent route through scipy.integrate.quad, imported only then),
    so a mismatched pair fails fast.  The closed forms built here (mixtures,
    hence Gaussians and convolutions, and their Laplacians) carry transforms
    that are exact by construction; they skip the quadrature, and the test
    suite checks each of them against it instead.
    """

    def __init__(
        self,
        dim: int,
        profile,
        fourier=None,
        decay=None,
        fourier_decay=None,
        components=None,
        label: str = "radial",
    ):
        if dim < 1:
            raise DomainError("dim must be a positive integer")
        self.dim = int(dim)
        self.profile = profile
        self.fourier = fourier
        self.decay = decay
        self.fourier_decay = fourier_decay
        self.components = tuple(components) if components is not None else None
        self.label = label
        if self.fourier is not None:
            self._check_fourier_pair()

    # -- constructors -------------------------------------------------------

    @classmethod
    def _closed_form(cls, fourier, **kwargs) -> "RadialFunction":
        """Attach a transform that is exact by construction, unchecked."""
        out = cls(**kwargs)
        out.fourier = fourier
        return out

    @classmethod
    def gaussian(cls, dim: int, t: float) -> "RadialFunction":
        """The heat-kernel Gaussian (2 pi t)^{-dim/2} e^{-||x||^2/2t}."""
        if t <= 0:
            raise DomainError("variance parameter t must be positive")
        return cls.mixture(dim, [(1.0, float(t))], label=f"gauss(t={t:g})")

    @classmethod
    def mixture(cls, dim: int, pairs, label: str | None = None) -> "RadialFunction":
        """Weighted Gaussian mixture sum_i w_i * p_{s_i}."""
        pairs = [(float(w), float(s)) for (w, s) in pairs]
        if not pairs:
            raise DomainError("mixture needs at least one (weight, variance) pair")
        for _, s in pairs:
            if s <= 0:
                raise DomainError("mixture variances must be positive")
        d = int(dim)

        def profile(r2):
            r2 = np.asarray(r2, dtype=float)
            out = np.zeros_like(r2)
            for w, s in pairs:
                out = out + w * (TWO_PI * s) ** (-d / 2) * np.exp(-r2 / (2 * s))
            return out

        def fourier(q2):
            q2 = np.asarray(q2, dtype=float)
            out = np.zeros_like(q2)
            for w, s in pairs:
                out = out + w * np.exp(-q2 * s / 2)
            return out

        amp = sum(abs(w) * (TWO_PI * s) ** (-d / 2) for w, s in pairs)
        famp = sum(abs(w) for w, s in pairs)
        return cls._closed_form(
            dim=d,
            profile=profile,
            fourier=fourier,
            decay=(amp, max(s for _, s in pairs)),
            fourier_decay=(famp, min(s for _, s in pairs)),
            components=pairs,
            label=label or "mixture(" + ",".join(f"{w:g}:{s:g}" for w, s in pairs) + ")",
        )

    # -- mixture algebra ----------------------------------------------------

    def _require_components(self, op: str):
        if self.components is None:
            raise ContractError(f"{op} needs an explicit Gaussian-mixture form")
        return self.components

    def convolve(self, other: "RadialFunction") -> "RadialFunction":
        """Flat convolution; Gaussian components add variances."""
        a = self._require_components("convolve")
        b = other._require_components("convolve")
        if self.dim != other.dim:
            raise DomainError("convolve needs matching dimensions")
        pairs = [(wa * wb, sa + sb) for wa, sa in a for wb, sb in b]
        return RadialFunction.mixture(self.dim, pairs, label=f"({self.label})*({other.label})")

    def laplacian(self) -> "RadialFunction":
        """Flat Laplacian, with the transform contract -||xi||^2 nu_hat."""
        pairs = self._require_components("laplacian")
        d = self.dim

        def profile(r2):
            r2 = np.asarray(r2, dtype=float)
            out = np.zeros_like(r2)
            for w, s in pairs:
                gauss = (TWO_PI * s) ** (-d / 2) * np.exp(-r2 / (2 * s))
                out = out + w * gauss * (r2 / s**2 - d / s)
            return out

        def fourier(q2):
            q2 = np.asarray(q2, dtype=float)
            out = np.zeros_like(q2)
            for w, s in pairs:
                out = out + w * np.exp(-q2 * s / 2)
            return -q2 * out

        smax = max(s for _, s in pairs)
        amp = sum(
            abs(w) * (TWO_PI * s) ** (-d / 2) * (2 * d / s + 4 / s)
            for w, s in pairs
        )
        famp = sum(abs(w) for w, s in pairs) * (4 * d / min(s for _, s in pairs))
        return RadialFunction._closed_form(
            dim=d,
            profile=profile,
            fourier=fourier,
            decay=(amp, 2 * smax),
            fourier_decay=(famp, min(s for _, s in pairs) / 2),
            components=None,
            label=f"lap({self.label})",
        )

    # -- contracts ----------------------------------------------------------

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.profile(np.sum(x * x, axis=1))

    def _check_fourier_pair(self) -> None:
        """Spot check: nu_hat(q) must match the Hankel-transform quadrature
        (2 pi)^{d/2} q^{1-d/2} * int_0^inf profile(r^2) J_{d/2-1}(q r) r^{d/2} dr
        at two probe frequencies, to 1e-6 relative."""
        from scipy.integrate import quad
        from scipy.special import jv

        d = self.dim
        if self.decay is not None:
            amp, var = self.decay
            r_max = math.sqrt(max(2 * var * math.log(max(amp, 1.0) / 1e-16 + 10.0), 9.0)) + 8.0
        else:
            r_max = 40.0
        order = d / 2 - 1
        for q in (0.8, 1.7):
            val, _ = quad(
                lambda r: float(self.profile(np.array([r * r]))[0])
                * jv(order, q * r)
                * r ** (d / 2),
                0.0,
                r_max,
                limit=400,
                epsabs=1e-12,
                epsrel=1e-10,
            )
            direct = TWO_PI ** (d / 2) * q ** (1 - d / 2) * val
            expected = float(np.asarray(self.fourier(np.array([q * q])))[0])
            if abs(direct - expected) > 1e-6 * max(abs(expected), 1e-8):
                raise ContractError(
                    f"{self.label}: evaluation and transform contracts are not "
                    f"a Fourier pair at |xi|={q} ({direct:.9e} vs {expected:.9e})"
                )


# ---------------------------------------------------------------------------
# central functions on the group
# ---------------------------------------------------------------------------

@dataclass
class CentralFunction:
    """Finite character expansion f = sum c_lambda chi_lambda on one group."""

    group: GroupSpec
    coeffs: dict[Weight, float]
    cutoff: float
    _table: CharacterTable = field(default=None, repr=False, compare=False)

    def _sorted_weights(self) -> list:
        return sorted(self.coeffs, key=lambda w: (w._norm_key, w.coords))

    def table(self) -> CharacterTable:
        """The cached ``CharacterTable`` of this expansion."""
        if self._table is None:
            ws = self._sorted_weights()
            self._table = CharacterTable(self.group, ws, [self.coeffs[w] for w in ws])
        return self._table

    def evaluate(self, H):
        """Pointwise values on torus point(s), synthesised by the
        ``CharacterTable`` at every point (regular, on walls, the origin);
        real by coefficient symmetry, which ``as_real_checked`` enforces
        against the scale sum |c_lambda| d_lambda."""
        vals = self.table().values(H)
        total = as_real_checked(np.atleast_1d(vals), f"central function on {self.group.name}",
                                scale=self.table().scale)
        return float(total[0]) if np.ndim(vals) == 0 else total

    __call__ = evaluate


def _check_same_group(a: CentralFunction, b: CentralFunction, op: str) -> None:
    if a.group.name != b.group.name:
        raise DomainError(f"{op}: group mismatch ({a.group.name} vs {b.group.name})")


def convolve_central(a: CentralFunction, b: CentralFunction) -> CentralFunction:
    """Group convolution in coefficients: c_lambda(a) c_lambda(b) / d_lambda
    on the common support (probability-Haar normalization)."""
    _check_same_group(a, b, "convolve_central")
    coeffs = {}
    for w, ca in a.coeffs.items():
        cb = b.coeffs.get(w)
        if cb is not None:
            coeffs[w] = ca * cb / w.dimension
    return CentralFunction(a.group, coeffs, min(a.cutoff, b.cutoff))


def laplacian_spectral(f: CentralFunction, shifted: bool) -> CentralFunction:
    """Spectral action of the Laplacian: multiply c_lambda by
    -||lambda+rho||^2 (shifted variant) or -(||lambda+rho||^2 - ||rho||^2)
    (plain group Laplacian)."""
    offset = 0.0 if shifted else f.group.rho_norm_sq
    coeffs = {
        w: c * (-(w.lambda_plus_rho_norm_sq - offset)) for w, c in f.coeffs.items()
    }
    return CentralFunction(f.group, coeffs, f.cutoff)


# ---------------------------------------------------------------------------
# the two transport routes
# ---------------------------------------------------------------------------

def wrap_spectral(g: GroupSpec, nu: RadialFunction, cutoff: float) -> CentralFunction:
    """Character expansion of the transported function: coefficients
    d_lambda * nu_hat(lambda + rho) over all weights under the cutoff."""
    if nu.fourier is None:
        raise ContractError("wrap_spectral needs the Fourier-transform contract")
    if nu.dim != g.dim:
        raise DomainError(
            f"radial function lives on R^{nu.dim}, group {g.name} needs R^{g.dim}"
        )
    ws = enumerate_weights(g, cutoff)
    q2 = np.array([w.lambda_plus_rho_norm_sq for w in ws])
    vals = np.asarray(nu.fourier(q2), dtype=float)
    coeffs = {w: w.dimension * float(v) for w, v in zip(ws, vals)}
    return CentralFunction(g, coeffs, float(cutoff))


def auto_cutoff(g: GroupSpec, nu: RadialFunction, tol: float) -> float:
    """Smallest tested cutoff whose spectral tail bound is below tol/10.

    The bound is empirical-geometric: the outermost 15 percent shell of the
    enumerated series is summed with the Fourier decay bound and continued
    as a geometric series; the cutoff grows until that estimate is small.
    """
    if nu.fourier_decay is None:
        raise ContractError("auto_cutoff needs a Fourier-side decay bound")
    famp, fvar = nu.fourier_decay
    K = max(8.0 / fvar, 4.0 * g.rho_norm_sq + 4.0)
    for _ in range(80):
        ws = enumerate_weights(g, K)
        lo = 0.85 * K
        shell = [w for w in ws if w.lambda_plus_rho_norm_sq > lo]
        if shell:
            shell_sum = sum(
                w.dimension**2 * famp * math.exp(-w.lambda_plus_rho_norm_sq * fvar / 2)
                for w in shell
            )
            ratio = math.exp(-0.15 * K * fvar / 2) * 1.2 ** (g.rank + 2 * g.n_positive_roots)
        else:
            shell_sum = famp * (1.0 + K) ** (g.rank + 2 * g.n_positive_roots) * math.exp(
                -K * fvar / 2
            )
            ratio = 0.5
        if ratio < 0.5 and shell_sum / (1.0 - ratio) < tol / 10.0:
            return K
        K *= 1.5
    raise InstabilityError("auto_cutoff failed to converge")


def _lattice_radius(g: GroupSpec, nu: RadialFunction, center: np.ndarray, tol: float) -> float:
    if nu.decay is None:
        raise ContractError("wrap_lattice needs a decay bound on the radial function")
    amp, var = nu.decay
    m = g.n_positive_roots
    wd = max(float(wall_distance(g, center)), 1e-12)
    alpha_scale = 1.0
    for a in g.positive_roots:
        alpha_scale *= max(float(np.linalg.norm(a)) / 2.0, 1.0)
    big = max(amp, 1.0) * g.volume * alpha_scale * 1e3 / (tol * wd**m)
    L = math.log(max(big, 10.0))
    R = math.sqrt(2.0 * var * L)
    for _ in range(3):
        poly = (1.0 + R) ** (g.rank + m)
        L = math.log(max(big * poly, 10.0))
        R = math.sqrt(2.0 * var * L)
    return float(np.linalg.norm(center)) + R + _ring_width(g)


def _ring_width(g: GroupSpec) -> float:
    return 1.25 * float(np.max(np.linalg.norm(g.gamma_basis, axis=1)))


def wrap_lattice(g: GroupSpec, nu: RadialFunction, H, tol: float = 1e-10) -> float:
    """Geodesic form of the transported function at a regular torus point:
    group volume times the lattice sum of nu / j over H + Gamma.

    The truncation radius comes from the decay bound; the outermost ring of
    included terms is checked to be below tol/5 so a mis-declared bound
    cannot pass silently.  A translate with |j| <= 1e-12 (a conjugate-point
    wall) raises SingularityError naming the offending lattice vector.
    """
    if nu.dim != g.dim:
        raise DomainError(
            f"radial function lives on R^{nu.dim}, group {g.name} needs R^{g.dim}"
        )
    if tol <= 0:
        raise DomainError("tol must be positive")
    center = np.asarray(H, dtype=float)
    if center.shape != (g.rank,):
        raise DomainError(f"{g.name}: torus point needs {g.rank} coordinates")
    radius = _lattice_radius(g, nu, center, tol)
    gams = lattice_points(g, center, radius)
    pts = center[None, :] + gams
    jv_ = j_compact(g, pts)
    small = np.abs(jv_) <= _J_FLOOR
    if np.any(small):
        k = int(np.argmax(small))
        raise SingularityError(
            f"{g.name}: j vanishes at H + gamma for gamma = {gams[k].tolist()} "
            f"(singular torus point)"
        )
    terms = nu.profile(np.sum(pts * pts, axis=1)) / jv_
    dist = np.linalg.norm(pts, axis=1)
    ring = dist > radius - _ring_width(g)
    ring_mass = float(np.sum(np.abs(terms[ring]))) * g.volume
    if ring_mass > tol / 5.0 and len(terms) > len(terms[ring]):
        raise InstabilityError(
            f"{g.name}: lattice truncation ring holds {ring_mass:.3e} > tol/5; "
            f"decay bound too optimistic"
        )
    # fixed enumeration order keeps the reduction bit-stable
    return g.volume * float(np.sum(terms))


# ---------------------------------------------------------------------------
# quadrature analysis
# ---------------------------------------------------------------------------

def required_grid_points(g: GroupSpec, cutoff: float) -> int:
    """Points per dimension needed so the character quadrature below is
    alias-free for functions band-limited by the same cutoff."""
    return 2 * _frequencies(g, enumerate_weights(g, cutoff))[1] + 1


def fourier_coefficients(
    g: GroupSpec,
    f,
    cutoff: float,
    n: int | None = None,
) -> CentralFunction:
    """Character coefficients c_lambda = integral f conj(chi_lambda) dHaar by
    the Weyl integration formula on a uniform grid over the fundamental cell.

    With den = e^{-i<rho, H>} * Weyl denominator, a function on the torus,
    c_lambda is the Weyl-signed mean of the DFT (``fftn``) of f * den at the
    integer frequencies w(lambda + rho) - rho.  For a CentralFunction of the
    same group f * den is the inverse FFT of its ``CharacterTable`` order-0
    spectrum, so nothing is divided by den; realness is checked at regular
    grid points.
    Exact (to rounding) for f band-limited within ``cutoff``; content beyond
    the grid bandwidth aliases as for the trapezoidal rule.  ``n`` below the
    alias-free size raises ResolutionError stating the required count.
    """
    ws = enumerate_weights(g, cutoff)
    if not ws:
        return CentralFunction(g, {}, cutoff)
    idx, band = _frequencies(g, ws)
    need = 2 * band + 1
    n = need if n is None else n
    if n < need:
        raise ResolutionError(
            f"{g.name}: quadrature grid of {n} points per dimension is "
            f"under-resolved for cutoff {cutoff}; needs at least {need}"
        )
    grid = cell_grid(g, n)
    den = weyl_denominator(g, grid) * np.exp(-1j * (grid @ g.rho))
    if isinstance(f, CentralFunction) and f.group is g:
        lo, box = f.table().spectrum(0)
        spectrum = np.zeros((n,) * g.rank, dtype=complex)
        np.add.at(spectrum, np.ix_(*((a + np.arange(m)) % n for a, m in zip(lo, box.shape[1:]))),
                  box[0] + box[1])
        h = np.fft.ifftn(spectrum).ravel() * len(grid)
        reg = wall_distance(g, grid) > _SINGULAR_SIN
        fv = as_real_checked(h[reg] / den[reg], f"central function on {g.name}", f.table().scale)
    else:
        fv = np.asarray(f(grid), dtype=float)
        if fv.shape != (len(grid),):
            raise DomainError("central-function contract returned a bad shape")
        h = fv * den
    spectrum = np.fft.fftn(h.reshape((n,) * g.rank)) / len(grid)
    vals = as_real_checked(
        spectrum[tuple(np.moveaxis(idx % n, -1, 0))] @ g._weyl_signs / g.weyl_order,
        f"fourier_coefficients on {g.name}",
        scale=float(np.max(np.abs(fv))) if len(fv) else 1.0,
    )
    coeffs = {w: float(v) for w, v in zip(ws, vals)}
    return CentralFunction(g, coeffs, float(cutoff))


def _quadrature_gap(g: GroupSpec, f1: CentralFunction, f2: CentralFunction,
                   direct: CentralFunction, cutoff: float, grid_points: int) -> float:
    """Max gap over alcove points between ``direct`` and f1 * f2 convolved
    after both are re-extracted by quadrature from the cell grid."""
    via_quad = convolve_central(fourier_coefficients(g, f1, cutoff),
                                fourier_coefficients(g, f2, cutoff))
    pts = alcove_points(g, grid_points)
    return float(np.max(np.abs(via_quad.evaluate(pts) - direct.evaluate(pts))))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def wraplap_check(g: GroupSpec, nu: RadialFunction, cutoff: float) -> float:
    """Coefficient gap between transporting the flat Laplacian of nu and
    applying the shifted spectral Laplacian after transport; zero in exact
    arithmetic for every radial nu."""
    lhs = wrap_spectral(g, nu.laplacian(), cutoff)
    rhs = laplacian_spectral(wrap_spectral(g, nu, cutoff), shifted=True)
    gap = 0.0
    for w, c in lhs.coeffs.items():
        gap = max(gap, abs(c - rhs.coeffs[w]))
    return gap


def poisson_gap(g: GroupSpec, nu: RadialFunction, grid, tol: float = 1e-10) -> float:
    """Max over torus points of |geodesic form - spectral form|."""
    pts, _ = _as_points(g, np.asarray(grid, dtype=float))
    f = wrap_spectral(g, nu, auto_cutoff(g, nu, tol))
    spectral = np.atleast_1d(f.evaluate(pts))
    worst = 0.0
    for k, H in enumerate(pts):
        lat = wrap_lattice(g, nu, H, tol)
        worst = max(worst, abs(lat - spectral[k]))
    return worst


def wrapping_formula_check(
    g: GroupSpec,
    nu1: RadialFunction,
    nu2: RadialFunction,
    cutoff: float,
    grid_points: int = 32,
) -> tuple[float, float]:
    """Convolution identity for the transport, two ways.

    Returns ``(coeff_rel_gap, quad_gap)``: the relative coefficient gap
    between transporting the flat convolution nu1 * nu2 and convolving the
    two transports on the group, and the pointwise gap when both factor
    expansions are re-extracted by quadrature before convolving (the
    independent route through the grid, see ``_quadrature_gap``)."""
    f1, f2 = wrap_spectral(g, nu1, cutoff), wrap_spectral(g, nu2, cutoff)
    direct = wrap_spectral(g, nu1.convolve(nu2), cutoff)
    spectral = convolve_central(f1, f2)
    coeff_gap = 0.0
    for w, c in direct.coeffs.items():
        scale = max(abs(c), 1e-300)
        coeff_gap = max(coeff_gap, abs(c - spectral.coeffs[w]) / scale)
    return coeff_gap, _quadrature_gap(g, f1, f2, direct, cutoff, grid_points)
