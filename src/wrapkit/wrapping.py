"""Transport of radial functions from the Lie algebra to central functions
on the group, in two independently computable forms.

The spectral form expands the transported function in irreducible characters
with coefficients d_lambda * nu_hat(lambda + rho), evaluated by
``groups.CharacterTable``, whose weight-form spectrum ``fourier_coefficients``
also reads for its inverse FFT.  The geodesic form sums
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
from functools import lru_cache

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    InstabilityError,
    SingularityError,
)
from .groups import (
    CharacterTable,
    GroupSpec,
    Weight,
    alcove_points,
    as_real_checked,
    TWO_PI,
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
        if not 0 < t < math.inf:  # NaN fails too
            raise DomainError("variance parameter t must be positive and finite")
        return cls.mixture(dim, [(1.0, float(t))], label=f"gauss(t={t:g})")

    @classmethod
    def mixture(cls, dim: int, pairs, label: str | None = None) -> "RadialFunction":
        """Weighted Gaussian mixture sum_i w_i * p_{s_i}."""
        pairs = [(float(w), float(s)) for (w, s) in pairs]
        if not pairs:
            raise DomainError("mixture needs at least one (weight, variance) pair")
        for w, s in pairs:
            if not (math.isfinite(w) and 0 < s < math.inf):
                raise DomainError("mixture weights must be finite, variances positive and finite")
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
            return -np.asarray(q2, dtype=float) * self.fourier(q2)

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


def convolve_central(a: CentralFunction, b: CentralFunction) -> CentralFunction:
    """Group convolution in coefficients: c_lambda(a) c_lambda(b) / d_lambda
    on the common support (probability-Haar normalization)."""
    if a.group.name != b.group.name:
        raise DomainError(f"convolve_central: group mismatch ({a.group.name} vs {b.group.name})")
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
# proved Gaussian-tail truncation
# ---------------------------------------------------------------------------

def _upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) for s in {1/2, 1, 3/2, ...}: sqrt(pi) erfc(sqrt(x)) or e^{-x},
    then upward by Gamma(a + 1, x) = a Gamma(a, x) + x^a e^{-x}."""
    a, out = (0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))) if s % 1 else (1.0, math.exp(-x))
    while a < s:
        out, a = a * out + x**a * math.exp(-x), a + 1.0
    return out


@lru_cache(maxsize=256)
def _tail_bound(g: GroupSpec, basis: str, p: int, sigma: float):
    """(lead, bound): bound(R) = (B, dB/dR), B >= the sum of f(|x|) = |x|^p e^{-|x|^2/(2 sigma)}
    over |x| > R >= sqrt(p sigma) in any shift of the lattice with basis rows getattr(g, basis).
    The cells of the N(r) points within r lie in the ball of radius r + c (c = half the summed
    basis lengths): N(r) <= V_n (r + c)^n / covol, and by parts the sum is at most N(R) f(R) +
    int_R^inf N'(r) f(r) dr, in incomplete gammas; lead(R) = log B + R^2/(2 sigma) without them."""
    b, n = getattr(g, basis), g.rank
    c = 0.5 * float(np.linalg.norm(b, axis=1).sum())
    density = math.pi ** (n / 2) / math.gamma(n / 2 + 1) / abs(float(np.linalg.det(b)))
    terms = [(s, n * math.comb(n - 1, k) * c ** (n - 1 - k) * (2.0 * sigma) ** s / 2.0)
             for k, s in enumerate(j / 2 for j in range(p + 1, p + n + 1))]

    def bound(R):
        x = R * R / (2.0 * sigma)
        edge = (R + c) ** n * R**p * math.exp(-x)
        inner = sum(f * _upper_gamma(s, x) for s, f in terms)
        return density * (edge + inner), density * edge * (p / R - R / sigma)

    return (lambda R: math.log(density) + n * math.log(R + c) + p * math.log(R)), bound


def _tail_radius(g: GroupSpec, basis: str, p: int, sigma: float, target: float) -> float:
    """Smallest R (within 1e-3 in log B) with B <= target: two fixed-point steps on
    lead(R) - R^2/(2 sigma) start below it, then Newton on log B in u = R^2, nearly linear,
    returns the first iterate whose bound holds (at most 5 bounds over the catalog, sigma in
    [0.05, 20] and targets 1e-120 to 1e27; 2 on average)."""
    lead, bound = _tail_bound(g, basis, p, sigma)
    u = low = (p + 1) * sigma
    goal = math.log(target)
    for _ in range(2):
        u = max(low, 2.0 * sigma * (lead(math.sqrt(u)) - goal))
    for _ in range(20):
        R = math.sqrt(u)
        b, slope = bound(R)
        h = math.log(b) - goal
        if h <= 0 and (h >= -1e-3 or u == low):
            return R
        # at u = low Newton's own slope is nearly flat: step by the Gaussian's
        u = max(low, u - (h + 5e-4) / (slope / (2.0 * R * b) if u > low else -0.5 / sigma))
    raise InstabilityError(f"{g.name}: tail-bound radius did not settle")


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
    """Cutoff K, found without enumerating weights, whose proved bound on the
    tail sum |c_lambda| d_lambda over ||lambda + rho||^2 > K is below tol/10:
    that sum is at most famp sum d_lambda^2 e^{-fvar ||lambda + rho||^2 / 2},
    d_lambda <= ||lambda + rho||^m / prod <rho, alpha> (unit roots), and the |W|
    images of lambda + rho lie in rho + (weight lattice) with the same norm."""
    if nu.fourier_decay is None:
        raise ContractError("auto_cutoff needs a Fourier-side decay bound")
    if tol <= 0:
        raise DomainError("tol must be positive")
    famp, fvar = nu.fourier_decay
    target = tol / 10.0 * g.weyl_order * float(np.prod(g.positive_roots @ g.rho)) ** 2 / famp
    return _tail_radius(g, "weight_basis", 2 * g.n_positive_roots, 1.0 / fvar, target) ** 2


def _lattice_radius(g: GroupSpec, nu: RadialFunction, center: np.ndarray, tol: float) -> float:
    """One ring width past the R whose terms beyond hold <= tol/10 of |nu/j| g.volume:
    each is <= amp ||x||^m e^{-||x||^2 / (2 var)} / (2 wall distance)^m, since
    |sin(alpha(H + gamma)/2)| = |sin(alpha(H)/2)| and |alpha(x)/2| <= ||x||/2."""
    if nu.decay is None:
        raise ContractError("wrap_lattice needs a decay bound on the radial function")
    amp, var = nu.decay
    wd = max(float(wall_distance(g, center)), 1e-12)
    target = tol / 10.0 * (2.0 * wd) ** g.n_positive_roots / (g.volume * amp)
    return _tail_radius(g, "gamma_basis", g.n_positive_roots, var, target) + _ring_width(g)


@lru_cache(maxsize=None)
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
    ring = np.linalg.norm(pts, axis=1) > radius - _ring_width(g)
    ring_mass = float(np.sum(np.abs(terms[ring]))) * g.volume
    if not ring_mass <= tol / 5.0 and len(terms) > len(terms[ring]):  # NaN fails too
        raise InstabilityError(
            f"{g.name}: lattice truncation ring holds {ring_mass:.3e} > tol/5; "
            f"decay bound too optimistic"
        )
    # fixed enumeration order keeps the reduction bit-stable
    return g.volume * float(np.sum(terms))


# ---------------------------------------------------------------------------
# quadrature analysis
# ---------------------------------------------------------------------------

def fourier_coefficients(g: GroupSpec, f, cutoff: float) -> CentralFunction:
    """Character coefficients c_lambda = integral f conj(chi_lambda) dHaar by
    the Weyl integration formula on a uniform grid over the fundamental cell.

    With den = e^{-i<rho, H>} * Weyl denominator, a function on the torus,
    c_lambda is the Weyl-signed mean of the DFT (``fftn``) of f * den at the
    integer frequencies w(lambda + rho) - rho.  For a CentralFunction of the
    same group f on the grid is the inverse FFT of its ``CharacterTable``
    weight-form spectrum, checked real at every grid point.
    Exact (to rounding) for f band-limited within ``cutoff``; content beyond
    the grid bandwidth aliases as for the trapezoidal rule.
    """
    ws = enumerate_weights(g, cutoff)
    if not ws:
        return CentralFunction(g, {}, cutoff)
    idx, band = _frequencies(g, ws)
    n = 2 * band + 1  # alias-free for functions band-limited by the cutoff
    grid = cell_grid(g, n)
    den = weyl_denominator(g, grid) * np.exp(-1j * (grid @ g.rho))
    if isinstance(f, CentralFunction) and f.group is g:
        lo, q = f.table().spectrum()
        spectrum = np.zeros((n,) * g.rank)
        np.add.at(spectrum, np.ix_(*((a + np.arange(m)) % n for a, m in zip(lo, q.shape))), q)
        fv = as_real_checked(np.fft.ifftn(spectrum).ravel() * len(grid),
                             f"central function on {g.name}", f.table().scale)
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
    return max((abs(c - rhs.coeffs[w]) for w, c in lhs.coeffs.items()), default=0.0)


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
    coeff_gap = max((abs(c - spectral.coeffs[w]) / max(abs(c), 1e-300)
                     for w, c in direct.coeffs.items()), default=0.0)
    return coeff_gap, _quadrature_gap(g, f1, f2, direct, cutoff, grid_points)
