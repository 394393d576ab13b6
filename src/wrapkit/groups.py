"""Root data, characters and radial special functions for a catalog of
compact connected Lie groups.

The catalog covers torus<n> (1 <= n <= 16), su<n> (2 <= n <= 5, one root-data
formula for A_{n-1}), so3 = SU(2)/{+-1} and su2xsu2.  Every entry carries
one fixed Ad-invariant inner product: the negative trace form of the defining
representation, scaled so that orthonormal coordinates on the Cartan
subalgebra measure radians along coroot directions.  With this scale the
kernel of exp restricted to the Cartan subalgebra is 2*pi times the coroot
lattice for the simply connected entries (4*pi*Z for su2, its index-two
superset 2*pi*Z for so3).

Construction runs in three layers.  A rational layer (Fractions in
lattice-adapted ambient coordinates, a diagonal metric) generates the Weyl
group as the closure of the simple reflections, signs by word-length parity,
and checks the structural invariants exactly: strict positivity of
<rho, alpha>, integrality of the pairings between the weight lattice and the
exponential kernel lattice, Weyl determinants equal to those signs, and the
dimension count dim = rank + 2 * #positive_roots.  An integer layer (that
data times the lcm of its denominators) enumerates and measures weights by
exact int64 forms.  A numeric layer then fixes an orthonormal basis of the
Cartan subalgebra and exposes float data (roots as covectors, rho, lattice
bases, Weyl matrices).  A character combination keeps two spectra, built
once from integer data (``CharacterTable``): its alternating numerator at the
frequencies w(lambda + rho) - rho, and the weight form, that numerator divided
by the Weyl denominator root by root.  Regular points take the Weyl quotient,
points on or near a wall the weight form, which divides by nothing.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    CatalogError,
    DomainError,
    InstabilityError,
    ResourceLimitError,
)

TWO_PI = 2.0 * math.pi

# Candidate/result caps for lattice walks (resource guard, not physics).
WEIGHT_CAP = 200_000
LATTICE_CAP = 1_000_000

# |alpha(H)| below this switches sin(x/2)/(x/2) to its Taylor series.
_J_SERIES_CUT = 1e-4

# Closure guard for the Weyl group generated from the simple roots.
_WEYL_CAP = 10_000

# Relative distance of alcove_points from every wall.
_ALCOVE_MARGIN = 0.04


# ---------------------------------------------------------------------------
# exact (rational) layer
# ---------------------------------------------------------------------------

def _fvec(*entries) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


def _dot(gram, u, v) -> Fraction:
    return sum(gram[i] * u[i] * v[i] for i in range(len(u)))


# Weyl matrices are sparse (permutations, block diagonal on products), so
# both skip zero entries
def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n) if a[i][k]), Fraction(0))
              for j in range(n))
        for i in range(n)
    )


def _det(m) -> Fraction:
    n = len(m)
    if n == 1:
        return m[0][0]
    out = Fraction(0)
    for j in range(n):
        if m[0][j]:
            minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
            out += (-1) ** j * m[0][j] * _det(minor)
    return out


@dataclass(frozen=True)
class _RawGroup:
    """Exact catalog data in lattice-adapted ambient coordinates.

    ``gram`` is the diagonal of the metric in ambient coordinates; all root,
    weight and lattice data are stored as metric vectors, so every pairing
    below goes through ``_dot``.  ``gamma_gens`` are the generators of the
    exponential kernel divided by 2*pi.
    """

    name: str
    ambient: int
    gram: tuple[Fraction, ...]
    pos_roots: tuple[tuple[Fraction, ...], ...]
    simple_roots: tuple[tuple[Fraction, ...], ...]
    weight_gens: tuple[tuple[Fraction, ...], ...]
    gamma_gens: tuple[tuple[Fraction, ...], ...]
    factor_names: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.weight_gens)

    @property
    def rho(self) -> tuple[Fraction, ...]:
        half = Fraction(1, 2)
        return tuple(half * sum(r[i] for r in self.pos_roots) for i in range(self.ambient))


def _raw_torus(n: int) -> _RawGroup:
    gens = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return _RawGroup(
        name=f"torus{n}",
        ambient=n,
        gram=_fvec(*[1] * n),
        pos_roots=(),
        simple_roots=(),
        weight_gens=gens,
        gamma_gens=gens,
        factor_names=(f"torus{n}",),
    )


def _raw_sun(n: int) -> _RawGroup:
    """SU(n), root system A_{n-1}, in R^n with metric 2 * identity: positive
    roots (e_i - e_j)/2 listed by height (simple roots first), weight
    generators (e_1 + ... + e_k - (k/n) * 1)/2 and Gamma/2pi spanned by
    e_i - e_{i+1}."""
    def vec(entries: dict) -> tuple[Fraction, ...]:
        return tuple(Fraction(entries.get(i, 0)) for i in range(n))

    half = Fraction(1, 2)
    pos = tuple(vec({i: half, i + h: -half}) for h in range(1, n) for i in range(n - h))
    return _RawGroup(
        name=f"su{n}",
        ambient=n,
        gram=_fvec(*[2] * n),
        pos_roots=pos,
        simple_roots=pos[: n - 1],
        weight_gens=tuple(
            vec({i: half * (int(i < k) - Fraction(k, n)) for i in range(n)})
            for k in range(1, n)
        ),
        gamma_gens=tuple(vec({i: 1, i + 1: -1}) for i in range(n - 1)),
        factor_names=(f"su{n}",),
    )


def _raw_product(name: str, parts: list[_RawGroup]) -> _RawGroup:
    ambient = sum(p.ambient for p in parts)
    offsets = list(itertools.accumulate([0] + [p.ambient for p in parts]))

    def embed(vec, idx):
        out = [Fraction(0)] * ambient
        for j, val in enumerate(vec):
            out[offsets[idx] + j] = val
        return tuple(out)

    def lift(key):
        return tuple(embed(v, idx) for idx, p in enumerate(parts) for v in getattr(p, key))

    return _RawGroup(
        name=name,
        ambient=ambient,
        gram=tuple(x for p in parts for x in p.gram),
        pos_roots=lift("pos_roots"),
        simple_roots=lift("simple_roots"),
        weight_gens=lift("weight_gens"),
        gamma_gens=lift("gamma_gens"),
        factor_names=tuple(n for p in parts for n in p.factor_names),
    )


def _weyl_group(raw: _RawGroup) -> tuple:
    """W as the closure of the simple reflections s_a = I - 2 a a^T G / <a, a>_G,
    each element with its sign (-1)^length, sorted by descending flattened
    entries.  Raises if the closure outgrows _WEYL_CAP (simple roots that do
    not span a finite reflection group)."""
    n = raw.ambient
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    gens = []
    for a in raw.simple_roots:
        k = 2 / _dot(raw.gram, a, a)
        gens.append(tuple(tuple(eye[i][j] - k * a[i] * a[j] * raw.gram[j] for j in range(n))
                          for i in range(n)))
    signs = {eye: 1}
    todo = [eye]
    while todo:
        m = todo.pop()
        for s in gens:
            w = _matmul(s, m)
            if w not in signs:
                signs[w] = -signs[m]
                todo.append(w)
        if len(signs) > _WEYL_CAP:
            raise InstabilityError(f"{raw.name}: Weyl group exceeds {_WEYL_CAP} elements")
    return tuple(sorted(signs.items(), key=lambda ms: [x for row in ms[0] for x in row],
                        reverse=True))


def _validate_raw(raw: _RawGroup, weyl: tuple) -> None:
    rho = raw.rho
    for alpha in raw.pos_roots:
        if _dot(raw.gram, rho, alpha) <= 0:
            raise InstabilityError(f"{raw.name}: <rho, alpha> not positive")
    for lam in raw.weight_gens:
        for gam in raw.gamma_gens:
            pairing = _dot(raw.gram, lam, gam)
            if pairing.denominator != 1:
                raise InstabilityError(
                    f"{raw.name}: weight/lattice pairing {pairing} not integral"
                )
    for m, sign in weyl:
        d = _det(m)
        if abs(d) != 1 or d != sign:
            raise InstabilityError(f"{raw.name}: Weyl determinant mismatch")
    for x in raw.gram:
        if x <= 0:
            raise InstabilityError(f"{raw.name}: metric not positive definite")


# ---------------------------------------------------------------------------
# integer layer
# ---------------------------------------------------------------------------

class _IntegerForms:
    """Weight data of one group times ``scale``, the lcm of its denominators,
    with rows (weight generators, rho).  For coordinates c and h = (c, 1):
    h.gram.h = scale * ||lambda + rho||^2; c @ simple[:-1] >= 0 iff dominant;
    prod(h @ roots) / rho_prod is the Weyl dimension.  ``table`` = (limit,
    scaled norms, weights) for the largest cutoff so far, replaced whole and
    never edited."""

    def __init__(self, raw: _RawGroup):
        rows = raw.weight_gens + (raw.rho,)

        def pairs(vs):
            return [[_dot(raw.gram, u, v) for v in vs] for u in rows]

        forms = {"gram": pairs(rows), "simple": pairs(raw.simple_roots),
                 "roots": pairs(raw.pos_roots)}
        self.name = raw.name
        self.scale = math.lcm(*(x.denominator for m in forms.values() for r in m for x in r))
        for key, m in forms.items():
            setattr(self, key, np.array([[int(x * self.scale) for x in r] for r in m],
                                        dtype=np.int64))
        self.rho_prod = math.prod(int(x) for x in self.roots[-1])
        self.table = None

    def norms(self, c: np.ndarray) -> np.ndarray:
        h = np.column_stack([c, np.ones(len(c), dtype=np.int64)])
        return np.einsum("ni,ij,nj->n", h, self.gram, h)

    def dominant(self, c: np.ndarray) -> np.ndarray:
        return np.all(c @ self.simple[:-1] >= 0, axis=1)

    def dimensions(self, c: np.ndarray) -> np.ndarray:
        """Exact Weyl products in int64; raises rather than wrap or round.  A float
        product screens each row, and rows within 2^-40 of 2^63 are redone exactly."""
        pairs = c @ self.roots[:-1] + self.roots[-1]
        near = np.abs(pairs).astype(float).prod(axis=1) >= 2.0**63 * (1 - 2.0**-40)
        if any(math.prod(abs(x) for x in row) >= 2**63 for row in pairs[near].tolist()):
            raise InstabilityError(f"{self.name}: Weyl dimension overflows int64")
        dims, rest = np.divmod(pairs.prod(axis=1), self.rho_prod)
        if np.any(rest):
            raise InstabilityError(f"{self.name}: Weyl dimension not an integer")
        return dims


# ---------------------------------------------------------------------------
# numeric layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Immutable description of one catalog group in orthonormal coordinates.

    Attributes
    ----------
    positive_roots : (m, rank) array
        Roots as covectors; alpha(H) = positive_roots[i] @ H.
    rho : (rank,) array
        Half the sum of positive roots.
    weight_basis : (rank, rank) array
        Rows generate the weight lattice of the group.
    gamma_basis : (rank, rank) array
        Rows generate Gamma = {H : exp(H) = identity} (2*pi included).
    _weyl_mats, _weyl_signs : (|W|, rank, rank) and (|W|,) arrays
        The Weyl group as orthogonal matrices, with their determinants.
    volume : float
        Riemannian volume of the group; this is the exact conversion factor
        between the geodesic lattice sum and the character series.
    """

    name: str
    rank: int
    dim: int
    positive_roots: np.ndarray
    simple_roots: np.ndarray
    rho: np.ndarray
    rho_norm_sq: float
    weight_basis: np.ndarray
    gamma_basis: np.ndarray
    cell_volume: float
    volume: float
    factor_names: tuple
    _weyl_mats: np.ndarray = field(repr=False)
    _weyl_signs: np.ndarray = field(repr=False)
    _coord_map: np.ndarray = field(repr=False)   # (rank, ambient): v -> coords
    _ints: _IntegerForms = field(repr=False)

    @property
    def n_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def weyl_order(self) -> int:
        return len(self._weyl_signs)

    @property
    def is_abelian(self) -> bool:
        return self.n_positive_roots == 0

    def weight(self, coords) -> "Weight":
        return weight(self, coords)

    def __repr__(self) -> str:  # keep array noise out of logs
        return (
            f"GroupSpec({self.name}, rank={self.rank}, dim={self.dim}, "
            f"roots={self.n_positive_roots}, |W|={self.weyl_order})"
        )


def _finish(raw: _RawGroup) -> GroupSpec:
    weyl = _weyl_group(raw)
    _validate_raw(raw, weyl)
    gram = np.diag([float(x) for x in raw.gram])
    span = raw.simple_roots if raw.pos_roots else raw.weight_gens
    basis = []
    for v in span:
        w = np.array([float(x) for x in v])
        for b in basis:
            w = w - (b @ gram @ w) * b
        nrm = math.sqrt(w @ gram @ w)
        if nrm < 1e-12:
            continue
        basis.append(w / nrm)
    if len(basis) != raw.rank:
        raise InstabilityError(f"{raw.name}: Cartan basis has wrong rank")
    lift = np.array(basis).T                       # (ambient, rank)
    coord_map = lift.T @ gram                      # (rank, ambient)

    def coords(vec) -> np.ndarray:
        return coord_map @ np.array([float(x) for x in vec])

    # reshape keeps the (0, rank) shape on tori, which have no roots
    pos = np.array([coords(r) for r in raw.pos_roots]).reshape(-1, raw.rank)
    simple = np.array([coords(r) for r in raw.simple_roots]).reshape(-1, raw.rank)
    rho_exact = raw.rho
    rho = coords(rho_exact)
    rho_nsq = float(_dot(raw.gram, rho_exact, rho_exact))
    wb = np.array([coords(g) for g in raw.weight_gens])
    gb = TWO_PI * np.array([coords(g) for g in raw.gamma_gens])

    mats, signs = [], []
    for m, sign in weyl:
        mf = np.array([[float(x) for x in row] for row in m])
        om = coord_map @ mf @ lift
        if not np.allclose(om @ om.T, np.eye(raw.rank), atol=1e-12):
            raise InstabilityError(f"{raw.name}: Weyl matrix not orthogonal")
        mats.append(om)
        signs.append(sign)
    mats = np.array(mats)
    signs = np.array(signs, dtype=float)

    cell = abs(float(np.linalg.det(gb)))
    pi_rho = 1.0
    for alpha in raw.pos_roots:
        pi_rho *= float(_dot(raw.gram, rho_exact, alpha))
    volume = (TWO_PI ** len(raw.pos_roots)) * cell / pi_rho

    for arr in (pos, simple, rho, wb, gb, mats, signs):
        arr.setflags(write=False)

    return GroupSpec(
        name=raw.name,
        rank=raw.rank,
        dim=raw.rank + 2 * len(raw.pos_roots),
        positive_roots=pos,
        simple_roots=simple,
        rho=rho,
        rho_norm_sq=rho_nsq,
        weight_basis=wb,
        gamma_basis=gb,
        cell_volume=cell,
        volume=volume,
        factor_names=raw.factor_names,
        _weyl_mats=mats,
        _weyl_signs=signs,
        _coord_map=coord_map,
        _ints=_IntegerForms(raw),
    )


# torus<n> and su<n>; a leading zero would give one group a second name
_FAMILY_RE = re.compile(r"(torus|su)([1-9][0-9]*)")


def _raw_group(name: str) -> _RawGroup:
    """The exact catalog data behind ``make_group(name)``."""
    if name == "so3":
        # SU(2)/{+-1}: weights are the root lattice, Gamma is 2pi times the
        # coweight lattice (twice the su2 weight generator)
        su2 = _raw_sun(2)
        return replace(su2, name="so3", weight_gens=su2.simple_roots,
                       gamma_gens=tuple(tuple(2 * x for x in w) for w in su2.weight_gens),
                       factor_names=("so3",))
    if name == "su2xsu2":
        return _raw_product("su2xsu2", [_raw_sun(2)] * 2)
    m = _FAMILY_RE.fullmatch(name)
    if m is None:
        raise CatalogError(
            f"unknown group {name!r}; expected torus<n>, su<n>, so3 or su2xsu2"
        )
    n = int(m.group(2))
    if m.group(1) == "torus":
        if n > 16:
            raise CatalogError("torus dimension capped at 16")
        return _raw_torus(n)
    if not 2 <= n <= 5:
        # |W| = n! enters every character sum and the rational closure;
        # n = 6 would already have 720 elements
        raise CatalogError("su<n> needs 2 <= n <= 5")
    return _raw_sun(n)


@lru_cache(maxsize=None)
def make_group(name: str) -> GroupSpec:
    """Build (and cache) the catalog entry with the given name.

    Valid names: ``torus<n>`` for 1 <= n <= 16, ``su<n>`` for 2 <= n <= 5,
    ``so3`` and ``su2xsu2``, with no leading zeros.
    """
    return _finish(_raw_group(name))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """A dominant integral weight, keyed by its integer coordinates in the
    weight-lattice basis of its group."""

    group_name: str
    coords: tuple[int, ...]
    dimension: int = field(compare=False)
    lambda_plus_rho_norm_sq: float = field(compare=False)
    _norm_key: int = field(compare=False, repr=False)          # scaled norm


def _coord_rows(g: GroupSpec, coords) -> np.ndarray:
    coords = [int(c) for c in coords]
    if len(coords) != g.rank:
        raise DomainError(f"{g.name}: expected {g.rank} weight coordinates")
    if any(abs(c) > 2**20 for c in coords):
        raise InstabilityError(f"{g.name}: coordinates beyond the exact int64 range")
    return np.array([coords], dtype=np.int64)


def _make_weights(g: GroupSpec, c: np.ndarray, norms: np.ndarray) -> list[Weight]:
    f = g._ints
    return [
        Weight(g.name, tuple(k), int(d), float(nq / f.scale), int(nq))
        for k, d, nq in zip(c.tolist(), f.dimensions(c), norms)
    ]


def weight(g: GroupSpec, coords) -> Weight:
    """Construct the dominant weight with the given integer coordinates."""
    c = _coord_rows(g, coords)
    if not g._ints.dominant(c)[0]:
        raise DomainError(f"{g.name}: coordinates {tuple(c[0].tolist())} are not dominant")
    return _make_weights(g, c, g._ints.norms(c))[0]


def weyl_dimension(g: GroupSpec, coords) -> int:
    """Dimension of the irreducible representation with highest weight
    ``coords``, via the exact Weyl product formula in integer arithmetic."""
    return int(g._ints.dimensions(_coord_rows(g, coords))[0])


# ---------------------------------------------------------------------------
# torus points and radial special functions
# ---------------------------------------------------------------------------

def _as_points(g: GroupSpec, H) -> tuple[np.ndarray, bool]:
    arr = np.asarray(H, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != g.rank:
            raise DomainError(f"{g.name}: torus point needs {g.rank} coordinates")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == g.rank:
        return arr, False
    raise DomainError(f"{g.name}: bad torus point array shape {arr.shape}")


def wall_distance(g: GroupSpec, H) -> np.ndarray:
    """min over positive roots of |sin(alpha(H)/2)|; 1.0 for tori."""
    pts, single = _as_points(g, H)
    a = pts @ g.positive_roots.T
    out = np.abs(np.sin(a / 2.0)).min(axis=1, initial=1.0)
    return out[0] if single else out


def is_regular(g: GroupSpec, H) -> bool:
    return bool(np.all(wall_distance(g, H) > 1e-8))


def _sin_over_y(y: np.ndarray, hyperbolic: bool = False) -> np.ndarray:
    """sin(y)/y, or its continuation sinh(y)/y, elementwise.  The removable
    singularity at 0 is filled with the series 1 -+ y^2/6 + y^4/120 where
    |y| < _J_SERIES_CUT/2; the first dropped term is below 1e-29 there."""
    small = np.abs(y) < _J_SERIES_CUT / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (np.sinh if hyperbolic else np.sin)(y) / np.where(small, 1.0, y)
    ysq = y[small] ** 2 * (1.0 if hyperbolic else -1.0)
    out[small] = 1.0 + ysq / 6.0 + ysq * ysq / 120.0
    return out


def j_compact(g: GroupSpec, H):
    """Analytic square root of det(d exp) along the Cartan subalgebra:
    the product over positive roots of sin(alpha(H)/2) / (alpha(H)/2).

    Removable singularities at alpha(H) = 0 are filled by ``_sin_over_y``.
    The value is 1 at H = 0 and on tori (an empty product), and may be zero
    or negative outside the fundamental alcove.
    """
    pts, single = _as_points(g, H)
    out = _sin_over_y((pts @ g.positive_roots.T) / 2.0).prod(axis=1)
    return float(out[0]) if single else out


def weyl_density(g: GroupSpec, H):
    """Weyl integration density |Delta(H)|^2 = prod 4 sin^2(alpha(H)/2)."""
    pts, single = _as_points(g, H)
    y = (pts @ g.positive_roots.T) / 2.0
    out = (4.0 * np.sin(y) ** 2).prod(axis=1)
    return float(out[0]) if single else out


def weyl_denominator(g: GroupSpec, points: np.ndarray) -> np.ndarray:
    """Complex Weyl denominator prod (e^{i a/2} - e^{-i a/2}) at each point."""
    y = (points @ g.positive_roots.T) / 2.0
    return (2j * np.sin(y)).prod(axis=1)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weyl_on_indices(g: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """W on dual indices, in integers: (rank, |W| * rank) maps, with coords @ maps
    listing idx(w lambda) over W for lambda = coords @ weight_basis, and (|W|, rank)
    idx(w rho - rho) (integral, as w rho - rho is a sum of roots)."""
    maps = dual_index(g, np.einsum("wij,kj->kwi", g._weyl_mats, g.weight_basis))
    return maps.reshape(g.rank, -1), dual_index(g, g._weyl_mats @ g.rho - g.rho)


def _frequencies(g: GroupSpec, weights: list[Weight]) -> tuple[np.ndarray, int]:
    """(L, |W|, rank) dual indices of w(lambda + rho) - rho = w lambda + (w rho - rho)
    and the bandwidth max |dual index of w(lambda + rho)|, rounded up."""
    maps, shifts = _weyl_on_indices(g)
    coords = np.array([w.coords for w in weights], dtype=np.int64).reshape(-1, g.rank)
    idx = (coords @ maps).reshape(-1, g.weyl_order, g.rank) + shifts
    return idx, (int(np.max(np.abs(2 * idx + dual_index(g, 2.0 * g.rho)), initial=0)) + 1) // 2


def as_real_checked(values: np.ndarray, context: str, scale: float = 1.0):
    """Drop an imaginary part after asserting it is below 1e-10 relative to
    max(scale, |real part|, 1).  Used wherever a character combination is
    known to be real by symmetry of its coefficients; ``scale`` is the
    natural magnitude of the combination (e.g. sum |c_lambda| d_lambda)."""
    values = np.asarray(values)
    floor = np.maximum(np.maximum(1.0, float(scale)), np.abs(values.real))
    worst = np.max(np.abs(values.imag) / floor) if values.size else 0.0
    if not worst <= 1e-10:  # NaN fails too
        raise InstabilityError(
            f"{context}: imaginary part {worst:.3e} above the 1e-10 budget"
        )
    return np.ascontiguousarray(values.real)


def _synthesise(spec: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_u spec[u] e^{2 pi i u.y} per row of y, for a real spec on a box of odd
    sides centred on u = 0: two real matrix products on the last axis, then a
    contraction per other axis.  Each axis tabulates its rows u >= 0 and takes
    the rows u < 0 as their conjugates."""
    # blocks of points with ~2**17 complex table and contraction entries bound the memory
    step = max(1, 2**17 // (spec.size // spec.shape[-1] + 2 * sum(spec.shape)))
    if len(y) > step:
        return np.concatenate([_synthesise(spec, y[i:i + step])
                               for i in range(0, len(y), step)])
    tables = []
    for j, n in enumerate(spec.shape):
        upper = np.exp(TWO_PI * 1j * np.outer(np.arange(n // 2 + 1), y[:, j]))
        tables.append(np.concatenate([upper[:0:-1].conj(), upper]))            # (n_j, P)
    rows = spec.reshape(-1, spec.shape[-1])
    acc = rows @ tables[-1].real + 1j * (rows @ tables[-1].imag)
    acc = acc.reshape(spec.shape[:-1] + (len(y),))
    for table in tables[-2::-1]:
        acc = np.einsum("...kp,kp->...p", acc, table)
    return acc


def _divide_root(q: np.ndarray, a: np.ndarray) -> None:
    """Each part q[..., r] / (1 - x^-a) in place, by Q(k) = P(k) + Q(k + a) with
    Q = 0 outside the box: layer by layer along an axis j where a_j != 0, from
    the layer whose layer + a_j leaves the box.  Exact when the quotient is a
    Laurent polynomial whose support, like P's, lies in the box."""
    j = int(np.flatnonzero(a)[0])
    q = np.moveaxis(q, j, 0)
    step = int(a[j])
    src, dst = [], []
    for d, n in zip(np.delete(a, j).tolist(), q.shape[1:]):
        m = max(n - abs(d), 0)
        src.append(slice(max(d, 0), max(d, 0) + m))
        dst.append(slice(max(-d, 0), max(-d, 0) + m))
    layers = range(len(q) - 1 - step, -1, -1) if step > 0 else range(-step, len(q))
    for i in layers:
        q[(i, *dst)] += q[(i + step, *src)]


def _spectra(g: GroupSpec, weights: list[Weight], coeffs: np.ndarray) -> tuple:
    """(centre, P, Q) from integer data: the alternating numerator P, c_lambda
    det(w) at idx(w lambda) + idx(w rho - rho), on a box of odd sides about
    ``centre``, and the weight form Q(mu) = sum_lambda c_lambda m_lambda(mu), P
    divided by prod_alpha>0 (1 - x^-alpha) in P's box (every partial quotient's
    Newton polytope lies in P's), then trimmed to |idx(mu)| <= half = max
    |idx(w lambda)|, symmetric about 0, which drops rounding residue only."""
    shifts = _weyl_on_indices(g)[1]
    idx = _frequencies(g, weights)[0]
    half = np.abs(idx - shifts).max((0, 1), initial=0)
    lo = shifts.min(0) - half
    shape = tuple((shifts.max(0) + half - lo + 1) | 1)
    at = np.ravel_multi_index(tuple(np.moveaxis(idx - lo, -1, 0)), shape).ravel()
    p = np.bincount(at, (coeffs[:, None] * g._weyl_signs).ravel(), math.prod(shape))
    p = p.reshape(shape)
    # P = high + low, high a multiple of quantum = 2^(e - 26) where max |P| < 2^e:
    # sums of high stay exact while they grow less than 2^27-fold (su4 at t = 0.2
    # grows 1e3-fold) and low's rounding is 2^-26 of theirs, so Q is rounded once
    quantum = 2.0 ** (math.frexp(float(np.abs(p).max(initial=0)))[1] - 26)
    high = np.round(p / quantum) * quantum
    q = np.stack([high, p - high], axis=-1)
    for a in dual_index(g, g.positive_roots):
        _divide_root(q, a)
    trim = tuple(slice(-h - b, h - b + 1) for h, b in zip(half, lo))
    return lo + np.array(shape) // 2, p, q[trim + (0,)] + q[trim + (1,)]


class CharacterTable:
    """sum_lambda c_lambda chi_lambda (real c_lambda) from ``_spectra``: each point
    takes the Weyl quotient sum_k P(k) e^{i k(H)} / den(H), den(H) = prod_alpha>0
    (1 - e^{-i alpha(H)}), where its rounding bound eps sum|P| / |den(H)| is below
    eps sum|Q| (= eps f(0) for a heat kernel), that of the weight form sum_mu Q(mu)
    e^{i mu(H)}, which divides by nothing and takes the points on and near walls.
    ``scale`` = sum |c_lambda| d_lambda bounds the values."""

    def __init__(self, g: GroupSpec, weights: list[Weight], coeffs):
        self.group = g
        self.weights = list(weights)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.scale = float(np.abs(self.coeffs) @ [float(w.dimension) for w in self.weights])
        self._to_cell = np.linalg.inv(g.gamma_basis)
        centre, self._p, self._q = _spectra(g, self.weights, self.coeffs)
        # e^{i shift(H)} recentres P on its box and puts back e^{i rho(H)} of den
        self._shift = TWO_PI * self._to_cell @ centre + g.rho
        self._norms = float(np.abs(self._p).sum()), float(np.abs(self._q).sum())

    def spectrum(self):
        """(lo, Q): the real weight-form spectrum, Q[k] the coefficient of the
        weight with dual index lo + k, on a box symmetric about 0."""
        return -(np.array(self._q.shape) // 2), self._q

    def values(self, H):
        """One complex value per point, shape (P,) (a scalar for one point)."""
        points, single = _as_points(self.group, H)
        den = weyl_denominator(self.group, points)   # e^{i rho(H)} den(H), of equal modulus
        quot = np.abs(den) * self._norms[1] > self._norms[0]
        out = np.empty(len(points), dtype=complex)
        if quot.any():
            p = points[quot]
            out[quot] = (_synthesise(self._p, p @ self._to_cell)
                         * np.exp(1j * (p @ self._shift)) / den[quot])
        if not quot.all():
            out[~quot] = _synthesise(self._q, points[~quot] @ self._to_cell)
        return out[0] if single else out


def character(g: GroupSpec, lam: Weight | tuple, H):
    """Irreducible character of highest weight ``lam`` at torus point(s) H.

    Returns a real value whenever the imaginary part is negligible (always
    the case for self-conjugate weights, so for every su2/so3/su2xsu2
    weight); non-self-conjugate weights keep their complex value.
    """
    if not isinstance(lam, Weight):
        lam = weight(g, lam)
    vals = CharacterTable(g, [lam], [1.0]).values(H)
    if np.all(np.abs(vals.imag) <= 1e-10 * np.maximum(1.0, np.abs(vals.real))):
        vals = vals.real
    return vals.item() if vals.ndim == 0 else vals


# ---------------------------------------------------------------------------
# lattices, grids and sample points
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _axis_stretch(g: GroupSpec, basis: str, dominant: bool) -> tuple[float, ...]:
    """Per-axis factors c_i with |k_i| <= c_i ||k @ B|| (B the rows of
    ``getattr(g, basis)``): the norms of the rows of B^-T for any k, and
    1 / ||row i of B|| for k >= 0 on rows that pair nonnegatively (the
    fundamental weights do), as then ||k @ B|| >= k_i ||row i of B||."""
    b = getattr(g, basis)
    if dominant:
        return tuple(1.0 / float(n) for n in np.linalg.norm(b, axis=1))
    return tuple(float(n) for n in np.linalg.norm(np.linalg.inv(b).T, axis=1))


def _scan_bound(g: GroupSpec, basis: str, reach: float, dominant: bool, cap: int,
                what: str, knob: str) -> tuple[int, ...]:
    """Per-axis bounds b of a box that holds every k with ||k @ basis|| <= reach,
    and k >= 0 when ``dominant``: |k_i| <= b_i = reach * c_i + 1, rounded up
    (see ``_axis_stretch``).  A box above ``cap`` rows raises."""
    bound = tuple(math.ceil(reach * c) + 1 for c in _axis_stretch(g, basis, dominant))
    rows = math.prod(b + 1 if dominant else 2 * b + 1 for b in bound)
    if rows > cap:
        raise ResourceLimitError(
            f"{g.name}: {what} scan would visit {rows} candidates (cap {cap}); lower the {knob}"
        )
    return bound


@lru_cache(maxsize=32)
def _lattice_box(g: GroupSpec, bound) -> tuple[np.ndarray, np.ndarray]:
    """(k, k @ gamma_basis) on the box of ``bound``; a row's bits do not depend on
    the box.  Only boxes of at most 2^12 entries (64 KiB) go through the cache."""
    k = np.indices([2 * b + 1 for b in bound], dtype=np.int64).reshape(g.rank, -1).T - bound
    return k, k @ g.gamma_basis


def _lattice_scan(g: GroupSpec, centers: np.ndarray, radii: np.ndarray):
    """The one lattice scan: (owner, gammas, d2), d2 = ||centers[owner] + gamma||^2
    <= radii[owner]^2, sorted by owner, d2, integer coordinates, from one box holding
    every ball; blocks of points keep each (points, box) array within 2^17 entries."""
    reach = max((r + math.sqrt(c.dot(c)) for c, r in zip(centers, radii.tolist())), default=0.0)
    bound = _scan_bound(g, "gamma_basis", reach, False, LATTICE_CAP, "lattice", "radius")
    cached = math.prod(2 * b + 1 for b in bound) * g.rank <= 2**12
    k, gams = (_lattice_box if cached else _lattice_box.__wrapped__)(g, bound)
    step, hits = max(1, 2**17 // len(k)), []
    for i in range(0, max(len(centers), 1), step):
        d2 = ((centers[i:i + step, None, :] + gams) ** 2).sum(axis=-1)
        at = np.flatnonzero(d2 <= radii[i:i + step, None] ** 2 + 1e-12)
        hits.append((at + i * len(k), d2.ravel()[at]))
    at, d2 = hits[0] if len(hits) == 1 else map(np.concatenate, zip(*hits))
    owner, rows = np.divmod(at, len(k))
    order = np.lexsort((*k[rows].T[::-1], d2, owner))
    return owner[order], gams[rows[order]], d2[order]


def enumerate_weights(g: GroupSpec, cutoff: float) -> list[Weight]:
    """All dominant weights with ||lambda + rho||^2 <= cutoff, sorted by that
    norm (exact ties broken lexicographically by coordinates).  The scan is
    kept per group and served by prefix, so the cap on its box also caps what
    a smaller cutoff gets; a larger cutoff rebuilds it."""
    if not 0 < cutoff < math.inf:  # NaN fails too
        raise DomainError("cutoff must be positive and finite")
    limit = math.floor(Fraction(cutoff) * g._ints.scale)
    table = g._ints.table
    if table is None or table[0] < limit:
        dominant = not g.is_abelian
        bound = _scan_bound(g, "weight_basis", math.sqrt(cutoff) + math.sqrt(g.rho_norm_sq),
                            dominant, WEIGHT_CAP, "weight", "cutoff")
        lo = [0 if dominant else -b for b in bound]
        sides = [b + 1 - a for b, a in zip(bound, lo)]
        c = np.indices(sides, dtype=np.int64).reshape(g.rank, -1).T + lo
        norms = g._ints.norms(c)
        keep = np.flatnonzero((norms <= limit) & g._ints.dominant(c))
        order = keep[np.lexsort((*c[keep].T[::-1], norms[keep]))]
        c, norms = c[order], norms[order]
        g._ints.table = table = (limit, norms, _make_weights(g, c, norms))
    return table[2][: int(np.searchsorted(table[1], limit, side="right"))]


def lattice_points(g: GroupSpec, center, radius: float) -> np.ndarray:
    """All gamma in Gamma with ||center + gamma|| <= radius, as a (K, rank)
    array sorted by distance (ties by integer coordinates).  This is the
    one-center case of ``_lattice_scan``, which ``wrapping.wrap_lattice`` runs
    once per batch: one integer box serves every point, each with its own radius."""
    center = np.asarray(center, dtype=float)
    if center.shape != (g.rank,) or not np.isfinite(center).all():
        raise DomainError(f"{g.name}: center needs {g.rank} finite coordinates")
    if not 0 <= radius < math.inf:  # NaN fails too
        raise DomainError("radius must be nonnegative and finite")
    return _lattice_scan(g, center[None, :], np.array([float(radius)]))[1]


def dual_index(g: GroupSpec, xi) -> np.ndarray:
    """Integer coordinates of weight-lattice vectors (along the last axis)
    against the dual basis of gamma_basis / 2*pi; rounding beyond 1e-6
    raises."""
    raw_idx = np.asarray(xi, dtype=float) @ g.gamma_basis.T / TWO_PI
    idx = np.rint(raw_idx)
    worst = float(np.max(np.abs(raw_idx - idx), initial=0.0))
    if not worst <= 1e-6:  # NaN fails too
        raise InstabilityError(
            f"{g.name}: dual index {worst:.1e} off the integers; not in the weight lattice"
        )
    return idx.astype(int)


def cell_grid(g: GroupSpec, n: int) -> np.ndarray:
    """Uniform n^rank grid over the fundamental cell spanned by gamma_basis.

    Together with equal weights 1/n^rank this is the periodic trapezoidal
    rule: it integrates every lattice character with dual index below n
    exactly, which is what all quadrature in the package relies on.
    """
    if n < 1:
        raise DomainError("grid size must be >= 1")
    idx = np.indices((n,) * g.rank).reshape(g.rank, -1).T / float(n)
    return idx @ g.gamma_basis


def fundamental_intervals(g: GroupSpec) -> list[tuple[float, float]]:
    """Per axis, the fundamental domain of the affine Weyl group W x| Gamma
    on a torus or rank-one group: the centred cell [-|gamma|/2, |gamma|/2] of
    the lattice axis, or its half [0, |gamma|/2] when a root's reflection
    folds the circle."""
    if g.rank > 1 and not g.is_abelian:
        raise DomainError(f"{g.name}: no interval domain above rank one")
    halves = np.abs(np.diagonal(g.gamma_basis)) / 2.0
    return [(0.0 if g.n_positive_roots else -h, h) for h in halves]


def _simplex_points(g: GroupSpec, count: int) -> np.ndarray:
    """``count`` interior points of the alcove of a simple group, the simplex
    with vertices 0 and 2pi w_i / m_i (w the dual basis of the simple roots,
    m the marks of the highest root): integer barycentric weights at the
    smallest depth that has enough, pulled in by the margin."""
    r = g.rank
    coweights = np.linalg.inv(g.simple_roots).T
    coeffs = g.positive_roots @ coweights.T                # roots in simple roots
    marks = np.rint(coeffs[np.argmax(coeffs.sum(axis=1))])
    verts = np.vstack([np.zeros(r), TWO_PI * coweights / marks[:, None]])
    depth = r
    while math.comb(depth, r) < count:
        depth += 1
    sums = np.array(list(itertools.islice(itertools.combinations(range(1, depth + 1), r), count)))
    bary = np.column_stack([np.diff(sums, axis=1, prepend=0), depth + 2 - sums[:, -1]])
    bary = bary / bary.sum(axis=1, keepdims=True)
    bary = _ALCOVE_MARGIN / (r + 1) + (1 - _ALCOVE_MARGIN) * bary
    bary /= bary.sum(axis=1, keepdims=True)
    return bary @ verts


def alcove_points(g: GroupSpec, count: int) -> np.ndarray:
    """Deterministic spread of ``count`` regular points inside the
    fundamental domain of W x| Gamma (the alcove; the centred cell on tori),
    kept off every wall by the relative margin ``_ALCOVE_MARGIN``.

    Each factor contributes pieces: one interval per torus axis or rank-one
    factor (``fundamental_intervals``) and one simplex per simple factor of
    higher rank.  Piece k is reordered by a step coprime to ``count`` drawn
    from its own seed, so that the pieces of a product do not move together.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    spread = _ALCOVE_MARGIN + (1 - 2 * _ALCOVE_MARGIN) * (np.arange(count) + 0.5) / count
    pieces = []
    for name in g.factor_names:
        f = make_group(name)
        if f.rank > 1 and not f.is_abelian:
            pieces.append(_simplex_points(f, count))
        else:
            pieces += [(lo + (hi - lo) * spread)[:, None] for lo, hi in fundamental_intervals(f)]
    seeds = [1, 3, 7, 11, 17, 23, 29, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    for k, piece in enumerate(pieces):
        step = seeds[k % len(seeds)]
        while math.gcd(step, count) != 1:
            step += 1
        pieces[k] = piece[(step * np.arange(count)) % count]
    return np.concatenate(pieces, axis=1)
