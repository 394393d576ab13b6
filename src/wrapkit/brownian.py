"""Brownian motion on the catalog groups by matrix simulation, and the
Monte Carlo verification of the transport identities.

The scheme is a geodesic random walk: xi_{k+1} = xi_k * exp(sqrt(h) sum_i X_i
z_i) with iid signs z_i = +-1 and X_i an orthonormal basis of the Lie algebra
for the analytic modules' inner product.  Weak order 1 needs only the normal
moments to order 3, which signs match (the simplified weak Euler scheme,
Kloeden & Platen, Numerical Solution of SDEs, 1992, 14.1; geodesic random
walks converge to Brownian motion, Jorgensen, Z. Wahrsch. 32, 1975), so for a
bi-invariant metric the walk tends weakly at first order, with no drift
correction, to the plain heat semigroup.  On a torus exp is a homomorphism,
so the walk takes its whole horizon in one step of standard normals and the
endpoint is exact at any h (signs would pin it to a lattice 2 sqrt(h) apart).
Flat endpoints stay exact Gaussian.

Each factor kind has one engine: tori, su2, and one matrix engine for every
su<n> with n >= 3 (X_i = -i L_i / 2 from the generalised Gell-Mann
matrices).  so3 has none of its own: SO(3) is SU(2)
divided by its centre, so so3 paths are simulated on SU(2) and mapped
through the covering map U -> Ad U.

The su<n> engine runs no eigen-solver per step.  It builds the Hermitian
increment A from two real products with the stacked generators and takes
exp(-i A) = sum_{j<n} f_j A^j: the Taylor series folded into degree < n by
Cayley-Hamilton (Moler & Van Loan, SIAM Rev. 45, 2003), with A^n written in
lower powers through Newton's identities on tr A^k.  A proved 2^-60 tail
bound fixes the term count from the batch's largest norm, < 0.35 at h <= 0.01.

``_Chunk.advance`` steps every sign row by gathers.  Each factor's algebra
coordinates, in generator order, fall into consecutive cuts of at most _CUT
(su4 8 + 7, su5 8 + 8 + 8; smaller factors one cut).  Once per step size an
identity engine steps on each cut's 2^w patterns, zero off the cut, and paths
right-multiply by one row per cut, in cut order: m @ T1[i1] @ T2[i2] ...  The
cuts' signs are independent with mean zero, so the walk keeps weak order 1.
One float32 product per step numbers the rows with each cut's bit weights
2^0 .. 2^(w-1): sums below 2^8, exact.  Sign rows of a cut share one norm, so
a gathered row equals the direct step on its zero-padded signs bit for bit.
Float rows (torus normals) step directly.

One runner, ``_walk``, steps the paths of every estimator, one chunk at a
time and one increment array per step.  It alone advances chunks, and it
renormalizes them and guards their drift off the group.

Determinism contract: every estimator splits its paths into fixed-size
chunks; chunk k uses an independent Philox stream keyed by (seed, tag, k),
and per-chunk partial results are reduced in chunk order.  Worker-thread
count therefore never changes any output bit, only wall time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    DomainError,
    InstabilityError,
    ResolutionError,
    ResourceLimitError,
)
from .groups import (CharacterTable, GroupSpec, TWO_PI, _sin_over_y,
                     fundamental_intervals, j_compact, make_group, weight, weyl_density)
from .heat import heat_coefficients

_COST_CAP = 5e8          # paths times steps
_RENORM_EVERY = 100
_DRIFT_TOL = 1e-6
_CUT = 8                 # algebra coordinates per sign-pattern table: 2^8 rows

_TAG_GROUP = 0
_TAG_FLAT = 1


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdeConfig:
    """Simulation request; part of the experiment identity (chunk included)."""

    group: GroupSpec
    t: float
    step: float
    paths: int
    seed: int
    chunk: int = 20000

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise DomainError("horizon t must be positive and finite")
        # the su<n> step exponential's norm bound of 1 rests on h <= 0.01
        if not 0 < self.step <= min(self.t, 0.01):
            raise DomainError("step must satisfy 0 < h <= min(t, 0.01)")
        if self.paths < 1:
            raise DomainError("paths must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        if self.chunk < 1:
            raise DomainError("chunk must be >= 1")
        cost = self.paths * self.n_steps
        if cost > _COST_CAP:
            raise ResourceLimitError(f"cost {cost:.3g} exceeds the cost cap {_COST_CAP:.3g}")

    @property
    def n_steps(self) -> int:
        """The number of steps the walk takes: one on a torus."""
        if self.t > 0.01 * _COST_CAP:  # past any walk at h <= 0.01; torus angles keep no bits
            raise ResourceLimitError(f"horizon {self.t:.3g} exceeds 0.01 x the cost cap")
        if self.group.is_abelian:  # exp is a homomorphism: the horizon is one exact step
            return 1
        if self.t / self.step > _COST_CAP:  # more than any one path may cost; also inf
            raise ResourceLimitError(f"{self.t / self.step:.3g} steps exceed the cost cap")
        n = int(math.floor(self.t / self.step + 1e-9))
        return n if abs(n * self.step - self.t) < 1e-9 * max(self.t, 1.0) else n + 1

    def chunks(self) -> list[tuple[int, int]]:
        """(index, size) pairs covering all paths in order."""
        return [(i, min(self.chunk, self.paths - i * self.chunk))
                for i in range(-(-self.paths // self.chunk))]


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class WrapBmReport:
    lhs: McEstimate
    rhs: McEstimate
    z: float


def _rng(seed: int, tag: int, chunk_index: int) -> np.random.Generator:
    if chunk_index >= 2**32:
        raise ResourceLimitError("chunk index exceeds 2^32")
    key = np.array([seed, (tag << 32) + chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _thread_count(threads: int | None) -> int:
    if threads is None:
        threads = int(os.environ.get("WRAPKIT_THREADS", "1"))
    return max(1, threads)


def _map_chunks(cfg: SdeConfig, worker, threads: int | None):
    """Run worker(index, size) over all chunks; results in chunk order."""
    chunks = cfg.chunks()
    nthreads = _thread_count(threads)
    if nthreads == 1 or len(chunks) == 1:
        return [worker(i, c) for i, c in chunks]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        futures = [pool.submit(worker, i, c) for i, c in chunks]
        return [f.result() for f in futures]


def _moments(v) -> tuple[int, float, float]:
    """(n, mean, M2) of one chunk, M2 the sum of squared deviations."""
    v = np.asarray(v, dtype=float)
    mean = float(v.mean())
    return len(v), mean, float(np.sum((v - mean) ** 2))


def _reduce_moments(parts, seed: int) -> McEstimate:
    """Merge per-chunk (n, mean, M2) in chunk order by the update of Chan,
    Golub & LeVeque (Amer. Stat. 37, 1983): no variance lost to a large mean."""
    n, mean, m2 = 0, 0.0, 0.0
    for nb, mb, m2b in parts:
        total = n + nb
        delta = mb - mean
        mean += delta * (nb / total)
        m2 += m2b + delta * delta * (n * nb / total)
        n = total
    var = m2 / (n - 1) if n > 1 else 0.0
    return McEstimate(mean=mean, stderr=math.sqrt(var / n), n=n, seed=seed)


# ---------------------------------------------------------------------------
# matrix realizations, one engine per factor kind
# ---------------------------------------------------------------------------
#
# An engine holds count paths on one factor (its own GroupSpec, so the
# algebra dimension is factor.dim).  Besides the path state it owns the
# factor's matrix block size, the fold from such a block to alcove
# coordinates and the projection of algebra points; an engine built with
# count=0 serves those static facts alone.

@lru_cache(maxsize=None)
def _generators(n: int) -> np.ndarray:
    """The n^2 - 1 generalised Gell-Mann matrices, tr(L_a L_b) = 2 delta: for
    k = 1..n-1 the symmetric and antisymmetric (i, k) pairs, i < k, then
    diag(1, .., 1, -k, 0, ..) / sqrt(k(k+1)/2).  n = 3 gives the standard eight."""
    gens = []
    for k in range(1, n):
        for i in range(k):
            sym = np.zeros((n, n), dtype=complex)
            sym[i, k] = sym[k, i] = 1
            anti = np.zeros((n, n), dtype=complex)
            anti[i, k], anti[k, i] = -1j, 1j
            gens += [sym, anti]
        gens.append(np.diag([1] * k + [-k] + [0] * (n - k - 1)) / math.sqrt(k * (k + 1) / 2))
    return np.array(gens, dtype=complex)


def _hamiltonian(z: np.ndarray, scale: float) -> np.ndarray:
    """The Hermitian matrices scale * sum_a z_a L_a, one per row of z, from
    two real products with the stacked generators."""
    n = math.isqrt(z.shape[1] + 1)
    gens = _generators(n).reshape(n * n - 1, n * n)
    zs = z * scale
    ham = np.empty((len(z), n * n), dtype=complex)
    ham.real = zs @ gens.real
    ham.imag = zs @ gens.imag
    return ham.reshape(-1, n, n)


def _exp_minus_i(a: np.ndarray) -> np.ndarray:
    """exp(-i A) = sum_{j<n} f_j A^j for a batch of Hermitian n x n matrices A
    of largest Frobenius norm r <= 1 (else InstabilityError; steps keep r < 0.35):
    the Taylor sum over the fewest terms N with r^N e^r / N! <= 2^-60 (its tail
    bound), folded by Cayley-Hamilton through Newton's identities on tr A^k."""
    n = a.shape[-1]
    powers = [a]                                    # A, A^2, .., A^{n-1}
    for _ in range(n - 2):
        powers.append(powers[-1] @ a)
    traces = [np.einsum("cii->c", x).real for x in powers]
    traces.append(np.einsum("cij,cji->c", powers[-1], a).real)
    r = math.sqrt(float(traces[1].max(initial=0.0)))
    if not r <= 1.0:
        raise InstabilityError(f"step exponential: increment norm {r:.3g} exceeds 1")
    terms, tail = 0, math.exp(r)
    while tail > 2.0**-60:
        terms += 1
        tail *= r / terms
    # Newton: the elementary symmetric e_k of A's eigenvalues, then A^n = sum c_j A^j
    e = [np.ones(len(a))]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1)) / k)
    c = np.array([(-1) ** (n - 1 - j) * e[n - j] for j in range(n)], dtype=complex)
    f = np.zeros((n, len(a)), dtype=complex)        # f_j in the basis A^j
    f[0] = 1.0
    for k in range(terms - 1, 0, -1):               # f <- 1 + (-i A / k) f
        bf = f[-1] * c
        bf[1:] += f[:-1]
        f = bf * (-1j / k)
        f[0] += 1.0
    u = np.zeros_like(a)
    u[:, range(n), range(n)] = f[0][:, None]
    for j, x in enumerate(powers, start=1):
        u += f[j][:, None, None] * x
    return u


class _TorusEngine:
    """A torus factor: the state is the angle vector, the block diagonal."""

    def __init__(self, factor: GroupSpec, count: int):
        self.factor = factor
        self.block = factor.rank
        self.x = np.zeros((count, factor.rank))

    def step(self, z: np.ndarray, sqh: float) -> None:
        self.x = self.x + sqh * z

    def renormalize(self) -> float:
        return 0.0

    def alcove_coords(self) -> np.ndarray:
        return self.x - TWO_PI * np.round(self.x / TWO_PI)

    def matrices(self) -> np.ndarray:
        m = np.zeros((len(self.x), self.block, self.block), dtype=complex)
        idx = np.arange(self.block)
        m[:, idx, idx] = np.exp(1j * self.x)
        return m

    def fold(self, m: np.ndarray) -> np.ndarray:
        return np.angle(np.diagonal(m, axis1=1, axis2=2))

    def project(self, z: np.ndarray) -> np.ndarray:
        return z


class _Su2Engine:
    """SU(2) elements as (a, b) with matrix [[a, b], [-conj b, conj a]]."""

    block = 2

    def __init__(self, factor: GroupSpec, count: int):
        self.factor = factor
        self.a = np.ones(count, dtype=complex)
        self.b = np.zeros(count, dtype=complex)

    def step(self, z: np.ndarray, sqh: float) -> None:
        # rows of c, not columns, and ua, conj(ub) filled part by part: a
        # reduce over a width-3 axis and complex temporaries cost more
        c = np.multiply(z.T, 0.5 * sqh, order="C")
        s = np.sqrt(np.einsum("ic,ic->c", c, c))
        q = c * _sin_over_y(s)
        ua = np.empty(len(s), dtype=complex)
        ua.real, ua.imag = np.cos(s), -q[2]
        ubc = np.empty(len(s), dtype=complex)             # conj(ub)
        ubc.real, ubc.imag = -q[1], q[0]
        self._times(ua, ubc)

    def times(self, inc: _Su2Engine, idx: np.ndarray) -> None:
        """Right-multiply each path by path idx of the increments inc."""
        self._times(inc.a[idx], np.conj(inc.b)[idx])

    def _times(self, ua: np.ndarray, ubc: np.ndarray) -> None:
        a, b = self.a, self.b
        self.a = a * ua - b * ubc
        self.b = a * np.conj(ubc) + b * np.conj(ua)

    def renormalize(self) -> float:
        r = np.sqrt(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)
        self.a = self.a / r
        self.b = self.b / r
        return float(np.max(np.abs(r - 1.0)))

    def alcove_coords(self) -> np.ndarray:
        # atan2 keeps full relative precision near the identity; arccos(Re a) does not
        return 2.0 * np.arctan2(np.hypot(self.a.imag, np.abs(self.b)),
                                self.a.real)[:, None]

    def matrices(self) -> np.ndarray:
        m = np.empty((len(self.a), 2, 2), dtype=complex)
        m[:, 0, 0] = self.a
        m[:, 0, 1] = self.b
        m[:, 1, 0] = -np.conj(self.b)
        m[:, 1, 1] = np.conj(self.a)
        return m

    def fold(self, m: np.ndarray) -> np.ndarray:
        # class functions: tr U = 2 cos(theta/2), |U - U^+|_F = 2 sqrt2 sin(theta/2)
        tr = np.einsum("cii->c", m).real
        anti = np.linalg.norm(m - np.conj(np.transpose(m, (0, 2, 1))), axis=(1, 2))
        return 2.0 * np.arctan2(anti / math.sqrt(2.0), tr)[:, None]

    def project(self, z: np.ndarray) -> np.ndarray:
        """Rank one: the torus coordinate is the algebra norm."""
        return np.linalg.norm(z, axis=1)[:, None]


class _So3Engine(_Su2Engine):
    """SO(3) = SU(2)/{+-1}: su2 paths seen through the covering map U -> Ad U.

    Ad U rotates by 2 arccos|Re a|, which already lies in the so3 alcove
    [0, pi]; steps, renormalization and algebra projection are the su2 ones."""

    block = 3
    _PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

    def alcove_coords(self) -> np.ndarray:
        return 2.0 * np.arctan2(np.hypot(self.a.imag, np.abs(self.b)),
                                np.abs(self.a.real))[:, None]

    def matrices(self) -> np.ndarray:
        """Adjoint rotations R_ij = tr(sigma_i U sigma_j U^dagger) / 2."""
        u = super().matrices()
        r = np.einsum("iab,cbd,jde,cae->cij", self._PAULI, u, self._PAULI,
                      np.conj(u), optimize=True)
        return r.real / 2.0

    def fold(self, m: np.ndarray) -> np.ndarray:
        # class functions: tr R - 1 = 2 cos(phi), |R - R^T|_F = 2 sqrt2 sin(phi)
        tr = np.einsum("cii->c", m).real
        anti = np.linalg.norm(m - np.transpose(m, (0, 2, 1)), axis=(1, 2))
        return np.arctan2(anti / math.sqrt(2.0), tr - 1.0)[:, None]


class _SunEngine:
    """SU(n), n >= 3, as n x n complex matrices."""

    def __init__(self, factor: GroupSpec, count: int):
        self.factor = factor
        self.block = factor.rank + 1
        self.m = np.broadcast_to(np.eye(self.block, dtype=complex),
                                 (count, self.block, self.block)).copy()

    def step(self, z: np.ndarray, sqh: float) -> None:
        self.m = self.m @ _exp_minus_i(_hamiltonian(z, 0.5 * sqh))

    def times(self, inc: _SunEngine, idx: np.ndarray) -> None:
        """Right-multiply each path by path idx of the increments inc."""
        self.m = self.m @ inc.m[idx]

    def renormalize(self) -> float:
        if not np.isfinite(self.m).all():  # the SVD would fail: report a NaN drift
            return math.nan
        # drift: max |sigma^2 - 1|, the spectral norm of m m^+ - I (>= any entry)
        u, sigma, vt = np.linalg.svd(self.m)
        self.m = u @ vt
        return float(np.max(np.abs(sigma * sigma - 1.0)))

    def alcove_coords(self) -> np.ndarray:
        return self.fold(self.m)

    def matrices(self) -> np.ndarray:
        return self.m

    def fold(self, m: np.ndarray) -> np.ndarray:
        """Alcove representative from the eigenvalues of SU(n) matrices.

        Phases phi sorted descending in [-pi, pi] total 2*pi*k, k in
        {-floor((n-1)/2), .., floor(n/2)}; the k largest move down by 2*pi (or
        the -k smallest up), keep their order and land at the other end, so
        rotating each row by k sorts it.  Its spread a_1 - a_n is 2*pi less
        the gap at the cut (phi_k - phi_{k+1} for k > 0), or phi_1 - phi_n at
        k = 0: at most 2*pi, so the point is in the closed alcove.  Ambient
        convention: exp(H) = diag(e^{i a_j}), a in descending (chamber) order."""
        n = self.block
        a = -np.sort(-np.angle(np.linalg.eigvals(m)), axis=1)
        k = np.rint(a.sum(axis=1) / TWO_PI).astype(int)[:, None]
        cols = np.arange(n)
        a = a - TWO_PI * (cols < k) + TWO_PI * (cols >= n + k)
        return np.take_along_axis(a, (cols + k) % n, axis=1) @ self.factor._coord_map.T

    def project(self, z: np.ndarray) -> np.ndarray:
        # Z = sum z_a X_a with X_a = -i lambda_a / 2 is conjugate to
        # diag(i a) for a = minus the (ascending) eigenvalues of the
        # Hermitian part, which lands a in descending chamber order.
        return -np.linalg.eigvalsh(_hamiltonian(z, 0.5)) @ self.factor._coord_map.T


# su2 and so3 ride the quaternion engine; every other su<n> the matrix one
_ENGINES = {"torus": _TorusEngine, "su2": _Su2Engine, "so3": _So3Engine,
            "su": _SunEngine}


def _engines(g: GroupSpec, count: int) -> list:
    """One engine per factor of g, each holding count paths at the identity."""
    out = []
    for name in g.factor_names:
        kind = name if name in _ENGINES else name.rstrip("0123456789")
        if kind not in _ENGINES:
            raise DomainError(f"no matrix realization for factor {name}")
        out.append(_ENGINES[kind](make_group(name), count))
    return out


class _Chunk:
    """count paths on g: the factor engines stepped from one increment.
    Its algebra and matrix-block slices are the one factor layout."""

    def __init__(self, g: GroupSpec, count: int):
        self.group = g
        self.engines = _engines(g, count)
        self.algebra = _slices(e.factor.dim for e in self.engines)
        self.blocks = _slices(e.block for e in self.engines)
        self.cuts = [(k, slice(lo, min(lo + _CUT, s.stop)))   # (factor, algebra slice)
                     for k, s in enumerate(self.algebra) for lo in range(s.start, s.stop, _CUT)]
        self.tables = {}                # (cut, sqh) -> the cut's 2^w sign-pattern increments
        self.weights = np.zeros((g.dim, len(self.cuts)), dtype=np.float32)
        for j, (_, c) in enumerate(self.cuts):  # cut j's sign bits weigh 2^0 .. 2^(w_j - 1)
            self.weights[c, j] = 2.0 ** np.arange(c.stop - c.start)

    def advance(self, z: np.ndarray, sqh: float) -> None:
        """One geodesic random-walk step with algebra increment sqh * z."""
        if z.dtype != np.int8:          # float rows step directly
            for eng, s in zip(self.engines, self.algebra):
                eng.step(z[:, s], sqh)
            return
        index = ((z < 0).astype(np.float32) @ self.weights).astype(np.intp)
        for j, (k, c) in enumerate(self.cuts):
            eng, w = self.engines[k], c.stop - c.start
            if (j, sqh) not in self.tables:     # the cut's 2^w patterns, zero off the cut
                pad = np.zeros((2 ** w, len(self.weights)), dtype=np.int8)
                pad[:, c] = 1 - 2 * (np.arange(2 ** w)[:, None] >> np.arange(w) & 1)
                self.tables[j, sqh] = type(eng)(eng.factor, 2 ** w)
                self.tables[j, sqh].step(pad[:, self.algebra[k]], sqh)
            eng.times(self.tables[j, sqh], index[:, j])

    def renormalize(self) -> None:
        """Project back onto the group; raise if the drift measured before
        the projection exceeds _DRIFT_TOL or is NaN."""
        for eng in self.engines:
            drift = eng.renormalize()
            if not drift <= _DRIFT_TOL:
                raise InstabilityError(
                    f"{self.group.name}: drift {drift:.2e} off the group "
                    f"manifold exceeds {_DRIFT_TOL:g} before renormalization"
                )

    def alcove_coords(self) -> np.ndarray:
        """Alcove torus coordinates of the endpoints, shape (count, rank)."""
        return np.concatenate([e.alcove_coords() for e in self.engines], axis=1)

    def matrices(self) -> np.ndarray:
        """Endpoint matrices, block-diagonal over the factors."""
        mats = [e.matrices() for e in self.engines]
        size = self.blocks[-1].stop
        out = np.zeros((len(mats[0]), size, size), dtype=np.result_type(*mats))
        for m, s in zip(mats, self.blocks):
            out[:, s, s] = m
        return out

    def fold(self, x: np.ndarray) -> np.ndarray:
        """Alcove coordinates of a batch of block-diagonal group matrices."""
        return np.concatenate([e.fold(x[:, s, s]) for e, s in zip(self.engines, self.blocks)],
                              axis=1)

    def project(self, z: np.ndarray) -> np.ndarray:
        """Torus coordinates of the Ad-invariant projection of algebra points."""
        # No alcove folding here: the projection preserves the norm and the
        # root angles, so j and any central function take the same values at
        # the projected point as at z itself.
        return np.concatenate([e.project(z[:, s]) for e, s in zip(self.engines, self.algebra)],
                              axis=1)


def _slices(sizes) -> list[slice]:
    ends = list(accumulate(sizes, initial=0))
    return [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]


def _walk(g: GroupSpec, count: int, rng: np.random.Generator, steps) -> _Chunk:
    """Step one chunk of count paths through the step sizes ``steps``.

    Each step draws one (count, dim) increment array: signs, or normals on a
    torus (no catalog group mixes torus and non-abelian factors).  The chunk
    is renormalized and guarded every _RENORM_EVERY steps and after the last
    one."""
    chunk = _Chunk(g, count)
    shape = (count, g.dim)
    for k, h in enumerate(steps):
        z = rng.standard_normal(shape) if g.is_abelian else _signs(rng, shape)
        chunk.advance(z, math.sqrt(h))
        if (k + 1) % _RENORM_EVERY == 0 or k == len(steps) - 1:
            chunk.renormalize()
    return chunk


def _signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Rademacher +-1 as int8 from the raw 64-bit words of rng's stream, read
    as little-endian bytes on every host, each byte high bit first."""
    n = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8")
    bits = np.unpackbits(words.view(np.uint8), count=n).view(np.int8)
    return (1 - 2 * bits).reshape(shape)


def _run_chunk(cfg: SdeConfig, index: int, count: int) -> _Chunk:
    n, h = cfg.n_steps, cfg.step
    steps = [h] * (n - 1) + [cfg.t - (n - 1) * h]
    return _walk(cfg.group, count, _rng(cfg.seed, _TAG_GROUP, index), steps)


def _flat_draw(cfg: SdeConfig, index: int, count: int, dim: int) -> np.ndarray:
    """The chunk's exact N(0, t I_dim) endpoints of flat Brownian motion."""
    rng = _rng(cfg.seed, _TAG_FLAT, index)
    return rng.standard_normal((count, dim)) * math.sqrt(cfg.t)


# ---------------------------------------------------------------------------
# public sampling operations
# ---------------------------------------------------------------------------

def sample_group_endpoint(cfg: SdeConfig, threads: int | None = None) -> np.ndarray:
    """Matrix endpoints of the geodesic random walk at time t, one matrix
    per path (block-diagonal over product factors; torus factors exact)."""
    parts = _map_chunks(cfg, lambda i, c: _run_chunk(cfg, i, c).matrices(), threads)
    return np.concatenate(parts, axis=0)


def conjugacy_coordinate(g: GroupSpec, x: np.ndarray) -> np.ndarray:
    """Torus point in the closed fundamental alcove conjugate to x.

    Deterministic (sorted eigenvalue phases); accepts one matrix or a batch.
    The input must sit on the group to 1e-6: unitary, zero off the factor
    blocks and off a torus block's diagonal, else det 1 (and real on so3).
    """
    x = np.asarray(x)
    single = x.ndim == 2
    x = x[None] if single else x
    chunk = _Chunk(g, 0)
    size = chunk.blocks[-1].stop
    if x.ndim != 3 or x.shape[1:] != (size, size):
        raise DomainError(f"{g.name}: input must be one {size}x{size} matrix or a batch")
    off = np.ones(x.shape[1:], dtype=bool)
    gaps = [x @ np.conj(np.transpose(x, (0, 2, 1))) - np.eye(size)]
    for e, s in zip(chunk.engines, chunk.blocks):
        off[s, s] = ~np.eye(e.block, dtype=bool) if e.factor.is_abelian else False
        if not e.factor.is_abelian:  # imaginary parts count on a real engine
            gaps += [np.linalg.det(x[:, s, s]) - 1.0,
                     x[:, s, s].imag * np.isrealobj(e.matrices())]
    if not all(np.max(np.abs(v), initial=0.0) <= 1e-6 for v in gaps + [x[:, off]]):
        raise DomainError(f"{g.name}: input is not on the group to 1e-6")
    out = chunk.fold(x)
    return out[0] if single else out


def feynman_kac_weight(g: GroupSpec, t: float) -> float:
    """e^{||rho||^2 t / 2}: the constant-potential weight converting plain
    Brownian expectations into shifted-kernel expectations."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    return math.exp(g.rho_norm_sq * t / 2)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

class RealCharacter:
    """Re chi_lambda as a plain callable on torus-coordinate batches.

    Characters can be complex on the torus (tori always, su3 for weights
    that are not self-dual), but Re chi has the same expectation under any
    real central law: E[Re chi] = Re E[chi] and the heat-kernel targets are
    real.  This is the canonical bounded test function for the Monte Carlo
    checks; |Re chi| <= d_lambda everywhere.
    """

    def __init__(self, g: GroupSpec, coords):
        self.group = g
        self.weight = weight(g, coords)
        self._table = CharacterTable(g, [self.weight], [1.0])

    def __call__(self, H) -> np.ndarray:
        return np.real(self._table.values(H))


def real_character(g: GroupSpec, coords) -> RealCharacter:
    """Canonical real test function: the real part of the character with
    the given dominant-weight coordinates."""
    return RealCharacter(g, coords)


def mc_expect_central(f, cfg: SdeConfig, threads: int | None = None) -> McEstimate:
    """Monte Carlo mean of a central function over plain group endpoints."""
    def worker(i, c):
        return _moments(f(_run_chunk(cfg, i, c).alcove_coords()))

    return _reduce_moments(_map_chunks(cfg, worker, threads), cfg.seed)


def _check_group(g: GroupSpec, cfg: SdeConfig) -> None:
    # make_group caches one spec per name, so identity is agreement
    if cfg.group is not g:
        raise DomainError(f"group {g.name} does not match the config's group {cfg.group.name}")


def wrap_bm_check(
    g: GroupSpec, f, cfg: SdeConfig, threads: int | None = None
) -> WrapBmReport:
    """Monte Carlo two-sided check of the transport of Brownian motion.

    lhs: mean of j(zeta_t) f(exp zeta_t) over exact flat Gaussian endpoints,
    evaluated through the Ad-invariant torus projection.  rhs: mean of f
    over simulated plain group endpoints, divided by feynman_kac_weight(t)
    to convert to the shifted semigroup.  Both estimate
    sum_lambda c_lambda d_lambda e^{-||lambda+rho||^2 t/2}; z is the gap in
    combined standard errors.
    """
    _check_group(g, cfg)

    def flat_worker(i, c):
        coords = _Chunk(g, 0).project(_flat_draw(cfg, i, c, g.dim))
        return _moments(j_compact(g, coords) * f(coords))

    lhs = _reduce_moments(_map_chunks(cfg, flat_worker, threads), cfg.seed)

    plain = mc_expect_central(f, cfg, threads)
    w = feynman_kac_weight(g, cfg.t)
    rhs = McEstimate(
        mean=plain.mean / w, stderr=plain.stderr / w, n=plain.n, seed=plain.seed
    )
    denom = math.sqrt(lhs.stderr**2 + rhs.stderr**2)
    z_score = abs(lhs.mean - rhs.mean) / denom if denom > 0 else math.inf
    return WrapBmReport(lhs=lhs, rhs=rhs, z=z_score)


# ---------------------------------------------------------------------------
# density comparison
# ---------------------------------------------------------------------------

def empirical_density_table(
    g: GroupSpec, cfg: SdeConfig, bins: int, threads: int | None = None
):
    """Bin alcove-projected endpoints against the plain-kernel prediction.

    Returns ``(score, rows)``; rows hold per-bin (lo, hi, expected count,
    observed count, relative deviation, threshold 4/sqrt(expected)).  The
    score is the max over counted bins of deviation/threshold, so score < 1
    means every bin passed.  Bins expecting < 100 endpoints are skipped; if
    every bin is skipped a ResolutionError asks for more paths or fewer
    bins.
    """
    _check_group(g, cfg)
    if bins < 1:
        raise DomainError("bins must be >= 1")
    if cfg.t < 0.25:
        raise DomainError(
            "density binning needs t >= 0.25; shorter horizons concentrate "
            "too sharply for histogram comparison"
        )
    if g.rank != 1:
        raise DomainError(
            f"empirical density binning needs a rank-one group, not {g.name}"
        )
    (lo, hi), = fundamental_intervals(g)
    edges = np.linspace(lo, hi, bins + 1)

    nodes, gl_w = np.polynomial.legendre.leggauss(16)
    q = heat_coefficients(g, cfg.t, shifted=False, tol=1e-10)
    probs = np.empty(bins)
    for b in range(bins):
        mid = 0.5 * (edges[b] + edges[b + 1])
        half = 0.5 * (edges[b + 1] - edges[b])
        pts = (mid + half * nodes)[:, None]
        dens = q.evaluate(pts) * weyl_density(g, pts)
        probs[b] = half * float(gl_w @ dens) / g.cell_volume
    probs = probs / probs.sum()

    def worker(i, c):
        coords = _run_chunk(cfg, i, c).alcove_coords()[:, 0]
        counts, _ = np.histogram(coords, bins=edges)
        return counts

    counts = sum(_map_chunks(cfg, worker, threads))
    expected = cfg.paths * probs
    rows = []
    score = 0.0
    any_counted = False
    for b in range(bins):
        if expected[b] < 100.0:
            rows.append((edges[b], edges[b + 1], expected[b], int(counts[b]),
                         math.nan, math.nan))
            continue
        any_counted = True
        dev = abs(counts[b] - expected[b]) / expected[b]
        thr = 4.0 / math.sqrt(expected[b])
        rows.append((edges[b], edges[b + 1], expected[b], int(counts[b]), dev, thr))
        score = max(score, float(dev) / thr)
    if not any_counted:
        raise ResolutionError(
            f"every one of the {bins} bins expects fewer than 100 endpoints; "
            f"increase paths or reduce bins"
        )
    return score, rows
