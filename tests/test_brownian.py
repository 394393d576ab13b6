"""Path simulation, endpoint laws, and the Monte Carlo identity checks.

Seeded runs are deterministic down to the bit, so the statistical tests
here are reproducible: tolerances are sized from standard errors but there
is no rerun flakiness.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wrapkit import (
    DomainError,
    InstabilityError,
    ResolutionError,
    ResourceLimitError,
    SdeConfig,
    alcove_points,
    brownian,
    character,
    conjugacy_coordinate,
    empirical_density_table,
    feynman_kac_weight,
    is_regular,
    make_group,
    mc_expect_central,
    real_character,
    sample_group_endpoint,
    wrap_bm_check,
)

TWO_PI = 2.0 * math.pi


def _flat_endpoints(cfg, dim, threads=None):
    """Every chunk's exact N(0, t I_dim) flat endpoints, in chunk order."""
    parts = brownian._map_chunks(
        cfg, lambda i, c: brownian._flat_draw(cfg, i, c, dim), threads)
    return np.concatenate(parts, axis=0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    su2 = make_group("su2")
    good = dict(group=su2, t=1.0, step=1e-3, paths=100, seed=7)
    SdeConfig(**good)
    for bad in (dict(good, t=0.0), dict(good, step=0.02),
                dict(good, step=0.0), dict(good, paths=0),
                dict(good, seed=-1), dict(good, seed=2**64),
                dict(good, chunk=0)):
        with pytest.raises(DomainError):
            SdeConfig(**bad)
    with pytest.raises(ResourceLimitError, match="cost cap"):
        SdeConfig(group=su2, t=1.0, step=1e-3, paths=10**9, seed=7)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_config_rejects_a_non_finite_horizon(t):
    for name in ("su2", "su3", "torus1"):
        with pytest.raises(DomainError, match="horizon"):
            SdeConfig(group=make_group(name), t=t, step=1e-3, paths=10, seed=7)


@pytest.mark.parametrize("t", [1e308, 1e300, 1e10])
def test_a_step_count_past_any_float_hits_the_cost_cap(t):
    # t / h overflows to inf at 1e308 / 1e-3; one path alone exceeds the cap
    for name in ("su2", "su3"):
        with pytest.raises(ResourceLimitError, match="cost cap"):
            SdeConfig(group=make_group(name), t=t, step=1e-3, paths=1, seed=7)


@pytest.mark.parametrize("name", ["torus1", "torus2"])
def test_a_torus_horizon_is_held_to_that_of_any_walk(name):
    # a walk at h <= 0.01 reaches t = 0.01 x the cost cap = 5e6 at most; the
    # one exact torus step is held there too, where its angles still keep bits
    g = make_group(name)
    for t in (1e308, 1e7):
        with pytest.raises(ResourceLimitError, match="cost cap"):
            SdeConfig(group=g, t=t, step=1e-3, paths=1, seed=7)
    assert SdeConfig(group=g, t=5e6, step=1e-3, paths=1, seed=7).n_steps == 1


def test_cost_cap_counts_the_one_step_of_a_torus_walk():
    # a torus walk draws its whole horizon at once: 1000 paths at h = 1e-6
    # are one step each, while the same request on su2 walks 1e6 steps
    torus1, su2 = make_group("torus1"), make_group("su2")
    cfg = SdeConfig(group=torus1, t=1.0, step=1e-6, paths=1000, seed=1)
    assert cfg.n_steps == 1
    with pytest.raises(ResourceLimitError, match="cost cap"):
        SdeConfig(group=su2, t=1.0, step=1e-6, paths=1000, seed=1)
    # no step list grows with t / h, so any step is one step
    assert SdeConfig(group=torus1, t=1.0, step=1e-9, paths=1, seed=1).n_steps == 1
    # the cap is paths times that one step
    with pytest.raises(ResourceLimitError, match="cost cap"):
        SdeConfig(group=torus1, t=1.0, step=1e-9, paths=5 * 10**8 + 1, seed=1)


def test_torus_request_at_a_tiny_step_is_one_exact_step():
    # the one exact step covers the horizon whatever h, so h = 1e-9 is
    # accepted and gives the endpoints of the bench step bit for bit
    torus1 = make_group("torus1")
    fine = SdeConfig(group=torus1, t=1.0, step=1e-9, paths=1000, seed=3)
    coarse = SdeConfig(group=torus1, t=1.0, step=5e-3, paths=1000, seed=3)
    assert np.array_equal(sample_group_endpoint(fine), sample_group_endpoint(coarse))


def test_step_count_and_remainder():
    su2 = make_group("su2")
    assert SdeConfig(group=su2, t=1.0, step=1e-3, paths=1, seed=0).n_steps == 1000
    assert SdeConfig(group=su2, t=0.35, step=0.01, paths=1, seed=0).n_steps == 35
    # horizon not a multiple of the step: one short final step
    assert SdeConfig(group=su2, t=0.305, step=0.01, paths=1, seed=0).n_steps == 31


def test_chunk_layout():
    su2 = make_group("su2")
    cfg = SdeConfig(group=su2, t=0.1, step=0.01, paths=45000, seed=1)
    assert cfg.chunks() == [(0, 20000), (1, 20000), (2, 5000)]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_runs_are_bit_reproducible():
    su2 = make_group("su2")
    f = real_character(su2, (1,))
    cfg = SdeConfig(group=su2, t=0.5, step=5e-3, paths=30000, seed=13)
    a = mc_expect_central(f, cfg, threads=1)
    b = mc_expect_central(f, cfg, threads=4)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = mc_expect_central(f, cfg, threads=2)
    assert a.mean == c.mean
    other = mc_expect_central(
        f, SdeConfig(group=su2, t=0.5, step=5e-3, paths=30000, seed=14))
    assert other.mean != a.mean


def test_flat_endpoints_reproducible_and_independent_of_group_stream():
    su2 = make_group("su2")
    cfg = SdeConfig(group=su2, t=0.7, step=5e-3, paths=5000, seed=21)
    x1 = _flat_endpoints(cfg, 3, threads=1)
    x2 = _flat_endpoints(cfg, 3, threads=2)
    assert np.array_equal(x1, x2)
    # group endpoints for the same config come from a distinct substream
    g1 = sample_group_endpoint(cfg)
    g2 = sample_group_endpoint(cfg)
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# the walk's increments
# ---------------------------------------------------------------------------

def _walk_increments(monkeypatch, g, count, steps, key):
    """(increments, sqh per advance) that _walk hands its chunk, in step
    order (the engines are left at the identity)."""
    seen = []
    monkeypatch.setattr(brownian._Chunk, "advance",
                        lambda self, z, sqh: seen.append((z.copy(), sqh)))
    brownian._walk(g, count, brownian._rng(*key), steps)
    return np.array([z for z, _ in seen]), np.array([sqh for _, sqh in seen])


def test_level_zero_increments_are_balanced_signs(monkeypatch):
    g = make_group("su2")
    count, n_steps = 4000, 5
    z, _ = _walk_increments(monkeypatch, g, count, [0.01] * n_steps, (11, 0, 0))
    assert z.shape == (n_steps, count, g.dim)
    assert set(np.unique(z).tolist()) == {-1, 1}
    n = n_steps * count
    assert np.max(np.abs(z.reshape(n, g.dim).mean(axis=0))) < 4.0 / math.sqrt(n)
    # one draw from the chunk's own stream per step
    rng = brownian._rng(11, 0, 0)
    assert np.array_equal(z, np.concatenate(
        [brownian._signs(rng, (1, count, g.dim)) for _ in range(n_steps)]))


def test_torus_walk_takes_its_horizon_in_one_exact_draw(monkeypatch):
    # exp is a homomorphism on a torus, so the endpoint is one N(0, t I)
    # draw whatever the step, here one that ends the horizon in a partial
    # step; signs would put it on a lattice 2 sqrt(h) apart
    g = make_group("torus2")
    count, t = 300, 0.043
    cfg = SdeConfig(group=g, t=t, step=0.01, paths=count, seed=11)
    seen = []
    monkeypatch.setattr(brownian._Chunk, "advance",
                        lambda self, z, sqh: seen.append((z.copy(), sqh)))
    brownian._run_chunk(cfg, 0, count)
    (z, sqh), = seen
    draw = brownian._rng(11, brownian._TAG_GROUP, 0).standard_normal((1, count, g.dim))
    assert np.array_equal(z[None], draw)
    assert sqh == math.sqrt(t)


def test_signs_are_keyed_by_seed_tag_and_chunk():
    shape = (2, 300, 3)
    a = brownian._signs(brownian._rng(5, brownian._TAG_GROUP, 3), shape)
    assert a.shape == shape
    assert np.array_equal(a, brownian._signs(brownian._rng(5, brownian._TAG_GROUP, 3), shape))
    for key in ((5, brownian._TAG_GROUP, 4), (6, brownian._TAG_GROUP, 3),
                (5, brownian._TAG_FLAT, 3)):
        assert not np.array_equal(a, brownian._signs(brownian._rng(*key), shape))
    # the bits of the first raw word, little-endian bytes, each high bit
    # first: integer arithmetic, so the same on every host
    word = int(brownian._rng(5, brownian._TAG_GROUP, 3).bit_generator.random_raw())
    bits = [(word >> (8 * (k // 8) + 7 - k % 8)) & 1 for k in range(64)]
    assert a.ravel()[:64].tolist() == [1 - 2 * b for b in bits]


# ---------------------------------------------------------------------------
# the two step routes: sign-pattern lookup and direct exponentials
# ---------------------------------------------------------------------------

def _route_pair(name, count, steps, seed):
    """Two chunks walked on the same seeded signs: as int8 (the lookup route)
    and cast to float64 (the direct route)."""
    g = make_group(name)
    rng = brownian._rng(seed, brownian._TAG_GROUP, 0)
    lookup, direct = brownian._Chunk(g, count), brownian._Chunk(g, count)
    for k, h in enumerate(steps):
        z = brownian._signs(rng, (count, g.dim))
        lookup.advance(z, math.sqrt(h))
        direct.advance(z.astype(np.float64), math.sqrt(h))
        if (k + 1) % 4 == 0:
            lookup.renormalize()
            direct.renormalize()
    return lookup, direct


@pytest.mark.parametrize("name", ["su2", "so3", "su2xsu2", "su3"])
def test_lookup_steps_equal_direct_steps_bit_for_bit(name):
    # ten steps of 5e-3 and a partial last one of 3e-3
    steps = [5e-3] * 10 + [3e-3]
    lookup, direct = _route_pair(name, 300, steps, seed=21)
    # one table per factor and step size, none on the float route
    assert len(lookup.tables) == 2 * len(lookup.engines)
    assert direct.tables == {}
    for a, b in zip(lookup.engines, direct.engines):
        for field in ("a", "b", "m"):
            if hasattr(a, field):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


@pytest.mark.parametrize("name", ["su2xsu2"])
def test_every_sign_pattern_gathers_its_own_row(name):
    # one identity path per pattern r = 0 .. 2^d - 1: the float32 product
    # must number each exactly, so every path equals the direct step on its
    # own signs; on su2xsu2 the second factor reads the high three bits,
    # column 1 of weights
    g = make_group(name)
    count, sqh = 2 ** g.dim, math.sqrt(5e-3)
    z = (1 - 2 * (np.arange(count)[:, None] >> np.arange(g.dim) & 1)).astype(np.int8)
    lookup = brownian._Chunk(g, count)
    direct = brownian._Chunk(g, count)
    lookup.advance(z, sqh)
    direct.advance(z.astype(np.float64), sqh)
    assert len(lookup.tables) == len(lookup.engines) and direct.tables == {}
    for a, b in zip(lookup.engines, direct.engines):
        for field in ("a", "b", "m"):
            if hasattr(a, field):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def _count_exponentials(monkeypatch):
    calls = []
    exp = brownian._exp_minus_i
    monkeypatch.setattr(brownian, "_exp_minus_i", lambda a: calls.append(len(a)) or exp(a))
    return calls


def test_su3_lookup_exponentiates_once_per_step_size(monkeypatch):
    calls = _count_exponentials(monkeypatch)
    g = make_group("su3")
    cfg = SdeConfig(group=g, t=0.053, step=5e-3, paths=1000, seed=4)
    chunk = brownian._run_chunk(cfg, 0, cfg.paths)
    # eleven steps, two step sizes: one exponential of the 256 patterns each
    assert cfg.n_steps == 11
    assert calls == [256, 256]
    assert len(chunk.tables) == 2


def test_su4_cut_patterns_gather_their_own_rows():
    # one identity path per pattern r = 0 .. 2^15 - 1 of su4's cuts of 8 and
    # 7 coordinates (all-negative 255 and 127, the largest row numbers):
    # each path equals two direct steps, in cut order, on its signs with the
    # other cut zeroed
    g = make_group("su4")
    count, sqh = 2 ** g.dim, math.sqrt(5e-3)
    z = (1 - 2 * (np.arange(count)[:, None] >> np.arange(g.dim) & 1)).astype(np.int8)
    lookup, direct = brownian._Chunk(g, count), brownian._Chunk(g, count)
    assert [c for _, c in lookup.cuts] == [slice(0, 8), slice(8, 15)]
    lookup.advance(z, sqh)
    for _, c in lookup.cuts:
        pad = np.zeros(z.shape)
        pad[:, c] = z[:, c]
        direct.advance(pad, sqh)
    assert len(lookup.tables) == 2 and direct.tables == {}
    assert lookup.engines[0].m.tobytes() == direct.engines[0].m.tobytes()


@pytest.mark.parametrize("name, calls", [
    ("su3", [256]), ("su4", [256, 128]), ("su5", [256, 256, 256])])
def test_every_walk_builds_one_table_per_cut_and_step_size(monkeypatch, name, calls):
    # 64 paths, fewer than the patterns of any cut, and one step: every sign
    # row still takes its cuts' tables, one exponential of 2^w rows each
    seen = _count_exponentials(monkeypatch)
    cfg = SdeConfig(group=make_group(name), t=1 / 128, step=1 / 128, paths=64, seed=4)
    chunk = brownian._run_chunk(cfg, 0, cfg.paths)
    assert seen == calls
    assert len(chunk.tables) == len(chunk.cuts) == len(calls)


# ---------------------------------------------------------------------------
# endpoint laws
# ---------------------------------------------------------------------------

def test_flat_endpoint_moments_and_characteristic_function():
    t1 = make_group("torus1")
    t = 0.8
    cfg = SdeConfig(group=t1, t=t, step=1e-2, paths=60000, seed=3)
    x = _flat_endpoints(cfg, 2)
    assert x.shape == (60000, 2)
    n = len(x)
    assert np.max(np.abs(x.mean(axis=0))) < 4 * math.sqrt(t / n)
    cov = x.T @ x / n
    assert_allclose(cov, t * np.eye(2), atol=5 * t / math.sqrt(n))
    for xi in (np.array([1.0, 0.0]), np.array([0.7, -0.4]), np.array([0.0, 2.0])):
        emp = np.exp(1j * x @ xi).mean()
        target = math.exp(-t * float(xi @ xi) / 2.0)
        assert abs(emp - target) < 5.0 / math.sqrt(n)
    # Gaussian 3, a sign draw 1; the sample kurtosis has stderr sqrt(24 / n) = 0.02
    kurtosis = np.mean(x ** 4, axis=0) / np.mean(x ** 2, axis=0) ** 2
    assert np.max(np.abs(kurtosis - 3.0)) < 0.2


def test_group_endpoints_live_on_the_group():
    su2 = make_group("su2")
    cfg = SdeConfig(group=su2, t=0.4, step=5e-3, paths=2000, seed=9)
    mats = sample_group_endpoint(cfg)
    assert mats.shape == (2000, 2, 2)
    gram = mats @ np.conj(np.transpose(mats, (0, 2, 1)))
    assert np.max(np.abs(gram - np.eye(2))) < 1e-6
    assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-6
    coords = conjugacy_coordinate(su2, mats)
    assert np.all((coords >= 0.0) & (coords <= TWO_PI))


def test_torus_endpoints_do_not_depend_on_the_step():
    t2 = make_group("torus2")
    ends = [sample_group_endpoint(SdeConfig(group=t2, t=0.5, step=h, paths=2000, seed=9))
            for h in (1e-2, 5e-3, 1e-3)]
    for x in ends[1:]:
        assert_allclose(x, ends[0], rtol=1e-15, atol=0)


def test_product_endpoints_are_block_diagonal():
    g = make_group("su2xsu2")
    cfg = SdeConfig(group=g, t=0.4, step=5e-3, paths=500, seed=9)
    mats = sample_group_endpoint(cfg)
    assert mats.shape == (500, 4, 4)
    assert np.max(np.abs(mats[:, :2, 2:])) == 0.0
    assert np.max(np.abs(mats[:, 2:, :2])) == 0.0
    coords = conjugacy_coordinate(g, mats)
    assert coords.shape == (500, 2)


def test_short_horizon_stays_near_identity():
    su2 = make_group("su2")
    cfg = SdeConfig(group=su2, t=0.01, step=1e-3, paths=4000, seed=5)
    theta = conjugacy_coordinate(su2, sample_group_endpoint(cfg))[:, 0]
    # |theta| ~ |BM(t)| in R^3; 6 sigma headroom on the max over 4000 paths
    assert np.max(theta) < 6.0 * math.sqrt(3 * cfg.t)


def test_spectral_decay_of_character_mean():
    su2 = make_group("su2")
    t = 0.5
    cfg = SdeConfig(group=su2, t=t, step=5e-3, paths=30000, seed=17)
    est = mc_expect_central(real_character(su2, (1,)), cfg)
    target = 2.0 * math.exp(-(1.0 - 0.25) * t / 2.0)
    assert abs(est.mean - target) < 4 * est.stderr + 5 * cfg.step


# ---------------------------------------------------------------------------
# conjugacy coordinates
# ---------------------------------------------------------------------------

def test_conjugacy_coordinate_closed_forms():
    su2 = make_group("su2")
    theta = 1.7
    u = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    assert_allclose(conjugacy_coordinate(su2, u), [theta], atol=1e-12)

    so3 = make_group("so3")
    phi = 1.1
    r = np.array([[math.cos(phi), -math.sin(phi), 0.0],
                  [math.sin(phi), math.cos(phi), 0.0],
                  [0.0, 0.0, 1.0]])
    assert_allclose(conjugacy_coordinate(so3, r), [phi], atol=1e-12)

    t2 = make_group("torus2")
    d = np.diag(np.exp(1j * np.array([0.4, -2.0])))
    assert_allclose(conjugacy_coordinate(t2, d), [0.4, -2.0], atol=1e-12)


def test_conjugacy_coordinate_su3_round_trip():
    su3 = make_group("su3")
    # interior alcove point: eigenvalue phases strictly descending and the
    # highest-root pairing below 2 pi
    H0 = np.array([0.5, 0.8])
    assert is_regular(su3, H0)
    u1 = np.array([0.5, -0.5, 0.0])
    u2 = np.array([1.0, 1.0, -2.0]) / (2.0 * math.sqrt(3.0))
    v = H0[0] * u1 + H0[1] * u2
    x = np.diag(np.exp(1j * v))
    assert_allclose(conjugacy_coordinate(su3, x), H0, atol=1e-10)


def test_conjugacy_coordinate_is_conjugation_invariant():
    su3 = make_group("su3")
    H0 = np.array([1.1, 1.2])
    u1 = np.array([0.5, -0.5, 0.0])
    u2 = np.array([1.0, 1.0, -2.0]) / (2.0 * math.sqrt(3.0))
    x = np.diag(np.exp(1j * (H0[0] * u1 + H0[1] * u2)))
    # a fixed special unitary from a Hermitian generator
    herm = np.array([[0.0, 0.3 - 0.2j, 0.1],
                     [0.3 + 0.2j, 0.4, -0.5j],
                     [0.1, 0.5j, -0.4]])
    evals, vecs = np.linalg.eigh(herm)
    w = vecs @ np.diag(np.exp(1j * evals)) @ np.conj(vecs.T)
    y = w @ x @ np.conj(w.T)
    assert_allclose(conjugacy_coordinate(su3, y), H0, atol=1e-10)


@pytest.mark.parametrize(
    "name", ["torus1", "torus2", "su2", "so3", "su2xsu2", "su3", "su4"])
def test_matrix_fold_matches_engine_fold(name):
    # the fold conjugacy_coordinate applies to endpoint matrices and the one
    # each engine applies to its own path state must name the same point
    g = make_group(name)
    cfg = SdeConfig(group=g, t=0.5, step=5e-3, paths=300, seed=31, chunk=200)
    mats = sample_group_endpoint(cfg)
    engine = np.concatenate([brownian._run_chunk(cfg, i, c).alcove_coords()
                             for i, c in cfg.chunks()])
    diff = conjugacy_coordinate(g, mats) - engine
    if g.is_abelian:
        diff = (diff + math.pi) % TWO_PI - math.pi
    assert engine.shape == (cfg.paths, g.rank)
    assert np.max(np.abs(diff)) < 1e-10
    if name == "so3":
        assert mats.shape == (cfg.paths, 3, 3)
        assert np.isrealobj(mats)
        assert np.max(np.abs(mats @ np.transpose(mats, (0, 2, 1)) - np.eye(3))) < 1e-12
        assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-12


def _exp_diag(g, H):
    """exp(H) in SU(n) as diag(e^{i a}): alpha_i(H) = a_i - a_{i+1}, sum a = 0."""
    d = np.atleast_2d(H) @ g.simple_roots.T
    a = np.concatenate([np.zeros((len(d), 1)), -np.cumsum(d, axis=1)], axis=1)
    a -= a.mean(axis=1, keepdims=True)
    return np.stack([np.diag(np.exp(1j * row)) for row in a])


@pytest.mark.parametrize("name", ["su3", "su4"])
def test_conjugacy_coordinate_returns_alcove_points(name):
    g = make_group(name)
    n = g.rank + 1
    # alcove points plus one point with phase defect -1 and its mirror (+1)
    a = np.array({3: [3.5, -1.0, -2.5], 4: [3.5, 0.5, -1.5, -2.5]}[n])
    extra = [np.linalg.solve(g.simple_roots, -np.diff(b)) for b in (a, -a[::-1])]
    pts = np.vstack([alcove_points(g, 20), *extra])
    phases = np.angle(np.linalg.eigvals(_exp_diag(g, pts)))
    assert set(np.rint(phases.sum(axis=1) / TWO_PI).astype(int)) == {-1, 0, 1}
    q, r = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n, 2)) @ [1, 1j])
    w = q * (np.diag(r) / np.abs(np.diag(r)))
    w = w / np.linalg.det(w) ** (1 / n)
    x = w @ _exp_diag(g, pts) @ np.conj(w.T)
    assert_allclose(conjugacy_coordinate(g, x), pts, atol=1e-10)
    if n == 4:
        # -I has all phases at pi: the defect k = 2 lands on the vertex w_2
        vertex = TWO_PI * np.linalg.inv(g.simple_roots)[:, 1]
        assert_allclose(conjugacy_coordinate(g, -np.eye(4)), vertex, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generalised_gell_mann_generators(n):
    gens = brownian._generators(n)
    assert gens.shape == (n * n - 1, n, n)
    assert np.array_equal(gens, np.conj(np.transpose(gens, (0, 2, 1))))
    assert_allclose(np.einsum("aii->a", gens), 0.0, atol=1e-15)
    assert_allclose(np.einsum("aij,bji->ab", gens, gens), 2.0 * np.eye(n * n - 1),
                    atol=1e-14)
    if n == 3:
        s3 = 1 / math.sqrt(3)
        frozen = np.array([
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
            [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
            [[s3, 0, 0], [0, s3, 0], [0, 0, -2 * s3]],
        ], dtype=complex)
        assert gens.tobytes() == frozen.tobytes()


def _eigh_exp(a):
    """exp(-i A) for a batch of Hermitian A through their eigenvectors."""
    w, v = np.linalg.eigh(a)
    return np.einsum("cik,ck,cjk->cij", v, np.exp(-1j * w), np.conj(v))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_step_exponential_matches_eigh(n):
    # The engines step at sqrt h <= 0.1 with sign increments, Frobenius
    # norm sqrt(h d / 2) <= 0.35.  The second case reaches further, to
    # _hamiltonian(z, 0.05) with z in {+-2}^d: Frobenius norm 0.1 sqrt(2d),
    # 0.40 / 0.55 / 0.69 on su3 / su4 / su5, inside the r <= 1 contract.
    # The Taylor sum takes no scaling, so a norm above 1 (here the
    # Hamiltonian of a unit step, sqrt h = 1) raises instead.
    d = n * n - 1
    rng = np.random.default_rng(40 + n)
    cases = [brownian._hamiltonian(rng.standard_normal((64, d)), 0.5 * 0.05),
             brownian._hamiltonian(2.0 * rng.choice([-1.0, 1.0], size=(64, d)), 0.5 * 0.1)]
    unit = brownian._hamiltonian(rng.standard_normal((64, d)), 0.5)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    wall = 0.3 * np.diag([1.0, 1.0, -2.0] + [0.0] * (n - 3))
    close = np.diag(np.arange(n) - (n - 1) / 2) * 1e-9 + wall
    cases += [np.zeros((2, n, n), dtype=complex), wall[None] + 0j,
              (q @ wall @ np.conj(q.T))[None], (q @ close @ np.conj(q.T))[None]]
    for a in cases:
        u = brownian._exp_minus_i(a)
        assert np.max(np.abs(u - _eigh_exp(a))) < 1e-13
        assert np.max(np.abs(u @ np.conj(np.transpose(u, (0, 2, 1))) - np.eye(n))) < 1e-14
    assert math.isclose(np.linalg.norm(cases[1][0]), 0.1 * math.sqrt(2 * d))
    with pytest.raises(InstabilityError):
        brownian._exp_minus_i(unit)


@pytest.mark.parametrize("name", ["su3", "su4"])
def test_sun_walk_matches_an_eigh_stepped_walk(name):
    g = make_group(name)
    eng = brownian._SunEngine(g, 200)
    ref = eng.m.copy()
    gens = brownian._generators(eng.block)
    rng = np.random.default_rng(8)
    sqh = math.sqrt(1e-2)
    for _ in range(50):
        z = rng.standard_normal((200, g.dim))
        eng.step(z, sqh)
        ref = ref @ _eigh_exp(np.einsum("ca,aij->cij", z, gens) * (0.5 * sqh))
    assert np.max(np.abs(eng.m - ref)) < 1e-12


@pytest.mark.parametrize("angle", [1e-4, 1e-6, 1e-8])
def test_conjugacy_coordinate_keeps_precision_near_identity(angle):
    # an arccos of the trace returns 1e-6 as 1.000044e-6 and 1e-8 as 0
    su2, so3 = make_group("su2"), make_group("so3")
    u = np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)])
    r = np.array([[math.cos(angle), -math.sin(angle), 0.0],
                  [math.sin(angle), math.cos(angle), 0.0],
                  [0.0, 0.0, 1.0]])
    assert_allclose(conjugacy_coordinate(su2, u), [angle], rtol=1e-12, atol=0)
    assert_allclose(conjugacy_coordinate(so3, r), [angle], rtol=1e-12, atol=0)
    # the same point as su2 path state (a, b) = (e^{i angle/2}, 0), whose
    # so3 image is the rotation by the same angle
    for g, eng in ((su2, brownian._Su2Engine), (so3, brownian._So3Engine)):
        state = eng(g, 1)
        state.a = np.array([np.exp(0.5j * angle)])
        assert_allclose(state.alcove_coords(), [[angle]], rtol=1e-12, atol=0)


def test_conjugacy_coordinate_identity_and_rejection():
    su2 = make_group("su2")
    assert_allclose(conjugacy_coordinate(su2, np.eye(2)), [0.0], atol=0)
    with pytest.raises(DomainError, match="not on the group"):
        conjugacy_coordinate(su2, 1.01 * np.eye(2))


@pytest.mark.parametrize("name, x", [
    ("su2", np.diag([1.0, -1.0])),                       # det -1
    ("su3", 1j * np.eye(3)),                             # det -i
    ("so3", -np.eye(3)),                                 # a reflection
    ("su2xsu2", np.kron([[0, 1], [1, 0]], np.eye(2))),   # the blocks swapped
    ("torus2", np.array([[0.0, 1.0], [1.0, 0.0]])),      # off the diagonal
    ("so3", np.diag([1, 1j, -1j])),                      # unitary, det 1, not real
], ids=["su2-det", "su3-det", "so3-reflection", "su2xsu2-swapped", "torus2-off-diagonal",
        "so3-complex"])
def test_conjugacy_coordinate_rejects_unitary_input_off_the_group(name, x):
    assert np.allclose(x @ np.conj(x.T), np.eye(len(x)))
    with pytest.raises(DomainError, match="not on the group"):
        conjugacy_coordinate(make_group(name), x)


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")
@pytest.mark.parametrize("name", ["su2", "su3"])
def test_conjugacy_coordinate_rejects_a_nan_entry(name):
    # the on-group check fails closed: a NaN compares false against 1e-6
    x = np.eye(make_group(name).rank + 1, dtype=complex)
    x[0, 0] = np.nan
    with pytest.raises(DomainError, match="not on the group"):
        conjugacy_coordinate(make_group(name), x)


@pytest.mark.parametrize("name, x", [
    ("su2xsu2", np.eye(2)),                              # one factor's block
    ("su3", np.eye(2)),                                  # too small a matrix
    ("torus2", np.eye(1)),                               # one angle of two
    ("su2", np.eye(2)[None, None]),                      # a batch of batches
], ids=["su2xsu2-one-block", "su3-2x2", "torus2-1x1", "su2-4d"])
def test_conjugacy_coordinate_rejects_input_off_the_block_layout(name, x):
    with pytest.raises(DomainError, match="matrix or a batch"):
        conjugacy_coordinate(make_group(name), x)


# ---------------------------------------------------------------------------
# the transport identity, Monte Carlo side
# ---------------------------------------------------------------------------

def test_feynman_kac_weight_values():
    assert feynman_kac_weight(make_group("torus2"), 3.0) == 1.0
    assert_allclose(feynman_kac_weight(make_group("su2"), 1.0),
                    math.exp(0.125), rtol=1e-15)
    assert_allclose(feynman_kac_weight(make_group("su3"), 0.5),
                    math.exp(0.25), rtol=1e-15)


def test_real_character_matches_table():
    su3 = make_group("su3")
    f = real_character(su3, (1, 1))
    pts = np.array([[0.7, 0.3], [1.4, 0.9], [2.0, 0.2]])
    direct = np.asarray(character(su3, (1, 1), pts)).real
    assert_allclose(f(pts), direct, rtol=1e-12)
    assert np.max(np.abs(f(pts))) <= f.weight.dimension


@pytest.mark.parametrize("name", ["torus1", "su2"])
def test_wrap_bm_identity_small(name):
    g = make_group(name)
    cfg = SdeConfig(group=g, t=0.5, step=5e-3, paths=40000, seed=11)
    rep = wrap_bm_check(g, real_character(g, (1,)), cfg)
    gap = abs(rep.lhs.mean - rep.rhs.mean)
    allowance = 3.0 * math.hypot(rep.lhs.stderr, rep.rhs.stderr) + 5.0 * cfg.step
    assert gap <= allowance
    assert rep.z == pytest.approx(gap / math.hypot(rep.lhs.stderr,
                                                   rep.rhs.stderr), rel=1e-12)
    assert rep.lhs.n == cfg.paths and rep.rhs.n == cfg.paths


def test_wrap_bm_constant_function_exposes_the_weight():
    # f = 1: the flat side averages j <= 1 while the group side is 1, so the
    # identity only balances through the division by the positive weight
    su2 = make_group("su2")
    cfg = SdeConfig(group=su2, t=1.0, step=5e-3, paths=30000, seed=23)
    rep = wrap_bm_check(su2, lambda H: np.ones(len(np.atleast_2d(H))), cfg)
    assert rep.lhs.mean < 1.0
    assert_allclose(rep.rhs.mean, 1.0 / feynman_kac_weight(su2, cfg.t),
                    rtol=1e-12)
    gap = abs(rep.lhs.mean - rep.rhs.mean)
    assert gap <= 3.0 * math.hypot(rep.lhs.stderr, rep.rhs.stderr) + 5e-3 * 5


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_moment_merge_keeps_the_variance_under_a_large_mean(offset):
    # 40000 values of offset + N(0, 1) in two chunks: sum-of-squares
    # moments lose the variance (stderr 0.0 at 1e8); merged (n, mean, M2)
    # triples match the two-pass value
    v = offset + np.random.default_rng(3).standard_normal(40000)
    est = brownian._reduce_moments([brownian._moments(v[:20000]),
                                    brownian._moments(v[20000:])], seed=0)
    two_pass = float(np.std(v, ddof=1)) / math.sqrt(len(v))
    assert est.n == len(v)
    assert abs(est.stderr - two_pass) <= 1e-6 * two_pass
    # the mean itself to a few units in the last place of the offset
    assert abs(est.mean - float(np.mean(v))) <= 1e-15 * offset + 1e-6 * two_pass
    # end to end: a constant shift of f moves the mean, not the stderr
    su2 = make_group("su2")
    cfg = SdeConfig(group=su2, t=0.3, step=1e-2, paths=4000, seed=5, chunk=1000)
    f = real_character(su2, (1,))
    base = mc_expect_central(f, cfg)
    shifted = mc_expect_central(lambda H: offset + f(H), cfg)
    assert abs(shifted.stderr - base.stderr) <= 1e-6 * base.stderr
    assert abs(shifted.mean - offset - base.mean) <= 1e-15 * offset + 1e-6 * base.stderr


# ---------------------------------------------------------------------------
# histogram check
# ---------------------------------------------------------------------------

def test_empirical_density_small_run():
    su2 = make_group("su2")
    cfg = SdeConfig(group=su2, t=1.0, step=2e-3, paths=50000, seed=5)
    score, rows = empirical_density_table(su2, cfg, 12)
    assert score < 1.0
    assert len(rows) == 12
    counted = [r for r in rows if not math.isnan(r[4])]
    assert counted, "expected at least one counted bin"
    for lo, hi, expected, observed, dev, thr in counted:
        assert hi > lo
        assert expected >= 100.0
        assert_allclose(thr, 4.0 / math.sqrt(expected), rtol=1e-12)
        assert dev <= thr  # score < 1 bin by bin
    total_observed = sum(r[3] for r in rows)
    assert total_observed == cfg.paths


def test_torus1_density_table_passes_at_the_cli_defaults():
    # the simulate command's defaults; a torus walk of +-1 signs lands on a
    # lattice 2 sqrt(h) = 0.063 apart, 8 or 9 points per bin, and fails here
    t1 = make_group("torus1")
    cfg = SdeConfig(group=t1, t=1.0, step=1e-3, paths=100000, seed=0, chunk=20000)
    score, rows = empirical_density_table(t1, cfg, 12)
    assert score < 1.0
    assert sum(r[3] for r in rows) == cfg.paths


def test_empirical_density_guards():
    su2 = make_group("su2")
    with pytest.raises(DomainError, match="t >= 0.25"):
        empirical_density_table(
            su2, SdeConfig(group=su2, t=0.1, step=1e-3, paths=1000, seed=1), 8)
    with pytest.raises(DomainError, match="rank-one"):
        empirical_density_table(
            make_group("su3"),
            SdeConfig(group=make_group("su3"), t=0.5, step=1e-2, paths=1000,
                      seed=1), 8)
    cfg = SdeConfig(group=su2, t=1.0, step=1e-2, paths=1000, seed=1)
    with pytest.raises(ResolutionError, match="100"):
        empirical_density_table(su2, cfg, 200)
    with pytest.raises(DomainError):
        empirical_density_table(su2, cfg, 0)
    assert empirical_density_table(su2, cfg, 4)[0] < 1.0


def test_group_argument_must_match_the_config():
    # a group passed beside a config built for another group would compare
    # one group's side against the other's paths and still return numbers
    su2, so3 = make_group("su2"), make_group("so3")
    cfg = SdeConfig(group=so3, t=0.5, step=5e-3, paths=1000, seed=1)
    with pytest.raises(DomainError, match="su2.*so3"):
        wrap_bm_check(su2, real_character(su2, (1,)), cfg)
    with pytest.raises(DomainError, match="su2.*so3"):
        empirical_density_table(su2, cfg, 8)


# ---------------------------------------------------------------------------
# the drift guard
# ---------------------------------------------------------------------------

def test_drift_guard_covers_every_stepping_loop(monkeypatch):
    # a negative tolerance makes every drift, even an exact zero, too large
    monkeypatch.setattr(brownian, "_DRIFT_TOL", -1.0)
    su2 = make_group("su2")
    f = real_character(su2, (1,))
    cfg = SdeConfig(group=su2, t=0.05, step=1e-2, paths=50, seed=1)
    with pytest.raises(InstabilityError, match="drift"):
        mc_expect_central(f, cfg)


def _scale_state(eng, factor):
    if hasattr(eng, "m"):
        eng.m = eng.m * factor
    else:
        eng.a, eng.b = eng.a * factor, eng.b * factor


@pytest.mark.parametrize("name", ["su2", "so3", "su3"])
def test_drift_guard_catches_a_real_drift(name):
    g = make_group(name)
    cfg = SdeConfig(group=g, t=0.05, step=1e-2, paths=50, seed=3)
    chunk = brownian._run_chunk(cfg, 0, cfg.paths)
    _scale_state(chunk.engines[0], 1 + 2e-6)
    with pytest.raises(InstabilityError, match="drift"):
        chunk.renormalize()
    # a drift under the tolerance is projected back onto the group
    chunk = brownian._run_chunk(cfg, 0, cfg.paths)
    _scale_state(chunk.engines[0], 1 + 1e-8)
    chunk.renormalize()
    mats = chunk.matrices()
    gram = mats @ np.conj(np.transpose(mats, (0, 2, 1)))
    assert np.max(np.abs(gram - np.eye(mats.shape[1]))) < 1e-14


@pytest.mark.parametrize("name", ["su2", "so3", "su3"])
def test_drift_guard_catches_a_nan_state(name):
    # NaN compares false with every tolerance, so the guard must not read
    # drift > tol; the su<n> SVD must not fail first with numpy's error
    g = make_group(name)
    cfg = SdeConfig(group=g, t=0.05, step=1e-2, paths=50, seed=3)
    chunk = brownian._run_chunk(cfg, 0, cfg.paths)
    eng = chunk.engines[0]
    if hasattr(eng, "m"):
        eng.m[1, 0, 0] = np.nan
    else:
        eng.a[1] = np.nan
    with pytest.raises(InstabilityError, match="drift nan"), np.errstate(invalid="ignore"):
        chunk.renormalize()
