"""Property tests of the spectral core: weight enumeration, its per-group
table, the FFT quadrature round trip, Weyl invariance of character
synthesis, the decay envelopes of the radial closed forms and the proved
tail bounds behind both truncations; of the
su<n> conjugacy fold from matrices to alcove points; of the su<n> step
exponential on every increment the walk can make; and of the chunk layout
of a path request.

The weight reference below is an independent brute-force scan in Fractions:
the exact pairings are recovered from the float catalog data (all of them
are rationals with denominators below 1000), so it shares no integer forms
with the library.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammaincc

from wrapkit import (
    CentralFunction,
    InstabilityError,
    RadialFunction,
    SdeConfig,
    alcove_points,
    auto_cutoff,
    conjugacy_coordinate,
    enumerate_weights,
    fourier_coefficients,
    is_regular,
    j_compact,
    lattice_points,
    make_group,
    spectral_heat_kernel,
    wall_distance,
    weyl_density,
    wrap_spectral,
    wrapped_heat_kernel,
)
from wrapkit.brownian import _exp_minus_i, _hamiltonian
from wrapkit.groups import TWO_PI, CharacterTable
from wrapkit.wrapping import _lattice_radius, _ring_width, _upper_gamma

ALL_GROUPS = ("torus1", "torus2", "su2", "so3", "su2xsu2", "su3")


def _exact(x) -> Fraction:
    return Fraction(float(x)).limit_denominator(1000)


def _exact_matrix(a):
    return [[_exact(v) for v in row] for row in np.atleast_2d(a)]


def _brute_weights(g, cutoff):
    """(coords, dimension, ||lambda + rho||^2) of every dominant weight under
    the cutoff, sorted by exact norm and then coordinates."""
    wb = g.weight_basis
    gram = _exact_matrix(wb @ wb.T)
    lin = [_exact(v) for v in wb @ g.rho]                      # <g_i, rho>
    const = _exact(g.rho_norm_sq)
    simple = _exact_matrix(wb @ g.simple_roots.T) if len(g.simple_roots) else None
    roots = _exact_matrix(wb @ g.positive_roots.T) if g.n_positive_roots else None
    rho_roots = [_exact(v) for v in g.positive_roots @ g.rho]
    reach = (math.sqrt(cutoff) + math.sqrt(g.rho_norm_sq)) / np.linalg.svd(wb)[1][-1]
    bound = int(math.ceil(reach)) + 2
    axis = range(-bound, bound + 1)
    cut = Fraction(cutoff)
    out = []
    for c in np.ndindex(*([len(axis)] * g.rank)):
        c = [axis[k] for k in c]
        if simple is not None and any(
                sum(c[i] * simple[i][s] for i in range(g.rank)) < 0
                for s in range(len(simple[0]))):
            continue
        norm = const + sum(2 * c[i] * lin[i] for i in range(g.rank)) + sum(
            c[i] * c[j] * gram[i][j] for i in range(g.rank) for j in range(g.rank))
        if norm > cut:
            continue
        dim = Fraction(1)
        for a in range(len(rho_roots)):
            dim *= (sum(c[i] * roots[i][a] for i in range(g.rank)) + rho_roots[a]) / rho_roots[a]
        assert dim.denominator == 1
        out.append((norm, tuple(c), int(dim)))
    out.sort()
    return [(c, d, float(n)) for n, c, d in out]


def _conjugates(g, ws):
    """lambda -> lambda*, the highest weight of the dual representation: the
    weight whose Weyl orbit of lambda* + rho is minus that of lambda + rho."""
    def key(stack):
        return tuple(sorted(map(tuple, np.round(stack, 9))))

    mus = np.array([w.coords for w in ws]) @ g.weight_basis + g.rho        # lambda + rho
    stacks = np.einsum("wij,lj->lwi", g._weyl_mats, mus)                      # w(lambda + rho)
    by_orbit = {key(s): w for s, w in zip(stacks, ws)}
    return {w: by_orbit[key(-s)] for s, w in zip(stacks, ws)}


@settings(deadline=None)  # first calls build per-group tables
@given(name=st.sampled_from(ALL_GROUPS), cutoff=st.floats(0.05, 60.0))
def test_enumerate_weights_matches_fraction_brute_force(name, cutoff):
    g = make_group(name)
    got = [(w.coords, w.dimension, w.lambda_plus_rho_norm_sq)
           for w in enumerate_weights(g, cutoff)]
    assert got == _brute_weights(g, cutoff)


@settings(deadline=None)  # first calls build per-group tables
@given(name=st.sampled_from(ALL_GROUPS), k1=st.floats(0.05, 200.0),
       k2=st.floats(0.05, 200.0), larger_first=st.booleans())
def test_enumerate_weights_prefix_whatever_the_call_order(name, k1, k2, larger_first):
    k1, k2 = sorted((k1, k2))
    g = make_group(name)
    g._ints.table = None
    if larger_first:
        big = enumerate_weights(g, k2)
        small = enumerate_weights(g, k1)
    else:
        small = enumerate_weights(g, k1)
        big = enumerate_weights(g, k2)
    assert big[:len(small)] == small
    assert all(w.lambda_plus_rho_norm_sq > k1 for w in big[len(small):])
    g._ints.table = None
    cold = enumerate_weights(g, k1)
    assert [(w.coords, w.dimension, w.lambda_plus_rho_norm_sq) for w in cold] == \
        [(w.coords, w.dimension, w.lambda_plus_rho_norm_sq) for w in small]


@settings(deadline=None)  # first calls build per-group tables
@given(name=st.sampled_from(ALL_GROUPS), cutoff=st.floats(0.3, 40.0),
       seed=st.integers(0, 2**32 - 1))
def test_fourier_round_trip_of_random_real_coefficients(name, cutoff, seed):
    g = make_group(name)
    ws = enumerate_weights(g, cutoff)
    assume(ws)
    rng = np.random.default_rng(seed)
    conj = _conjugates(g, ws)
    coeffs = {}
    for w in ws:
        if w not in coeffs:
            # c_lambda = c_lambda* keeps the function real
            coeffs[w] = coeffs[conj[w]] = float(rng.normal())
    f = CentralFunction(g, coeffs, cutoff)
    for source in (f, f.evaluate):
        back = fourier_coefficients(g, source, cutoff)
        assert back.coeffs.keys() == coeffs.keys()
        gap = max(abs(back.coeffs[w] - c) for w, c in coeffs.items())
        assert gap < 1e-11


@settings(deadline=None)  # first calls build per-group tables
@given(a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0))
def test_non_real_su3_function_is_refused(a, b):
    assume(abs(a - b) > 1e-3)
    su3 = make_group("su3")
    ws = {w.coords: w for w in enumerate_weights(su3, 4.0)}
    # chi_(1,0) and chi_(0,1) are complex conjugates: unequal coefficients
    # leave an imaginary part far above the 1e-10 budget
    f = CentralFunction(su3, {ws[(0, 0)]: 1.0, ws[(1, 0)]: a, ws[(0, 1)]: b}, 4.0)
    with pytest.raises(InstabilityError, match="imaginary"):
        f.evaluate(alcove_points(su3, 5))
    with pytest.raises(InstabilityError, match="imaginary"):
        fourier_coefficients(su3, f, 4.0)


def _random_real_expansion(g, cutoff, seed):
    """CentralFunction with c_lambda = c_lambda* ~ N(0, 1): real by symmetry."""
    ws = enumerate_weights(g, cutoff)
    rng = np.random.default_rng(seed)
    conj = _conjugates(g, ws)
    coeffs = {}
    for w in ws:
        if w not in coeffs:
            coeffs[w] = coeffs[conj[w]] = float(rng.normal())
    return CentralFunction(g, coeffs, cutoff)


def _richardson(f, H, u, delta):
    """(4 A(delta) - A(2 delta)) / 3 with A(d) = (f(H + d u) + f(H - d u)) / 2:
    the even Taylor series of A leaves f(H) - f''''(H) delta^4 / 6 + O(delta^6)."""
    a = [np.mean(f.evaluate(np.array([H + d * u, H - d * u]))) for d in (delta, 2 * delta)]
    return (4 * a[0] - a[1]) / 3


WALL_GROUPS = ("su2", "so3", "su2xsu2", "su3")


@settings(deadline=None)  # first calls build per-group tables
@given(name=st.sampled_from(WALL_GROUPS), cutoff=st.floats(1.0, 30.0),
       seed=st.integers(0, 2**32 - 1), y=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       root=st.integers(0, 2))
def test_wall_values_are_limits_of_regular_neighbours(name, cutoff, seed, y, root):
    g = make_group(name)
    f = _random_real_expansion(g, cutoff, seed)
    scale = f.table().scale
    # the origin, on all m walls: f(0) = sum c_lambda d_lambda
    exact = sum(c * w.dimension for w, c in f.coeffs.items())
    assert abs(f.evaluate(np.zeros(g.rank)) - exact) <= 1e-12 * scale
    # a point put exactly on the nearest wall alpha(H) in 2 pi Z of one root,
    # clear of every other wall
    H = np.array(y[:g.rank]) @ g.gamma_basis
    alpha = g.positive_roots[root % g.n_positive_roots]
    H0 = H - (alpha @ H - TWO_PI * round(alpha @ H / TWO_PI)) / (alpha @ alpha) * alpha
    sines = np.abs(np.sin(g.positive_roots @ H0 / 2))
    assume(np.sum(sines < 0.05) == 1)
    # neighbours along rho, which no wall contains; the Richardson error is
    # |f''''| delta^4 / 6 <= cutoff^2 delta^4 / 6 * scale = 1.5e-10 * scale
    # at worst, and rounding over the neighbours' Weyl denominators ~delta
    # adds ~1e-16 / delta per unit of scale (measured: <= 2e-11 * scale)
    u = g.rho / math.sqrt(g.rho_norm_sq)
    assert abs(f.evaluate(H0) - _richardson(f, H0, u, 1e-3)) <= 1e-9 * scale


@settings(deadline=None)  # first calls build per-group tables
@given(name=st.sampled_from(("su2xsu2", "su3")), cutoff=st.floats(1.0, 30.0),
       seed=st.integers(0, 2**32 - 1), a=st.integers(-2, 2), b=st.integers(-2, 2))
def test_values_where_two_walls_meet_are_limits_of_regular_neighbours(name, cutoff, seed, a, b):
    g = make_group(name)
    f = _random_real_expansion(g, cutoff, seed)
    scale = f.table().scale
    # simple roots alpha_1(H) = 2 pi a, alpha_2(H) = 2 pi b: on s >= 2 walls
    # (on su3 alpha_1 + alpha_2 is on one too, s = 3)
    H0 = np.linalg.solve(g.simple_roots, TWO_PI * np.array([a, b], dtype=float))
    on = np.abs(np.sin(g.positive_roots @ H0 / 2)) < 1e-9
    assert on.sum() >= 2
    delta, u = 1e-3, g.rho / math.sqrt(g.rho_norm_sq)
    # O(delta^4): the Richardson error |f''''| delta^4 / 6 <= cutoff^2 delta^4 / 6
    # per unit of scale, as for one wall.  eps / delta^s: a neighbour's value
    # is |W| terms of size <= scale over a Weyl denominator ~ the product over
    # the s walls of delta <alpha, u> / 2, and the Richardson weights add up
    # to 5/3.  Measured: su2xsu2 (s = 2) 5e-12 of the scale against 1.2e-8
    # here, su3 (s = 3) 9e-6 against 7e-5.
    tol = cutoff**2 * delta**4 / 6 + 5 / 3 * g.weyl_order * 2.2e-16 / np.prod(
        delta * (g.positive_roots[on] @ u) / 2)
    assert abs(f.evaluate(H0) - _richardson(f, H0, u, delta)) <= tol * scale


@settings(deadline=None)  # every new t builds its expansion
@given(name=st.sampled_from(ALL_GROUPS), y=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       t=st.floats(0.3, 2.0))
def test_poisson_identity_at_random_regular_points_and_times(name, y, t):
    g = make_group(name)
    H = np.array(y[:g.rank]) @ g.gamma_basis
    assume(wall_distance(g, H) >= 0.05)
    wrapped = wrapped_heat_kernel(g, H, t)
    assert abs(spectral_heat_kernel(g, H, t) - wrapped) <= 1e-10 * max(1.0, abs(wrapped))


CATALOG_GROUPS = ALL_GROUPS + ("su4",)


@settings(deadline=None)  # first calls build per-group tables
@given(name=st.sampled_from(CATALOG_GROUPS), count=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), y=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       element=st.integers(0, 23))
def test_character_table_is_weyl_invariant(name, count, seed, y, element):
    g = make_group(name)
    H = np.array(y[:g.rank]) @ g.gamma_basis
    # clear of the walls, where the tolerance below (written for a Weyl
    # quotient) stays finite
    assume(wall_distance(g, H) > 1e-3)
    ws = enumerate_weights(g, g.rho_norm_sq + 12.0)[:count]
    table = CharacterTable(g, ws, np.random.default_rng(seed).normal(size=len(ws)))
    w = g._weyl_mats[element % g.weyl_order]
    # a Weyl quotient's numerator is |W| terms of size <= scale over |Delta(H)|;
    # a point takes the weight form only where its bound is the smaller one
    tol = 1e-12 * g.weyl_order * max(table.scale, 1.0) / math.sqrt(weyl_density(g, H))
    assert abs(table.values(w @ H) - table.values(H)) <= tol


@settings(deadline=None)  # every new t and tol rebuilds the weight table
@given(name=st.sampled_from(ALL_GROUPS), t=st.floats(0.05, 2.0), log_tol=st.floats(-12.0, -6.0))
def test_spectral_tail_beyond_auto_cutoff_is_below_a_tenth_of_tol(name, t, log_tol):
    g, tol = make_group(name), 10.0**log_tol
    nu = RadialFunction.gaussian(g.dim, t)
    K = auto_cutoff(g, nu, tol)
    f = wrap_spectral(g, nu, 4.0 * K)
    tail = sum(abs(c) * w.dimension for w, c in f.coeffs.items() if w.lambda_plus_rho_norm_sq > K)
    assert tail <= tol / 10.0


@settings(deadline=None)  # every new t builds its expansion
@given(name=st.sampled_from(ALL_GROUPS), t=st.floats(0.05, 2.0), log_tol=st.floats(-12.0, -6.0),
       k=st.integers(0, 31))
def test_lattice_terms_past_the_bound_radius_are_below_a_tenth_of_tol(name, t, log_tol, k):
    g, tol = make_group(name), 10.0**log_tol
    nu = RadialFunction.gaussian(g.dim, t)
    H = alcove_points(g, 32)[k]
    radius, ring = _lattice_radius(g, nu, H, tol), _ring_width(g)
    # the bound covers everything past radius - ring: the ring of wrap_lattice
    # and 3 ring widths of terms it leaves out
    pts = H + lattice_points(g, H, radius + 3.0 * ring)
    outer = pts[np.linalg.norm(pts, axis=1) > radius - ring]
    mass = g.volume * float(np.sum(np.abs(nu(outer) / j_compact(g, outer))))
    assert mass <= tol / 10.0


@settings(deadline=None)  # every new t builds its Gaussian
@given(name=st.sampled_from(ALL_GROUPS), t=st.floats(0.05, 2.0), data=st.data())
def test_a_batch_gives_each_point_the_bits_of_a_one_point_call(name, t, data):
    # one box and one sort serve a batch; no point's value may depend on the
    # other points, their number, their order or their repeats
    g = make_group(name)
    row = st.lists(st.floats(-8.0, 8.0), min_size=g.rank, max_size=g.rank)
    distinct = np.array(data.draw(st.lists(row, min_size=1, max_size=12)))
    distinct = distinct[wall_distance(g, distinct) > 1e-2]
    assume(len(distinct))
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    batch = distinct[picks]
    alone = np.array([wrapped_heat_kernel(g, p, t) for p in batch])
    assert np.array_equal(wrapped_heat_kernel(g, batch, t).view(np.int64), alone.view(np.int64))

_PAIRS = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 10.0)), min_size=1, max_size=3)
_SQUARES = st.lists(st.floats(0.0, 400.0), min_size=1, max_size=8)


@given(d=st.sampled_from((1, 2, 3, 6, 8, 16)), a=_PAIRS, b=_PAIRS, convolve=st.booleans(),
       laplacian=st.booleans(), r2=_SQUARES, q2=_SQUARES)
def test_closed_forms_stay_inside_their_decay_envelopes(d, a, b, convolve, laplacian, r2, q2):
    # the envelopes set every truncation radius (auto_cutoff, _lattice_radius);
    # products, not ratios, because the envelope underflows, and below the
    # smallest normal float rounding is absolute (tiny), not relative
    f = RadialFunction.mixture(d, a)
    if convolve:
        f = f.convolve(RadialFunction.mixture(d, b))
    if laplacian:
        f = f.laplacian()
    r2, q2, tiny = np.array(r2), np.array(q2), np.finfo(float).tiny
    (amp, var), (famp, fvar) = f.decay, f.fourier_decay
    assert np.all(np.abs(f.profile(r2)) <= amp * np.exp(-r2 / (2 * var)) * (1 + 1e-12) + tiny)
    assert np.all(np.abs(f.fourier(q2)) <= famp * np.exp(-q2 * fvar / 2) * (1 + 1e-12) + tiny)


@given(k=st.integers(0, 15), x=st.floats(1e-3, 100.0))
def test_upper_gamma_matches_scipy_at_half_integer_orders(k, x):
    s = k + 0.5
    assert math.isclose(_upper_gamma(s, x), gammaincc(s, x) * gamma(s), rel_tol=1e-12)


def _haar_sun(rng, n):
    """A Haar-random SU(n) element: the QR factor of a complex normal matrix
    (R's diagonal made positive), over an n-th root of its determinant."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1.0 / n)


def _torus_element(g, H):
    """exp(H) in SU(n) as diag(e^{i a}): alpha_i(H) = a_i - a_{i+1}, sum a = 0."""
    a = np.concatenate([[0.0], -np.cumsum(g.simple_roots @ H)])
    return np.diag(np.exp(1j * (a - a.mean())))


@settings(max_examples=150, derandomize=True, deadline=None)  # su5 builds its Weyl group
@given(name=st.sampled_from(("su3", "su4", "su5")),
       kind=st.sampled_from(("haar", "centre", "repeated")), seed=st.integers(0, 2**32 - 1))
def test_sun_fold_lands_in_the_closed_alcove_on_the_input_class(name, kind, seed):
    g = make_group(name)
    n = g.rank + 1
    rng = np.random.default_rng(seed)
    if kind == "haar":
        x = _haar_sun(rng, n)
    elif kind == "centre":
        x = np.exp(TWO_PI * 1j * rng.integers(n) / n) * np.eye(n)
    else:
        # fewer distinct phases than entries, so at least one repeats
        distinct = rng.uniform(-math.pi, math.pi, size=rng.integers(1, n))
        phases = distinct[rng.integers(len(distinct), size=n)]
        x = np.diag(np.exp(1j * (phases - phases.mean())))
    H = conjugacy_coordinate(g, x)
    # the closed alcove: every simple root >= 0, the highest root <= 2 pi
    highest = g.positive_roots[np.argmax(g.positive_roots @ g.rho)]
    assert np.min(g.simple_roots @ H) >= -1e-9
    assert highest @ H <= TWO_PI + 1e-9
    # the same class: equal characteristic polynomials, so equal eigenvalues
    poly = np.poly(np.diag(_torus_element(g, H)))
    assert np.max(np.abs(poly - np.poly(np.linalg.eigvals(x)))) <= 1e-9
    if is_regular(g, H):
        w = _haar_sun(np.random.default_rng(n), n)
        assert np.max(np.abs(conjugacy_coordinate(g, w @ x @ np.conj(w.T)) - H)) <= 1e-9


@settings(deadline=None)  # first calls build the generators
@given(name=st.sampled_from(("su3", "su4", "su5")),
       h=st.floats(0.0, 0.01, exclude_min=True),
       levels_level=st.sampled_from(((0, 0), (2, 0), (2, 1), (2, 2))),
       extreme=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sun_step_exponential_is_exact_and_unitary_on_reachable_increments(
        name, h, levels_level, extreme, seed):
    # the walk's sign increments, and normalised sums of 2^(levels - l)
    # signs, z in {0, +-sqrt 2} or {0, +-1, +-2} at sqh = sqrt(h / 2^l),
    # which reach further inside the r <= 1 contract;
    # `extreme` puts every entry at the largest magnitude of its form
    levels, level = levels_level
    n = make_group(name).rank + 1
    width = 2 ** (levels - level)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(width, 32, n * n - 1))
    z = signs[0] * math.sqrt(width) if extreme else signs.sum(axis=0) / math.sqrt(width)
    a = _hamiltonian(z, 0.5 * math.sqrt(h / 2 ** level))
    w, v = np.linalg.eigh(a)
    ref = np.einsum("cik,ck,cjk->cij", v, np.exp(-1j * w), np.conj(v))
    u = _exp_minus_i(a)
    assert np.max(np.abs(u - ref)) < 1e-13
    assert np.max(np.abs(u @ np.conj(np.transpose(u, (0, 2, 1))) - np.eye(n))) < 1e-14


@given(paths=st.integers(1, 2 * 10**5), chunk=st.integers(1, 10**5))
def test_chunks_cover_the_paths_in_order_in_full_chunks(paths, chunk):
    cfg = SdeConfig(group=make_group("su2"), t=0.01, step=0.01, paths=paths, seed=0,
                    chunk=chunk)
    layout = cfg.chunks()
    assert [i for i, _ in layout] == list(range(len(layout)))
    assert sum(size for _, size in layout) == paths
    assert all(size == chunk for _, size in layout[:-1])
    assert 1 <= layout[-1][1] <= chunk
