"""Catalog data, weights, characters, and the structural oracles behind them.

The reference values here are either closed forms written out locally
(Schur quotients, sine ratios, the dexp-determinant series) or literals
frozen from those same formulas; none are read back from the library.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wrapkit import groups
from wrapkit import (
    CatalogError,
    DomainError,
    InstabilityError,
    ResourceLimitError,
    alcove_points,
    as_real_checked,
    cell_grid,
    character,
    dual_index,
    enumerate_weights,
    fourier_coefficients,
    is_regular,
    j_compact,
    j_complex,
    lattice_points,
    make_group,
    wall_distance,
    weight,
    weyl_density,
    weyl_dimension,
)

TWO_PI = 2.0 * math.pi


def _c(x):
    """Collapse a 0-d or length-1 character value to a python complex."""
    return complex(np.asarray(x).reshape(-1)[0])


# ---------------------------------------------------------------------------
# catalog data
# ---------------------------------------------------------------------------

# name -> (rank, dim, positive roots, |W|, cell volume, Riemannian volume)
CATALOG = {
    "torus1": (1, 1, 0, 1, TWO_PI, TWO_PI),
    "torus2": (2, 2, 0, 1, TWO_PI**2, TWO_PI**2),
    "su2": (1, 3, 1, 2, 4 * math.pi, 16 * math.pi**2),
    "so3": (1, 3, 1, 2, TWO_PI, 8 * math.pi**2),
    "su2xsu2": (2, 6, 2, 4, 16 * math.pi**2, 256 * math.pi**4),
    "su3": (2, 8, 3, 6, 8 * math.sqrt(3) * math.pi**2,
            256 * math.sqrt(3) * math.pi**5),
    # sqrt(n) (2pi)^((n^2+n-2)/2) / prod k! for the metric -tr, times
    # 2^(dim/2) for -2 tr; the cell is (2pi)^3 sqrt(det 2 * Cartan)
    "su4": (3, 15, 6, 24, 32 * math.sqrt(2) * math.pi**3,
            2 * TWO_PI**9 / 12 * 2**7.5),
}

RHO_NORM_SQ = {"torus1": 0.0, "torus2": 0.0, "su2": 0.25, "so3": 0.25,
               "su2xsu2": 0.5, "su3": 1.0, "su4": 2.5}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_invariants(name):
    g = make_group(name)
    rank, dim, n_roots, weyl, cell, vol = CATALOG[name]
    assert g.rank == rank
    assert g.dim == dim
    assert g.n_positive_roots == n_roots
    assert g.weyl_order == weyl
    assert_allclose(g.cell_volume, cell, rtol=1e-14)
    assert_allclose(g.volume, vol, rtol=1e-14)
    assert_allclose(g.rho_norm_sq, RHO_NORM_SQ[name], atol=1e-15)
    # root covectors are unit length in these coordinates
    for alpha in g.positive_roots:
        assert_allclose(np.linalg.norm(alpha), 1.0, rtol=1e-14)
    # rho really is half the root sum
    if not g.is_abelian:
        assert_allclose(g.rho, 0.5 * g.positive_roots.sum(axis=0), atol=1e-14)
    # Weyl matrices are orthogonal with the advertised signs
    for mat, sign in zip(g._weyl_mats, g._weyl_signs):
        assert_allclose(mat @ mat.T, np.eye(rank), atol=1e-13)
        assert_allclose(np.linalg.det(mat), sign, atol=1e-12)


# |W| from the README catalog table (the CATALOG column above), plus torus3
WEYL_ORDERS = {**{name: row[3] for name, row in CATALOG.items()}, "torus3": 1}


def _exact_det(m):
    """Leibniz expansion over permutations, in Fractions."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


@pytest.mark.parametrize("name", sorted(WEYL_ORDERS))
def test_generated_weyl_group_permutes_the_roots(name):
    raw = groups._raw_group(name)
    weyl = groups._weyl_group(raw)
    assert len(weyl) == WEYL_ORDERS[name]
    roots = set(raw.pos_roots) | {tuple(-x for x in r) for r in raw.pos_roots}
    for mat, sign in weyl:
        assert _exact_det(mat) == sign
        images = {tuple(sum(a * b for a, b in zip(row, r)) for row in mat) for r in roots}
        assert images == roots


def test_su3_weyl_group_frozen_in_permutation_order():
    # character sums run over W in this order, so their last bits depend on it
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    frozen = [tuple(tuple(Fraction(int(p[i] == j)) for j in range(3)) for i in range(3))
              for p in perms]
    weyl = groups._weyl_group(groups._raw_group("su3"))
    assert [m for m, _ in weyl] == frozen
    assert [s for _, s in weyl] == [1, -1, -1, 1, 1, -1]


def _fraction_weyl_group(raw):
    """The Weyl closure as it ran in Fractions: matrices as tuples, products
    entry by entry, keyed by the tuples themselves."""
    n = raw.ambient

    def matmul(a, b):
        return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n) if a[i][k]), Fraction(0))
                           for j in range(n)) for i in range(n))

    eye = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    gens = []
    for a in raw.simple_roots:
        k = 2 / sum(raw.gram[i] * a[i] * a[i] for i in range(n))
        gens.append(tuple(tuple(eye[i][j] - k * a[i] * a[j] * raw.gram[j] for j in range(n))
                          for i in range(n)))
    signs = {eye: 1}
    todo = [eye]
    while todo:
        m = todo.pop()
        for s in gens:
            w = matmul(s, m)
            if w not in signs:
                signs[w] = -signs[m]
                todo.append(w)
    return tuple(sorted(signs.items(), key=lambda ms: [x for row in ms[0] for x in row],
                        reverse=True))


@pytest.mark.parametrize("name", ["torus1", "torus3", "su2", "so3", "su2xsu2", "su3",
                                  "su4", "su5"])
def test_integer_weyl_closure_matches_the_fraction_closure(name, monkeypatch):
    g = make_group(name)
    monkeypatch.setattr(groups, "_weyl_group", _fraction_weyl_group)
    ref = groups._finish(groups._raw_group(name))
    assert g._weyl_mats.shape == ref._weyl_mats.shape
    assert np.array_equal(g._weyl_mats.view(np.int64), ref._weyl_mats.view(np.int64))
    assert np.array_equal(g._weyl_signs.view(np.int64), ref._weyl_signs.view(np.int64))


def test_non_integral_simple_reflection_raises():
    # (1, 2) under the su2 metric diag(2, 2) reflects e_1 to (3/5, -4/5)
    raw = groups._raw_group("su2")
    bent = groups.replace(raw, simple_roots=((Fraction(1), Fraction(2)),))
    with pytest.raises(InstabilityError, match="not integral"):
        groups._weyl_group(bent)


def test_make_group_is_cached_and_validates():
    assert make_group("su2") is make_group("su2")
    with pytest.raises(CatalogError):
        make_group("e8")


def test_group_names_are_canonical():
    # one name per group: an alias would build a second GroupSpec
    for name in ("torus02", "su03", "torus0", "su1", "su6", "su10", "torus17", "su"):
        with pytest.raises(CatalogError):
            make_group(name)
    su4 = make_group("su4")
    assert su4 is make_group("su4") and su4.name == "su4"
    assert (su4.rank, su4.dim, su4.weyl_order) == (3, 15, 24)
    assert_allclose(su4.rho_norm_sq, 2.5, rtol=1e-15)


def test_sun_root_data_matches_the_hand_tables():
    f = Fraction
    h, s = f(1, 2), f(1, 6)
    raw = groups._raw_sun(3)
    # the su3 data as it was written out by hand
    assert raw.gram == (2, 2, 2)
    assert raw.pos_roots == ((h, -h, 0), (0, h, -h), (h, 0, -h))
    assert raw.simple_roots == raw.pos_roots[:2]
    assert raw.weight_gens == ((2 * s, -s, -s), (s, s, -2 * s))
    assert raw.gamma_gens == ((1, -1, 0), (0, 1, -1))
    assert raw.factor_names == ("su3",)
    # rank one: the frozen su2 and so3 float data
    for name, wb, gb in (("su2", 0.5, 4 * math.pi), ("so3", 1.0, TWO_PI)):
        g = make_group(name)
        for arr, value in ((g.positive_roots, 1.0), (g.simple_roots, 1.0),
                           (g.rho, [0.5]), (g.weight_basis, wb), (g.gamma_basis, gb)):
            assert np.array_equal(arr, np.reshape(value, np.shape(arr)))
        assert [(m.tolist(), sign) for m, sign in zip(g._weyl_mats, g._weyl_signs)] == \
            [([[1.0]], 1), ([[-1.0]], -1)]


# ---------------------------------------------------------------------------
# weights and dimensions
# ---------------------------------------------------------------------------

def test_weyl_dimensions_rank_one():
    su2 = make_group("su2")
    so3 = make_group("so3")
    for k in range(6):
        assert weyl_dimension(su2, (k,)) == k + 1
        assert weyl_dimension(so3, (k,)) == 2 * k + 1


def test_weyl_dimensions_su3():
    su3 = make_group("su3")
    table = {(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 8, (2, 0): 6,
             (0, 2): 6, (2, 1): 15, (3, 0): 10, (2, 2): 27}
    for coords, d in table.items():
        assert weyl_dimension(su3, coords) == d
        assert weight(su3, coords).dimension == d


def test_weyl_dimensions_products():
    su22 = make_group("su2xsu2")
    for a in range(3):
        for b in range(3):
            assert weyl_dimension(su22, (a, b)) == (a + 1) * (b + 1)
    assert weyl_dimension(make_group("torus2"), (5, -3)) == 1


def _su_dimension(labels):
    """Weyl's formula for su(n) in Dynkin labels, in Python integers."""
    n = len(labels) + 1
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= sum(a + 1 for a in labels[i:j])
            den *= j - i
    return num // den


def test_weyl_dimension_guard_bounds_each_row():
    # each row's Weyl product is just below 2^63, while the product of the
    # column maxima (taken from different rows) is 2.3e26
    su5 = make_group("su5")
    rows = np.array([[527, 0, 0, 0], [0, 0, 0, 527]], dtype=np.int64)
    assert su5._ints.dimensions(rows).tolist() == [_su_dimension((527, 0, 0, 0))] * 2
    # a row whose own product reaches 2^63 still raises
    with pytest.raises(InstabilityError, match="overflows int64"):
        su5._ints.dimensions(np.array([[1, 1, 1, 1], [528, 0, 0, 0]], dtype=np.int64))

def test_weight_norms():
    su2 = make_group("su2")
    for k in range(5):
        assert_allclose(weight(su2, (k,)).lambda_plus_rho_norm_sq,
                        ((k + 1) / 2.0) ** 2, rtol=1e-15)
    su3 = make_group("su3")
    # (p^2 + q^2 + p q)/3 + p + q + 1 in unit-root normalization
    for p, q in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        assert_allclose(weight(su3, (p, q)).lambda_plus_rho_norm_sq,
                        (p * p + q * q + p * q) / 3.0 + p + q + 1.0,
                        rtol=1e-14)


def test_weight_rejects_bad_coords():
    su3 = make_group("su3")
    with pytest.raises(DomainError, match="dominant"):
        weight(su3, (-1, 0))
    with pytest.raises(DomainError, match="coordinates"):
        weight(su3, (1,))
    with pytest.raises(DomainError):
        weight(make_group("su2"), (-2,))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_weights_frozen_counts():
    su2 = make_group("su2")
    ws = enumerate_weights(su2, 5.0)
    assert [w.coords for w in ws] == [(0,), (1,), (2,), (3,)]
    # boundary is inclusive: ||rho||^2 = 0.25 exactly
    assert [w.coords for w in enumerate_weights(su2, 0.25)] == [(0,)]

    t1 = make_group("torus1")
    ws = enumerate_weights(t1, 4.0)
    assert [w.coords for w in ws] == [(0,), (-1,), (1,), (-2,), (2,)]

    assert len(enumerate_weights(make_group("su3"), 10.0)) == 13
    assert len(enumerate_weights(make_group("su2xsu2"), 2.5)) == 6


def test_enumerate_weights_matches_brute_box_scan():
    su3 = make_group("su3")
    cutoff = 10.0
    got = {w.coords for w in enumerate_weights(su3, cutoff)}
    brute = set()
    for p in range(8):
        for q in range(8):
            nsq = (p * p + q * q + p * q) / 3.0 + p + q + 1.0
            if nsq <= cutoff + 1e-12:
                brute.add((p, q))
    assert got == brute


@pytest.mark.parametrize("name", ["su2", "so3", "su2xsu2", "su3", "su4", "su5"])
def test_weight_basis_pairs_nonnegatively(name):
    # the dominant weight scan bounds k_i <= reach / ||omega_i||, which needs
    # <omega_i, omega_j> >= 0 for every pair of weight-basis rows
    wb = make_group(name).weight_basis
    assert np.all(wb @ wb.T >= -1e-12)


def test_enumerate_weights_sorted_and_guarded():
    su3 = make_group("su3")
    ws = enumerate_weights(su3, 12.0)
    norms = [w.lambda_plus_rho_norm_sq for w in ws]
    assert norms == sorted(norms)
    with pytest.raises(DomainError):
        enumerate_weights(su3, 0.0)
    with pytest.raises(ResourceLimitError, match="cap"):
        enumerate_weights(su3, 1e9)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf])
def test_enumerate_weights_refuses_a_non_finite_cutoff(cutoff):
    # Fraction(cutoff) used to raise ValueError or OverflowError here
    with pytest.raises(DomainError, match="positive and finite"):
        enumerate_weights(make_group("su2"), cutoff)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def su2_char(k, theta):
    return math.sin((k + 1) * theta / 2.0) / math.sin(theta / 2.0)


def so3_char(ell, phi):
    return math.sin((2 * ell + 1) * phi / 2.0) / math.sin(phi / 2.0)


_U1 = np.array([0.5, -0.5, 0.0])
_U2 = np.array([1.0, 1.0, -2.0]) / (2.0 * math.sqrt(3.0))


def su3_char(p, q, H):
    """Schur quotient for the torus element diag(e^{i v_j})."""
    v = H[0] * _U1 + H[1] * _U2
    x = np.exp(1j * v)
    num = np.array([[xx ** e for e in (p + q + 2, q + 1, 0)] for xx in x])
    den = np.array([[xx ** e for e in (2, 1, 0)] for xx in x])
    return np.linalg.det(num) / np.linalg.det(den)


def test_su2_characters_closed_form():
    su2 = make_group("su2")
    for k in (0, 1, 2, 5):
        for theta in (0.3, 1.1, 2.9, 5.5):
            assert_allclose(_c(character(su2, (k,), [theta])),
                            su2_char(k, theta), rtol=1e-12)


def test_so3_characters_closed_form():
    so3 = make_group("so3")
    for ell in (0, 1, 3):
        for phi in (0.4, 1.3, 2.8):
            assert_allclose(_c(character(so3, (ell,), [phi])),
                            so3_char(ell, phi), rtol=1e-12)


def test_su2_characters_at_singular_points():
    # sine quotients degenerate at theta = 0 and 2 pi; the values must
    # continue to chi(0) = k+1 and chi(2 pi) = (k+1)(-1)^k
    su2 = make_group("su2")
    for k in (0, 1, 2, 3, 4):
        assert_allclose(_c(character(su2, (k,), [0.0])), k + 1.0, atol=1e-8)
        assert_allclose(_c(character(su2, (k,), [TWO_PI])),
                        (k + 1.0) * (-1.0) ** k, atol=1e-8)


def test_su3_characters_schur_oracle():
    su3 = make_group("su3")
    points = [np.array([0.7, 0.3]), np.array([1.9, 0.8]), np.array([0.2, 2.1])]
    for p, q in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 0)]:
        for H in points:
            assert_allclose(_c(character(su3, (p, q), H)), su3_char(p, q, H),
                            rtol=1e-10, atol=1e-12)


def test_su3_character_frozen_value():
    su3 = make_group("su3")
    val = _c(character(su3, (1, 0), [0.7, 0.3]))
    assert_allclose(val.real, 2.856741995077177, rtol=1e-12)
    assert_allclose(val.imag, -0.009839530778096, atol=1e-12)


def test_torus_characters_are_plain_phases():
    t1 = make_group("torus1")
    assert_allclose(_c(character(t1, (3,), [0.5])), np.exp(1j * 1.5),
                    rtol=1e-14)
    t2 = make_group("torus2")
    H = np.array([0.4, -1.1])
    got = _c(character(t2, (2, -1), H))
    assert_allclose(got, np.exp(1j * (2 * 0.4 - 1 * -1.1)), rtol=1e-13)


def test_product_characters_factor():
    su22 = make_group("su2xsu2")
    H = np.array([1.2, 2.7])
    for a, b in [(1, 0), (2, 3)]:
        assert_allclose(_c(character(su22, (a, b), H)),
                        su2_char(a, 1.2) * su2_char(b, 2.7), rtol=1e-12)


def test_characters_weyl_invariant_and_periodic():
    su3 = make_group("su3")
    H = np.array([0.9, 0.4])
    base = _c(character(su3, (2, 1), H))
    for mat in su3._weyl_mats:
        assert_allclose(_c(character(su3, (2, 1), mat @ H)), base, rtol=1e-10)
    for row in su3.gamma_basis:
        assert_allclose(_c(character(su3, (2, 1), H + row)), base, rtol=1e-10)


def test_character_batch_matches_pointwise():
    su2 = make_group("su2")
    pts = np.array([[0.4], [1.7], [3.0]])
    vals = np.asarray(character(su2, (3,), pts))
    for row, theta in zip(vals, pts[:, 0]):
        assert_allclose(complex(row), su2_char(3, theta), rtol=1e-12)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["su5"])
def test_single_character_spectrum_is_its_weight_multiplicities(name):
    # the weight form of one character holds the multiplicities m(mu) of
    # its weights: nonnegative integers summing to the dimension, constant
    # on W-orbits
    g = make_group(name)
    for lam in enumerate_weights(g, g.rho_norm_sq + 12.0)[:6]:
        lo, q = groups.CharacterTable(g, [lam], [1.0]).spectrum()
        assert np.all(np.abs(q - np.rint(q)) <= 1e-9) and np.all(np.rint(q) >= 0)
        assert round(q.sum()) == weyl_dimension(g, lam.coords)
        ks = np.argwhere(np.rint(q) > 0) + lo
        mus = TWO_PI * ks @ np.linalg.inv(g.gamma_basis).T
        for mat in g._weyl_mats:
            images = dual_index(g, mus @ mat.T) - lo
            assert_allclose(q[tuple(images.T)], q[tuple((ks - lo).T)], atol=1e-9)


@pytest.mark.parametrize("name, coords, zero, total", [("su3", (1, 1), 2, 8),
                                                       ("su4", (1, 0, 1), 3, 15)])
def test_adjoint_spectrum_holds_the_rank_at_zero(name, coords, zero, total):
    g = make_group(name)
    lo, q = groups.CharacterTable(g, [weight(g, coords)], [1.0]).spectrum()
    assert_allclose(q[tuple(-lo)], zero, atol=1e-9)
    assert_allclose(q.sum(), total, atol=1e-9)


# ---------------------------------------------------------------------------
# the jacobian factor j and its determinant oracle
# ---------------------------------------------------------------------------

def dexp_det(ad):
    """det of sum_k (-ad)^k/(k+1)!, the exponential-map jacobian."""
    n = ad.shape[0]
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, 40):
        term = term @ (-ad) / (k + 1)
        total = total + term
    return float(np.linalg.det(total).real)


def test_j_compact_su2_closed_form():
    su2 = make_group("su2")
    for theta in (0.3, 1.1, 2.9, 5.0):
        assert_allclose(float(j_compact(su2, [theta])),
                        math.sin(theta / 2.0) / (theta / 2.0), rtol=1e-13)
    assert_allclose(float(j_compact(su2, [0.0])), 1.0, rtol=1e-14)


def test_j_compact_torus_is_one():
    t2 = make_group("torus2")
    pts = np.array([[0.0, 0.0], [1.3, -2.2]])
    assert_allclose(np.asarray(j_compact(t2, pts)), 1.0, rtol=1e-15)


@pytest.mark.parametrize("hyperbolic", [False, True])
def test_sin_over_y_is_continuous_across_its_series_cut(hyperbolic):
    cut = groups._J_SERIES_CUT / 2.0
    below, above = groups._sin_over_y(np.array([cut * (1 - 1e-9), cut * (1 + 1e-9)]),
                                      hyperbolic)
    assert abs(below - above) <= 1e-15 * abs(above)
    fn = math.sinh if hyperbolic else math.sin
    assert_allclose(above, fn(cut) / cut, rtol=1e-15)
    assert groups._sin_over_y(np.zeros(1), hyperbolic)[0] == 1.0


@pytest.mark.parametrize("name", ["torus1", "torus2", "torus3"])
def test_root_products_are_exactly_one_on_tori(name):
    g = make_group(name)
    pts = np.random.default_rng(5).uniform(-7.0, 7.0, (6, g.rank))
    for fn in (j_compact, weyl_density, wall_distance):
        assert np.all(np.asarray(fn(g, pts)) == 1.0)
        assert fn(g, pts[0]) == 1.0
    assert np.all(np.asarray(j_complex(g, pts)) == 1.0)
    assert np.all(groups.weyl_denominator(g, pts) == 1.0)


def test_j_compact_su2_matches_dexp_determinant():
    # ad(theta X3) in the orthonormal basis X_a = -i sigma_a / 2
    su2 = make_group("su2")
    for theta in (0.7, 1.1, 2.4):
        ad = theta * np.array([[0.0, -1.0, 0.0],
                               [1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0]])
        assert_allclose(float(j_compact(su2, [theta])) ** 2, dexp_det(ad),
                        rtol=1e-10)


def _gell_mann():
    l = [np.zeros((3, 3), dtype=complex) for _ in range(8)]
    l[0][0, 1] = l[0][1, 0] = 1
    l[1][0, 1] = -1j
    l[1][1, 0] = 1j
    l[2][0, 0] = 1
    l[2][1, 1] = -1
    l[3][0, 2] = l[3][2, 0] = 1
    l[4][0, 2] = -1j
    l[4][2, 0] = 1j
    l[5][1, 2] = l[5][2, 1] = 1
    l[6][1, 2] = -1j
    l[6][2, 1] = 1j
    l[7][0, 0] = l[7][1, 1] = 1 / math.sqrt(3)
    l[7][2, 2] = -2 / math.sqrt(3)
    return l


def test_j_compact_su3_matches_dexp_determinant():
    su3 = make_group("su3")
    H = np.array([0.7, 0.3])
    v = H[0] * _U1 + H[1] * _U2
    h_mat = 1j * np.diag(v)
    basis = [-0.5j * lam for lam in _gell_mann()]
    ad = np.empty((8, 8))
    for b, xb in enumerate(basis):
        comm = h_mat @ xb - xb @ h_mat
        for a, xa in enumerate(basis):
            ad[a, b] = -2.0 * np.trace(xa @ comm).real
    jval = float(j_compact(su3, H))
    assert_allclose(jval, 0.96427153753454631, rtol=1e-12)
    assert_allclose(jval ** 2, dexp_det(ad), rtol=1e-10)


def test_wall_distance_and_regularity():
    su2 = make_group("su2")
    assert is_regular(su2, [1.0])
    assert not is_regular(su2, [0.0])
    assert not is_regular(su2, [TWO_PI])
    assert_allclose(float(wall_distance(su2, [0.3])), math.sin(0.15),
                    rtol=1e-14)


# ---------------------------------------------------------------------------
# lattices, grids, quadrature
# ---------------------------------------------------------------------------

def test_lattice_points_frozen_counts():
    t2 = make_group("torus2")
    gams = lattice_points(t2, [0.0, 0.0], 2.5 * TWO_PI)
    assert len(gams) == 21
    assert_allclose(gams[0], [0.0, 0.0], atol=0)
    su2 = make_group("su2")
    gams = lattice_points(su2, [0.1], 10 * math.pi)
    assert len(gams) == 5
    # every survivor is inside the ball around -center
    assert np.all(np.linalg.norm(gams + np.array([0.1]), axis=1)
                  <= 10 * math.pi + 1e-9)


def test_lattice_points_validation():
    su2 = make_group("su2")
    with pytest.raises(DomainError):
        lattice_points(su2, [0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        lattice_points(su2, [0.0], -1.0)
    with pytest.raises(ResourceLimitError):
        lattice_points(make_group("torus2"), [0.0, 0.0], 1e6)


def test_dual_index_round_trip():
    su3 = make_group("su3")
    mu = np.array([2, 1]) @ su3.weight_basis  # lattice vector
    idx = dual_index(su3, mu)
    assert idx.dtype.kind == "i"
    with pytest.raises(InstabilityError, match="lattice"):
        dual_index(su3, mu + 0.01)


def test_dual_index_refuses_a_nan():
    # NaN compares false with every tolerance; it used to come back as -2^63
    with pytest.raises(InstabilityError, match="dual index nan"):
        dual_index(make_group("su2"), [math.nan])


def test_cell_grid_shape_and_range():
    su3 = make_group("su3")
    grid = cell_grid(su3, 5)
    assert grid.shape == (25, 2)
    t1 = make_group("torus1")
    grid = cell_grid(t1, 8)
    assert grid.shape == (8, 1)
    assert_allclose(grid[1, 0] - grid[0, 0], TWO_PI / 8, rtol=1e-14)


def test_alcove_points_regular_and_deterministic():
    for name in sorted(CATALOG):
        g = make_group(name)
        pts = alcove_points(g, 20)
        assert pts.shape == (20, g.rank)
        assert len(np.unique(pts, axis=0)) == 20
        for H in pts:
            assert is_regular(g, H)
        assert_allclose(alcove_points(g, 20), pts, atol=0)
        # every positive root, the highest included, pairs into (0, 2pi):
        # the open alcove of each simple factor; so3 keeps to its half and
        # tori to their centred cell
        pairs = pts @ g.positive_roots.T
        assert np.all((pairs > 0) & (pairs < TWO_PI))
        if name == "so3":
            assert np.all(pts < math.pi)
        if g.is_abelian:
            assert np.all(np.abs(pts) < math.pi)
    with pytest.raises(DomainError):
        alcove_points(make_group("su2"), 0)


def test_haar_quadrature_character_orthonormality():
    # c_lambda of chi_mu is the Haar integral of chi_mu conj(chi_lambda): a
    # Kronecker delta, and for mu = 0 the unit Haar mass of the constant
    for name, mus in (("su2", [(0,), (1,), (2,)]), ("su3", [(0, 0), (1, 1), (3, 0)])):
        g = make_group(name)
        for mu in mus:
            chi = fourier_coefficients(g, lambda H: np.real(character(g, mu, H)), 9.0)
            if mu == (3, 0):  # Re chi of a complex pair splits evenly
                mu = {mu, (0, 3)}
                for w, c in chi.coeffs.items():
                    assert_allclose(c, 0.5 * (w.coords in mu), atol=1e-12)
                continue
            assert len(chi.coeffs) > 3
            for w, c in chi.coeffs.items():
                assert_allclose(c, float(w.coords == mu), atol=1e-12)


def test_as_real_checked_guards_imaginary_mass():
    vals = np.array([1.0 + 1e-13j, 2.0])
    out = as_real_checked(vals, "test")
    assert out.dtype.kind == "f"
    with pytest.raises(InstabilityError, match="imaginary"):
        as_real_checked(np.array([1.0 + 1e-3j]), "test")


def test_as_real_checked_refuses_a_nan_imaginary_part():
    # NaN compares false with every tolerance; it used to pass as [nan]
    with pytest.raises(InstabilityError, match="imaginary part nan"):
        as_real_checked(np.array([1.0 + 1j * math.nan]), "test")
