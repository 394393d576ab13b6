"""The geodesic random walk's law, computed exactly, and its weak order.

The walk's increments are iid, so for any matrix representation pi of the
group E[pi(X_n)] = M(h)^(n-1) M(h_last), where M(h) is the mean of pi over
one step h (the Fourier view of random walks on groups: Diaconis, Group
Representations in Probability and Statistics, IMS 1988, ch. 3).  A step is
the product, in cut order, of one increment per cut of the algebra
coordinates, each uniform over its cut's 2^w sign patterns and independent
of the others, so M(h) is the product of the cut means.  Tensor powers of
the engines' matrix block carry every character needed here, since
tr X^(x k) = (tr X)^k and (AB)^(x k) = A^(x k) B^(x k).  The oracle steps a
``brownian._Chunk`` once on each cut's 2^w patterns, zero off the cut, so
the increments are exponentiated by the walk's own engines, and takes the
step count and the last step from ``SdeConfig`` as the walk does.  The
means are exact up to rounding, so each weak-order check takes
milliseconds and has no sampling noise.

Every rule below was fixed before any of its numbers was read.
"""

import math
from functools import reduce

import numpy as np
import pytest

from wrapkit import SdeConfig, brownian, make_group, mc_expect_central, real_character, weight
from test_acceptance import SEED


def _increments(g, h, cut, block):
    """The 2^w increments of one cut at step h as matrices, cut to ``block``."""
    w = cut.stop - cut.start
    z = np.zeros((2 ** w, g.dim))
    z[:, cut] = 1 - 2 * (np.arange(2 ** w)[:, None] >> np.arange(w) & 1)
    chunk = brownian._Chunk(g, 2 ** w)
    chunk.advance(z, math.sqrt(h))
    return chunk.matrices()[:, block, block]


def _tensor_mean(mats, k):
    """The mean over the batch of the k-th Kronecker power of each matrix."""
    out = mats
    for _ in range(k - 1):
        c, m = len(mats), out.shape[1] * mats.shape[1]
        out = np.einsum("cij,ckl->cikjl", out, mats).reshape(c, m, m)
    return out.mean(axis=0)


def _step_mean(g, h, k, block):
    """M(h) for the k-th tensor power: the product of the cut means."""
    means = [_tensor_mean(_increments(g, h, cut, block), k)
             for _, cut in brownian._Chunk(g, 0).cuts]
    return reduce(np.matmul, means)


def _walk_moment(g, t, h, k=1, block=slice(None)):
    """E[(tr X)^k] for the walk's endpoint X at horizon t and step h, X cut
    to the diagonal ``block`` of the engines' block-diagonal matrices."""
    cfg = SdeConfig(group=g, t=t, step=h, paths=1, seed=0)
    n = cfg.n_steps
    last = cfg.t - (n - 1) * cfg.step                 # as _run_chunk forms it
    step, final = (_step_mean(g, s, k, block) for s in (cfg.step, last))
    value = np.trace(np.linalg.matrix_power(step, n - 1) @ final)
    assert abs(value.imag) < 1e-12                    # M(h) is Hermitian
    return float(value.real)


def _su2_chi4(t, h):
    # chi_(4) = chi_1^4 - 3 chi_1^2 + 1 on su2
    g = make_group("su2")
    return _walk_moment(g, t, h, 4) - 3.0 * _walk_moment(g, t, h, 2) + 1.0


def _fundamental(g, t, h):
    """E[Re chi_(1, 0, ..)]: the trace of the first factor's block."""
    return _walk_moment(g, t, h, block=brownian._Chunk(g, 0).blocks[0])


def _heat_target(g, coords, t):
    """d_lambda e^(-C_lambda t / 2), the plain heat semigroup on chi_lambda."""
    w = weight(g, coords)
    return w.dimension * math.exp(-(w.lambda_plus_rho_norm_sq - g.rho_norm_sq) * t / 2.0)


def _differences(mean, t, h):
    e = [mean(t, h / 2 ** level) for level in range(3)]
    return e[0] - e[1], e[1] - e[2]


def test_su2_weak_error_halves_with_the_step():
    d1, d2 = _differences(_su2_chi4, 0.3, 0.01)
    assert d1 < 0 and d2 < 0
    assert 1.8 <= d1 / d2 <= 2.2


@pytest.mark.parametrize("name", ["so3", "su3", "su4", "su5"])
def test_weak_error_halves_with_the_step(name):
    g = make_group(name)
    d1, d2 = _differences(lambda t, h: _fundamental(g, t, h), 0.3, 0.01)
    assert 1.8 <= d1 / d2 <= 2.2


# path counts only keep the test short; the rule is 4 standard errors
@pytest.mark.parametrize("name, paths", [
    ("su2", 20_000), ("so3", 20_000), ("su2xsu2", 10_000), ("su3", 2_000),
    ("su4", 2_000), ("su5", 2_000)])
def test_simulated_walk_has_the_exact_mean(name, paths):
    g = make_group(name)
    cfg = SdeConfig(group=g, t=0.5, step=5e-3, paths=paths, seed=SEED)
    est = mc_expect_central(real_character(g, (1,) + (0,) * (g.rank - 1)), cfg)
    assert abs(est.mean - _fundamental(g, cfg.t, cfg.step)) <= 4.0 * est.stderr


# criterion 5 and the non-torus cases of criterion 6, which allow the walk's
# bias 5 h on top of 3 combined standard errors
@pytest.mark.parametrize("name, t, h", [
    ("su2", 1.0, 1e-3),
    *[(name, t, 5e-3) for name in ("su2", "so3", "su2xsu2", "su3") for t in (0.5, 1.0)],
    ("su4", 0.5, 5e-3), ("su5", 0.5, 5e-3)])
def test_walk_bias_sits_inside_the_acceptance_allowance(name, t, h):
    g = make_group(name)
    bias = _fundamental(g, t, h) - _heat_target(g, (1,) + (0,) * (g.rank - 1), t)
    assert abs(bias) < 5.0 * h
