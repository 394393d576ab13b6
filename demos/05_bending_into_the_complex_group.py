"""
Bending the kernel into the complex group
=========================================

On the complexification of a compact group there is no lattice to sum
over: instead of wrapping, the flat Gaussian is divided by the analytic
continuation of the j-function.  The result is an exact closed form for
the central heat kernel, with the sin factors of j turned into sinh.
"""

import numpy as np

from wrapkit import (
    alcove_points,
    bend_complex,
    flat_heat_kernel,
    j_compact,
    j_complex,
    make_group,
)

g = make_group("su2")
print(f"{g.name} (dim {g.dim}) complexifies to {g.name}_c "
      f"(real dim {2 * g.dim})")

# ---------------------------------------------------------------------------
# On the compact side j oscillates and vanishes on the walls; its sinh
# continuation is positive and grows, so dividing by it is always safe.
# ---------------------------------------------------------------------------

H = np.linspace(0.4, 2.4, 6)[:, None]
print(f"\n{'H':>5} {'j compact':>12} {'j complex':>12}")
for h, jc, jx in zip(H[:, 0], np.atleast_1d(j_compact(g, H)),
                     np.atleast_1d(j_complex(g, H))):
    print(f"{h:>5.2f} {jc:>12.6f} {jx:>12.6f}")

# ---------------------------------------------------------------------------
# At the identity the kernel is exactly the flat normalization constant.
# ---------------------------------------------------------------------------

for t in (0.1, 1.0):
    v = float(np.asarray(bend_complex(g, np.zeros(g.rank), t)))
    print(f"kernel at origin, t={t}: {v:.9g} "
          f"= (2 pi t)^(-{2 * g.dim}/2)")

# ---------------------------------------------------------------------------
# As t -> 0 the kernel looks like the flat Gaussian divided by j: the
# curvature correction freezes while the Gaussian concentrates.
# ---------------------------------------------------------------------------

t = 1e-4
pts = alcove_points(g, 5) * 0.06
ratio = np.asarray(bend_complex(g, pts, t)) / flat_heat_kernel(
    np.sum(pts * pts, axis=1), t, 2 * g.dim
)
gap = np.abs(ratio - 1.0 / np.asarray(j_complex(g, pts)))
print(f"\nsmall-time ratio vs 1/j at t={t}: max gap {float(gap.max()):.2e}")

# the same closed form is available for every catalog group
for name in ("torus2", "su3"):
    h = make_group(name)
    v = float(np.asarray(bend_complex(h, np.zeros(h.rank), 0.5)))
    print(f"{name + '_c':10} origin value at t=0.5: {v:.6g}")
