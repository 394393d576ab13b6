"""Heat kernels on compact Lie groups by character series, wrapped Gaussians
and Brownian motion."""

from .errors import (
    CatalogError,
    ContractError,
    DomainError,
    InstabilityError,
    ResolutionError,
    ResourceLimitError,
    SingularityError,
)
from .groups import (
    as_real_checked,
    GroupSpec,
    Weight,
    alcove_points,
    cell_grid,
    character,
    CharacterTable,
    dual_index,
    enumerate_weights,
    is_regular,
    j_compact,
    lattice_points,
    make_group,
    wall_distance,
    weight,
    weyl_density,
    weyl_dimension,
)
from .wrapping import (
    CentralFunction,
    RadialFunction,
    auto_cutoff,
    convolve_central,
    fourier_coefficients,
    laplacian_spectral,
    wrap_lattice,
    wrap_spectral,
    wraplap_check,
    wrapping_formula_check,
)
from .heat import (
    auto_kernel,
    bend_complex,
    flat_heat_kernel,
    heat_coefficients,
    j_complex,
    preferred_route,
    semigroup_gap,
    spectral_heat_kernel,
    wrapped_heat_kernel,
)
from .brownian import (
    McEstimate,
    RealCharacter,
    SdeConfig,
    WrapBmReport,
    conjugacy_coordinate,
    empirical_density_table,
    feynman_kac_weight,
    mc_expect_central,
    real_character,
    sample_group_endpoint,
    wrap_bm_check,
)

__version__ = "0.1.0"
