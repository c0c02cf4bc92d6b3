"""Canonical tight and dual Gabor windows on C^L.

The heavy lifting happens on the Zak-domain block factorization: a signal
becomes a c x d grid of p x q matrices on which the frame operator acts
blockwise, so canonical windows and the iterative algorithms reduce to
batches of small dense matrix operations.
"""

__version__ = "0.1.0"

from .lattice import GaborLattice, derive_lattice, tf_shift
from .errors import InvalidLatticeError, NotAFrameError
from .windows import gaussian_window, monster_window, sech_window
from .zak import (
    BlockOperator,
    SpectralSummary,
    ZakFactorization,
    apply_block_operator,
    block_gram,
    dzt,
    factorize,
    frame_bounds,
    unfactorize,
    zak_extend,
)
from .canonical import eig_tight, inv_dual, svd_tight
from .dense import (
    SynthesisMatrix,
    normalized_singular_values,
    reference_dual,
    reference_tight,
    synthesis_matrix,
)
from .iterations import (
    IterationConfig,
    IterationTrace,
    dual_taylor_coeffs,
    optimal_scaling_constant,
    run,
    scalar_iteration,
    tight_taylor_coeffs,
    upper_frame_bound_estimate,
)
from .diagnostics import (
    adjoint_correlations,
    convergence_order,
    dual_lattice_norm_dual,
    dual_lattice_norm_tight,
    kantorovich_bound_dual,
    kantorovich_bound_tight,
    wexler_raz_residual,
    z_bounds,
)
from .scalarlab import (
    Classification,
    pointwise_dual,
    pointwise_tight,
    two_point_norm_scaled,
)

__all__ = [
    "GaborLattice", "derive_lattice", "tf_shift",
    "InvalidLatticeError", "NotAFrameError",
    "gaussian_window", "sech_window", "monster_window",
    "ZakFactorization", "BlockOperator", "SpectralSummary",
    "dzt", "zak_extend", "factorize", "unfactorize",
    "block_gram", "apply_block_operator", "frame_bounds",
    "eig_tight", "svd_tight", "inv_dual",
    "SynthesisMatrix", "synthesis_matrix", "reference_tight", "reference_dual",
    "normalized_singular_values", "scalar_iteration",
    "IterationConfig", "IterationTrace", "run",
    "tight_taylor_coeffs", "dual_taylor_coeffs", "optimal_scaling_constant",
    "upper_frame_bound_estimate",
    "adjoint_correlations", "dual_lattice_norm_tight", "dual_lattice_norm_dual",
    "wexler_raz_residual", "kantorovich_bound_tight", "kantorovich_bound_dual",
    "z_bounds", "convergence_order",
    "Classification", "pointwise_tight", "pointwise_dual", "two_point_norm_scaled",
]
