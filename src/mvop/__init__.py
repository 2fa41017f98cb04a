"""Matrix-valued orthogonal polynomials from matrix hypergeometric series.

Two commuting differential operators share a family of simultaneous vector
polynomial eigenfunctions F_{w,r} with closed-form eigenvalue pairs. The
package builds the family, checks the spectral identities, assembles the
orthogonality weight and Gram matrices, and exposes the stochastic three-term
recurrence together with its random walk.
"""

from .family import (EigenFunction, PolynomialPackage, assemble_P, f_wr,
                     h_from_f, reexpand_in_t, spherical_profile,
                     t_recursion_residual, vanishing_orders)
from .hypergeom import SeriesTerminationError, h1_apply, h1_coeffs
from .linalg import MatrixPoly, VectorPoly
from .operators import (apply_D_t, apply_D_u, apply_E_t, apply_E_u,
                        conjugation_residual, hypergeometric_action)
from .orthogonality import (GramResult, WeightSpec, gram, inner_mat, inner_vec,
                            quad_rule, weight_V_at, weight_W_at)
from .params import (ParamError, Params, SpectralPair, in_S, lambda_eig,
                     mu_eig, mu_of_lambda, spectrum_injectivity_check, validate)
from .recurrence import (RecursionBlocks, TransitionTally, a_sq, b_sq, blocks,
                         three_term_residual, transition_tally, walk)
from .report import CheckResult, RunReport, default_grid, run_grid, run_suite
from .spectral import EigenvalueCollisionError, MLambda, build_M, charpoly_residual, eigvec
from .structure import StructureSet, build_structure, pascal, psi_at

__version__ = "0.1.0"

__all__ = [
    "ParamError", "Params", "SpectralPair", "validate", "in_S",
    "lambda_eig", "mu_eig", "mu_of_lambda", "spectrum_injectivity_check",
    "VectorPoly", "MatrixPoly",
    "StructureSet", "build_structure", "pascal", "psi_at",
    "hypergeometric_action", "apply_D_u", "apply_E_u", "apply_D_t", "apply_E_t",
    "conjugation_residual",
    "SeriesTerminationError", "h1_coeffs", "h1_apply",
    "EigenvalueCollisionError", "MLambda", "build_M", "eigvec",
    "charpoly_residual",
    "EigenFunction", "PolynomialPackage", "f_wr", "assemble_P", "h_from_f",
    "reexpand_in_t", "spherical_profile", "t_recursion_residual", "vanishing_orders",
    "WeightSpec", "GramResult", "weight_V_at", "weight_W_at", "quad_rule",
    "inner_vec", "inner_mat", "gram",
    "RecursionBlocks", "a_sq", "b_sq", "blocks", "three_term_residual", "walk",
    "TransitionTally", "transition_tally",
    "CheckResult", "RunReport", "run_suite", "run_grid", "default_grid",
    "__version__",
]
