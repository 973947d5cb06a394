"""Determinant representations of spin-chain inner products, with a
brute-force oracle and an executable verification suite."""

from .determinants import (ScalarProductResult, calibrate_scalar_product_exponent,
                           gaudin_norm_check, izergin, izergin_oracle_exponent,
                           maba_scalar_product, phi_factor, scalar_product)
from .errors import (BdlError, ConfigError, DimensionCapError, PoleError,
                     RankDeficiencyError, TwistError)
from .identities import IdentityReport, identity_a, identity_b
from .linsys import (JacobianFormReport, SolutionVector, SystemMatrices,
                     WTransformReport, build_m, build_omega, jacobian_form,
                     l_coeff, omega_columns, omega_minor, solve_x,
                     w_transform_check)
from .models import (PeriodicChainSpec, TwistSpec, YModel, bethe_jacobian,
                     bethe_residual, lambda1, lambda2, lambda_eval,
                     maba_y_model, periodic_y_model, random_y_model, y_eval,
                     y_maba, y_periodic, ytr_model)
from .oracle import (BetheRootResult, HilbertSpace, bethe_vector, chain_space,
                     direct_scalar_product, dual_bethe_vector, lax,
                     modified_monodromy, monodromy, solve_bethe_roots,
                     transfer)
from .rational import ParamSet, delta, delta_prime, esp, esp_all, esp_split, g, g_prod

__version__ = "0.1.0"

__all__ = [
    "BdlError", "BetheRootResult", "ConfigError", "DimensionCapError",
    "HilbertSpace", "IdentityReport", "JacobianFormReport", "ParamSet",
    "PeriodicChainSpec", "PoleError", "RankDeficiencyError",
    "ScalarProductResult", "SolutionVector", "SystemMatrices", "TwistError",
    "TwistSpec", "WTransformReport", "YModel", "bethe_jacobian",
    "bethe_residual", "bethe_vector", "build_m", "build_omega",
    "calibrate_scalar_product_exponent", "chain_space", "delta", "delta_prime",
    "direct_scalar_product", "dual_bethe_vector", "esp", "esp_all",
    "esp_split", "g", "g_prod", "gaudin_norm_check",
    "identity_a", "identity_b", "izergin", "izergin_oracle_exponent",
    "jacobian_form", "l_coeff", "lambda1", "lambda2", "lambda_eval", "lax",
    "maba_scalar_product", "maba_y_model", "modified_monodromy", "monodromy",
    "omega_columns", "omega_minor", "periodic_y_model", "phi_factor",
    "random_y_model", "scalar_product", "solve_bethe_roots",
    "solve_x", "transfer", "w_transform_check", "y_eval", "y_maba",
    "y_periodic", "ytr_model",
]
