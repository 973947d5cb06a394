"""Determinant representations of spin-chain inner products, with a
brute-force oracle and an executable verification suite.

The package namespace carries the README's library quick start; everything
else is imported from its module (``bdl.linsys``, ``bdl.oracle``, ...).
"""

from .determinants import scalar_product
from .errors import BdlError, ConfigError, PoleError, RankDeficiencyError, TwistError
from .linsys import build_m, solve_x
from .models import PeriodicChainSpec, TwistSpec, chain_y_model
from .oracle import (bethe_vector, direct_scalar_product, dual_bethe_vector,
                     solve_bethe_roots)

__version__ = "0.1.0"

__all__ = [
    "BdlError", "ConfigError", "PeriodicChainSpec",
    "PoleError", "RankDeficiencyError", "TwistError", "TwistSpec",
    "bethe_vector", "build_m", "chain_y_model", "direct_scalar_product",
    "dual_bethe_vector", "scalar_product", "solve_bethe_roots", "solve_x",
]
