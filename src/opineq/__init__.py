"""Numerical verification of operator inequalities over Hermitian matrices.

The package checks Kantorovich-type reverses, operator-mean transformer
inequalities, and Minkowski-type determinant-free bounds on randomly
generated instances, and ships a falsification engine for a claimed
counterexample family built from 2x2 rotation mixtures.
"""
from .hermitian import (DEFAULT_TOL, DomainError, SpectralInterval,
                        loewner_leq, matrix_function, operator_norm, power)
from .functions import CATALOG, ScalarFunction, by_name, power_function
from .means import connection, geometric_mean, riccati_residual
from .maps import (KrausMap, compression, direct_sum, identity_map,
                   make_rotation_mixture, pinching, scaled, unitary_mixture)
from .constants import (alpha_constant, beta0_constant, beta_p_constant,
                        generalized_kantorovich, kantorovich_constant,
                        mond_pecaric_beta)
from .checks import CheckInstance, CheckResult
from .registry import REGISTRY, get, names
from .suite import SuiteReport, run_suite
from .falsify import ViolationReport, counterexample_T, search_violations

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "DomainError", "SpectralInterval", "loewner_leq",
    "matrix_function", "operator_norm", "power",
    "CATALOG", "ScalarFunction", "by_name", "power_function",
    "connection", "geometric_mean", "riccati_residual",
    "KrausMap", "compression", "direct_sum", "identity_map",
    "make_rotation_mixture", "pinching", "scaled", "unitary_mixture",
    "alpha_constant", "beta0_constant", "beta_p_constant",
    "generalized_kantorovich", "kantorovich_constant", "mond_pecaric_beta",
    "CheckInstance", "CheckResult",
    "REGISTRY", "get", "names",
    "SuiteReport", "run_suite",
    "ViolationReport", "counterexample_T", "search_violations",
    "__version__",
]
