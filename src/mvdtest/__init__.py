"""Kernel two-sample testing via mean embeddings and covariance operators.

The package computes two Gram-matrix discrepancy statistics between samples —
the squared distance of kernel mean embeddings (mmd) and of feature-space
covariance operators (mvd) — approximates their weighted chi-square null laws
from the Gram spectrum, rescales those laws with a subsampling variance
estimate, and turns the result into critical values, p-values, and decisions.
Closed forms for Gaussian distributions and a Monte Carlo harness round out
the toolbox; the `mvdtest` command exposes all of it on CSV files.
"""

__version__ = "0.1.0"

from .closed_form import (
    GaussianSpec,
    cov_operator_inner,
    cov_operator_norm_sq,
    mean_embedding_inner,
    mean_embedding_norm_sq,
    mmd_sq_gaussian,
    mmd_sq_isotropic,
    mvd_mmd_curves,
    mvd_sq_gaussian,
    mvd_sq_isotropic,
)
from .discrepancy import KINDS, h_matrix, statistic
from .kernels import (
    GramSet,
    KernelSpec,
    as_sample,
    build_gram_set,
    center_gram,
    gram,
    gram_set_from_blocks,
)
from .null import (
    TAU_TABLE,
    NullApprox,
    SpectralWeights,
    SubsamplingPlan,
    TestReport,
    critical_value,
    default_tau,
    fit_wprime,
    run_test,
    run_tests,
    sample_weighted_chisq,
    spectral_weights,
    subsample_variance,
)
from .simulate import (
    SIGMA_RULES,
    DistributionSpec,
    ExperimentResult,
    sample,
    sigma_from_rule,
    slope_regression,
    type1_power_table,
    variance_table,
)

__all__ = [
    "__version__",
    "GaussianSpec",
    "GramSet",
    "KernelSpec",
    "KINDS",
    "NullApprox",
    "DistributionSpec",
    "ExperimentResult",
    "SIGMA_RULES",
    "SpectralWeights",
    "SubsamplingPlan",
    "TAU_TABLE",
    "TestReport",
    "as_sample",
    "build_gram_set",
    "center_gram",
    "cov_operator_inner",
    "cov_operator_norm_sq",
    "critical_value",
    "default_tau",
    "fit_wprime",
    "gram",
    "gram_set_from_blocks",
    "h_matrix",
    "mean_embedding_inner",
    "mean_embedding_norm_sq",
    "mmd_sq_gaussian",
    "mmd_sq_isotropic",
    "mvd_mmd_curves",
    "mvd_sq_gaussian",
    "mvd_sq_isotropic",
    "run_test",
    "run_tests",
    "sample",
    "sample_weighted_chisq",
    "sigma_from_rule",
    "slope_regression",
    "spectral_weights",
    "statistic",
    "subsample_variance",
    "type1_power_table",
    "variance_table",
]
