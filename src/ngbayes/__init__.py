"""Closed-form KL divergences for normal, gamma and normal-gamma
distributions, conjugate Bayesian inference for the univariate GLM, and
the accuracy/complexity decomposition of the log model evidence."""

from .numerics import SpdMatrix, cholesky, digamma, log_gamma, logdet_spd, spd_solve
from .distributions import (
    GammaParams,
    MvNormalParams,
    NormalGammaParams,
    RngStream,
    logpdf_gamma,
    logpdf_mvn,
    logpdf_ng,
    sample_gamma,
    sample_mvn,
    sample_ng,
)
from .divergence import (
    KlEstimate,
    expected_conditional_mvn_kl,
    kl_gamma,
    kl_monte_carlo,
    kl_monte_carlo_pair,
    kl_mvn,
    kl_normal_gamma,
)
from .glm import (
    GlmDataset,
    GlmFit,
    ModelQuality,
    accuracy,
    complexity,
    cv_log_model_evidence,
    cv_model_quality,
    fit_posterior,
    log_model_evidence,
)
from .experiments import (
    CvStudyConfig,
    PolySweepConfig,
    SweepResult,
    build_poly_design,
    equally_spaced,
    run_cv_study,
    run_poly_sweep,
    simulate_polynomial,
    write_sweep_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
