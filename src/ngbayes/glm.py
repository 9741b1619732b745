"""Conjugate Bayesian inference for the univariate general linear model.

The normal-gamma prior on (coefficients, noise precision) is conjugate to
the Gaussian likelihood, so the posterior is available in closed form.
The log model evidence is computed twice: once as accuracy minus
complexity and once from the ratio of prior to posterior normalization
constants. Disagreement between the two paths is treated as an internal
error; the redundancy is the main correctness harness of this module.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .distributions import NormalGammaParams
from .divergence import kl_normal_gamma
from .numerics import SpdMatrix, cholesky, digamma, log_gamma, logdet_spd, spd_solve

__all__ = [
    "GlmDataset",
    "GlmFit",
    "ModelQuality",
    "DegeneratePosteriorError",
    "EvidenceConsistencyError",
    "REFERENCE_PRIOR_PRECISION",
    "REFERENCE_PRIOR_SHAPE",
    "REFERENCE_PRIOR_RATE",
    "fit_posterior",
    "complexity",
    "accuracy",
    "log_model_evidence",
    "reference_prior",
    "cv_model_quality",
    "cv_log_model_evidence",
]

_LN_2PI = math.log(2.0 * math.pi)

# Non-informative reference prior used by cross-validated evidence: the
# training-session posterior dominates these values.
REFERENCE_PRIOR_PRECISION = 1e-6
REFERENCE_PRIOR_SHAPE = 1e-3
REFERENCE_PRIOR_RATE = 1e-3


class DegeneratePosteriorError(ArithmeticError):
    """Posterior rate came out non-positive (catastrophic cancellation)."""


class EvidenceConsistencyError(ArithmeticError):
    """Accuracy-minus-complexity disagrees with the direct evidence form."""


@dataclass(frozen=True)
class ModelQuality:
    """Log model evidence with its accuracy/complexity decomposition."""

    lme: float
    accuracy: float
    complexity: float

    def __post_init__(self):
        if self.complexity < -1e-10:
            raise ValueError(f"complexity must be nonnegative, got {self.complexity}")
        if abs(self.lme - (self.accuracy - self.complexity)) > 1e-10:
            raise ValueError("lme must equal accuracy - complexity")


@dataclass(frozen=True)
class GlmDataset:
    """Whitened data vector and design matrix of one GLM.

    The optional noise precision P is the inverse of the noise correlation
    matrix; None (the default) means white noise. A given P is factored
    once as P = L L^T, and ``y`` and ``X`` are stored whitened, as L^T y
    and L^T X, with ``logdet_P`` = ln|P|. Every later step therefore sees
    white noise, and sessions stack by concatenating their rows. The
    design matrix must have full column rank.
    """

    y: np.ndarray
    X: np.ndarray
    P: InitVar[SpdMatrix | None] = None
    logdet_P: float = field(init=False, default=0.0)

    def __post_init__(self, P):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {X.shape}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError(f"design matrix must be at least 1x1, got {n}x{p}")
        if y.shape[0] != n:
            raise ValueError(f"y has length {y.shape[0]}, design has {n} rows")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("data and design must be finite")
        if P is not None:
            if P.dim != n:
                raise ValueError(f"noise precision is {P.dim}x{P.dim}, expected {n}x{n}")
            lower = cholesky(P)
            y, X = lower.T @ y, lower.T @ X
            object.__setattr__(self, "logdet_P", logdet_spd(P))
        if np.linalg.matrix_rank(X) < p:
            raise ValueError("design matrix is rank deficient")
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GlmFit:
    """Prior, posterior and quality measures of one fitted GLM."""

    prior: NormalGammaParams
    posterior: NormalGammaParams
    quality: ModelQuality


def fit_posterior(data: GlmDataset, prior: NormalGammaParams) -> NormalGammaParams:
    """Conjugate posterior update for the GLM with a normal-gamma prior."""
    if prior.dim != data.p:
        raise ValueError(
            f"prior dimension {prior.dim} does not match design columns {data.p}"
        )
    X, y, lam_0 = data.X, data.y, prior.lam.entries
    lam_n = SpdMatrix(X.T @ X + lam_0)
    mu_n = spd_solve(lam_n, X.T @ y + lam_0 @ prior.mu)
    a_n = prior.shape + 0.5 * data.n
    # Residual form of y'y + mu_0' Lam_0 mu_0 - mu_n' Lam_n mu_n: equal in
    # exact arithmetic, but a sum of nonnegative terms with no cancellation.
    r = y - X @ mu_n
    d = mu_n - prior.mu
    b_n = prior.rate + 0.5 * (float(r @ r) + float(d @ (lam_0 @ d)))
    if b_n <= 0.0:
        raise DegeneratePosteriorError(
            f"posterior rate {b_n} is not positive; numerically degenerate fit"
        )
    return NormalGammaParams(mu=mu_n, lam=lam_n, shape=a_n, rate=b_n)


def complexity(prior: NormalGammaParams, posterior: NormalGammaParams) -> float:
    """Complexity penalty: KL from the posterior to the prior."""
    return kl_normal_gamma(posterior, prior)


def accuracy(data: GlmDataset, posterior: NormalGammaParams) -> float:
    """Posterior expected log-likelihood of the data.

    Uses the gamma moments <tau> = a_n / b_n and <ln tau> = psi(a_n) - ln b_n
    plus the Gaussian quadratic-form identity for the coefficient uncertainty.
    """
    if posterior.dim != data.p:
        raise ValueError(
            f"posterior dimension {posterior.dim} does not match design columns {data.p}"
        )
    n = data.n
    r = data.y - data.X @ posterior.mu
    trace = float(np.trace(spd_solve(posterior.lam, data.X.T @ data.X)))
    a_n, b_n = posterior.shape, posterior.rate
    return (
        0.5 * data.logdet_P
        - 0.5 * n * _LN_2PI
        + 0.5 * n * (digamma(a_n) - math.log(b_n))
        - 0.5 * ((a_n / b_n) * float(r @ r) + trace)
    )


def _direct_lme(data: GlmDataset, prior: NormalGammaParams,
                posterior: NormalGammaParams) -> float:
    """Evidence from the ratio of prior to posterior normalizers."""
    n = data.n
    return (
        -0.5 * n * _LN_2PI
        + 0.5 * data.logdet_P
        + 0.5 * (logdet_spd(prior.lam) - logdet_spd(posterior.lam))
        + prior.shape * math.log(prior.rate)
        - posterior.shape * math.log(posterior.rate)
        + log_gamma(posterior.shape)
        - log_gamma(prior.shape)
    )


def log_model_evidence(data: GlmDataset, prior: NormalGammaParams,
                       consistency_tol: float = 1e-6) -> GlmFit:
    """Fit the model and return the evidence with its decomposition.

    The decomposition path (accuracy minus complexity) is cross-checked
    against the direct closed form; a mismatch beyond ``consistency_tol``
    raises EvidenceConsistencyError.
    """
    posterior = fit_posterior(data, prior)
    acc = accuracy(data, posterior)
    com = complexity(prior, posterior)
    lme = acc - com
    direct = _direct_lme(data, prior, posterior)
    if abs(lme - direct) > consistency_tol:
        raise EvidenceConsistencyError(
            f"decomposition LME {lme} vs direct LME {direct}: "
            f"difference {lme - direct} exceeds {consistency_tol}"
        )
    return GlmFit(prior=prior, posterior=posterior,
                  quality=ModelQuality(lme=lme, accuracy=acc, complexity=com))


def reference_prior(p: int) -> NormalGammaParams:
    """Near-flat prior used as the starting point of cross-validation."""
    return NormalGammaParams(
        mu=np.zeros(p),
        lam=SpdMatrix(REFERENCE_PRIOR_PRECISION * np.eye(p)),
        shape=REFERENCE_PRIOR_SHAPE,
        rate=REFERENCE_PRIOR_RATE,
    )


def cv_model_quality(sessions) -> ModelQuality:
    """Leave-one-session-out cross-validated model quality.

    For each held-out session, the remaining sessions are fitted from the
    reference prior and the resulting posterior serves as the prior of the
    held-out fit. Per-session qualities are summed. Sessions are stored
    whitened, so the training set is their rows stacked; ln|P| does not
    enter the posterior.
    """
    sessions = list(sessions)
    if len(sessions) < 2:
        raise ValueError("cross-validated evidence requires at least 2 sessions")
    p = sessions[0].p
    if any(s.p != p for s in sessions):
        raise ValueError("all sessions must share the same design columns")
    lme = acc = com = 0.0
    for i in range(len(sessions)):
        train = [s for j, s in enumerate(sessions) if j != i]
        stacked = GlmDataset(np.concatenate([s.y for s in train]),
                             np.vstack([s.X for s in train]))
        trained = fit_posterior(stacked, reference_prior(p))
        fit = log_model_evidence(sessions[i], trained)
        lme += fit.quality.lme
        acc += fit.quality.accuracy
        com += fit.quality.complexity
    return ModelQuality(lme=lme, accuracy=acc, complexity=com)


def cv_log_model_evidence(sessions, prior_policy: str = "leave-one-session-out") -> float:
    """Cross-validated log model evidence, summed over held-out sessions."""
    if prior_policy != "leave-one-session-out":
        raise ValueError(f"unknown prior policy: {prior_policy!r}")
    return cv_model_quality(sessions).lme
