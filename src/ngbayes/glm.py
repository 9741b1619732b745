"""Conjugate Bayesian inference for the univariate general linear model.

The normal-gamma prior on (coefficients, noise precision) is conjugate to
the Gaussian likelihood, so the posterior is available in closed form.
The closed forms also take R responses (n, R) that share one design,
which is then factored once; mu_n (k, R), b_n, accuracy, complexity and
evidence (R,) hold one column per response, and every check runs per
column. One response (n,) is the same code at R = 1.

The log model evidence is computed twice: once as accuracy minus
complexity and once from the ratio of prior to posterior normalization
constants. Disagreement between the two paths is treated as an internal
error; the redundancy is the main correctness harness of this module.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .distributions import NormalGammaParams, _quad_form
from .divergence import kl_normal_gamma
from .numerics import SpdMatrix, digamma, log_gamma, logdet_spd, spd_solve

__all__ = [
    "GlmDataset", "GlmFit", "ModelQuality", "DegeneratePosteriorError",
    "EvidenceConsistencyError", "REFERENCE_PRIOR_PRECISION", "REFERENCE_PRIOR_SHAPE",
    "REFERENCE_PRIOR_RATE", "fit_posterior", "complexity", "accuracy",
    "log_model_evidence", "reference_prior", "cv_model_quality",
]

_LN_2PI = math.log(2.0 * math.pi)

# Non-informative reference prior used by cross-validated evidence: the
# training-session posterior dominates these values.
REFERENCE_PRIOR_PRECISION = 1e-6
REFERENCE_PRIOR_SHAPE = 1e-3
REFERENCE_PRIOR_RATE = 1e-3

# Largest gap allowed between the two evidence paths of one response.
EVIDENCE_CONSISTENCY_TOL = 1e-6


class DegeneratePosteriorError(ArithmeticError):
    """Posterior mean or rate overflowed, or the rate came out non-positive."""


class EvidenceConsistencyError(ArithmeticError):
    """Accuracy-minus-complexity disagrees with the direct evidence form."""


@dataclass(frozen=True)
class ModelQuality:
    """Log model evidence with its accuracy/complexity decomposition, per response."""

    lme: float | np.ndarray
    accuracy: float | np.ndarray
    complexity: float | np.ndarray

    def __post_init__(self):
        if np.any(self.complexity < -1e-10):
            raise ValueError(f"complexity must be nonnegative, got {self.complexity}")
        if np.any(np.abs(self.lme - (self.accuracy - self.complexity)) > 1e-10):
            raise ValueError("lme must equal accuracy - complexity")


@dataclass(frozen=True)
class GlmDataset:
    """Whitened responses, (n,) or (n, R), and design matrix of one GLM.

    The optional noise precision P is the inverse of the noise correlation
    matrix; None (the default) means white noise. A given P is factored
    once as P = L L^T, and ``y`` and ``X`` are stored whitened, as L^T y
    and L^T X, with ``logdet_P`` = ln|P|. Every later step therefore sees
    white noise, and sessions combine by summing their statistics. The
    design matrix must have full column rank.
    """

    y: np.ndarray
    X: np.ndarray
    P: InitVar[SpdMatrix | None] = None
    logdet_P: float = field(init=False, default=0.0)

    def __post_init__(self, P):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {X.shape}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError(f"design matrix must be at least 1x1, got {n}x{p}")
        if y.ndim > 2 or y.shape[0] != n:
            raise ValueError(f"y has shape {y.shape}, design has {n} rows")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("data and design must be finite")
        if P is not None:
            if P.dim != n:
                raise ValueError(f"noise precision is {P.dim}x{P.dim}, expected {n}x{n}")
            lower = P.chol
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


@np.errstate(over="ignore", invalid="ignore")
def fit_posterior(data: GlmDataset | list, prior: NormalGammaParams) -> NormalGammaParams:
    """Conjugate posterior update for the GLM with a normal-gamma prior.

    ``data`` may be a list of datasets fitted jointly: their X'X, X'y, n
    and residuals add up. The prior may be a batch of R.
    """
    parts = [data] if isinstance(data, GlmDataset) else data
    if any(s.p != prior.dim or s.y.shape[1:] != parts[0].y.shape[1:] for s in parts):
        raise ValueError(
            f"prior dimension {prior.dim} does not match design columns "
            f"{[s.p for s in parts]}, or response counts {[s.y.shape[1:] for s in parts]} differ"
        )
    # Responses, means and residuals as columns: (n, R), (k, R) and (R,).
    batch = np.broadcast_shapes(parts[0].y.shape[1:], np.shape(prior.rate))
    lam_0, mu_0 = prior.lam.entries, prior.mu.reshape(prior.dim, -1)
    lam_n = SpdMatrix(lam_0 + sum(s.X.T @ s.X for s in parts))
    mu_n = spd_solve(lam_n, lam_0 @ mu_0 + sum(s.X.T @ s.y.reshape(s.n, -1) for s in parts))
    # Residual form of y'y + mu_0' Lam_0 mu_0 - mu_n' Lam_n mu_n: equal in
    # exact arithmetic, but a sum of nonnegative terms with no cancellation.
    rss = sum(np.sum((s.y.reshape(s.n, -1) - s.X @ mu_n) ** 2, axis=0) for s in parts)
    d = mu_n - mu_0
    b_n = prior.rate + 0.5 * (rss + _quad_form(prior.lam.chol, d.T))
    ok = np.all(np.isfinite(mu_n), axis=0) & np.isfinite(b_n) & (b_n > 0.0)
    if not np.all(ok):
        j = np.argmin(ok)
        raise DegeneratePosteriorError(f"posterior overflowed or degenerated in column {j}: "
                                       f"b_n = {b_n[j]}, mu_n = {mu_n[:, j]}")
    return NormalGammaParams(mu=mu_n.reshape(mu_n.shape[:1] + batch), lam=lam_n,
                             shape=prior.shape + 0.5 * sum(s.n for s in parts),
                             rate=b_n.reshape(batch))


def complexity(prior: NormalGammaParams, posterior: NormalGammaParams):
    """Complexity penalty: KL from the posterior to the prior."""
    return kl_normal_gamma(posterior, prior)


def accuracy(data: GlmDataset, posterior: NormalGammaParams):
    """Posterior expected log-likelihood of the data, per response.

    Uses the gamma moments <tau> = a_n / b_n and <ln tau> = psi(a_n) - ln b_n
    plus the Gaussian quadratic-form identity for the coefficient uncertainty.
    """
    if posterior.dim != data.p:
        raise ValueError(
            f"posterior dimension {posterior.dim} does not match design columns {data.p}"
        )
    n = data.n
    r = data.y.reshape(n, -1) - data.X @ posterior.mu.reshape(data.p, -1)
    rss = np.sum(r * r, axis=0).reshape(np.shape(posterior.rate))
    trace = float(np.trace(spd_solve(posterior.lam, data.X.T @ data.X)))
    a_n, b_n = posterior.shape, posterior.rate
    return (
        0.5 * data.logdet_P
        - 0.5 * n * _LN_2PI
        + 0.5 * n * (digamma(a_n) - np.log(b_n))
        - 0.5 * ((a_n / b_n) * rss + trace)
    )


def _direct_lme(data: GlmDataset, prior: NormalGammaParams,
                posterior: NormalGammaParams):
    """Evidence from the ratio of prior to posterior normalizers."""
    n = data.n
    return (
        -0.5 * n * _LN_2PI
        + 0.5 * data.logdet_P
        + 0.5 * (logdet_spd(prior.lam) - logdet_spd(posterior.lam))
        + prior.shape * np.log(prior.rate)
        - posterior.shape * np.log(posterior.rate)
        + log_gamma(posterior.shape)
        - log_gamma(prior.shape)
    )


def log_model_evidence(data: GlmDataset, prior: NormalGammaParams) -> GlmFit:
    """Fit the model and return the evidence with its decomposition.

    The decomposition path (accuracy minus complexity) is cross-checked
    against the direct closed form for every response; a gap beyond
    EVIDENCE_CONSISTENCY_TOL raises EvidenceConsistencyError naming the column.
    """
    posterior = fit_posterior(data, prior)
    acc = accuracy(data, posterior)
    com = complexity(prior, posterior)
    lme = acc - com
    direct = _direct_lme(data, prior, posterior)
    ok = np.abs(lme - direct) <= EVIDENCE_CONSISTENCY_TOL
    if not np.all(ok):
        j = np.argmin(ok)
        raise EvidenceConsistencyError(
            f"column {j}: decomposition LME {np.reshape(lme, -1)[j]} vs direct LME "
            f"{np.reshape(direct, -1)[j]} differ by more than {EVIDENCE_CONSISTENCY_TOL}"
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
    held-out fit. Per-session qualities are summed, per response: sessions
    hold R responses each, column r of every session forming problem r.
    Sessions are stored whitened, so the training fit sums the other
    sessions' statistics and residuals; ln|P| does not enter it.
    """
    sessions = list(sessions)
    if len(sessions) < 2:
        raise ValueError("cross-validated evidence requires at least 2 sessions")
    p, batch = sessions[0].p, sessions[0].y.shape[1:]
    if any(s.p != p or s.y.shape[1:] != batch for s in sessions):
        raise ValueError("all sessions must share the same design columns and response count")
    prior = reference_prior(p)
    lme = acc = com = 0.0
    for i, held_out in enumerate(sessions):
        try:
            trained = fit_posterior([s for j, s in enumerate(sessions) if j != i], prior)
            fit = log_model_evidence(held_out, trained)
        except ArithmeticError as exc:
            raise type(exc)(f"fit failed at fold {i}: {exc}") from exc
        lme += fit.quality.lme
        acc += fit.quality.accuracy
        com += fit.quality.complexity
    return ModelQuality(lme=lme, accuracy=acc, complexity=com)
