"""Closed-form KL divergences plus a Monte Carlo estimator used as oracle.

The normal-gamma divergence is computed as the chain-rule sum of the
expected conditional normal divergence and the gamma divergence, so the
additivity property holds to floating-point exactness by construction.
The gamma and normal-gamma divergences also take batches (see
``NormalGammaParams``) and then return one value per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import GammaParams, MvNormalParams, NormalGammaParams, RngStream
from .numerics import digamma, log_gamma, logdet_spd, spd_solve

__all__ = [
    "KlEstimate", "NegativeDivergenceError", "kl_mvn", "kl_gamma", "kl_normal_gamma",
    "expected_conditional_mvn_kl", "kl_monte_carlo",
]

# Closed-form results below this are implementation bugs, not rounding.
_NEGATIVE_TOL = -1e-10


class NegativeDivergenceError(ArithmeticError):
    """A closed-form KL evaluated significantly below zero."""


@dataclass(frozen=True)
class KlEstimate:
    """Monte Carlo divergence estimate with its standard error."""

    value: float
    standard_error: float
    sample_count: int

    def __post_init__(self):
        if self.standard_error < 0.0:
            raise ValueError("standard error must be nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample count must be >= 1")


def _clamp(value):
    if np.any(value < _NEGATIVE_TOL):
        raise NegativeDivergenceError(
            f"closed-form KL evaluated to {value}, below the rounding tolerance"
        )
    return np.maximum(value, 0.0)


def kl_mvn(p: MvNormalParams, q: MvNormalParams) -> float:
    """KL[P || Q] for two multivariate normals of equal dimension."""
    k = p.dim
    if q.dim != k:
        raise ValueError(f"dimension mismatch: {k} vs {q.dim}")
    if p is q or (np.array_equal(p.mean, q.mean)
                  and np.array_equal(p.precision.entries, q.precision.entries)):
        return 0.0
    d = q.mean - p.mean
    quad = float(d @ q.precision.entries @ d)
    trace = float(np.trace(spd_solve(p.precision, q.precision.entries)))
    logdet_term = logdet_spd(p.precision) - logdet_spd(q.precision)
    return _clamp(0.5 * (quad + trace + logdet_term - k))


def kl_gamma(p: GammaParams, q: GammaParams):
    """KL[P || Q] for two univariate gammas; exactly 0 when P equals Q."""
    a1, b1 = p.shape, p.rate
    a2, b2 = q.shape, q.rate
    value = (
        a2 * np.log(b1 / b2)
        - (log_gamma(a1) - log_gamma(a2))
        + (a1 - a2) * digamma(a1)
        - (b1 - b2) * a1 / b1
    )
    return _clamp(value)


def expected_conditional_mvn_kl(p: NormalGammaParams, q: NormalGammaParams):
    """Conditional normal KL, averaged over the precision scale of P.

    Averaging KL[N(mu1, (y L1)^-1) || N(mu2, (y L2)^-1)] over
    y ~ Gam(a1, b1) replaces y in the mean term by its expectation a1/b1;
    the remaining terms are scale-free.
    """
    k = p.dim
    if q.dim != k:
        raise ValueError(f"dimension mismatch: {k} vs {q.dim}")
    batch = np.broadcast_shapes(np.shape(p.rate), np.shape(q.rate))
    d = q.mu.reshape(k, -1) - p.mu.reshape(k, -1)  # one column per batch member
    quad = np.sum(d * (q.lam.entries @ d), axis=0).reshape(batch)
    trace = float(np.trace(spd_solve(p.lam, q.lam.entries)))
    logdet_term = logdet_spd(q.lam) - logdet_spd(p.lam)
    return (
        0.5 * (p.shape / p.rate) * quad
        + 0.5 * trace
        - 0.5 * logdet_term
        - 0.5 * k
    )


def kl_normal_gamma(p: NormalGammaParams, q: NormalGammaParams):
    """KL[P || Q] for two normal-gamma distributions.

    Chain rule: expected conditional normal divergence plus the gamma
    divergence of the precision scales.
    """
    if p is q or (
        np.array_equal(p.mu, q.mu)
        and np.array_equal(p.lam.entries, q.lam.entries)
        and p.shape == q.shape
        and np.array_equal(p.rate, q.rate)
    ):
        return 0.0 * p.rate  # zero in each column
    return _clamp(
        expected_conditional_mvn_kl(p, q) + kl_gamma(p.gamma, q.gamma)
    )


def kl_monte_carlo(
    logpdf_p,
    logpdf_q,
    sampler_p,
    n_samples: int,
    rng: RngStream,
    batch_size: int = 1 << 18,
) -> KlEstimate:
    """Direct Monte Carlo estimate of KL[P || Q].

    ``sampler_p(rng, size)`` must return a batch of samples from P;
    ``logpdf_p`` / ``logpdf_q`` must accept such a batch. The estimate is
    the sample mean of log p - log q with its standard error.
    """
    n_samples = int(n_samples)
    if n_samples < 100:
        raise ValueError("kl_monte_carlo requires n_samples >= 100")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(batch_size, n_samples - done)
        samples = sampler_p(rng, m)
        diff = np.asarray(logpdf_p(samples)) - np.asarray(logpdf_q(samples))
        if not np.all(np.isfinite(diff)):
            bad = int(np.flatnonzero(~np.isfinite(diff))[0])
            raise ArithmeticError(
                f"non-finite log-density at sample {done + bad}"
            )
        total += float(np.sum(diff))
        total_sq += float(np.sum(diff * diff))
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    se = math.sqrt(var / n_samples)
    return KlEstimate(value=mean, standard_error=se, sample_count=n_samples)


def kl_monte_carlo_mvn(p: MvNormalParams, q: MvNormalParams,
                       n_samples: int, rng: RngStream) -> KlEstimate:
    """Monte Carlo KL for the normal family."""
    from .distributions import logpdf_mvn, sample_mvn

    return kl_monte_carlo(
        lambda x: logpdf_mvn(x, p),
        lambda x: logpdf_mvn(x, q),
        lambda r, m: sample_mvn(p, r, size=m),
        n_samples,
        rng,
    )


def kl_monte_carlo_gamma(p: GammaParams, q: GammaParams,
                         n_samples: int, rng: RngStream) -> KlEstimate:
    """Monte Carlo KL for the gamma family."""
    from .distributions import logpdf_gamma, sample_gamma

    return kl_monte_carlo(
        lambda y: logpdf_gamma(y, p),
        lambda y: logpdf_gamma(y, q),
        lambda r, m: sample_gamma(p, r, size=m),
        n_samples,
        rng,
    )


def kl_monte_carlo_ng(p: NormalGammaParams, q: NormalGammaParams,
                      n_samples: int, rng: RngStream) -> KlEstimate:
    """Monte Carlo KL for the normal-gamma family."""
    from .distributions import logpdf_ng, sample_ng

    return kl_monte_carlo(
        lambda s: logpdf_ng(s[0], s[1], p),
        lambda s: logpdf_ng(s[0], s[1], q),
        lambda r, m: sample_ng(p, r, size=m),
        n_samples,
        rng,
    )
