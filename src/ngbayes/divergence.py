"""Closed-form KL divergences plus a Monte Carlo estimator used as oracle.

One normal kernel serves both normal families: the normal KL is it at
precision scale 1, and the normal-gamma KL is it at the scale's mean
E[y] = a/b plus the gamma KL of the scales, a chain-rule sum that holds to
floating-point exactness by construction. The gamma and normal-gamma KLs
also take batches (see ``NormalGammaParams``), one value per column. One
Monte Carlo entry, ``kl_monte_carlo_pair``, serves every family; its
batches run on two worker threads, each batch on its own random stream
spawned from the caller's Generator, so the estimate depends on the seed
and the sample count only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .distributions import (
    GammaParams, MvNormalParams, NormalGammaParams, _quad_form, logpdf_gamma, logpdf_mvn,
    logpdf_ng, sample_gamma, sample_mvn, sample_ng,
)
from .numerics import digamma, log_gamma, logdet_spd

__all__ = [
    "KlEstimate", "NegativeDivergenceError", "kl_mvn", "kl_gamma", "kl_normal_gamma",
    "expected_conditional_mvn_kl", "kl_monte_carlo", "kl_monte_carlo_pair",
]

# Closed-form results below this are implementation bugs, not rounding.
_NEGATIVE_TOL = -1e-10

# Samples per batch, and per random stream, of ``kl_monte_carlo``.
MC_BATCH_SIZE = 1 << 16


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
    if not np.all(np.isfinite(value)):
        raise ArithmeticError(f"closed-form KL evaluated to {value}, not a finite number")
    if np.any(value < _NEGATIVE_TOL):
        raise NegativeDivergenceError(
            f"closed-form KL evaluated to {value}, below the rounding tolerance"
        )
    return np.maximum(value, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def _normal_kl(mu_p, lam_p, mu_q, lam_q, weight):
    """KL[N(mu_p, (y lam_p)^-1) || N(mu_q, (y lam_q)^-1)] averaged over y, E[y] = weight.

    Only the mean term scales with y. Means (k, R) give one value per column;
    an overflow gives a non-finite value, which ``_clamp`` rejects. The trace
    tr(lam_p^-1 lam_q) is ||L_p^-1 L_q||_F^2 from the cached factors.
    """
    k = lam_p.dim
    if lam_q.dim != k:
        raise ValueError(f"dimension mismatch: {k} vs {lam_q.dim}")
    batch = np.broadcast_shapes(mu_p.shape[1:], mu_q.shape[1:])
    d = mu_q.reshape(k, -1) - mu_p.reshape(k, -1)  # one column per batch member
    quad = _quad_form(lam_q.chol, d.T).reshape(batch)
    trace = float(np.sum(np.linalg.solve(lam_p.chol, lam_q.chol) ** 2))
    return _normal_kl_form(quad, trace, logdet_spd(lam_q) - logdet_spd(lam_p), k, weight)


def _normal_kl_form(quad, trace, logdet_term, k, weight):
    """The normal KL from its terms: the weighted mean term, tr(lam_p^-1 lam_q),
    ln|lam_q| - ln|lam_p| and the dimension k; ``glm`` feeds it its QR factor's terms.
    """
    return 0.5 * weight * quad + 0.5 * trace - 0.5 * logdet_term - 0.5 * k


def kl_mvn(p: MvNormalParams, q: MvNormalParams) -> float:
    """KL[P || Q] for two multivariate normals of equal dimension."""
    if p is q or (np.array_equal(p.mean, q.mean)
                  and np.array_equal(p.precision.entries, q.precision.entries)):
        return 0.0
    return _clamp(_normal_kl(p.mean, p.precision, q.mean, q.precision, 1.0))


@np.errstate(over="ignore", divide="ignore")
def kl_gamma(p: GammaParams, q: GammaParams):
    """KL[P || Q] for two univariate gammas; exactly 0 when P equals Q."""
    a1, b1 = p.shape, p.rate
    a2, b2 = q.shape, q.rate
    ratio = b1 / b2  # ln b1 - ln b2 stands in where the quotient is not a finite normal float
    normal = np.isfinite(ratio) & (ratio >= np.finfo(float).tiny)
    value = (
        a2 * np.where(normal, np.log(ratio), np.log(b1) - np.log(b2))
        - (log_gamma(a1) - log_gamma(a2))
        + (a1 - a2) * digamma(a1)
        - (b1 - b2) * a1 / b1
    )
    return _clamp(value)


def expected_conditional_mvn_kl(p: NormalGammaParams, q: NormalGammaParams):
    """Conditional normal KL, averaged over the precision scale of P.

    Averaging KL[N(mu1, (y L1)^-1) || N(mu2, (y L2)^-1)] over
    y ~ Gam(a1, b1) replaces y in the mean term by its expectation a1/b1.
    """
    return _normal_kl(p.mu, p.lam, q.mu, q.lam, p.shape / p.rate)


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


def _score(logpdf_p, logpdf_q, samples, start):
    """Mean and sum of squared deviations of log p - log q over one batch."""
    diff = np.asarray(logpdf_p(samples)) - np.asarray(logpdf_q(samples))
    if not np.all(np.isfinite(diff)):
        bad = int(np.flatnonzero(~np.isfinite(diff))[0])
        raise ArithmeticError(f"non-finite log-density at sample {start + bad}")
    with np.errstate(over="ignore"):  # errstate is per thread: set it on this one
        batch_mean = float(np.mean(diff))
        sq_dev = float(np.sum((diff - batch_mean) ** 2))
    if not (math.isfinite(batch_mean) and math.isfinite(sq_dev)):
        raise ArithmeticError(f"overflow in the Monte Carlo moments from sample {start}")
    return batch_mean, sq_dev


def kl_monte_carlo(logpdf_p, logpdf_q, sampler_p, n_samples: int,
                   rng: np.random.Generator) -> KlEstimate:
    """Direct Monte Carlo estimate of KL[P || Q].

    ``rng`` is a numpy Generator, seeded by the caller, and
    ``sampler_p(rng, size)`` must draw a batch of samples from P with the
    Generator it is handed; ``logpdf_p`` / ``logpdf_q`` must accept such a
    batch. The estimate is the sample mean of log p - log q with its standard
    error. Batch means and sums of squared deviations are merged by Chan,
    Golub & LeVeque (1979), not as sum(d^2)/n - mean^2, which cancels to 0
    when the mean is large against the spread; a standard error of 0 means a
    constant log-ratio.

    Samples come in batches of ``MC_BATCH_SIZE``, each with its own stream:
    batch 0 draws from ``rng`` and batch b >= 1 from the Generator that
    ``rng.spawn(1)`` returns at its turn (``SeedSequence(s, spawn_key=key +
    (b - 1,))`` for ``rng``'s sequence ``SeedSequence(s, spawn_key=key)``). So
    up to ``MC_BATCH_SIZE`` samples are those of one serial draw from ``rng``,
    and the estimate depends on the seed and ``n_samples`` alone. Two worker
    threads each draw and score whole batches, and the calling thread merges
    them in batch order; at most three batches are in flight, so memory does
    not grow with ``n_samples``. The error of the lowest-numbered failing
    batch is raised, and no worker outlives the call.
    """
    # Imported here: at module level it would load logging into every CLI process.
    from concurrent.futures import ThreadPoolExecutor

    n_samples = int(n_samples)
    if n_samples < 100:
        raise ValueError("kl_monte_carlo requires n_samples >= 100")

    def batch(gen, start):
        m = min(MC_BATCH_SIZE, n_samples - start)
        return m, _score(logpdf_p, logpdf_q, sampler_p(gen, m), start)

    def submitted(pool):
        for start in range(0, n_samples, MC_BATCH_SIZE):
            # Spawning reads rng's seed sequence only, never the state batch 0 draws from.
            yield pool.submit(batch, rng if start == 0 else rng.spawn(1)[0], start)

    mean = m2 = 0.0
    done = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = submitted(pool)
        pending = deque()
        try:
            pending.extend(islice(futures, 2))
            while pending:
                pending.extend(islice(futures, 1))  # two batches run while a third waits
                m, (batch_mean, sq_dev) = pending.popleft().result()
                delta = batch_mean - mean
                m2 += sq_dev + delta * delta * done * m / (done + m)
                mean += delta * m / (done + m)
                done += m
        finally:
            for future in pending:  # after an error: drop the waiting batch, join the rest
                future.cancel()
    if not math.isfinite(m2):  # an overflowing delta makes m2 inf or NaN too
        raise ArithmeticError("Monte Carlo moments overflowed when merging batches")
    se = math.sqrt(m2 / n_samples / n_samples)
    return KlEstimate(value=mean, standard_error=se, sample_count=n_samples)


def kl_monte_carlo_pair(p, q, n_samples: int, rng: np.random.Generator) -> KlEstimate:
    """Monte Carlo KL[P || Q] for two parameter records of the family of ``p``.

    The sampler and log-density are looked up by module name at each call,
    so a rebinding of those names (a tracer, a test double) is seen.
    """
    if isinstance(p, GammaParams):
        sample, logpdf = sample_gamma, logpdf_gamma
    elif isinstance(p, MvNormalParams):
        sample, logpdf = sample_mvn, logpdf_mvn
    elif isinstance(p, NormalGammaParams):
        sample, logpdf = sample_ng, lambda s, params: logpdf_ng(s[0], s[1], params)
    else:
        raise TypeError(f"no Monte Carlo KL for {type(p).__name__}")
    return kl_monte_carlo(lambda s: logpdf(s, p), lambda s: logpdf(s, q),
                          lambda r, m: sample(p, r, size=m), n_samples, rng)
