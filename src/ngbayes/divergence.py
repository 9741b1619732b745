"""Closed-form KL divergences plus a Monte Carlo estimator used as oracle.

One normal kernel serves both normal families: the normal KL is it at
precision scale 1, and the normal-gamma KL is it at the scale's mean
E[y] = a/b plus the gamma KL of the scales, a chain-rule sum that holds to
floating-point exactness by construction; P = Q gives exactly 0, as the
kernel's trace is exactly k at equal precisions. The gamma and normal-gamma
KLs also take batches (see ``NormalGammaParams``), one value per column. One
Monte Carlo entry, ``kl_monte_carlo_pair``, serves every family; its
batches run on two worker threads, each batch on its own random stream
spawned from the caller's Generator, so the estimate depends on the seed
and the sample count only. Each worker draws and scores in one workspace
that the call allocates once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

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
# Worker threads of ``kl_monte_carlo``, and so workspaces of ``kl_monte_carlo_pair``.
_MC_WORKERS = 2


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


def _clamp(value, name=None):
    """``value`` raised to at least 0; the first bad entry raises, named by ``name(index)``, a
    prefix, or else (in a batch) by its index."""
    for bad, error, what in ((~np.isfinite(value), ArithmeticError, "not a finite number"),
                             (value < _NEGATIVE_TOL, NegativeDivergenceError,
                              "below the rounding tolerance")):
        if np.any(bad):
            at = tuple(map(int, np.unravel_index(np.argmax(bad), np.shape(bad))))
            index = f" at index {at}" if np.size(value) > 1 and name is None else ""
            raise error(f"{name(at) if name else ''}closed-form KL evaluated to "
                        f"{np.asarray(value)[at]}{index}, {what}")
    return np.maximum(value, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def _normal_kl(mu_p, lam_p, mu_q, lam_q, weight):
    """KL[N(mu_p, (y lam_p)^-1) || N(mu_q, (y lam_q)^-1)] averaged over y, E[y] = weight.

    Only the mean term scales with y, and where the means agree it is 0 at any weight. Means
    (k, R) give one value per column; an overflow gives a non-finite value, which ``_clamp``
    rejects. The trace tr(lam_p^-1 lam_q) is ||L_p^-1 L_q||_F^2 from the cached factors, or
    exactly k, the log-determinants cancelling, when the precisions are equal.
    """
    k = lam_p.dim
    if lam_q.dim != k:
        raise ValueError(f"dimension mismatch: {k} vs {lam_q.dim}")
    batch = np.broadcast_shapes(mu_p.shape[1:], mu_q.shape[1:])
    d = mu_q.reshape(k, -1) - mu_p.reshape(k, -1)  # one column per batch member
    quad = _quad_form(lam_q.chol, d.T).reshape(batch)
    if np.array_equal(lam_p.entries, lam_q.entries):
        trace, logdet_term = float(k), 0.0
    else:
        trace = float(np.sum(np.linalg.solve(lam_p.chol, lam_q.chol) ** 2))
        logdet_term = logdet_spd(lam_q) - logdet_spd(lam_p)
    return _normal_kl_form(quad, trace, logdet_term, k, np.where(quad == 0.0, 0.0, weight))


def _normal_kl_form(quad, trace, logdet_term, k, weight):
    """The normal KL from its terms: the weighted mean term, tr(lam_p^-1 lam_q),
    ln|lam_q| - ln|lam_p| and the dimension k; ``glm`` feeds it its QR factor's terms.
    """
    return 0.5 * weight * quad + 0.5 * trace - 0.5 * logdet_term - 0.5 * k


def kl_mvn(p: MvNormalParams, q: MvNormalParams) -> float:
    """KL[P || Q] for two multivariate normals of equal dimension; exactly 0 when P equals Q."""
    return _clamp(_normal_kl(p.mean, p.precision, q.mean, q.precision, 1.0))


def kl_gamma(p: GammaParams, q: GammaParams):
    """KL[P || Q] for two univariate gammas; exactly 0 when P equals Q."""
    return _clamp(_gamma_kl_form(p, q))


@np.errstate(over="ignore", divide="ignore")
def _gamma_kl_form(p: GammaParams, q: GammaParams):
    """The gamma KL, unclamped: ``kl_gamma`` clamps it, and ``glm`` clamps it naming the row."""
    a1, b1 = p.shape, p.rate
    a2, b2 = q.shape, q.rate
    ratio = b1 / b2  # ln b1 - ln b2 stands in where the quotient is not a finite normal float
    normal = np.isfinite(ratio) & (ratio >= np.finfo(float).tiny)
    return (
        a2 * np.where(normal, np.log(ratio), np.log(b1) - np.log(b2))
        - (log_gamma(a1) - log_gamma(a2))
        + (a1 - a2) * digamma(a1)
        - (b1 - b2) * a1 / b1
    )


def expected_conditional_mvn_kl(p: NormalGammaParams, q: NormalGammaParams):
    """Conditional normal KL, averaged over the precision scale of P.

    Averaging KL[N(mu1, (y L1)^-1) || N(mu2, (y L2)^-1)] over
    y ~ Gam(a1, b1) replaces y in the mean term by its expectation a1/b1.
    """
    return _normal_kl(p.mu, p.lam, q.mu, q.lam, p.shape / p.rate)


def kl_normal_gamma(p: NormalGammaParams, q: NormalGammaParams):
    """KL[P || Q] for two normal-gamma distributions.

    Chain rule: expected conditional normal divergence plus the gamma
    divergence of the precision scales, each exactly 0 where its parameters agree.
    """
    return _clamp(expected_conditional_mvn_kl(p, q) + kl_gamma(p.gamma, q.gamma))


def _score(logpdf_p, logpdf_q, samples, start):
    """Mean and sum of squared deviations of log p - log q over one batch, formed in the
    array ``logpdf_p`` returns."""
    diff = np.asarray(logpdf_p(samples), dtype=float)
    diff -= logpdf_q(samples)
    if not np.all(np.isfinite(diff)):
        bad = int(np.flatnonzero(~np.isfinite(diff))[0])
        raise ArithmeticError(f"non-finite log-density at sample {start + bad}")
    with np.errstate(over="ignore"):  # errstate is per thread: set it on this one
        batch_mean = float(np.mean(diff))
        diff -= batch_mean
        sq_dev = float(np.sum(np.square(diff, out=diff)))
    if not (math.isfinite(batch_mean) and math.isfinite(sq_dev)):
        raise ArithmeticError(f"overflow in the Monte Carlo moments from sample {start}")
    return batch_mean, sq_dev


def kl_monte_carlo(logpdf_p, logpdf_q, sampler_p, n_samples: int,
                   rng: np.random.Generator) -> KlEstimate:
    """Direct Monte Carlo estimate of KL[P || Q].

    ``rng`` is a numpy Generator, seeded by the caller, and
    ``sampler_p(rng, size)`` must draw a batch of samples from P with the
    Generator it is handed; ``logpdf_p`` / ``logpdf_q`` must accept such a
    batch and return one log-density per sample, and the array ``logpdf_p``
    returns is overwritten by the log-ratio. The estimate is the sample mean
    of log p - log q with its standard error. Batch means and sums of squared
    deviations are merged by Chan, Golub & LeVeque (1979), not as
    sum(d^2)/n - mean^2, which cancels to 0 when the mean is large against
    the spread; a standard error of 0 means a constant log-ratio.

    Samples come in batches of ``MC_BATCH_SIZE``, each with its own stream:
    batch 0 draws from ``rng`` and batch b >= 1 from child b - 1 of
    ``rng.spawn`` (``SeedSequence(s, spawn_key=key + (b - 1,))`` for
    ``rng``'s sequence ``SeedSequence(s, spawn_key=key)``). So up to
    ``MC_BATCH_SIZE`` samples are those of one serial draw from ``rng``, and
    the estimate depends on the seed and ``n_samples`` alone. One
    ``Executor.map`` feeds the batches to two worker threads, each drawing and
    scoring whole batches, and the calling thread merges them in batch order.
    Only the two running batches hold samples; a queued batch holds its
    stream and its future, about 2.7 KB per ``MC_BATCH_SIZE`` samples. The
    error of the lowest-numbered failing batch is raised, the queued batches
    are then cancelled, and no worker outlives the call.
    """
    # Imported here: at module level it would load logging into every CLI process.
    from concurrent.futures import ThreadPoolExecutor

    n_samples = int(n_samples)
    if n_samples < 100:
        raise ValueError("kl_monte_carlo requires n_samples >= 100")

    def batch(gen, start):
        m = min(MC_BATCH_SIZE, n_samples - start)
        return m, _score(logpdf_p, logpdf_q, sampler_p(gen, m), start)

    starts = range(0, n_samples, MC_BATCH_SIZE)
    # Spawning reads rng's seed sequence only, never the state batch 0 draws from.
    streams = [rng] + rng.spawn(len(starts) - 1)
    mean = m2 = 0.0
    done = 0
    with ThreadPoolExecutor(max_workers=_MC_WORKERS) as pool:
        for m, (batch_mean, sq_dev) in pool.map(batch, streams, starts):
            delta = batch_mean - mean
            m2 += sq_dev + delta * delta * done * m / (done + m)
            mean += delta * m / (done + m)
            done += m
    if not math.isfinite(m2):  # an overflowing delta makes m2 inf or NaN too
        raise ArithmeticError("Monte Carlo moments overflowed when merging batches")
    se = math.sqrt(m2 / n_samples / n_samples)
    return KlEstimate(value=mean, standard_error=se, sample_count=n_samples)


def kl_monte_carlo_pair(p, q, n_samples: int, rng: np.random.Generator) -> KlEstimate:
    """Monte Carlo KL[P || Q] for two parameter records of the family of ``p``.

    The sampler and log-density are looked up by module name at each call,
    so a rebinding of those names (a tracer, a test double) is seen.

    Each of the two workers draws and scores every batch it runs in one
    workspace of (rows + 1) x ``MC_BATCH_SIZE`` floats, written through the
    ``out`` arguments: the samples' rows (y for the gamma; x's k rows in the
    samplers' (k, m) layout, then y, for the normal-gamma) and a row for p's
    scores. q's scores go over the samples' first row, each block of which
    q's log-density has read before writing it, and ``_score`` forms the
    log-ratio and its squared deviations in p's row. The calling thread
    allocates both workspaces as one array, so the allocator serves each
    call from the same heap, not from whatever arena a new worker thread
    gets. A worker thus holds (k + 2) x 2^16 x 8 B = 3.5 MiB for the
    normal-gamma at k = 5, plus one block's scratch in its log-densities.
    """
    if isinstance(p, GammaParams):
        rows, sample, logpdf = 1, sample_gamma, logpdf_gamma
        layout = lambda w: w[0]
    elif isinstance(p, MvNormalParams):
        rows, sample, logpdf = p.dim, sample_mvn, logpdf_mvn
        layout = lambda w: w[:-1].T
    elif isinstance(p, NormalGammaParams):
        rows, sample = p.dim + 1, sample_ng
        logpdf = lambda s, params, out: logpdf_ng(s[0], s[1], params, out=out)
        layout = lambda w: (w[:-2].T, w[-2])
    else:
        raise TypeError(f"no Monte Carlo KL for {type(p).__name__}")
    n_samples = int(n_samples)
    workers = min(_MC_WORKERS, len(range(0, n_samples, MC_BATCH_SIZE)))
    free = list(np.empty((workers, (rows + 1) * min(max(n_samples, 0), MC_BATCH_SIZE))))
    local = threading.local()  # a worker's workspace, and its current batch's view of it

    def sampler(gen, m):
        if not hasattr(local, "buffer"):
            local.buffer = free.pop()
        local.work = local.buffer[:(rows + 1) * m].reshape(rows + 1, m)
        return sample(p, gen, size=m, out=layout(local.work))

    return kl_monte_carlo(lambda s: logpdf(s, p, out=local.work[-1]),
                          lambda s: logpdf(s, q, out=local.work[0]), sampler, n_samples, rng)
