"""Parameter records, log-densities and samplers.

Three families: multivariate normal (precision-parameterized), univariate
gamma (shape/rate) and their normal-gamma composite. The precision form is
primary because every downstream formula (KL divergences, GLM posterior)
is written in terms of precision matrices. One normal log-density serves
both normal families: the normal-gamma log-density is it at precision
y lam, plus the gamma log-density of y.

Densities and samplers are whitened by the precision's Cholesky factor L
(precision = L L^T): a quadratic form d^T precision d is ||L^T d||^2, and a
draw is mu + L^-T z / sqrt(y) with L^-T formed once per call as a k x k
matrix, so a batch costs one small matmul rather than a solve per sample.
One normal draw serves both normal samplers (no y for the normal), and
the normal-gamma draws its y through the gamma sampler. Both normal
kernels work in cache-sized blocks of rows, and the draw overwrites z.
Samplers draw from the numpy Generator they are given; seeding is the caller's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import SpdMatrix, log_gamma, logdet_spd

__all__ = [
    "GammaParams", "MvNormalParams", "NormalGammaParams", "logpdf_mvn",
    "logpdf_gamma", "logpdf_ng", "sample_gamma", "sample_mvn", "sample_ng",
]

_LN_2PI = math.log(2.0 * math.pi)

_BLOCK = 1 << 14  # rows per block of the normal kernels: a block's temporaries stay in cache


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate of a univariate gamma; array shapes and rates broadcast to a batch (KL only)."""

    shape: float | np.ndarray
    rate: float | np.ndarray

    def __post_init__(self):
        try:
            shape, rate = np.array(self.shape, dtype=float), np.array(self.rate, dtype=float)
        except TypeError as exc:
            raise ValueError(f"gamma shape and rate must be numbers: {exc}") from None
        for name, v in (("shape", shape), ("rate", rate)):
            if not np.all(np.isfinite(v) & (v > 0.0)):
                raise ValueError(f"gamma {name} must be finite and positive, got {v}")
            v.setflags(write=False)
            object.__setattr__(self, name, v if v.ndim else float(v))


@dataclass(frozen=True)
class MvNormalParams:
    """Mean vector and precision matrix of a multivariate normal."""

    mean: np.ndarray
    precision: SpdMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if mean.shape[0] != self.precision.dim:
            raise ValueError(
                f"mean length {mean.shape[0]} does not match precision "
                f"dimension {self.precision.dim}"
            )
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.precision.dim


@dataclass(frozen=True)
class NormalGammaParams:
    """Parameters of a normal-gamma; a batch of R has mu (k, R) and rate (R,)."""

    mu: np.ndarray
    lam: SpdMatrix
    shape: float
    rate: float | np.ndarray
    gamma: GammaParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.atleast_1d(np.array(self.mu, dtype=float))
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if mu.shape[0] != self.lam.dim:
            raise ValueError(
                f"mu length {mu.shape[0]} does not match lambda dimension {self.lam.dim}"
            )
        if np.ndim(self.shape):
            raise ValueError(f"gamma shape must be a single number, got {self.shape!r}")
        # GammaParams validates shape/rate and is kept as the scale's distribution.
        g = GammaParams(self.shape, self.rate)
        if mu.shape[1:] != np.shape(g.rate):
            raise ValueError(f"mu shape {mu.shape} does not match rate shape {np.shape(g.rate)}")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "shape", g.shape)
        object.__setattr__(self, "rate", g.rate)
        object.__setattr__(self, "gamma", g)

    @property
    def dim(self) -> int:
        return self.lam.dim


def _quad_form(chol: np.ndarray, d: np.ndarray):
    """d^T (L L^T) d as ||L^T d||^2 for d of shape (k,) or (m, k).

    Whitens in the (k, m) layout: the row layout, (d @ L) summed along rows,
    is slower than even the dense einsum d_i P_ij d_j.
    """
    w = chol.T @ d.T
    return np.einsum("i...,i...->...", w, w)


def _normal_logpdf(x, mean, lam: SpdMatrix, y=1.0):
    """Log-density of N(mean, (y lam)^-1) at x of shape (k,) or (m, k), y matching."""
    x = np.asarray(x, dtype=float)
    k = lam.dim
    if x.ndim not in (1, 2) or x.shape[-1] != k:
        raise ValueError(f"x has shape {x.shape}, expected (..., {k})")
    rows = x.reshape(-1, k)
    quad = np.empty(len(rows))
    for i in range(0, len(rows), _BLOCK):
        quad[i:i + _BLOCK] = _quad_form(lam.chol, rows[i:i + _BLOCK] - mean)
    quad = quad.reshape(x.shape[:-1])
    return 0.5 * (k * np.log(y) + logdet_spd(lam)) - 0.5 * k * _LN_2PI - 0.5 * y * quad


def logpdf_mvn(x, params: MvNormalParams):
    """Log-density of N(mu, precision^-1) at x.

    Accepts a single point of shape (k,) or a batch of shape (m, k);
    returns a scalar or an (m,) array accordingly.
    """
    out = _normal_logpdf(x, params.mean, params.precision)
    return float(out) if out.ndim == 0 else out


def logpdf_gamma(y, params: GammaParams):
    """Log-density of Gam(shape, rate) at y > 0 (scalar or array)."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("gamma log-density requires finite y > 0")
    a, b = params.shape, params.rate
    out = a * math.log(b) - log_gamma(a) + (a - 1.0) * np.log(y) - b * y
    return float(out) if out.ndim == 0 else out


def logpdf_ng(x, y, params: NormalGammaParams):
    """Joint log-density of the normal-gamma at (x, y).

    Equals logpdf_mvn(x; mu, y * lam) + logpdf_gamma(y); vectorized over
    matched batches of x (m, k) and y (m,).
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):  # before the normal term reads y
        raise ValueError("normal-gamma log-density requires finite y > 0")
    out = _normal_logpdf(x, params.mu, params.lam, y) + logpdf_gamma(y, params.gamma)
    return float(out) if out.ndim == 0 else out


def sample_gamma(params: GammaParams, rng: np.random.Generator, size):
    """Draw from Gam(shape, rate) (numpy, Marsaglia-Tsang); a draw that underflows to 0 raises."""
    y = rng.gamma(params.shape, 1.0 / params.rate, size=size)
    if np.any(y == 0.0):
        raise ArithmeticError(f"gamma sampler underflowed to 0 at shape {params.shape}")
    return y


def _normal_draw(mean, lam: SpdMatrix, z, y):
    """Rows of mean + L^-T z / sqrt(y) (y None: 1) for z (k, n), lam = L L^T; overwrites z."""
    inv_t = np.linalg.solve(lam.chol.T, np.eye(lam.dim))
    for i in range(0, z.shape[1], _BLOCK):
        block = z[:, i:i + _BLOCK]
        block[...] = inv_t @ block
        if y is not None:
            block /= np.sqrt(y[i:i + _BLOCK])
        block += mean[:, None]
    return z.T


def sample_mvn(params: MvNormalParams, rng: np.random.Generator, size):
    """Draw from N(mu, precision^-1) as mu + L^-T z with z ~ N(0, I), precision = L L^T."""
    z = rng.standard_normal((params.dim, size))
    return _normal_draw(params.mean, params.precision, z, None)


def sample_ng(params: NormalGammaParams, rng: np.random.Generator, size):
    """Draw (x, y) from the normal-gamma: y ~ Gam(a, b), x | y ~ N(mu, (y lam)^-1)."""
    y = sample_gamma(params.gamma, rng, size)
    z = rng.standard_normal((params.dim, size))
    return _normal_draw(params.mu, params.lam, z, y), y
