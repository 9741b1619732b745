"""Parameter records, log-densities and samplers.

Three families: multivariate normal (precision-parameterized), univariate
gamma (shape/rate) and their normal-gamma composite. The precision form is
primary because every downstream formula (KL divergences, GLM posterior)
is written in terms of precision matrices; covariances are derived on
demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import SpdMatrix, log_gamma, logdet_spd, spd_inverse

__all__ = [
    "GammaParams", "MvNormalParams", "NormalGammaParams", "RngStream", "logpdf_mvn",
    "logpdf_gamma", "logpdf_ng", "sample_gamma", "sample_mvn", "sample_ng",
]

_LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate of a univariate gamma; an (R,) rate is a batch of R (KL only)."""

    shape: float
    rate: float | np.ndarray

    def __post_init__(self):
        shape, rate = float(self.shape), np.array(self.rate, dtype=float)
        for name, v in (("shape", shape), ("rate", rate)):
            if not np.all(np.isfinite(v) & (v > 0.0)):
                raise ValueError(f"gamma {name} must be finite and positive, got {v}")
        rate.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rate", rate if rate.ndim else float(rate))

    @property
    def mean(self) -> float:
        return self.shape / self.rate


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

    def covariance(self) -> np.ndarray:
        return spd_inverse(self.precision)


@dataclass(frozen=True)
class NormalGammaParams:
    """Parameters of a normal-gamma; a batch of R has mu (k, R) and rate (R,)."""

    mu: np.ndarray
    lam: SpdMatrix
    shape: float
    rate: float | np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.array(self.mu, dtype=float))
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if mu.shape[0] != self.lam.dim:
            raise ValueError(
                f"mu length {mu.shape[0]} does not match lambda dimension {self.lam.dim}"
            )
        # Reuse GammaParams validation for shape/rate.
        g = GammaParams(self.shape, self.rate)
        if mu.shape[1:] != np.shape(g.rate):
            raise ValueError(f"mu shape {mu.shape} does not match rate shape {np.shape(g.rate)}")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "shape", g.shape)
        object.__setattr__(self, "rate", g.rate)

    @property
    def dim(self) -> int:
        return self.lam.dim

    @property
    def gamma(self) -> GammaParams:
        return GammaParams(self.shape, self.rate)


class RngStream:
    """Reproducible random stream keyed by (seed, stream identifier).

    Identical (seed, stream) always yields the identical sample sequence.
    Child streams derived via :meth:`child` are statistically independent
    and deterministic, which keeps parallel sweeps reproducible.
    """

    def __init__(self, seed: int, stream: int = 0, _path: tuple = ()):
        self.seed = int(seed)
        self.stream = int(stream)
        self._path = tuple(_path)
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,) + self._path)
        self.generator = np.random.default_rng(ss)

    def child(self, index: int) -> "RngStream":
        """Derived stream; independent of draws already taken from self."""
        return RngStream(self.seed, self.stream, self._path + (int(index),))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream}, path={self._path})"


def logpdf_mvn(x, params: MvNormalParams):
    """Log-density of N(mu, precision^-1) at x.

    Accepts a single point of shape (k,) or a batch of shape (m, k);
    returns a scalar or an (m,) array accordingly.
    """
    x = np.asarray(x, dtype=float)
    k = params.dim
    batch = x.ndim == 2
    if (batch and x.shape[1] != k) or (not batch and x.shape != (k,)):
        raise ValueError(f"x has shape {x.shape}, expected (..., {k})")
    d = x - params.mean
    quad = np.einsum("...i,ij,...j->...", d, params.precision.entries, d)
    out = 0.5 * logdet_spd(params.precision) - 0.5 * k * _LN_2PI - 0.5 * quad
    return out if batch else float(out)


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = params.dim
    batch = x.ndim == 2
    if (batch and x.shape[1] != k) or (not batch and x.shape != (k,)):
        raise ValueError(f"x has shape {x.shape}, expected (..., {k})")
    if np.any(y <= 0.0):
        raise ValueError("normal-gamma log-density requires y > 0")
    d = x - params.mu
    quad = np.einsum("...i,ij,...j->...", d, params.lam.entries, d)
    normal_part = (
        0.5 * (k * np.log(y) + logdet_spd(params.lam))
        - 0.5 * k * _LN_2PI
        - 0.5 * y * quad
    )
    out = normal_part + logpdf_gamma(y, params.gamma)
    return float(out) if out.ndim == 0 else out


def sample_gamma(params: GammaParams, rng: RngStream, size=None):
    """Draw from Gam(shape, rate); numpy's generator (Marsaglia-Tsang)."""
    return rng.generator.gamma(params.shape, 1.0 / params.rate, size=size)


def sample_mvn(params: MvNormalParams, rng: RngStream, size=None):
    """Draw from N(mu, precision^-1).

    Uses the precision Cholesky factor L (precision = L L^T): with
    z ~ N(0, I), x = mu + L^-T z has the required covariance.
    """
    k = params.dim
    n = 1 if size is None else int(size)
    z = rng.generator.standard_normal((k, n))
    x = params.mean[:, None] + np.linalg.solve(params.precision.chol.T, z)
    return x[:, 0] if size is None else x.T


def sample_ng(params: NormalGammaParams, rng: RngStream, size=None):
    """Draw (x, y) from the normal-gamma: y ~ Gam(a, b), x | y ~ N(mu, (y lam)^-1)."""
    k = params.dim
    n = 1 if size is None else int(size)
    y = rng.generator.gamma(params.shape, 1.0 / params.rate, size=n)
    z = rng.generator.standard_normal((k, n))
    x = params.mu[:, None] + np.linalg.solve(params.lam.chol.T, z) / np.sqrt(y)[None, :]
    if size is None:
        return x[:, 0], float(y[0])
    return x.T, y
