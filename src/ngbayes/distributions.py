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
kernels work in cache-sized blocks of rows, and the draw overwrites z. The
normal-gamma log-density checks y and takes ln y once for both its parts.
Samplers draw from the numpy Generator they are given; seeding is the caller's.

Every sampler and log-density takes an optional ``out``. Without it, the
result is a new array; with it, the result is written there (a sampler's x
in the layout it returns, Fortran-ordered (m, k)), and no sample-sized
temporary is made. A log-density writes each block of ``out`` only after
reading that block of x and y, so ``out`` may be y itself or a column of x,
as in the Monte Carlo oracle, but may overlap its input in no other way.
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

_BLOCK = 1 << 13  # rows per block of the kernels: a block's temporaries stay in cache


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


def _out(out, shape):
    """``out``, allocated when None, and a flat view of it that blocks of rows write through."""
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float or out.ndim > 1 and not out.flags.c_contiguous:
        raise ValueError(f"out must be a 1-D or C-ordered float array of shape {shape}")
    return out, out.reshape(-1)


def _positive(y, family):
    """y as a float array, checked finite and > 0 before any arithmetic reads it."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError(f"{family} log-density requires finite y > 0")
    return y


def _gamma_tail(params: GammaParams):
    """ln Gam(y; shape, rate) as a function of y and ln y."""
    a, b = params.shape, params.rate
    const = a * math.log(b) - log_gamma(a)
    return lambda y, log_y: const + (a - 1.0) * log_y - b * y


def _normal_logpdf(x, mean, lam: SpdMatrix, y=None, gamma=None, out=None):
    """Log-density of N(mean, (y lam)^-1) at x of shape (k,) or (m, k), y (None: 1) matching
    x's rows or broadcasting to them, plus ln Gam(y; gamma) when ``gamma`` is given.

    A block of ``out`` is written only after that block of x and y is read.
    """
    x = np.asarray(x, dtype=float)
    k = lam.dim
    if x.ndim not in (1, 2) or x.shape[-1] != k:
        raise ValueError(f"x has shape {x.shape}, expected (..., {k})")
    shape = x.shape[:-1] if y is None else np.broadcast_shapes(x.shape[:-1], y.shape)
    out, flat = _out(out, shape)
    cols = np.broadcast_to(x, shape + (k,)).reshape(-1, k).T  # (k, m), the samplers' layout
    ys = None if y is None else np.broadcast_to(y, shape).reshape(-1)
    tail = None if gamma is None else _gamma_tail(gamma)
    logdet = logdet_spd(lam)

    def block_logpdf(i):  # a function, so that a block's temporaries are gone before the next
        quad = _quad_form(lam.chol, (cols[:, i:i + _BLOCK] - mean[:, None]).T)
        yb, log_y = (1.0, 0.0) if ys is None else (ys[i:i + _BLOCK], np.log(ys[i:i + _BLOCK]))
        value = 0.5 * (k * log_y + logdet) - 0.5 * k * _LN_2PI - 0.5 * yb * quad
        if tail is not None:
            value += tail(yb, log_y)
        return value

    for i in range(0, len(flat), _BLOCK):
        flat[i:i + _BLOCK] = block_logpdf(i)
    return out


def logpdf_mvn(x, params: MvNormalParams, out=None):
    """Log-density of N(mu, precision^-1) at x.

    Accepts a single point of shape (k,) or a batch of shape (m, k);
    returns a scalar or an (m,) array accordingly. ``out``, an (m,) float
    array, takes a batch's values and is returned; it may be a column of x.
    """
    out = _normal_logpdf(x, params.mean, params.precision, out=out)
    return float(out) if out.ndim == 0 else out


def logpdf_gamma(y, params: GammaParams, out=None):
    """Log-density of Gam(shape, rate) at y > 0 (scalar or array).

    ``out``, a float array of y's shape, takes the values and is returned;
    it may be y itself.
    """
    y = _positive(y, "gamma")
    out, flat = _out(out, y.shape)
    ys, tail = y.reshape(-1), _gamma_tail(params)
    for i in range(0, len(flat), _BLOCK):
        yb = ys[i:i + _BLOCK]
        flat[i:i + _BLOCK] = tail(yb, np.log(yb))
    return float(out) if out.ndim == 0 else out


def logpdf_ng(x, y, params: NormalGammaParams, out=None):
    """Joint log-density of the normal-gamma at (x, y).

    Equals logpdf_mvn(x; mu, y * lam) + logpdf_gamma(y); vectorized over
    matched batches of x (m, k) and y (m,). ``out``, an (m,) float array,
    takes a batch's values and is returned; it may be y or a column of x.
    """
    y = _positive(y, "normal-gamma")  # before the normal term reads y
    out = _normal_logpdf(x, params.mu, params.lam, y, params.gamma, out)
    return float(out) if out.ndim == 0 else out


@np.errstate(over="ignore")  # an overflowing draw is raised below, naming its parameters
def sample_gamma(params: GammaParams, rng: np.random.Generator, size, out=None):
    """Draw from Gam(shape, rate) (numpy, Marsaglia-Tsang); a draw of 0 or inf raises.

    ``out``, a C-ordered float array of shape ``size``, takes the draw and is returned.
    """
    y = rng.standard_gamma(params.shape, size=size, out=out)
    y *= 1.0 / params.rate  # the bits of rng.gamma(shape, 1 / rate)
    if np.any(y == 0.0):
        raise ArithmeticError(f"gamma sampler underflowed to 0 at shape {params.shape}")
    if not np.all(np.isfinite(y)):
        raise ArithmeticError(
            f"gamma sampler overflowed at shape {params.shape} and rate {params.rate}")
    return y


def _normal_draw(mean, lam: SpdMatrix, rng, size, y, out):
    """Rows of mean + L^-T z / sqrt(y) (y None: 1) for z ~ N(0, I) of shape (k, size),
    lam = L L^T; z is drawn into ``out``'s transpose when ``out`` is given, and transformed
    in place.
    """
    if out is not None and not out.flags.f_contiguous:
        raise ValueError("out must be a Fortran-ordered (size, k) array, as the samplers return")
    z = rng.standard_normal((lam.dim, size), out=None if out is None else out.T)
    inv_t = np.linalg.solve(lam.chol.T, np.eye(lam.dim))
    for i in range(0, z.shape[1], _BLOCK):
        block = z[:, i:i + _BLOCK]
        block[...] = inv_t @ block
        if y is not None:
            block /= np.sqrt(y[i:i + _BLOCK])
        block += mean[:, None]
    return z.T


def sample_mvn(params: MvNormalParams, rng: np.random.Generator, size, out=None):
    """Draw from N(mu, precision^-1) as mu + L^-T z with z ~ N(0, I), precision = L L^T.

    ``out``, a Fortran-ordered (size, k) float array, the layout returned,
    takes the draw.
    """
    return _normal_draw(params.mean, params.precision, rng, size, None, out)


def sample_ng(params: NormalGammaParams, rng: np.random.Generator, size, out=None):
    """Draw (x, y) from the normal-gamma: y ~ Gam(a, b), x | y ~ N(mu, (y lam)^-1).

    ``out`` is a pair of arrays (x, y) as ``sample_mvn`` and ``sample_gamma``
    take them.
    """
    x_out, y_out = (None, None) if out is None else out
    y = sample_gamma(params.gamma, rng, size=size, out=y_out)
    return _normal_draw(params.mu, params.lam, rng, size, y, x_out), y
