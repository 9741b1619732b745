"""Special functions and dense SPD linear algebra.

Everything downstream (log-densities, KL divergences, GLM posteriors) is
built on log-gamma, digamma and Cholesky-based SPD routines. Matrices are
small and dense: coefficient precisions are k x k (k, p <= ~21), and an
n x n noise precision exists only when a caller supplies one, so no sparse
or blocked code paths exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FactorizationError",
    "SpdMatrix",
    "log_gamma",
    "digamma",
    "logdet_spd",
    "spd_solve",
]

_SYMMETRY_RTOL = 1e-12

# Asymptotic series coefficients for digamma: -B_{2n} / (2n), n = 1..7.
_DIGAMMA_ASY = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


class FactorizationError(ValueError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} is not positive"
        )


def log_gamma(x):
    """ln Gamma(x) for finite x > 0; an array is taken element by element."""
    if isinstance(x, np.ndarray) and x.ndim:
        return np.array([log_gamma(v) for v in x.flat]).reshape(x.shape)
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def digamma(x):
    """psi(x) for x > 0: upward recurrence below 6, then asymptotic series; an array is
    taken element by element."""
    if isinstance(x, np.ndarray) and x.ndim:
        return np.array([digamma(v) for v in x.flat]).reshape(x.shape)
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"digamma requires finite x > 0, got {x}")
    result = 0.0
    while x < 6.0:
        result -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for c in _DIGAMMA_ASY:
        series += c * power
        power *= inv2
    return result + math.log(x) - 0.5 / x + series


def _is_pd(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises FactorizationError naming the first bad pivot."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    # A leading j x j block is PD iff pivots 0..j-1 are positive, so the
    # largest PD leading block has the first bad pivot as its size.
    good, bad = 0, a.shape[0]
    while bad - good > 1:
        mid = (good + bad) // 2
        if _is_pd(a[:mid, :mid]):
            good = mid
        else:
            bad = mid
    raise FactorizationError(good)


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Validation happens on construction: symmetry to 1e-12 relative
    tolerance and a successful factorization (all pivots > 0).
    """

    entries: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"SpdMatrix requires a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("SpdMatrix entries must be finite")
        scale = np.max(np.abs(a))
        if np.max(np.abs(a - a.T)) > _SYMMETRY_RTOL * max(scale, 1.0):
            raise ValueError("matrix is not symmetric within tolerance")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "chol", _cholesky_lower(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def identity(k: int) -> "SpdMatrix":
        return SpdMatrix(np.eye(k))

    @staticmethod
    def from_factor(entries: np.ndarray, r: np.ndarray) -> "SpdMatrix":
        """A symmetric matrix whose factor is known: r^T r = entries up to rounding,
        r upper triangular with a nonzero diagonal.

        Nothing is refactored: the cached factor is r^T with each column's sign
        set to make its diagonal positive.
        """
        a = np.asarray(entries, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("SpdMatrix entries must be finite")
        m = object.__new__(SpdMatrix)
        for name, value in (("entries", a), ("chol", r.T * np.sign(np.diag(r)))):
            value.setflags(write=False)
            object.__setattr__(m, name, value)
        return m


def logdet_spd(a: SpdMatrix) -> float:
    """ln |A| = 2 * sum(log(diag(L)))."""
    return 2.0 * float(np.sum(np.log(np.diag(a.chol))))


# No module of the package calls this; it stays because perfbench/tracing.py wraps it by name.
def spd_solve(a: SpdMatrix, b: np.ndarray) -> np.ndarray:
    """Solve A @ X = B via the cached Cholesky factor."""
    b = np.asarray(b, dtype=float)
    rows = b.shape[0]
    if rows != a.dim:
        raise ValueError(f"shape mismatch: A is {a.dim}x{a.dim}, B has {rows} rows")
    lower = a.chol
    y = np.linalg.solve(lower, b)
    return np.linalg.solve(lower.T, y)
