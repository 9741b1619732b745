"""Conjugate Bayesian inference for the univariate general linear model.

The normal-gamma prior on (coefficients, noise precision) is conjugate to
the Gaussian likelihood, so the posterior is available in closed form.
Every fit works on one representation, a thin QR factor. A dataset
factors its whitened rows once, X = Q r, and keeps only c = Q^T y, the
residual e = ||y - Q c||^2 and X^T X, so ||y - X mu||^2 = e + ||c - r mu||^2
for any mu. A posterior is one more thin QR, of the prior's and the sessions'
stacked factors [U_0; r_1; ...] with right-hand side [U_0 mu_0; c_1; ...],
where U_0^T U_0 = Lambda_0. Its triangular factor R_n is Lambda_n's
factor and gives mu_n, and 2 (b_n - b_0) is a sum of residual squares. So
X^T X is never factored or solved with (it is summed only for Lambda_n's
displayed entries), and no quadratic form is subtracted. That factor is the
fit's one record: it decides a_n, the sizes and Lambda_n's displayed entries
once, and every later step reads them there.
The leading k columns of a QR factor are the factor of the leading k
columns, so nested designs (the first k columns, for several k) are all
read from one factor, their log-determinants, traces and residuals as
prefix sums; a single fit is the one-size case of the same code.

The closed forms also take R responses (n, R) that share one design,
which is then factored once; mu_n (k, R), b_n, accuracy, complexity and
evidence (R,) hold one column per response, and every check runs per
column. One response (n,) is the same code at R = 1.

The log model evidence is computed twice: once as accuracy minus
complexity and once from the ratio of prior to posterior normalization
constants, a function of their shapes, rates and log-determinants alone.
Disagreement between the two paths is treated as an internal error; the
redundancy is the main correctness harness of this module.
Each fit reports how close it came: the gap between the paths and the
residual of the trace identity tr(Lambda_n^-1 X^T X) + tr(Lambda_n^-1 Lambda_0) = k.
Any X is accepted, as an SPD Lambda_0 makes Lambda_n SPD; each fit bounds the
error of its mu_n, which neither path sees, and raises above MU_ERROR_TOL.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .distributions import GammaParams, NormalGammaParams
from .divergence import _clamp, _normal_kl_form, kl_gamma, kl_normal_gamma
from .numerics import SpdMatrix, digamma, log_gamma, logdet_spd

__all__ = [
    "GlmDataset", "GlmFit", "FitDiagnostics", "ModelQuality", "DegeneratePosteriorError",
    "EvidenceConsistencyError", "REFERENCE_PRIOR_PRECISION",
    "REFERENCE_PRIOR_SHAPE", "REFERENCE_PRIOR_RATE", "fit_posterior", "complexity", "accuracy",
    "log_model_evidence", "nested_log_model_evidence", "reference_prior", "cv_model_quality",
]

_LN_2PI = math.log(2.0 * math.pi)
_EPS = np.finfo(float).eps

# Non-informative reference prior used by cross-validated evidence: the
# training-session posterior dominates these values.
REFERENCE_PRIOR_PRECISION = 1e-6
REFERENCE_PRIOR_SHAPE = 1e-3
REFERENCE_PRIOR_RATE = 1e-3

# Largest gap allowed between the two evidence paths of one response.
EVIDENCE_CONSISTENCY_TOL = 1e-6

# Largest mu_n error bound a fit may carry: 20x over the largest an accuracy-gate input carries
# (4.9e-7, k = 21, n = 10^5, Lambda_0 = 1e-6 I), below a near-collinear fit off by 8.9e-7 (1.5e-5).
MU_ERROR_TOL = 1e-5


class DegeneratePosteriorError(ArithmeticError):
    """Posterior overflowed, b_n is not positive, or mu_n's error bound exceeds MU_ERROR_TOL."""


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


class FitDiagnostics(NamedTuple):
    """How close a fit's checks came to failing: a row per model, a column per response.

    ``evidence_gap`` is |accuracy - complexity - direct LME|, which must stay
    within EVIDENCE_CONSISTENCY_TOL; ``trace_residual`` (one per model) is
    tr(Lambda_n^-1 X^T X) + tr(Lambda_n^-1 Lambda_0) - k, zero in exact arithmetic;
    ``mu_error_bound``, within MU_ERROR_TOL, bounds ||mu_n - exact|| over max(||mu_n||,
    sqrt(b_n / a_n) / ||R_n||_F), the latter at most the posterior's smallest deviation."""

    evidence_gap: np.ndarray
    trace_residual: np.ndarray
    mu_error_bound: np.ndarray


@dataclass(frozen=True, eq=False)
class GlmDataset:
    """Sufficient statistics of responses y, (n,) or (n, R), under an n x p design matrix X.

    The optional noise precision P is the inverse of the noise correlation
    matrix; None (the default) means white noise. A given P is factored
    once as P = L L^T and the rows are whitened, L^T y and L^T X, with
    ``logdet_P`` = ln|P|, so every later step sees white noise. The whitened
    rows are factored once, X = Q r; fits compute from r, ``c`` = Q^T y and
    ``e`` = ||y - Q c||^2 per response, and ``xtx`` = X^T X gives Lambda_n's
    entries. No field grows with n, and X may have any rank and shape."""

    y: InitVar[np.ndarray]
    X: InitVar[np.ndarray]
    P: InitVar[SpdMatrix | None] = None
    n: int = field(init=False)
    p: int = field(init=False)
    logdet_P: float = field(init=False, default=0.0)
    xtx: np.ndarray = field(init=False, repr=False, compare=False)
    r: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    e: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, y, X, P):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        X = np.asarray(X, dtype=float)
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
        q, r = np.linalg.qr(X)
        with np.errstate(over="ignore", invalid="ignore"):  # the fit names an overflow
            c = q.T @ y
            e = np.sum((y - q @ c) ** 2, axis=0)
        for name, value in (("n", n), ("p", p), ("xtx", X.T @ X), ("r", r), ("c", c), ("e", e)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GlmFit:
    """Prior, posterior, quality measures and check margins of one fitted GLM."""

    prior: NormalGammaParams
    posterior: NormalGammaParams
    quality: ModelQuality
    diagnostics: FitDiagnostics


class _Factor(NamedTuple):
    """A fit's one record: thin QR a = Q r of stacked factors, right-hand side b (a column per
    response), and the fits it was solved for, on the first k columns for each k in sizes."""

    a: np.ndarray  # [U_0; r_1; ...; r_S]
    b: np.ndarray  # [U_0 mu_0; c_1; ...; c_S]
    r: np.ndarray  # r^T r = Lambda_n
    w: np.ndarray  # r^-1, upper triangular: its leading blocks invert r's
    c: np.ndarray  # Q^T b
    e_rows: float | np.ndarray  # the sessions' own residuals, sum of their e
    entries: np.ndarray  # Lambda_0 + sum X^T X: Lambda_n's displayed entries
    batch: tuple  # response shape of the fit: () or (R,)
    sizes: np.ndarray  # (S,): row s's k
    lead: np.ndarray  # (S, k): column j enters size s
    a_n: float
    mu_n: np.ndarray  # (S, k, R)
    b_n: np.ndarray  # (S, R)
    bound: np.ndarray  # (S, R): mu_n's error bound


@np.errstate(over="ignore", invalid="ignore")
def _factor(sessions: list, prior: NormalGammaParams, sizes=None, where=("",)) -> _Factor:
    """Stack the prior's factor U_0 = L_0^T (Lambda_0 = L_0 L_0^T) over the sessions', factor
    once and solve for the fits on the first k columns, k in ``sizes`` (default all). With
    W = R_n^-1, eps ||W||_F ||R_n||_F (||mu_n|| + ||W||_F sqrt(2 (b_n - b_0))) bounds
    ||mu_n - exact|| (Higham, Accuracy and Stability of Numerical Algorithms, 20.1); the bound
    is that over max(||mu_n||, sqrt(b_n / a_n) / ||R_n||_F). A failed check names where[s].
    The sessions share one response count; a batched prior's must match it unless either is 1."""
    k, response, batch = prior.dim, sessions[0].c.shape[1:], np.shape(prior.rate)
    if (any(s.p != k or s.c.shape[1:] != response for s in sessions)
            or len({response, batch} - {(), (1,)}) > 1):
        raise ValueError(f"prior dimension {k} and response count {batch} do not match design "
                         f"columns {[s.p for s in sessions]} and response counts "
                         f"{[s.c.shape[1:] for s in sessions]}")
    batch = np.broadcast_shapes(response, batch)
    width = math.prod(batch)
    u_0 = prior.lam.chol.T
    blocks = [(u_0, u_0 @ prior.mu.reshape(k, -1))] + [(s.r, s.c) for s in sessions]
    a = np.vstack([m for m, _ in blocks])
    b = np.vstack([np.broadcast_to(v.reshape(len(v), -1), (len(v), width)) for _, v in blocks])
    q, r = np.linalg.qr(a)
    w, c, e_rows = np.linalg.inv(r), q.T @ b, sum(s.e for s in sessions)
    sizes = np.array([k]) if sizes is None else sizes
    lead = np.arange(k) < sizes[:, None]
    mu_n = (w * lead[:, None, :]) @ c
    # 2 (b_n - b_0): the sessions' and the stack's residuals, and Q^T b past each size
    resid = e_rows + np.sum((b - q @ c) ** 2, axis=0) + ~lead @ c ** 2
    b_n = prior.rate + 0.5 * resid
    w2, r2 = ((m * m).sum(axis=0).cumsum()[sizes - 1, None] for m in (w, r))
    mu_norm = np.sqrt(np.einsum("skr,skr->sr", mu_n, mu_n))
    a_n = prior.shape + 0.5 * sum(s.n for s in sessions)
    entries = prior.lam.entries + sum(s.xtx for s in sessions)
    bound = (_EPS * np.sqrt(w2 * r2) * (mu_norm + np.sqrt(w2 * resid))
             / np.maximum(mu_norm, np.sqrt(b_n / (a_n * r2))))
    ok = (bound <= MU_ERROR_TOL) & (b_n > 0.0)  # a finite bound needs finite mu_n and b_n
    if not ok.all():
        s, j = np.unravel_index(np.argmin(ok), ok.shape)
        finite = np.isfinite(mu_norm[s, j]) and np.isfinite(b_n[s, j]) and b_n[s, j] > 0.0
        what = "lost accuracy" if finite else "overflowed or degenerated"
        raise DegeneratePosteriorError(f"{where[s]}posterior {what} in column {j}: b_n = "
                                       f"{b_n[s, j]}, mu_n error bound {bound[s, j]:.3g} "
                                       f"(at most {MU_ERROR_TOL})")
    return _Factor(a, b, r, w, c, e_rows, entries, batch, sizes, lead, a_n, mu_n, b_n, bound)


def fit_posterior(data: GlmDataset | list, prior: NormalGammaParams) -> NormalGammaParams:
    """Conjugate posterior update for the GLM with a normal-gamma prior.

    ``data`` may be a list of datasets fitted jointly: their factors are
    stacked under the prior's. The prior may be a batch of R.
    """
    parts = [data] if isinstance(data, GlmDataset) else list(data)
    return _posterior(_factor(parts, prior))


def _posterior(f: _Factor) -> NormalGammaParams:
    """The posterior the factor was solved for: Lambda_n's exact entries over its factor R_n."""
    return NormalGammaParams(mu=f.mu_n[0].reshape(f.mu_n.shape[1:2] + f.batch),
                             lam=SpdMatrix.from_factor(f.entries, f.r), shape=f.a_n,
                             rate=f.b_n[0].reshape(f.batch))


def complexity(prior: NormalGammaParams, posterior: NormalGammaParams):
    """Complexity penalty: KL from the posterior to the prior."""
    return kl_normal_gamma(posterior, prior)


def _accuracy_form(data: GlmDataset, a_n, b_n, rss, trace):
    """Expected log-likelihood from <tau> = a_n / b_n, <ln tau> = psi(a_n) - ln b_n,
    the residual sum of squares at mu_n and tr(Lambda_n^-1 X^T X)."""
    return (
        0.5 * data.logdet_P
        - 0.5 * data.n * _LN_2PI
        + 0.5 * data.n * (digamma(a_n) - np.log(b_n))
        - 0.5 * ((a_n / b_n) * rss + trace)
    )


def accuracy(data: GlmDataset, posterior: NormalGammaParams):
    """Posterior expected log-likelihood of the data, per response, for any posterior.

    Uses the gamma moments <tau> = a_n / b_n and <ln tau> = psi(a_n) - ln b_n
    plus the Gaussian quadratic-form identity for the coefficient uncertainty,
    both read from the dataset's factor: ||y - X mu||^2 = e + ||c - r mu||^2
    and tr(Lambda^-1 X^T X) = ||L^-1 r^T||_F^2 for Lambda = L L^T.
    """
    if posterior.dim != data.p:
        raise ValueError(
            f"posterior dimension {posterior.dim} does not match design columns {data.p}"
        )
    mu = posterior.mu.reshape(data.p, -1)
    rss = data.e + np.sum((data.c.reshape(len(data.c), -1) - data.r @ mu) ** 2, axis=0)
    trace = float(np.sum(np.linalg.solve(posterior.lam.chol, data.r.T) ** 2))
    return _accuracy_form(data, posterior.shape, posterior.rate,
                          rss.reshape(np.shape(posterior.rate)), trace)


def _direct_form(data: GlmDataset, a_0, b_0, logdet_0, a_n, b_n, logdet_n):
    """Evidence from the ratio of prior to posterior normalizers: their shapes a, rates b
    and ln|Lambda|, a row per model and a column per response."""
    return (
        -0.5 * data.n * _LN_2PI
        + 0.5 * data.logdet_P
        + 0.5 * (logdet_0 - logdet_n)
        + a_0 * np.log(b_0)
        - a_n * np.log(b_n)
        + log_gamma(a_n)
        - log_gamma(a_0)
    )


def _direct_lme(data: GlmDataset, prior: NormalGammaParams, posterior: NormalGammaParams):
    """The direct evidence form of a prior and its posterior."""
    return _direct_form(data, prior.shape, prior.rate, logdet_spd(prior.lam),
                        posterior.shape, posterior.rate, logdet_spd(posterior.lam))


@np.errstate(over="ignore", invalid="ignore")
def _evidence(data: GlmDataset, prior: NormalGammaParams, f: _Factor, where=("",)):
    """Quality and diagnostics of the fits the factor was solved for.

    Row s of every result belongs to the size that row s of the mask ``f.lead``
    takes; its prior is the leading block of ``prior``, exact when mu_0 is zero
    past that size. The factor's columns enter each size through the mask, so
    every term is a prefix sum. A failed check names where[s] and the column.
    """
    k, lead, sizes, a_n, b_n = prior.dim, f.lead, f.sizes, f.a_n, f.b_n
    g = f.a @ f.w  # [U_0; r_1; ...] R_n^-1: orthonormal columns in exact arithmetic
    resid = ((g[:, None, :] * lead).reshape(-1, k) @ f.c).reshape(len(g), len(sizes), -1)
    resid -= f.b[:, None, :]  # a mu_n - b per size: (rows, S, R)
    quad = np.einsum("isr,isr->sr", resid[:k], resid[:k])  # ||U_0 (mu_n - mu_0)||^2
    rss = f.e_rows + np.einsum("isr,isr->sr", resid[k:], resid[k:])  # ||y - X mu_n||^2
    trace_0, trace_x = (lead @ np.sum(part ** 2, axis=0) for part in (g[:k], g[k:]))
    logdet_0, logdet_n = (2.0 * lead @ np.log(np.abs(np.diag(m)))[:, None]
                          for m in (prior.lam.chol, f.r))
    acc = _accuracy_form(data, a_n, b_n, rss, trace_x[:, None])
    com = _clamp(_normal_kl_form(quad, trace_0[:, None], logdet_0 - logdet_n, sizes[:, None],
                                 a_n / b_n)
                 + kl_gamma(GammaParams(a_n, b_n), prior.gamma))
    lme = acc - com
    direct = _direct_form(data, prior.shape, prior.rate, logdet_0, a_n, b_n, logdet_n)
    gap = np.abs(lme - direct)
    ok = gap <= EVIDENCE_CONSISTENCY_TOL
    if not np.all(ok):
        s, j = np.unravel_index(np.argmin(ok), ok.shape)
        raise EvidenceConsistencyError(
            f"{where[s]}column {j}: decomposition LME {lme[s, j]} vs direct LME "
            f"{direct[s, j]} differ by more than {EVIDENCE_CONSISTENCY_TOL}"
        )
    return (ModelQuality(lme=lme, accuracy=acc, complexity=com),
            FitDiagnostics(evidence_gap=gap, trace_residual=trace_0 + trace_x - sizes,
                           mu_error_bound=f.bound))


def log_model_evidence(data: GlmDataset, prior: NormalGammaParams) -> GlmFit:
    """Fit the model and return the evidence with its decomposition.

    The decomposition path (accuracy minus complexity) is cross-checked
    against the direct closed form for every response; a gap beyond
    EVIDENCE_CONSISTENCY_TOL raises EvidenceConsistencyError naming the column.
    The diagnostics hold one row, the fit's.
    """
    f = _factor([data], prior)
    posterior = _posterior(f)
    q, diagnostics = _evidence(data, prior, f)
    one = (np.reshape(v[0], f.batch)[()] for v in (q.lme, q.accuracy, q.complexity))
    return GlmFit(prior, posterior, ModelQuality(*one), diagnostics)


def nested_log_model_evidence(data: GlmDataset, prior: NormalGammaParams, orders):
    """Evidence of the nested models on the first p + 1 design columns, p in ``orders``.

    One factor of the full design serves every order: its leading p + 1
    columns are the factor of the order-p design under the prior's leading
    block, which is that order's prior because mu_0 must be zero. Returns a
    ModelQuality and FitDiagnostics with a row per order; a failed check
    names the order and the column.
    """
    orders = np.asarray(orders)
    if np.any(prior.mu != 0.0) or np.any((orders < 0) | (orders >= data.p)):
        raise ValueError(f"nested fits need a zero prior mean and orders in [0, {data.p - 1}]")
    where = [f"fit failed at order {p}: " for p in orders]
    return _evidence(data, prior, _factor([data], prior, orders + 1, where), where)


def reference_prior(p: int) -> NormalGammaParams:
    """Near-flat prior used as the starting point of cross-validation."""
    return NormalGammaParams(
        mu=np.zeros(p),
        lam=SpdMatrix(REFERENCE_PRIOR_PRECISION * np.eye(p)),
        shape=REFERENCE_PRIOR_SHAPE,
        rate=REFERENCE_PRIOR_RATE,
    )


def cv_model_quality(sessions):
    """Leave-one-session-out cross-validated model quality and its check margins.

    For each held-out session, the remaining sessions are fitted from the
    reference prior and the resulting posterior serves as the prior of the
    held-out fit. Accuracy and complexity are summed over sessions, per
    response (column r of every session forms problem r), and the evidence
    is their difference. Returns that ModelQuality and FitDiagnostics with a
    row per fold: the held-out fit's evidence gap and trace residual, and the
    larger of the training and held-out fits' mu_n error bounds, the check
    that came closer to failing. The training fit stacks the other sessions'
    whitened factors; ln|P| does not enter it.
    """
    sessions = list(sessions)
    if len(sessions) < 2:
        raise ValueError("cross-validated evidence requires at least 2 sessions")
    prior = reference_prior(sessions[0].p)
    folds = []  # (ModelQuality, FitDiagnostics) per fold
    for i, held_out in enumerate(sessions):
        try:
            training = [s for j, s in enumerate(sessions) if j != i]
            f = _factor(training, prior)
            trained = _posterior(f)
            g = _factor([held_out], trained)
            q, d = _evidence(held_out, trained, g)
            folds.append((q, d._replace(mu_error_bound=np.maximum(d.mu_error_bound, f.bound))))
        except ArithmeticError as exc:
            raise type(exc)(f"fit failed at fold {i}: {exc}") from exc
    quality, diagnostics = zip(*folds)
    acc, com = (np.reshape(sum(getattr(q, name)[0] for q in quality), g.batch)[()]
                for name in ("accuracy", "complexity"))
    return (ModelQuality(lme=acc - com, accuracy=acc, complexity=com),
            FitDiagnostics(*map(np.concatenate, zip(*diagnostics))))
