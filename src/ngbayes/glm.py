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
X^T X is never factored or solved with, and no quadratic form is subtracted:
Lambda_0 + sum X^T X is summed only where a posterior is returned, for its
displayed entries. The stack decides the response batch once, and its factor
a_n and the sizes; every later step reads them there.
The leading k columns of a QR factor are the factor of the leading k
columns, so nested designs (the first k columns, for several k) are all
read from one factor, their log-determinants, traces and residuals as
prefix sums; a single fit is the one-size case of the same code.
Fits also stack along a leading fold axis, one QR and one inverse for
every fold, so a single fit is equally the one-fold case. The evidence reads
a stack under its own fits or, in the cross-validation, under the full fit.

The closed forms also take R responses (n, R) that share one design,
which is then factored once; mu_n (k, R), b_n, accuracy, complexity and
evidence (R,) hold one column per response, and every check runs per
column. The prior's and every session's response counts broadcast, so one
response (n,), like one prior, joins every column; alone it is R = 1.

The log model evidence is computed twice, from two residuals: accuracy minus complexity
takes a mu_n - b at the mu_n the fit reports, and the direct form, the ratio of prior to
posterior normalizers, reads shapes, rates and log-determinants alone, its b_n from the QR's
least-squares residual. So a mu_n off by d opens the gap by (a_n / b_n) d^T Lambda_n d / 2,
whereas a b_n formed from the first residual would close it for any mu_n. A gap above
EVIDENCE_CONSISTENCY_TOL is an internal error; this redundancy is the module's correctness
harness. Each fit reports the gap and the residual of the trace identity tr(Lambda_n^-1 X^T X)
+ tr(Lambda_n^-1 Lambda_0) = k. Any X is accepted, as an SPD Lambda_0 makes Lambda_n SPD; the
gap sees a mu_n error only to second order, so each fit bounds it and raises above MU_ERROR_TOL.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .distributions import GammaParams, NormalGammaParams
from .divergence import _clamp, _gamma_kl_form, _normal_kl_form, kl_normal_gamma
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
    ``e`` = ||y - Q c||^2 per response, and ``xtx`` = X^T X gives a returned
    posterior's Lambda_n entries. No field grows with n, and X may have any rank and shape."""

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
        vars(self).update(vars(GlmDataset.sessions([y], X, P)[0]))  # a frozen record's fields

    @classmethod
    def sessions(cls, ys, X, P=None) -> list:
        """GlmDataset(y, X, P) for each y in ``ys``, bit for bit, from one factor of X and P."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.size == 0:
            raise ValueError(f"design matrix must be 2-D and at least 1x1, got shape {X.shape}")
        n, p = X.shape
        if not np.all(np.isfinite(X)):
            raise ValueError("data and design must be finite")
        if P is not None and P.dim != n:
            raise ValueError(f"noise precision is {P.dim}x{P.dim}, expected {n}x{n}")
        shared, datasets = {"n": n, "p": p, "logdet_P": 0.0 if P is None else logdet_spd(P)}, []
        with np.errstate(over="ignore", invalid="ignore"):  # the fit names an overflow
            X = X if P is None else P.chol.T @ X
            (q, shared["r"]), shared["xtx"] = np.linalg.qr(X), X.T @ X
            for y in ys:
                y = np.atleast_1d(np.asarray(y, dtype=float))
                if y.ndim > 2 or y.shape[0] != n:
                    raise ValueError(f"y has shape {y.shape}, design has {n} rows")
                if not np.all(np.isfinite(y)):
                    raise ValueError("data and design must be finite")
                y = y if P is None else P.chol.T @ y
                c = q.T @ y
                datasets.append(object.__new__(cls))
                vars(datasets[-1]).update(shared, c=c, e=np.sum((y - q @ c) ** 2, axis=0))
        for value in [v for d in datasets for v in vars(d).values()]:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return datasets


@dataclass(frozen=True)
class GlmFit:
    """Prior, posterior, quality measures and check margins of one fitted GLM."""

    prior: NormalGammaParams
    posterior: NormalGammaParams
    quality: ModelQuality
    diagnostics: FitDiagnostics


class _Stack(NamedTuple):
    """Every fold's stacked factors and right-hand side, a row per fold (see ``_stack``)."""

    a: np.ndarray  # (F, rows, k): [U_0; r_1; ...; r_S], each r zero-padded to k rows
    b: np.ndarray  # (F, rows, W): [U_0 mu_0; c_1; ...; c_S], padded the same way
    n: np.ndarray  # (F, 1, 1): the sessions' rows
    e: np.ndarray  # (F, 1, W): half the sessions' residuals ||y - Q c||^2: b_n's terms
    logdet_p: np.ndarray  # (F, 1, 1): the sessions' ln|P|
    gamma_0: GammaParams  # the prior's shape and rate, broadcasting to (F, 1, 1) and (F, 1, W)
    batch: tuple  # response shape of the fit: () or (R,)


class _Factor(NamedTuple):
    """A fit's one record, a row per fold: its stack's thin QR a = Q r, and the fits per size."""

    stack: _Stack  # the fits are solved from it; cv reads another stack under the full fit
    r: np.ndarray  # (F, k, k): r^T r = Lambda_n
    w: np.ndarray  # r^-1, upper triangular: its leading blocks invert r's
    sizes: np.ndarray  # (S,): row s's k
    lead: np.ndarray  # (S, k): column j enters size s
    a_n: np.ndarray  # (F, 1, 1)
    mu_n: np.ndarray  # (F, S, k, W)
    b_n: np.ndarray  # (F, S, W)
    bound: np.ndarray  # (F, S, W): mu_n's error bound


@np.errstate(over="ignore", invalid="ignore")
def _stack(sessions: list, prior: NormalGammaParams, *folds) -> list:
    """A _Stack per ``folds`` argument (default one fold of all), whose row f stacks the prior's
    U_0 (Lambda_0 = U_0^T U_0) over the r of the sessions that row f indexes, and U_0 mu_0 over
    their c. Each r and c is zero-padded to k rows, once for every stack, so that folds stack.
    Response counts broadcast: one response or prior, () or (1,), joins every column."""
    k, u_0 = prior.dim, prior.lam.chol.T
    counts = [np.shape(prior.rate)] + [s.c.shape[1:] for s in sessions]
    if any(s.p != k for s in sessions) or len(set(counts) - {(), (1,)}) > 1:
        raise ValueError(f"prior dimension {k} and response count {counts[0]} do not match design "
                         f"columns {[s.p for s in sessions]} and response counts {counts[1:]}")
    batch = np.broadcast_shapes(*counts)
    width = math.prod(batch)
    rs, cs, ns, es, ps = (np.zeros((len(sessions),) + shape)
                          for shape in ((k, k), (k, width), (1, 1), (1, width), (1, 1)))
    for i, s in enumerate(sessions):  # r and c zero-padded to k rows
        rs[i, :len(s.r)], cs[i, :len(s.c)] = s.r, s.c.reshape(len(s.c), -1)
        ns[i], es[i], ps[i] = s.n, 0.5 * s.e, s.logdet_P
    stacks = []
    for fold in map(np.asarray, folds or [[range(len(sessions))]]):
        a, b = (np.empty((len(fold), k * (fold.shape[1] + 1), m.shape[-1])) for m in (rs, cs))
        a[:, :k], b[:, :k] = u_0, u_0 @ prior.mu.reshape(k, -1)
        a[:, k:], b[:, k:] = (m[fold].reshape(len(fold), -1, m.shape[-1]) for m in (rs, cs))
        stacks.append(_Stack(a, b, *(v[fold].sum(1) for v in (ns, es, ps)), prior.gamma, batch))
    return stacks


@np.errstate(over="ignore", invalid="ignore")
def _factor(s: _Stack, sizes=None, where=("",)) -> _Factor:
    """Solve every fold's stack by one stacked QR and one inverse for the fits on the first k
    columns, k in ``sizes`` (default all); a single fit is the one-fold case. With W = R_n^-1,
    eps ||W||_F ||R_n||_F (||mu_n|| + ||W||_F sqrt(2 (b_n - b_0))) bounds ||mu_n - exact||
    (Higham, Accuracy and Stability of Numerical Algorithms, 20.1); the bound is that over
    max(||mu_n||, sqrt(b_n / a_n) / ||R_n||_F). The first failing check in fold, size and
    column order raises, naming the column and where[f * len(sizes) + s], the row that fold
    and size take in diagnostics."""
    q, r = np.linalg.qr(s.a)
    w, c = np.linalg.inv(r), np.swapaxes(q, 1, 2) @ s.b
    k = r.shape[-1]
    sizes = np.array([k]) if sizes is None else sizes
    lead = np.arange(k) < sizes[:, None]
    mu_n = (w[:, None] * lead[:, None, :]) @ c[:, None]
    # b_n - b_0: half the sessions' and the stack's residuals, and of Q^T b past each size
    past = ~lead @ c ** 2
    stack = q @ c  # the peak is b beside its residual
    np.subtract(s.b, stack, out=stack)
    stack *= stack
    half = s.e + 0.5 * stack.sum(axis=1, keepdims=True) + 0.5 * past  # b_n - b_0 before b_0 rounds it
    b_n = s.gamma_0.rate + half
    w2, r2 = ((m * m).sum(axis=1).cumsum(axis=1)[:, sizes - 1, None] for m in (w, r))
    mu_norm = np.sqrt(np.einsum("fskr,fskr->fsr", mu_n, mu_n))
    a_n = s.gamma_0.shape + 0.5 * s.n
    bound = (_EPS * np.sqrt(w2 * r2) * (mu_norm + np.sqrt(2.0 * w2) * np.sqrt(half))
             / np.maximum(mu_norm, np.sqrt(b_n / (a_n * r2))))
    ok = (bound <= MU_ERROR_TOL) & (b_n > 0.0)  # a finite bound needs finite mu_n and b_n
    if not ok.all():
        at = np.unravel_index(np.argmin(ok), ok.shape)  # (fold, size, column)
        finite = np.isfinite([mu_norm[at], b_n[at], bound[at]]).all() and b_n[at] > 0.0
        what = "lost accuracy" if finite else "overflowed or degenerated"
        raise DegeneratePosteriorError(f"{where[at[0] * len(sizes) + at[1]]}posterior {what} in "
                                       f"column {at[2]}: b_n = {b_n[at]}, mu_n error bound "
                                       f"{bound[at]:.3g} (at most {MU_ERROR_TOL})")
    return _Factor(s, r, w, sizes, lead, a_n, mu_n, b_n, bound)


def fit_posterior(data: GlmDataset | list, prior: NormalGammaParams) -> NormalGammaParams:
    """Conjugate posterior update for the GLM with a normal-gamma prior.

    ``data`` may be a list of datasets fitted jointly: their factors are
    stacked under the prior's. The prior may be a batch of R.
    """
    parts = [data] if isinstance(data, GlmDataset) else list(data)
    return _posterior(_factor(*_stack(parts, prior)),
                      prior.lam.entries + np.sum([d.xtx for d in parts], axis=0))


def _posterior(f: _Factor, entries) -> NormalGammaParams:
    """The posterior a one-fold factor was solved for: Lambda_n's exact ``entries`` over R_n."""
    return NormalGammaParams(mu=f.mu_n[0, 0].reshape(f.mu_n.shape[2:3] + f.stack.batch),
                             lam=SpdMatrix.from_factor(entries, f.r[0]), shape=f.a_n.flat[0],
                             rate=f.b_n[0, 0].reshape(f.stack.batch))


def complexity(prior: NormalGammaParams, posterior: NormalGammaParams):
    """Complexity penalty: KL from the posterior to the prior."""
    return kl_normal_gamma(posterior, prior)


def _accuracy_form(n, logdet_P, a_n, b_n, rss, trace):
    """Expected log-likelihood of n rows of noise precision P from <tau> = a_n / b_n,
    <ln tau> = psi(a_n) - ln b_n, the residual sum of squares at mu_n and tr(Lambda_n^-1 X^T X)."""
    return (
        0.5 * logdet_P
        - 0.5 * n * _LN_2PI
        + 0.5 * n * (digamma(a_n) - np.log(b_n))
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
    return _accuracy_form(data.n, data.logdet_P, posterior.shape, posterior.rate,
                          rss.reshape(np.shape(posterior.rate)), trace)


def _direct_form(n, logdet_P, a_0, b_0, logdet_0, a_n, b_n, logdet_n):
    """Evidence of n rows of noise precision P from the ratio of prior to posterior
    normalizers: their shapes a, rates b and ln|Lambda|, a row per model, a column per response."""
    return (
        -0.5 * n * _LN_2PI
        + 0.5 * logdet_P
        + 0.5 * (logdet_0 - logdet_n)
        + a_0 * np.log(b_0)
        - a_n * np.log(b_n)
        + log_gamma(a_n)
        - log_gamma(a_0)
    )


def _direct_lme(data: GlmDataset, prior: NormalGammaParams, posterior: NormalGammaParams):
    """The direct evidence form of a prior and its posterior."""
    return _direct_form(data.n, data.logdet_P, prior.shape, prior.rate, logdet_spd(prior.lam),
                        posterior.shape, posterior.rate, logdet_spd(posterior.lam))


@np.errstate(over="ignore", invalid="ignore")
def _evidence(f: _Factor, where=("",)):
    """Quality and diagnostics, a row per fold and size, of f's stack read under f's fits,
    solved from it or, one fold, broadcast over another stack's folds (see cv_model_quality).

    Size j is the fit on the first sizes[j] columns, whose prior is the leading block of the
    stack's U_0 (exact when mu_0 is zero past it); traces and log-determinants are prefix sums
    over the mask ``f.lead``, and accuracy and complexity take a mu_n - b at f's mu_n, which is
    zero past its size, while b_n stays f's. Quality rows take the stack's response shape,
    diagnostics a column per response. The first failing check in fold, size and column order
    names the column and where[row], the row of that fold and size.
    """
    s, k, lead, sizes, a_n, b_n = f.stack, f.r.shape[-1], f.lead, f.sizes, f.a_n, f.b_n
    g = s.a @ f.w  # [U_0; r_1] R_n^-1 per fold, for the traces: orthonormal columns if exact
    resid = s.a[:, None] @ f.mu_n  # a mu_n per fold and size, read in mu_n's layout: no copy
    resid -= s.b[:, None]  # a mu_n - b at the reported mu_n: (F, S, rows, R)
    quad = np.einsum("fsir,fsir->fsr", resid[:, :, :k], resid[:, :, :k])  # ||U_0 (mu_n - mu_0)||^2
    rss = np.einsum("fsir,fsir->fsr", resid[:, :, k:], resid[:, :, k:])  # ||y - X mu_n||^2 - e
    del resid  # the peak is mu_n beside its residual, not beside the (F, S, R) terms below
    diag_0, diag_n = (np.abs(np.diagonal(m, axis1=1, axis2=2)) for m in (s.a[:, :k], f.r))
    trace_0, trace_x, logdet_0, logdet_n = (lead @ t[..., None] for t in (  # prefix sums per size
        np.sum(g[:, :k] ** 2, axis=1), np.sum(g[:, k:] ** 2, axis=1),
        2.0 * np.log(diag_0), 2.0 * np.log(diag_n)))
    acc = _accuracy_form(s.n, s.logdet_p, a_n, b_n, 2.0 * s.e + rss, trace_x)
    def name(at):  # at = (fold, size, column)
        return f"{where[at[0] * len(sizes) + at[1]]}column {at[2]}: "
    # the gamma form is checked alone too: both paths round its large-a_0 cancellation alike
    gamma = _clamp(_gamma_kl_form(GammaParams(a_n, b_n), s.gamma_0), name)
    com = _clamp(_normal_kl_form(quad, trace_0, logdet_0 - logdet_n, sizes[:, None], a_n / b_n)
                 + gamma, name)
    lme = acc - com
    direct = _direct_form(s.n, s.logdet_p, s.gamma_0.shape, s.gamma_0.rate, logdet_0, a_n, b_n,
                          logdet_n)
    gap = np.abs(lme - direct)
    ok = gap <= EVIDENCE_CONSISTENCY_TOL
    if not np.all(ok):
        at = np.unravel_index(np.argmin(ok), ok.shape)
        raise EvidenceConsistencyError(
            f"{name(at)}decomposition LME {lme[at]} vs direct LME {direct[at]} differ by more "
            f"than {EVIDENCE_CONSISTENCY_TOL}")
    rows = (-1,) + s.batch
    return (ModelQuality(*(np.reshape(v, rows) for v in (lme, acc, com))),
            FitDiagnostics(evidence_gap=gap.reshape(-1, gap.shape[-1]),
                           trace_residual=(trace_0 + trace_x - sizes[:, None]).ravel(),
                           mu_error_bound=f.bound.reshape(-1, gap.shape[-1])))


def log_model_evidence(data: GlmDataset, prior: NormalGammaParams) -> GlmFit:
    """Fit the model and return the evidence with its decomposition.

    The decomposition path (accuracy minus complexity) is cross-checked
    against the direct closed form for every response; a gap beyond
    EVIDENCE_CONSISTENCY_TOL raises EvidenceConsistencyError naming the column.
    The diagnostics hold one row, the fit's.
    """
    f = _factor(*_stack([data], prior))
    q, diagnostics = _evidence(f)
    return GlmFit(prior, _posterior(f, prior.lam.entries + data.xtx),
                  ModelQuality(q.lme[0], q.accuracy[0], q.complexity[0]), diagnostics)


def nested_log_model_evidence(data: GlmDataset, prior: NormalGammaParams, orders):
    """Evidence of the nested models on the first p + 1 design columns, p in ``orders``.

    One factor of the full design serves every order: its leading p + 1
    columns are the factor of the order-p design under the prior's leading
    block, which is that order's prior because mu_0 must be zero. Returns a
    ModelQuality and FitDiagnostics with a row per order, the quality's in the
    response shape of ``data``; a failed check names the order and the column.
    """
    orders = np.asarray(orders)
    if np.any(prior.mu != 0.0) or np.any((orders < 0) | (orders >= data.p)):
        raise ValueError(f"nested fits need a zero prior mean and orders in [0, {data.p - 1}]")
    where = [f"fit failed at order {p}: " for p in orders]
    return _evidence(_factor(*_stack([data], prior), orders + 1, where), where)


@functools.cache
def reference_prior(p: int) -> NormalGammaParams:
    """Near-flat prior that starts cross-validation: one immutable record per p, built once."""
    return NormalGammaParams(mu=np.zeros(p), lam=SpdMatrix(REFERENCE_PRIOR_PRECISION * np.eye(p)),
                             shape=REFERENCE_PRIOR_SHAPE, rate=REFERENCE_PRIOR_RATE)


def cv_model_quality(sessions):
    """Leave-one-session-out cross-validated model quality and its check margins.

    Fold i's training fit is every session but i under the reference prior; updated on session
    i it is the full fit, as conjugate updates do not depend on order. So fold i's held-out
    quality, LME(all) - LME(all but i), is its stack [R_-i; r_i], [R_-i mu_-i; c_i] read under
    the full fit, and its evidence gap checks its training fit against the full one. Checks run
    in order: the training fits (naming the fold), the full fit, each fold's complexity and gap.
    Accuracy and complexity are summed over folds, per response (column r of every session forms
    problem r), and the evidence is their difference. Returns that ModelQuality and a row per
    fold of FitDiagnostics, mu_error_bound the larger of the fold's training and full fits'.
    """
    sessions = list(sessions)
    if len(sessions) < 2:
        raise ValueError("cross-validated evidence requires at least 2 sessions")
    folds, prior = range(len(sessions)), reference_prior(sessions[0].p)
    where = [f"fit failed at fold {i}: " for i in folds]
    others = [[j for j in folds if j != i] for i in folds]
    training, joint, held_out = _stack(sessions, prior, others, [folds], [[i] for i in folds])
    trained = _factor(training, where=where)
    full = _factor(joint, where=("fit failed at the full fit: ",))
    # session i under training fit i, read under the full fit; no _replace: it fills a free list
    held_out.a[:, :prior.dim], held_out.b[:, :prior.dim] = trained.r, trained.r @ trained.mu_n[:, 0]
    q, d = _evidence(_Factor(_Stack(*held_out[:5], GammaParams(trained.a_n, trained.b_n),
                                    held_out.batch), *full[1:]), where)
    acc, com = sum(q.accuracy), sum(q.complexity)
    return (ModelQuality(lme=acc - com, accuracy=acc, complexity=com),
            FitDiagnostics(*d[:2], np.maximum(d.mu_error_bound, trained.bound[:, 0])))
