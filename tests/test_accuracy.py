"""Accuracy at the north star's extremes.

The hardest design the sweep meets is the order-20 polynomial (k = 21
columns) on n equally spaced points in [-1, 1]. Here it meets a near-flat
prior Lambda_0 = lam I with lam down to 1e-6, a_0 = b_0 = 1e-3, and
responses scaled up to 1e8. At n <= 10^3 the posterior is checked against
a 50-digit mpmath reference; at n = 10^5 the fit's own check margins are.
Each bound is at least 10x the worst error the QR factor showed on these
inputs over about 200 draws (mu_n 1.3e-11, b_n 3.3e-14 when n is near k,
ln|Lambda_n| 6e-13, trace residual 5e-13, evidence gap 6.2e-16 of |LME|).

Designs that are rank deficient, nearly so, or wider than they are long
meet an 80-digit reference with Lambda_0 down to 1e-14 I: there each fit
either raises DegeneratePosteriorError or holds mu_n within its own
reported error bound, which is at most MU_ERROR_TOL, and some must fit.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngbayes import GlmDataset, NormalGammaParams, SpdMatrix, fit_posterior, log_model_evidence
from ngbayes.glm import MU_ERROR_TOL, DegeneratePosteriorError

A_0 = B_0 = 1e-3

MU_RTOL = 1e-9  # ||mu_n - ref|| / ||ref||; the Gram-matrix Cholesky missed by 3e-8
RATE_RTOL = 1e-12
LOGDET_TOL = 1e-11  # ln|Lambda_n|, so the relative error of |Lambda_n|
TRACE_TOL = 1e-11
GAP_RTOL = 1e-14  # evidence gap over max(1, |LME|)


def problem(k, n, log_lam, log_scale, seed):
    """The order-(k - 1) polynomial design, its scaled responses and the near-flat prior."""
    rng = np.random.default_rng(seed)
    X = np.vander(np.linspace(-1.0, 1.0, n), k, increasing=True)
    y = 10.0 ** log_scale * (X @ rng.standard_normal(k) + rng.standard_normal(n))
    prior = NormalGammaParams(mu=np.zeros(k), lam=SpdMatrix(10.0 ** log_lam * np.eye(k)),
                              shape=A_0, rate=B_0)
    return X, y, prior


def reference(X, y, lam_0, digits=50):
    """mu_n, b_n and ln|Lambda_n| in ``digits``-digit arithmetic, for mu_0 = 0."""
    with mpmath.workdps(digits):
        cols = [[mpmath.mpf(float(v)) for v in col] for col in X.T]
        ys = [mpmath.mpf(float(v)) for v in y]
        k = len(cols)
        lam = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(i, k):
                lam[i, j] = lam[j, i] = mpmath.fdot(cols[i], cols[j]) + float(lam_0[i, j])
        rhs = mpmath.matrix([mpmath.fdot(col, ys) for col in cols])
        mu = mpmath.lu_solve(lam, rhs)
        # b_n - b_0 = (y'y - mu_n' Lambda_n mu_n) / 2 loses ~20 of the 50 digits at most.
        rate = B_0 + (mpmath.fdot(ys, ys) - mpmath.fdot(list(mu), list(rhs))) / 2
        return (np.array([float(v) for v in mu]), float(rate),
                float(mpmath.log(mpmath.det(lam))))


extremes = dict(log_lam=st.floats(-6.0, 0.0), log_scale=st.floats(0.0, 8.0),
                seed=st.integers(0, 2**32 - 1))


@given(k=st.integers(1, 21), n=st.integers(21, 1000), **extremes)
@example(k=21, n=1000, log_lam=-6.0, log_scale=8.0, seed=0)
@settings(max_examples=6, deadline=None)
def test_posterior_matches_50_digit_reference(k, n, log_lam, log_scale, seed):
    X, y, prior = problem(k, n, log_lam, log_scale, seed)
    post = fit_posterior(GlmDataset(y=y, X=X), prior)
    mu, rate, logdet = reference(X, y, prior.lam.entries)
    assert np.linalg.norm(post.mu - mu) <= MU_RTOL * np.linalg.norm(mu)
    assert abs(post.rate - rate) <= RATE_RTOL * rate
    assert abs(2.0 * np.sum(np.log(np.diag(post.lam.chol))) - logdet) <= LOGDET_TOL


@given(k=st.integers(1, 21), **extremes)
@example(k=21, log_lam=-6.0, log_scale=8.0, seed=0)
@settings(max_examples=3, deadline=None)
def test_check_margins_at_n_1e5(k, log_lam, log_scale, seed):
    X, y, prior = problem(k, 10**5, log_lam, log_scale, seed)
    fit = log_model_evidence(GlmDataset(y=y, X=X), prior)
    assert abs(fit.diagnostics.trace_residual[0]) <= TRACE_TOL
    assert fit.diagnostics.evidence_gap[0, 0] <= GAP_RTOL * max(1.0, abs(fit.quality.lme))


def hard_design(design, rng):
    """A duplicated or near-duplicated column (n = 50), the order-20 polynomial on [0, 1]
    (rank 19 of 21), or the order-40 polynomial on 30 points of [-1, 1]."""
    if design == "order 20 on [0, 1]":
        return np.vander(np.linspace(0.0, 1.0, 200), 21, increasing=True)
    if design == "order 40 at n = 30":
        return np.vander(np.linspace(-1.0, 1.0, 30), 41, increasing=True)
    X = rng.standard_normal((50, 6))
    X[:, 5] = X[:, 2] + (1e-9 * rng.standard_normal(50) if design == "near-duplicate" else 0.0)
    return X


def hard_fit_meets_its_bound(design, log_lam, log_scale, seed):
    """False if the fit raises DegeneratePosteriorError; otherwise assert that mu_n is within
    its bound of the 80-digit reference, and the bound within MU_ERROR_TOL."""
    rng = np.random.default_rng(seed)
    X = hard_design(design, rng)
    k = X.shape[1]
    y = 10.0 ** log_scale * (X @ rng.standard_normal(k) + rng.standard_normal(len(X)))
    prior = NormalGammaParams(mu=np.zeros(k), lam=SpdMatrix(10.0 ** log_lam * np.eye(k)),
                              shape=A_0, rate=B_0)
    try:
        fit = log_model_evidence(GlmDataset(y=y, X=X), prior)
    except DegeneratePosteriorError:
        return False
    mu = reference(X, y, prior.lam.entries, digits=80)[0]
    post = fit.posterior
    floor = np.sqrt(post.rate / (post.shape * np.trace(post.lam.entries)))
    bound = fit.diagnostics.mu_error_bound[0, 0]
    assert np.linalg.norm(post.mu - mu) <= bound * max(np.linalg.norm(post.mu), floor)
    assert bound <= MU_ERROR_TOL
    return True


@given(design=st.sampled_from(["duplicate", "near-duplicate", "order 20 on [0, 1]",
                               "order 40 at n = 30"]),
       log_lam=st.floats(-14.0, 0.0), log_scale=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_hard_designs_raise_or_meet_their_bound(design, log_lam, log_scale, seed):
    hard_fit_meets_its_bound(design, log_lam, log_scale, seed)


@pytest.mark.parametrize("design, log_lam, log_scale", [
    ("order 20 on [0, 1]", -6.0, 0.0), ("order 40 at n = 30", -10.0, 0.0),
    ("duplicate", -6.0, 8.0),
])
def test_hard_designs_that_fit(design, log_lam, log_scale):
    assert hard_fit_meets_its_bound(design, log_lam, log_scale, 0)


def test_near_collinear_fit_raises():
    # Full rank by numpy's matrix_rank, and the two evidence paths agree to 2.6e-10,
    # yet mu_n came out 2.5e-5 off the 80-digit reference (error bound 4.1e-4).
    rng = np.random.default_rng(47)
    X = hard_design("near-duplicate", rng)
    assert np.linalg.matrix_rank(X) == 6
    y = X @ rng.standard_normal(6) + rng.standard_normal(50)
    prior = NormalGammaParams(mu=np.zeros(6), lam=SpdMatrix(1e-12 * np.eye(6)),
                              shape=A_0, rate=B_0)
    with pytest.raises(DegeneratePosteriorError, match="lost accuracy"):
        fit_posterior(GlmDataset(y=y, X=X), prior)
