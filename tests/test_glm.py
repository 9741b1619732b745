import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, special

from ngbayes import (
    GlmDataset,
    ModelQuality,
    NormalGammaParams,
    RngStream,
    SpdMatrix,
    accuracy,
    complexity,
    cv_log_model_evidence,
    cv_model_quality,
    fit_posterior,
    kl_normal_gamma,
    log_model_evidence,
    sample_ng,
)
from ngbayes import glm
from ngbayes.experiments import PolySweepConfig, run_poly_sweep
from ngbayes.glm import (
    DegeneratePosteriorError,
    EvidenceConsistencyError,
    _direct_lme,
    reference_prior,
)
from ngbayes.numerics import digamma

from conftest import random_spd

LN_2PI = math.log(2.0 * math.pi)


def unit_prior(p):
    return NormalGammaParams(mu=np.zeros(p), lam=SpdMatrix.identity(p), shape=1.0, rate=1.0)


def hand_dataset():
    return GlmDataset(y=[2.0], X=[[1.0]], P=SpdMatrix.identity(1))


def random_dataset(rng, n, p):
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = X @ beta + rng.standard_normal(n)
    return GlmDataset(y=y, X=X, P=SpdMatrix.identity(n))


def ar1_precision(n, rho):
    """Tridiagonal precision of unit-variance AR(1) noise with coefficient rho."""
    diag = np.full(n, 1.0 + rho**2)
    diag[[0, -1]] = 1.0
    return (np.diag(diag) - rho * (np.eye(n, k=1) + np.eye(n, k=-1))) / (1.0 - rho**2)


def dense_fit(y, X, P, prior):
    """Posterior, accuracy and direct LME from the dense X'PX, X'Py, ln|P| formulas."""
    lam_0, mu_0, a_0, b_0 = prior.lam.entries, prior.mu, prior.shape, prior.rate
    n = len(y)
    xpx = X.T @ P @ X
    lam_n = xpx + lam_0
    mu_n = np.linalg.solve(lam_n, X.T @ P @ y + lam_0 @ mu_0)
    a_n = a_0 + 0.5 * n
    b_n = b_0 + 0.5 * (y @ P @ y + mu_0 @ lam_0 @ mu_0 - mu_n @ lam_n @ mu_n)
    logdet_p = np.linalg.slogdet(P)[1]
    r = y - X @ mu_n
    acc = (0.5 * logdet_p - 0.5 * n * LN_2PI
           + 0.5 * n * (special.digamma(a_n) - math.log(b_n))
           - 0.5 * ((a_n / b_n) * (r @ P @ r) + np.trace(np.linalg.solve(lam_n, xpx))))
    lme = (-0.5 * n * LN_2PI + 0.5 * logdet_p
           + 0.5 * (np.linalg.slogdet(lam_0)[1] - np.linalg.slogdet(lam_n)[1])
           + a_0 * math.log(b_0) - a_n * math.log(b_n)
           + math.lgamma(a_n) - math.lgamma(a_0))
    post = NormalGammaParams(mu=mu_n, lam=SpdMatrix(lam_n), shape=a_n, rate=b_n)
    return post, acc, lme


def solve_exact(a, b):
    """Gauss-Jordan elimination in rational arithmetic."""
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    k = len(m)
    for c in range(k):
        pivot = next(r for r in range(c, k) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(k):
            if r != c:
                f = m[r][c] / m[c][c]
                m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return [m[r][k] / m[r][r] for r in range(k)]


class TestGlmDataset:
    def test_rank_deficient_rejected(self):
        X = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(ValueError, match="rank"):
            GlmDataset(y=np.zeros(4), X=X, P=SpdMatrix.identity(4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GlmDataset(y=[1.0, 2.0], X=[[1.0]], P=SpdMatrix.identity(1))
        with pytest.raises(ValueError):
            GlmDataset(y=[1.0], X=[[1.0]], P=SpdMatrix.identity(2))


class TestFitPosterior:
    def test_hand_example(self):
        post = fit_posterior(hand_dataset(), unit_prior(1))
        assert post.mu[0] == pytest.approx(1.0)
        assert post.lam.entries[0, 0] == pytest.approx(2.0)
        assert post.shape == 1.5
        assert post.rate == pytest.approx(2.0)

    def test_zero_data_keeps_prior_center(self, rng):
        X = rng.standard_normal((6, 2))
        data = GlmDataset(y=np.zeros(6), X=X, P=SpdMatrix.identity(6))
        post = fit_posterior(data, unit_prior(2))
        np.testing.assert_allclose(post.mu, 0.0, atol=1e-12)
        assert post.rate == pytest.approx(1.0, abs=1e-10)

    def test_shape_increment_exact(self, rng):
        data = random_dataset(rng, 17, 3)
        post = fit_posterior(data, unit_prior(3))
        assert post.shape - 1.0 == 17 / 2

    def test_precision_increment(self, rng):
        data = random_dataset(rng, 12, 4)
        post = fit_posterior(data, unit_prior(4))
        np.testing.assert_allclose(
            post.lam.entries - np.eye(4), data.X.T @ data.X, atol=1e-10
        )

    def test_batch_equals_sequential(self, rng):
        for _ in range(20):
            data = random_dataset(rng, 10, 3)
            full = fit_posterior(data, unit_prior(3))
            m = 4
            first = GlmDataset(y=data.y[:m], X=data.X[:m], P=SpdMatrix.identity(m))
            second = GlmDataset(y=data.y[m:], X=data.X[m:], P=SpdMatrix.identity(10 - m))
            seq = fit_posterior(second, fit_posterior(first, unit_prior(3)))
            np.testing.assert_allclose(seq.mu, full.mu, atol=1e-8)
            np.testing.assert_allclose(seq.lam.entries, full.lam.entries, atol=1e-8)
            assert seq.shape == full.shape
            assert seq.rate == pytest.approx(full.rate, abs=1e-8)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            fit_posterior(random_dataset(rng, 5, 2), unit_prior(3))

    def test_rate_matches_exact_rational(self):
        # Near-flat prior, large signal, tiny noise: b_0 + (y'y + mu_0' Lam_0 mu_0
        # - mu_n' Lam_n mu_n) / 2 cancels about 8 digits here.
        rng = np.random.default_rng(4)
        n, p = 50, 3
        X = rng.standard_normal((n, p))
        y = X @ np.full(p, 100.0) + 1e-6 * rng.standard_normal(n)
        prior = reference_prior(p)
        post = fit_posterior(GlmDataset(y=y, X=X), prior)

        Xf = [[Fraction(v) for v in row] for row in X.tolist()]
        yf = [Fraction(v) for v in y.tolist()]
        lam_0 = [[Fraction(v) for v in row] for row in prior.lam.entries.tolist()]
        mu_0 = [Fraction(v) for v in prior.mu.tolist()]
        lam_n = [[sum(row[a] * row[b] for row in Xf) + lam_0[a][b] for b in range(p)]
                 for a in range(p)]
        rhs = [sum(row[a] * yi for row, yi in zip(Xf, yf))
               + sum(lam_0[a][b] * mu_0[b] for b in range(p)) for a in range(p)]
        mu_n = solve_exact(lam_n, rhs)
        resid = [yi - sum(row[a] * mu_n[a] for a in range(p)) for row, yi in zip(Xf, yf)]
        d = [mu_n[a] - mu_0[a] for a in range(p)]
        b_n = Fraction(prior.rate) + (
            sum(r * r for r in resid)
            + sum(d[a] * lam_0[a][b] * d[b] for a in range(p) for b in range(p))
        ) / 2
        assert post.rate == pytest.approx(float(b_n), rel=1e-12, abs=0.0)


class TestComplexity:
    def test_prior_equals_posterior(self):
        prior = unit_prior(2)
        assert complexity(prior, prior) == 0.0

    def test_hand_example_value(self):
        post = fit_posterior(hand_dataset(), unit_prior(1))
        assert complexity(unit_prior(1), post) == pytest.approx(0.5537479954644312, abs=1e-10)

    def test_delegates_to_kl(self, rng):
        prior = unit_prior(3)
        post = fit_posterior(random_dataset(rng, 15, 3), prior)
        assert complexity(prior, post) == kl_normal_gamma(post, prior)


class TestAccuracy:
    def test_hand_example_value(self):
        post = fit_posterior(hand_dataset(), unit_prior(1))
        expected = (
            0.5 * (digamma(1.5) - math.log(2.0))
            - 0.5 * LN_2PI
            - 0.5 * (0.75 * 1.0 + 0.5)
        )
        assert accuracy(hand_dataset(), post) == pytest.approx(expected, abs=1e-12)

    def test_matches_posterior_sampling(self, rng):
        data = random_dataset(rng, 8, 2)
        post = fit_posterior(data, unit_prior(2))
        betas, taus = sample_ng(post, RngStream(21), size=100_000)
        # Log-likelihood of y under each posterior draw, P = identity.
        resid = data.y[None, :] - betas @ data.X.T
        quad = np.sum(resid * resid, axis=1)
        n = data.n
        ll = 0.5 * n * np.log(taus) - 0.5 * n * LN_2PI - 0.5 * taus * quad
        se = ll.std(ddof=1) / math.sqrt(len(ll))
        assert abs(accuracy(data, post) - ll.mean()) < 3.0 * se

    def test_zero_residual_leaves_trace_term_only(self, rng):
        X = rng.standard_normal((5, 2))
        post = NormalGammaParams(mu=[0.4, -1.2], lam=random_spd(rng, 2),
                                 shape=3.0, rate=2.0)
        data = GlmDataset(y=X @ post.mu, X=X, P=SpdMatrix.identity(5))
        trace = float(np.trace(np.linalg.solve(post.lam.entries, X.T @ X)))
        expected = (
            -0.5 * 5 * LN_2PI
            + 0.5 * 5 * (digamma(post.shape) - math.log(post.rate))
            - 0.5 * trace
        )
        assert accuracy(data, post) == pytest.approx(expected, abs=1e-12)


class TestLogModelEvidence:
    def test_decomposition_matches_direct(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 30))
            p = int(rng.integers(1, min(n, 6) + 1))
            data = random_dataset(rng, n, p)
            fit = log_model_evidence(data, unit_prior(p))
            direct = _direct_lme(data, fit.prior, fit.posterior)
            assert fit.quality.lme == pytest.approx(direct, abs=1e-8)
            assert fit.quality.lme == pytest.approx(
                fit.quality.accuracy - fit.quality.complexity, abs=1e-10
            )

    def test_direct_form_matches_2d_quadrature(self):
        data = hand_dataset()
        fit = log_model_evidence(data, unit_prior(1))

        def integrand(beta, tau):
            like = math.sqrt(tau / (2 * math.pi)) * math.exp(-0.5 * tau * (2.0 - beta) ** 2)
            prior_beta = math.sqrt(tau / (2 * math.pi)) * math.exp(-0.5 * tau * beta**2)
            prior_tau = math.exp(-tau)
            return like * prior_beta * prior_tau

        evidence, _ = integrate.dblquad(integrand, 1e-9, 60, lambda t: -25, lambda t: 25)
        assert fit.quality.lme == pytest.approx(math.log(evidence), abs=1e-4)

    def test_refit_with_own_posterior_increases_evidence(self, rng):
        improved = 0
        for _ in range(20):
            data = random_dataset(rng, 20, 3)
            first = log_model_evidence(data, unit_prior(3))
            second = log_model_evidence(data, first.posterior)
            improved += second.quality.lme > first.quality.lme
        # Empirical tendency, not a theorem: report-style check.
        assert improved >= 18

    def test_doubling_data_increases_precision_and_complexity(self, rng):
        data = random_dataset(rng, 10, 2)
        doubled = GlmDataset(
            y=np.concatenate([data.y, data.y]),
            X=np.vstack([data.X, data.X]),
            P=SpdMatrix.identity(20),
        )
        f1 = log_model_evidence(data, unit_prior(2))
        f2 = log_model_evidence(doubled, unit_prior(2))
        diff = f2.posterior.lam.entries - f1.posterior.lam.entries
        SpdMatrix(0.5 * (diff + diff.T))  # Loewner order: difference is SPD
        assert f2.quality.complexity > f1.quality.complexity


class TestColoredNoise:
    """AR(1) noise precision against the dense X'PX, X'Py and ln|P| formulas."""

    def make(self, rng, n=15, p=3, rho=0.6):
        X = rng.standard_normal((n, p))
        P = ar1_precision(n, rho)
        noise = np.linalg.cholesky(np.linalg.inv(P)) @ rng.standard_normal(n)
        return X @ rng.standard_normal(p) + noise, X, P

    def prior(self, rng, p=3):
        return NormalGammaParams(mu=rng.standard_normal(p), lam=random_spd(rng, p),
                                 shape=2.0, rate=1.5)

    def test_posterior(self, rng):
        y, X, P = self.make(rng)
        prior = self.prior(rng)
        post = fit_posterior(GlmDataset(y=y, X=X, P=SpdMatrix(P)), prior)
        expected, _, _ = dense_fit(y, X, P, prior)
        np.testing.assert_allclose(post.mu, expected.mu, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(post.lam.entries, expected.lam.entries, rtol=1e-10)
        assert post.shape == expected.shape
        assert post.rate == pytest.approx(expected.rate, rel=1e-10)

    def test_accuracy_and_both_evidence_paths(self, rng):
        y, X, P = self.make(rng)
        prior = self.prior(rng)
        data = GlmDataset(y=y, X=X, P=SpdMatrix(P))
        fit = log_model_evidence(data, prior)
        _, acc, lme = dense_fit(y, X, P, prior)
        assert data.logdet_P == pytest.approx(np.linalg.slogdet(P)[1], rel=1e-12)
        assert accuracy(data, fit.posterior) == pytest.approx(acc, rel=1e-10)
        assert fit.quality.lme == pytest.approx(lme, rel=1e-10)
        assert _direct_lme(data, prior, fit.posterior) == pytest.approx(lme, rel=1e-10)

    def test_cv_matches_block_diagonal_reference(self, rng):
        p = 2
        raw = [self.make(rng, n=n, p=p, rho=rho)
               for n, rho in ((12, 0.3), (9, 0.7), (14, -0.5))]
        expected = np.zeros(3)
        for i, held_out in enumerate(raw):
            train = [s for j, s in enumerate(raw) if j != i]
            trained, _, _ = dense_fit(np.concatenate([s[0] for s in train]),
                                      np.vstack([s[1] for s in train]),
                                      linalg.block_diag(*[s[2] for s in train]),
                                      reference_prior(p))
            _, acc, lme = dense_fit(*held_out, trained)
            expected += (lme, acc, acc - lme)
        got = cv_model_quality([GlmDataset(y=y, X=X, P=SpdMatrix(P)) for y, X, P in raw])
        np.testing.assert_allclose((got.lme, got.accuracy, got.complexity), expected,
                                   rtol=1e-9)


class TestModelQuality:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ModelQuality(lme=0.0, accuracy=1.0, complexity=0.5)
        with pytest.raises(ValueError):
            ModelQuality(lme=1.0, accuracy=0.0, complexity=-1.0)


class TestCrossValidatedEvidence:
    def make_sessions(self, rng, n_sessions=3, n=12, p=2):
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        return [
            GlmDataset(y=X @ beta + rng.standard_normal(n), X=X, P=SpdMatrix.identity(n))
            for _ in range(n_sessions)
        ]

    def test_requires_two_sessions(self, rng):
        with pytest.raises(ValueError):
            cv_log_model_evidence(self.make_sessions(rng, n_sessions=1))

    def test_session_order_invariance(self, rng):
        sessions = self.make_sessions(rng, n_sessions=4)
        a = cv_log_model_evidence(sessions)
        b = cv_log_model_evidence(sessions[::-1])
        assert a == pytest.approx(b, abs=1e-10)

    def test_quality_decomposition(self, rng):
        q = cv_model_quality(self.make_sessions(rng))
        assert q.lme == pytest.approx(q.accuracy - q.complexity, abs=1e-10)

    def test_mismatched_columns_rejected(self, rng):
        sessions = self.make_sessions(rng, p=2)
        sessions.append(self.make_sessions(rng, p=3)[0])
        with pytest.raises(ValueError):
            cv_log_model_evidence(sessions)

    def test_unknown_policy_rejected(self, rng):
        with pytest.raises(ValueError):
            cv_log_model_evidence(self.make_sessions(rng), prior_policy="sequential")

    def test_reference_prior_values(self):
        prior = reference_prior(3)
        assert prior.shape == 1e-3
        assert prior.rate == 1e-3
        np.testing.assert_allclose(prior.lam.entries, 1e-6 * np.eye(3))


class TestDegenerateRate:
    def test_error_type_exists(self):
        # b_n <= 0 cannot occur in exact arithmetic; the guard still exists.
        assert issubclass(DegeneratePosteriorError, ArithmeticError)


def column_prior(prior, r):
    """Column r of a batched normal-gamma as a single distribution."""
    return NormalGammaParams(mu=prior.mu[:, r], lam=prior.lam, shape=prior.shape,
                             rate=prior.rate[r])


def assert_columns_match(batch, single, scale):
    """Batch entries equal the R = 1 results to rtol 1e-12 of their terms' size."""
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12 * scale)


class TestResponseMatrix:
    """R responses sharing one design are R single fits done once."""

    @given(k=st.integers(1, 6), extra=st.integers(0, 12), R=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_columns_match_single_fits(self, k, extra, R, seed):
        rng = np.random.default_rng(seed)
        n = k + extra
        X = rng.standard_normal((n, k))
        Y = X @ rng.standard_normal((k, R)) + rng.standard_normal((n, R))
        prior = NormalGammaParams(mu=rng.standard_normal((k, R)), lam=random_spd(rng, k),
                                  shape=rng.uniform(0.5, 3.0), rate=rng.uniform(0.5, 3.0, R))
        data = GlmDataset(y=Y, X=X)
        fit = log_model_evidence(data, prior)
        post, q = fit.posterior, fit.quality
        assert post.mu.shape == (k, R) and post.rate.shape == (R,)
        assert q.lme.shape == q.accuracy.shape == q.complexity.shape == (R,)
        for r in range(R):
            single = log_model_evidence(GlmDataset(y=Y[:, r], X=X), column_prior(prior, r))
            sq = single.quality
            np.testing.assert_allclose(post.mu[:, r], single.posterior.mu, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(single.posterior.mu)))
            np.testing.assert_array_equal(post.lam.entries, single.posterior.lam.entries)
            assert post.shape == single.posterior.shape
            scale = max(1.0, abs(sq.accuracy), abs(sq.complexity))
            assert_columns_match(post.rate[r], single.posterior.rate, single.posterior.rate)
            assert_columns_match(q.accuracy[r], sq.accuracy, scale)
            assert_columns_match(q.complexity[r], sq.complexity, scale)
            assert_columns_match(q.lme[r], sq.lme, scale)

    def test_single_prior_broadcasts_over_columns(self, rng):
        X = rng.standard_normal((9, 3))
        Y = rng.standard_normal((9, 4))
        fit = log_model_evidence(GlmDataset(y=Y, X=X), unit_prior(3))
        for r in range(4):
            single = log_model_evidence(GlmDataset(y=Y[:, r], X=X), unit_prior(3))
            assert fit.quality.lme[r] == pytest.approx(single.quality.lme, rel=1e-12)

    def test_training_posterior_matches_stacked_rows(self, rng):
        # Unequal n and a per-session AR(1) noise precision.
        p, R = 3, 4
        sessions = []
        for n, rho in ((11, 0.4), (7, -0.3), (15, 0.8), (9, 0.0)):
            X = rng.standard_normal((n, p))
            Y = X @ rng.standard_normal((p, R)) + rng.standard_normal((n, R))
            sessions.append(GlmDataset(y=Y, X=X, P=SpdMatrix(ar1_precision(n, rho))))
        prior = reference_prior(p)
        for i in range(len(sessions)):
            train = [s for j, s in enumerate(sessions) if j != i]
            got = fit_posterior(train, prior)
            stacked = fit_posterior(GlmDataset(y=np.concatenate([s.y for s in train]),
                                               X=np.vstack([s.X for s in train])), prior)
            np.testing.assert_allclose(got.mu, stacked.mu, rtol=1e-12)
            np.testing.assert_allclose(got.lam.entries, stacked.lam.entries, rtol=1e-12)
            assert got.shape == stacked.shape
            np.testing.assert_allclose(got.rate, stacked.rate, rtol=1e-12)

    def test_cv_columns_match_single_cv(self, rng):
        p, R = 2, 3
        ys, Xs = [], []
        for n in (8, 12, 10):
            Xs.append(rng.standard_normal((n, p)))
            ys.append(Xs[-1] @ rng.standard_normal((p, R)) + rng.standard_normal((n, R)))
        got = cv_model_quality(GlmDataset(y=y, X=X) for y, X in zip(ys, Xs))
        for r in range(R):
            single = cv_model_quality(GlmDataset(y=y[:, r], X=X) for y, X in zip(ys, Xs))
            scale = max(1.0, abs(single.accuracy), abs(single.complexity))
            assert_columns_match(got.lme[r], single.lme, scale)
            assert_columns_match(got.accuracy[r], single.accuracy, scale)
            assert_columns_match(got.complexity[r], single.complexity, scale)

    def test_sessions_must_agree_on_response_count(self, rng):
        X = rng.standard_normal((6, 2))
        sessions = [GlmDataset(y=rng.standard_normal((6, 3)), X=X),
                    GlmDataset(y=rng.standard_normal((6, 2)), X=X)]
        with pytest.raises(ValueError, match="response count"):
            cv_model_quality(sessions)
        with pytest.raises(ValueError, match="response counts"):
            fit_posterior(sessions, unit_prior(2))

    def test_non_finite_response_rejected(self, rng):
        Y = rng.standard_normal((5, 4))
        Y[3, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GlmDataset(y=Y, X=rng.standard_normal((5, 2)))

    def test_overflow_names_column(self, rng):
        X = np.ones((2, 1))
        Y = np.array([[1.0, 1e308, 2.0], [0.5, 1.0, 3.0]])
        with pytest.raises(DegeneratePosteriorError, match="overflow.*column 1"):
            fit_posterior(GlmDataset(y=Y, X=X), unit_prior(1))

    def test_forced_evidence_failure_names_column(self, rng, monkeypatch):
        direct = glm._direct_lme

        def off_in_column_2(data, prior, posterior):
            value = np.array(direct(data, prior, posterior), dtype=float)
            value[..., 2] += 1.0
            return value

        monkeypatch.setattr(glm, "_direct_lme", off_in_column_2)
        X = rng.standard_normal((8, 2))
        with pytest.raises(EvidenceConsistencyError, match="column 2"):
            log_model_evidence(GlmDataset(y=rng.standard_normal((8, 4)), X=X), unit_prior(2))
        with pytest.raises(EvidenceConsistencyError, match="order 0: column 2"):
            run_poly_sweep(PolySweepConfig(n_simulations=4, p_max=6, master_seed=1))
        sessions = [GlmDataset(y=rng.standard_normal((8, 3)), X=X) for _ in range(3)]
        with pytest.raises(EvidenceConsistencyError, match="fold 0: column 2"):
            cv_model_quality(sessions)
