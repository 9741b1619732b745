import math
import tracemalloc
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
    SpdMatrix,
    accuracy,
    complexity,
    cv_model_quality,
    fit_posterior,
    kl_normal_gamma,
    log_model_evidence,
    sample_ng,
)
from ngbayes import glm
from ngbayes.divergence import NegativeDivergenceError
from ngbayes.experiments import (
    PolySweepConfig, build_poly_design, equally_spaced, run_poly_sweep, simulate_polynomial,
)
from ngbayes.glm import (
    DegeneratePosteriorError,
    EvidenceConsistencyError,
    _direct_lme,
    nested_log_model_evidence,
    reference_prior,
)
from ngbayes.numerics import digamma

from conftest import random_spd, stream

LN_2PI = math.log(2.0 * math.pi)


def unit_prior(p):
    return NormalGammaParams(mu=np.zeros(p), lam=SpdMatrix.identity(p), shape=1.0, rate=1.0)


def hand_dataset():
    return GlmDataset(y=[2.0], X=[[1.0]], P=SpdMatrix.identity(1))


def random_problem(rng, n, p):
    """Responses y and design X of a random linear model with unit noise."""
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    return X @ beta + rng.standard_normal(n), X


def random_dataset(rng, n, p):
    return GlmDataset(*random_problem(rng, n, p), P=SpdMatrix.identity(n))


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
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GlmDataset(y=[1.0, 2.0], X=[[1.0]], P=SpdMatrix.identity(1))
        with pytest.raises(ValueError):
            GlmDataset(y=[1.0], X=[[1.0]], P=SpdMatrix.identity(2))

    @pytest.mark.parametrize("with_p", [False, True])
    def test_sessions_equal_separate_datasets(self, rng, with_p):
        n = 9
        X = rng.standard_normal((n, 3))
        P = SpdMatrix(ar1_precision(n, 0.4)) if with_p else None
        ys = [rng.standard_normal(n), rng.standard_normal((n, 4)), rng.standard_normal((n, 1))]
        shared = GlmDataset.sessions(ys, X, P)
        assert len(shared) == len(ys)
        for dataset, y in zip(shared, ys):
            alone = GlmDataset(y=y, X=X, P=P)
            assert type(dataset) is GlmDataset and not dataset.c.flags.writeable
            for name in ("r", "c", "e", "xtx", "n", "p", "logdet_P"):
                assert np.array_equal(getattr(dataset, name), getattr(alone, name)), name

    def test_sessions_check_every_response(self):
        with pytest.raises(ValueError, match="y has shape"):
            GlmDataset.sessions([[1.0, 2.0], [1.0]], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="finite"):
            GlmDataset.sessions([[1.0, 2.0], [1.0, np.inf]], [[1.0], [2.0]])


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
        y, X = random_problem(rng, 12, 4)
        post = fit_posterior(GlmDataset(y=y, X=X, P=SpdMatrix.identity(12)), unit_prior(4))
        np.testing.assert_allclose(post.lam.entries - np.eye(4), X.T @ X, atol=1e-10)

    def test_batch_equals_sequential(self, rng):
        for _ in range(20):
            y, X = random_problem(rng, 10, 3)
            full = fit_posterior(GlmDataset(y=y, X=X, P=SpdMatrix.identity(10)), unit_prior(3))
            m = 4
            first = GlmDataset(y=y[:m], X=X[:m], P=SpdMatrix.identity(m))
            second = GlmDataset(y=y[m:], X=X[m:], P=SpdMatrix.identity(10 - m))
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
        y, X = random_problem(rng, 8, 2)
        data = GlmDataset(y=y, X=X, P=SpdMatrix.identity(8))
        post = fit_posterior(data, unit_prior(2))
        betas, taus = sample_ng(post, stream(21), size=100_000)
        # Log-likelihood of y under each posterior draw, P = identity.
        resid = y[None, :] - betas @ X.T
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

    def test_gap_sees_a_wrong_mu_n(self, rng, monkeypatch):
        # Accuracy and complexity take their residual at the factor's mu_n, while b_n comes
        # from the least-squares residual, so a mu_n off by d opens the gap by
        # (a_n / b_n) d^T Lambda_n d / 2 in every kind of fit. A cv fold's complexity reads its
        # training fit's mu_n too, against the full fit's, so the gap sees that one alone.
        factor = glm._factor

        def off_by_1e_3(*args, **kwargs):
            f = factor(*args, **kwargs)
            return f._replace(mu_n=f.mu_n * (1.0 + 1e-3))

        calls = []

        def first_off_by_1e_3(*args, **kwargs):  # the first factor cv makes: its training fits
            calls.append(factor(*args, **kwargs))
            f = calls[-1]
            return f._replace(mu_n=f.mu_n * (1.0 + 1e-3)) if len(calls) == 1 else f

        X = rng.standard_normal((40, 3))
        data = GlmDataset(y=X @ [1.0, -2.0, 0.5] + 0.1 * rng.standard_normal(40), X=X)
        sessions = GlmDataset.sessions(X @ [1.0, -2.0, 0.5] + 0.1 * rng.standard_normal((3, 40)),
                                       X)
        assert log_model_evidence(data, unit_prior(3)).diagnostics.evidence_gap[0, 0] < 1e-9
        monkeypatch.setattr(glm, "_factor", off_by_1e_3)
        with pytest.raises(EvidenceConsistencyError, match="column 0"):
            log_model_evidence(data, unit_prior(3))
        with pytest.raises(EvidenceConsistencyError, match="order 2: column 0"):
            nested_log_model_evidence(data, unit_prior(3), [2])
        with pytest.raises(EvidenceConsistencyError, match="fold 0: column 0"):
            cv_model_quality(sessions)
        monkeypatch.setattr(glm, "_factor", first_off_by_1e_3)
        with pytest.raises(EvidenceConsistencyError, match="fold 0: column 0"):
            cv_model_quality(sessions)

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
        y, X = random_problem(rng, 10, 2)
        data = GlmDataset(y=y, X=X, P=SpdMatrix.identity(10))
        doubled = GlmDataset(y=np.concatenate([y, y]), X=np.vstack([X, X]),
                             P=SpdMatrix.identity(20))
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
        got, _ = cv_model_quality([GlmDataset(y=y, X=X, P=SpdMatrix(P)) for y, X, P in raw])
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
            cv_model_quality(self.make_sessions(rng, n_sessions=1))

    def test_session_order_invariance(self, rng):
        sessions = self.make_sessions(rng, n_sessions=4)
        a = cv_model_quality(sessions)[0].lme
        b = cv_model_quality(sessions[::-1])[0].lme
        assert a == pytest.approx(b, abs=1e-10)

    def test_quality_decomposition(self, rng):
        q, _ = cv_model_quality(self.make_sessions(rng))
        assert q.lme == pytest.approx(q.accuracy - q.complexity, abs=1e-10)

    def test_large_sessions(self):
        # Totals near 7e5: a separate running sum of lme missed acc - com by over 1e-10.
        rng = np.random.default_rng(5)
        n, p, R = 10**5, 3, 4
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal((p, R))
        sessions = [GlmDataset(y=X @ beta + rng.standard_normal((n, R)), X=X) for _ in range(5)]
        q, diagnostics = cv_model_quality(sessions)
        np.testing.assert_array_equal(q.lme, q.accuracy - q.complexity)
        assert np.all(np.abs(q.lme) > 1e5)
        assert diagnostics.evidence_gap.shape == diagnostics.mu_error_bound.shape == (5, R)
        assert diagnostics.trace_residual.shape == (5,)
        assert np.all(diagnostics.mu_error_bound <= glm.MU_ERROR_TOL)

    def test_mismatched_columns_rejected(self, rng):
        sessions = self.make_sessions(rng, p=2)
        sessions.append(self.make_sessions(rng, p=3)[0])
        with pytest.raises(ValueError):
            cv_model_quality(sessions)

    def test_reference_prior_values(self):
        prior = reference_prior(3)
        assert prior.shape == 1e-3
        assert prior.rate == 1e-3
        np.testing.assert_allclose(prior.lam.entries, 1e-6 * np.eye(3))

    def test_reference_prior_built_once_per_p(self, rng):
        prior = reference_prior(3)
        arrays = (prior.mu, prior.lam.entries, prior.lam.chol)
        before = [array.copy() for array in arrays]
        cv_model_quality(self.make_sessions(rng, p=3))
        assert reference_prior(3) is prior and reference_prior(2) is not prior
        for array, copy in zip(arrays, before):
            assert not array.flags.writeable
            np.testing.assert_array_equal(array, copy)
        assert (prior.shape, prior.rate) == (1e-3, 1e-3)

    @pytest.mark.parametrize("R", [1, 4])
    @pytest.mark.parametrize("single_at", [0, 2, 4])
    def test_stacked_folds_equal_fold_by_fold_fits(self, R, single_at):
        # Unequal n, two sessions with n < p (their r zero-padded to p rows), AR(1) whitening
        # on three, and one single-response (n,) session at position single_at.
        rng = np.random.default_rng(10 * R + single_at)
        p = 4
        beta = rng.standard_normal((p, R))
        sessions, raw = [], []
        for i, (n, rho) in enumerate(((9, 0.5), (3, None), (12, -0.4), (2, 0.3), (7, None))):
            X = rng.standard_normal((n, p))
            y = X @ beta + rng.standard_normal((n, R))
            P = np.eye(n) if rho is None else ar1_precision(n, rho)
            sessions.append(GlmDataset(y=y[:, 0] if i == single_at else y, X=X,
                                       P=None if rho is None else SpdMatrix(P)))
            raw.append((np.repeat(y[:, :1], R, axis=1) if i == single_at else y, X, P))
        got, diagnostics = cv_model_quality(sessions)
        folds = [log_model_evidence(held_out, fit_posterior(sessions[:i] + sessions[i + 1:],
                                                            reference_prior(p))).quality
                 for i, held_out in enumerate(sessions)]
        want = {name: sum(getattr(q, name) for q in folds)
                for name in ("lme", "accuracy", "complexity")}
        assert got.lme.shape == (R,) and diagnostics.evidence_gap.shape == (5, R)
        scale = max(1.0, np.max(np.abs(want["accuracy"])), np.max(np.abs(want["complexity"])))
        for name, value in want.items():
            np.testing.assert_allclose(getattr(got, name), value, rtol=1e-12, atol=1e-12 * scale)

        def joint_lme(parts):  # one fit of the concatenated sessions
            y, X = (np.concatenate([part[j] for part in parts]) for j in (0, 1))
            P = SpdMatrix(linalg.block_diag(*[part[2] for part in parts]))
            return log_model_evidence(GlmDataset(y=y, X=X, P=P), reference_prior(p)).quality.lme

        # The chain rule: fold i's evidence is ln p(y_i | y_-i) = LME(all) - LME(all but i).
        chain = sum(joint_lme(raw) - joint_lme(raw[:i] + raw[i + 1:]) for i in range(5))
        np.testing.assert_allclose(got.lme, chain, rtol=1e-12, atol=1e-12 * scale)

    def test_failure_names_the_failing_fold(self, monkeypatch):
        # Every design but session 3's is near-collinear, so the largest mu_n error bound sits
        # away from fold 0: in fold 3's training fit, the one without session 3.
        rng = np.random.default_rng(0)
        sessions = []
        for i in range(5):
            X = rng.standard_normal((10, 3))
            if i != 3:
                X[:, 2] = X[:, 1] + 1e-4 * rng.standard_normal(10)
            sessions.append(GlmDataset(y=X @ rng.standard_normal((3, 4))
                                       + rng.standard_normal((10, 4)), X=X))
        bound = cv_model_quality(sessions)[1].mu_error_bound
        fold, column = np.unravel_index(np.argmax(bound), bound.shape)
        largest, second = np.sort(bound, axis=None)[:-3:-1]
        assert fold != 0 and largest > second
        monkeypatch.setattr(glm, "MU_ERROR_TOL", 0.5 * (largest + second))
        with pytest.raises(DegeneratePosteriorError,
                           match=f"fold {fold}: posterior lost accuracy in column {column}:"):
            cv_model_quality(sessions)

    def test_full_fit_failure_names_the_full_fit(self):
        # y is orthogonal to X, so each session's residual e = ||y||^2 is 0.45 of the largest
        # float: four halves sum within the float range, five past it. Every training fit passes
        # its checks, and the full fit's b_n overflows, named as the full fit and not as a fold.
        y = math.sqrt(0.225 * np.finfo(float).max) * np.array([1.0, -1.0])
        sessions = GlmDataset.sessions([y] * 5, np.ones((2, 1)))
        assert np.all(np.isfinite(cv_model_quality(sessions[:4])[0].lme))
        with pytest.raises(DegeneratePosteriorError, match="^fit failed at the full fit: "
                                                           "posterior overflowed or degenerated "
                                                           "in column 0: b_n = inf"):
            cv_model_quality(sessions)

    def test_full_fit_sums_half_residuals(self):
        # Each session's residual is 0.22 of the largest float: five sum past it, but b_n sums
        # their halves, so the full fit and every fold stay finite.
        y = math.sqrt(0.11 * np.finfo(float).max) * np.array([1.0, -1.0])
        quality, diagnostics = cv_model_quality(GlmDataset.sessions([y] * 5, np.ones((2, 1))))
        assert np.isfinite(quality.lme)
        assert np.all(diagnostics.mu_error_bound <= glm.MU_ERROR_TOL)

    def test_factorizations_do_not_grow_with_sessions(self, rng, monkeypatch):
        X = rng.standard_normal((8, 2))
        studies = {S: [GlmDataset(y=rng.standard_normal((8, 3)), X=X) for _ in range(S)]
                   for S in (3, 7)}
        qr, calls = np.linalg.qr, []

        def counted_qr(*args, **kwargs):
            calls.append(args)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        counts = {}
        for S, sessions in studies.items():
            calls.clear()
            cv_model_quality(sessions)
            counts[S] = len(calls)
        assert counts[3] == counts[7]


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

    def test_single_response_broadcasts_over_prior_batch(self, rng):
        X, y = rng.standard_normal((8, 2)), rng.standard_normal(8)
        prior = NormalGammaParams(mu=rng.standard_normal((2, 3)), lam=random_spd(rng, 2),
                                  shape=1.5, rate=rng.uniform(0.5, 3.0, 3))
        fit = log_model_evidence(GlmDataset(y=y, X=X), prior)
        assert fit.quality.lme.shape == (3,)
        for r in range(3):
            single = log_model_evidence(GlmDataset(y=y, X=X), column_prior(prior, r)).quality
            scale = max(1.0, abs(single.accuracy), abs(single.complexity))
            assert_columns_match(fit.quality.lme[r], single.lme, scale)

    def test_prior_batch_must_match_response_count(self, rng):
        prior = NormalGammaParams(mu=np.zeros((2, 3)), lam=SpdMatrix.identity(2), shape=1.0,
                                  rate=np.ones(3))
        data = GlmDataset(y=rng.standard_normal((8, 4)), X=rng.standard_normal((8, 2)))
        with pytest.raises(ValueError, match=r"response count \(3,\).*response counts \[\(4,\)\]"):
            log_model_evidence(data, prior)

    def test_training_posterior_matches_stacked_rows(self, rng):
        # Unequal n and a per-session AR(1) noise precision.
        p, R = 3, 4
        sessions = []
        for n, rho in ((11, 0.4), (7, -0.3), (15, 0.8), (9, 0.0)):
            X = rng.standard_normal((n, p))
            Y = X @ rng.standard_normal((p, R)) + rng.standard_normal((n, R))
            sessions.append((Y, X, ar1_precision(n, rho)))
        prior = reference_prior(p)
        for i in range(len(sessions)):
            train = [s for j, s in enumerate(sessions) if j != i]
            got = fit_posterior([GlmDataset(y=Y, X=X, P=SpdMatrix(P)) for Y, X, P in train],
                                prior)
            stacked = fit_posterior(GlmDataset(y=np.concatenate([Y for Y, _, _ in train]),
                                               X=np.vstack([X for _, X, _ in train]),
                                               P=SpdMatrix(linalg.block_diag(
                                                   *[P for _, _, P in train]))), prior)
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
        got, _ = cv_model_quality(GlmDataset(y=y, X=X) for y, X in zip(ys, Xs))
        for r in range(R):
            single, _ = cv_model_quality(GlmDataset(y=y[:, r], X=X) for y, X in zip(ys, Xs))
            scale = max(1.0, abs(single.accuracy), abs(single.complexity))
            assert_columns_match(got.lme[r], single.lme, scale)
            assert_columns_match(got.accuracy[r], single.accuracy, scale)
            assert_columns_match(got.complexity[r], single.complexity, scale)

    @pytest.mark.parametrize("names", ["aba", "ab", "ba"])
    def test_single_response_session_joins_every_column(self, rng, names):
        # a holds 3 responses, b one: column r of the mix is the cv with a[:, r] in a's place.
        Xa, Xb = rng.standard_normal((9, 2)), rng.standard_normal((7, 2))
        Ya, yb = rng.standard_normal((9, 3)), rng.standard_normal(7)

        def sessions(y_a):
            return [GlmDataset(y=y_a, X=Xa) if n == "a" else GlmDataset(y=yb, X=Xb)
                    for n in names]

        got, diagnostics = cv_model_quality(sessions(Ya))
        assert got.lme.shape == (3,)
        assert diagnostics.evidence_gap.shape == (len(names), 3)
        for r in range(3):
            single, _ = cv_model_quality(sessions(Ya[:, r]))
            scale = max(1.0, abs(single.accuracy), abs(single.complexity))
            assert_columns_match(got.lme[r], single.lme, scale)
            assert_columns_match(got.accuracy[r], single.accuracy, scale)
            assert_columns_match(got.complexity[r], single.complexity, scale)

    def test_single_response_session_joins_posterior_columns(self, rng):
        Xa, Xb = rng.standard_normal((9, 2)), rng.standard_normal((7, 2))
        Ya, yb = rng.standard_normal((9, 3)), rng.standard_normal(7)
        prior = unit_prior(2)
        got = fit_posterior([GlmDataset(y=Ya, X=Xa), GlmDataset(y=yb, X=Xb)], prior)
        assert got.mu.shape == (2, 3) and got.rate.shape == (3,)
        for r in range(3):
            single = fit_posterior([GlmDataset(y=Ya[:, r], X=Xa), GlmDataset(y=yb, X=Xb)],
                                   prior)
            assert_columns_match(got.mu[:, r], single.mu, np.max(np.abs(single.mu)))
            np.testing.assert_array_equal(got.lam.entries, single.lam.entries)
            assert got.shape == single.shape
            assert_columns_match(got.rate[r], single.rate, single.rate)

    def test_nested_single_response_keeps_its_shape(self, rng):
        X, y = build_poly_design(np.linspace(-1.0, 1.0, 12), 3), rng.standard_normal(12)
        q, diagnostics = nested_log_model_evidence(GlmDataset(y=y, X=X), unit_prior(4),
                                                   np.arange(4))
        column, column_diagnostics = nested_log_model_evidence(
            GlmDataset(y=y[:, None], X=X), unit_prior(4), np.arange(4))
        for name in ("lme", "accuracy", "complexity"):
            assert getattr(q, name).shape == (4,)
            np.testing.assert_array_equal(getattr(q, name), getattr(column, name)[:, 0])
        assert diagnostics.evidence_gap.shape == diagnostics.mu_error_bound.shape == (4, 1)
        for got, want in zip(diagnostics, column_diagnostics):
            np.testing.assert_array_equal(got, want)

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
        direct = glm._direct_form

        def off_in_column_2(*terms):
            value = np.array(direct(*terms), dtype=float)
            value[..., 2] += 1.0
            return value

        monkeypatch.setattr(glm, "_direct_form", off_in_column_2)
        X = rng.standard_normal((8, 2))
        with pytest.raises(EvidenceConsistencyError, match="column 2"):
            log_model_evidence(GlmDataset(y=rng.standard_normal((8, 4)), X=X), unit_prior(2))
        with pytest.raises(EvidenceConsistencyError, match="order 0: column 2"):
            run_poly_sweep(PolySweepConfig(n_simulations=4, p_max=6, master_seed=1))
        sessions = [GlmDataset(y=rng.standard_normal((8, 3)), X=X) for _ in range(3)]
        with pytest.raises(EvidenceConsistencyError, match="fold 0: column 2"):
            cv_model_quality(sessions)

    @pytest.mark.parametrize("form", ["_gamma_kl_form", "_normal_kl_form"])
    def test_forced_complexity_failure_names_column(self, rng, monkeypatch, form):
        # The gamma form is clamped on its own and then in the sum, each named like the other
        # checks: a negative form fails whichever term carries it.
        original = getattr(glm, form)

        def negative_in_column_2(*terms):
            value = np.array(original(*terms), dtype=float)
            value[..., 2] -= 1e3
            return value

        monkeypatch.setattr(glm, form, negative_in_column_2)
        X = rng.standard_normal((8, 2))
        with pytest.raises(NegativeDivergenceError, match="^column 2: closed-form KL evaluated"):
            log_model_evidence(GlmDataset(y=rng.standard_normal((8, 4)), X=X), unit_prior(2))
        with pytest.raises(NegativeDivergenceError,
                           match="^fit failed at order 0: column 2: closed-form KL evaluated"):
            run_poly_sweep(PolySweepConfig(n_simulations=4, p_max=6, master_seed=1))
        sessions = [GlmDataset(y=rng.standard_normal((8, 3)), X=X) for _ in range(3)]
        with pytest.raises(NegativeDivergenceError,
                           match="^fit failed at fold 0: column 2: closed-form KL evaluated"):
            cv_model_quality(sessions)

    def test_gamma_cancellation_raises_named(self):
        # At a_0 = b_0 = 1e9 the gamma KL's terms cancel to a negative value. Both evidence
        # paths round the a_0-sized terms alike, so the gap misses it (n = 100: LME 2.7e-6 off
        # the 60-digit value, gap 3.1e-7); the gamma form's own clamp must catch it.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 4))
        y = X @ rng.standard_normal(4) + rng.standard_normal(100)
        prior = NormalGammaParams(mu=np.zeros(4), lam=SpdMatrix.identity(4), shape=1e9, rate=1e9)
        with pytest.raises(NegativeDivergenceError, match="^column 0: closed-form KL evaluated"):
            log_model_evidence(GlmDataset(y=y, X=X), prior)
        config = PolySweepConfig(n_simulations=30, p_max=6, master_seed=0)
        X = build_poly_design(equally_spaced(config.n_points), config.p_max)
        prior = NormalGammaParams(mu=np.zeros(X.shape[1]), lam=SpdMatrix.identity(X.shape[1]),
                                  shape=1e9, rate=1e9)
        with pytest.raises(NegativeDivergenceError,
                           match="^fit failed at order 0: column 0: closed-form KL evaluated"):
            nested_log_model_evidence(GlmDataset(y=simulate_polynomial(config), X=X), prior,
                                      np.arange(config.p_max + 1))

def leading_prior(lam, m, shape, rate):
    """The zero-mean prior on the first m columns: Lambda_0's leading block."""
    return NormalGammaParams(mu=np.zeros(m), lam=SpdMatrix(lam[:m, :m]), shape=shape, rate=rate)


class TestNestedFits:
    """Every order read from one factor equals a single fit of its leading columns."""

    @given(k=st.integers(1, 21), extra=st.integers(-20, 30), R=st.integers(1, 5),
           poly=st.booleans(), dependent=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_orders_match_single_fits(self, k, extra, R, poly, dependent, seed):
        # Rank deficient designs and ones with more columns than rows included.
        rng = np.random.default_rng(seed)
        n = max(1, k + extra)
        X = (build_poly_design(np.linspace(-1.0, 1.0, n), k - 1) if poly
             else rng.standard_normal((n, k)))
        if dependent < k:  # column `dependent` repeats a mix of the ones before it
            X[:, dependent] = X[:, :dependent] @ rng.standard_normal(dependent)
        Y = X @ rng.standard_normal((k, R)) + rng.standard_normal((n, R))
        lam, shape, rate = random_spd(rng, k).entries, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        q, diagnostics = nested_log_model_evidence(
            GlmDataset(y=Y, X=X), leading_prior(lam, k, shape, rate), np.arange(k))
        assert q.lme.shape == diagnostics.mu_error_bound.shape == (k, R)
        assert diagnostics.trace_residual.shape == (k,)
        for order in range(k):
            prior = leading_prior(lam, order + 1, shape, rate)
            single = log_model_evidence(GlmDataset(y=Y, X=X[:, :order + 1]), prior)
            for name in ("lme", "accuracy", "complexity"):
                np.testing.assert_allclose(getattr(q, name)[order],
                                           getattr(single.quality, name), rtol=1e-10)
            np.testing.assert_allclose(q.complexity[order],
                                       kl_normal_gamma(single.posterior, prior), rtol=1e-10)
            np.testing.assert_allclose(diagnostics.mu_error_bound[order],
                                       single.diagnostics.mu_error_bound[0], rtol=1e-6)

    def test_default_sweep_peak_is_mu_n_and_its_residual(self):
        # One call holds mu_n (S, k, R) and its residual a mu_n - b (S, 2k, R) of the stacked
        # [U_0; r]; one more copy of mu_n, in another layout, takes it to 1.4 times their bytes.
        config = PolySweepConfig()
        X = build_poly_design(equally_spaced(config.n_points), config.p_max)
        data, prior = GlmDataset(y=simulate_polynomial(config), X=X), unit_prior(X.shape[1])
        orders = np.arange(config.p_min, config.p_max + 1)
        mu_n = 8 * len(orders) * X.shape[1] * config.n_simulations  # bytes of (S, k, R)
        resid = 2 * mu_n  # (S, 2k, R)
        nested_log_model_evidence(data, prior, orders)
        tracemalloc.start()
        try:
            nested_log_model_evidence(data, prior, orders)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (mu_n + resid)

    def test_needs_zero_prior_mean(self, rng):
        data = GlmDataset(y=rng.standard_normal(6), X=rng.standard_normal((6, 2)))
        prior = NormalGammaParams(mu=[0.0, 1.0], lam=SpdMatrix.identity(2), shape=1.0, rate=1.0)
        with pytest.raises(ValueError, match="zero prior mean"):
            nested_log_model_evidence(data, prior, [0, 1])


class TestDiagnostics:
    def test_single_fit_reports_its_margins(self, rng):
        y, X = random_problem(rng, 20, 3)
        data = GlmDataset(y=y, X=X, P=SpdMatrix.identity(20))
        fit = log_model_evidence(data, unit_prior(3))
        d = fit.diagnostics
        direct = _direct_lme(data, fit.prior, fit.posterior)
        assert d.evidence_gap.shape == d.mu_error_bound.shape == (1, 1)
        assert d.trace_residual.shape == (1,)
        assert d.evidence_gap[0, 0] == pytest.approx(abs(fit.quality.lme - direct), abs=1e-13)
        lam_n = fit.posterior.lam.entries
        trace = np.trace(np.linalg.solve(lam_n, X.T @ X + np.eye(3))) - 3
        assert d.trace_residual[0] == pytest.approx(trace, abs=1e-12)
        # ||R_n^-1||_F^2 = tr(Lambda_n^-1), ||R_n||_F^2 = tr(Lambda_n), residual 2 (b_n - b_0).
        w2, r2 = np.trace(np.linalg.inv(lam_n)), np.trace(lam_n)
        mu, post = np.linalg.norm(fit.posterior.mu), fit.posterior
        scale = max(mu, math.sqrt(post.rate / (post.shape * r2)))
        bound = (np.finfo(float).eps * math.sqrt(w2 * r2)
                 * (mu + math.sqrt(w2 * 2.0 * (post.rate - 1.0))) / scale)
        assert d.mu_error_bound[0, 0] == pytest.approx(bound, rel=1e-10)

    def test_zero_data_has_zero_mu_error_bound(self, rng):
        fit = log_model_evidence(GlmDataset(y=np.zeros(6), X=rng.standard_normal((6, 2))),
                                 unit_prior(2))
        assert fit.diagnostics.mu_error_bound[0, 0] == 0.0

    @pytest.mark.parametrize("noise", [0.0, 1e-12])
    def test_fit_without_signal(self, rng, noise):
        # X^T y = 0 (up to rounding, or a 1e-12 signal): mu_n is too small to tell from zero,
        # so its error is judged against sqrt(b_n / a_n) / ||R_n||_F instead of ||mu_n||.
        X = np.column_stack([np.ones(1000), np.linspace(-1.0, 1.0, 1000)])
        y = rng.standard_normal(1000)
        y -= X @ np.linalg.lstsq(X, y, rcond=None)[0] - noise * X[:, 1]
        fit = log_model_evidence(GlmDataset(y=y, X=X), unit_prior(2))
        assert np.linalg.norm(fit.posterior.mu) < 1e-10
        assert fit.diagnostics.mu_error_bound[0, 0] <= 1e-13

    def test_cv_bound_covers_training_fit(self, rng):
        # Each fold reports the larger bound of its training fit and the full fit; the training
        # fit's is the larger here, and was dropped when only the held-out refit's was reported.
        X = rng.standard_normal((12, 3))
        sessions = [GlmDataset(y=rng.standard_normal((12, 4)), X=X) for _ in range(4)]
        _, d = cv_model_quality(sessions)
        full = glm._factor(*glm._stack(sessions, reference_prior(3))).bound[0]
        for i in range(4):
            training = [s for j, s in enumerate(sessions) if j != i]
            own = glm._factor(*glm._stack(training, reference_prior(3))).bound[0]
            assert np.all(d.mu_error_bound[i] >= np.maximum(own, full))

    def test_mu_error_bound_names_order_and_fold(self, monkeypatch, rng):
        monkeypatch.setattr(glm, "MU_ERROR_TOL", 0.0)
        X = rng.standard_normal((8, 2))
        with pytest.raises(DegeneratePosteriorError, match="lost accuracy.*column 0"):
            fit_posterior(GlmDataset(y=rng.standard_normal(8), X=X), unit_prior(2))
        with pytest.raises(DegeneratePosteriorError, match="order 0: posterior lost accuracy"):
            run_poly_sweep(PolySweepConfig(n_simulations=2, p_max=6, master_seed=1))
        with pytest.raises(DegeneratePosteriorError, match="fold 0: posterior lost accuracy"):
            cv_model_quality([GlmDataset(y=rng.standard_normal(8), X=X) for _ in range(3)])
