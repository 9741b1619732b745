"""End-to-end acceptance gate.

One test per criterion; each prints a PASS/FAIL line so the suite doubles
as a checklist when run with ``pytest -s tests/test_acceptance.py``.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from ngbayes import (
    GammaParams,
    GlmDataset,
    MvNormalParams,
    NormalGammaParams,
    SpdMatrix,
    expected_conditional_mvn_kl,
    fit_posterior,
    kl_gamma,
    kl_mvn,
    kl_normal_gamma,
    log_model_evidence,
    logpdf_gamma,
    logpdf_mvn,
)
from ngbayes.divergence import kl_monte_carlo_pair
from ngbayes.experiments import CvStudyConfig, PolySweepConfig, run_cv_study, run_poly_sweep
from ngbayes.glm import _direct_lme

from conftest import random_gamma, random_mvn, random_ng, stream

MC_SAMPLES = 1_000_000


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_monte_carlo_oracle_equivalence():
    rng = np.random.default_rng(101)
    dims = [1, 2, 5]
    failures = []
    for i in range(20):
        k = dims[i % 3]
        cases = [
            (kl_gamma, kl_monte_carlo_pair, random_gamma(rng), random_gamma(rng)),
            (kl_mvn, kl_monte_carlo_pair, random_mvn(rng, k), random_mvn(rng, k)),
            (kl_normal_gamma, kl_monte_carlo_pair, random_ng(rng, k), random_ng(rng, k)),
        ]
        for closed_fn, mc_fn, p, q in cases:
            closed = closed_fn(p, q)
            est = mc_fn(p, q, MC_SAMPLES, stream(1000 + i))
            if abs(closed - est.value) >= 3.0 * est.standard_error:
                failures.append((closed_fn.__name__, i, closed, est.value, est.standard_error))
    report(1, not failures, f"{60 - len(failures)}/60 pairs within 3 SE")


def test_criterion_2_chain_rule():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        p, q = random_ng(rng, k), random_ng(rng, k)
        total = expected_conditional_mvn_kl(p, q) + kl_gamma(p.gamma, q.gamma)
        worst = max(worst, abs(kl_normal_gamma(p, q) - total))
    report(2, worst < 1e-12, f"max additivity error {worst:.2e}")


def test_criterion_3_quadrature_anchors():
    p, q = GammaParams(1, 1), GammaParams(2, 1)
    gamma_quad, _ = integrate.quad(
        lambda y: math.exp(logpdf_gamma(y, p)) * (logpdf_gamma(y, p) - logpdf_gamma(y, q)),
        1e-12, 80, limit=200,
    )
    gamma_ok = abs(kl_gamma(p, q) - gamma_quad) < 1e-6

    pm = MvNormalParams(mean=[0.0], precision=SpdMatrix.identity(1))
    qm = MvNormalParams(mean=[1.0], precision=SpdMatrix.identity(1))
    mvn_quad, _ = integrate.quad(
        lambda x: math.exp(logpdf_mvn([x], pm)) * (logpdf_mvn([x], pm) - logpdf_mvn([x], qm)),
        -15, 15, limit=200,
    )
    mvn_ok = abs(kl_mvn(pm, qm) - mvn_quad) < 1e-6 and abs(mvn_quad - 0.5) < 1e-6
    report(3, gamma_ok and mvn_ok,
           f"gamma anchor {gamma_quad:.8f}, mvn anchor {mvn_quad:.8f}")


def test_criterion_4_lme_internal_consistency():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        p = int(rng.integers(1, min(n, 8) + 1))
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        data = GlmDataset(y=y, X=X, P=SpdMatrix.identity(n))
        prior = NormalGammaParams(mu=np.zeros(p), lam=SpdMatrix.identity(p),
                                  shape=1.0, rate=1.0)
        fit = log_model_evidence(data, prior)
        worst = max(worst, abs(fit.quality.lme - _direct_lme(data, prior, fit.posterior)))
    paths_ok = worst < 1e-8

    data = GlmDataset(y=[2.0], X=[[1.0]], P=SpdMatrix.identity(1))
    prior = NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(1), shape=1.0, rate=1.0)
    fit = log_model_evidence(data, prior)

    def integrand(beta, tau):
        like = math.sqrt(tau / (2 * math.pi)) * math.exp(-0.5 * tau * (2.0 - beta) ** 2)
        prior_beta = math.sqrt(tau / (2 * math.pi)) * math.exp(-0.5 * tau * beta**2)
        return like * prior_beta * math.exp(-tau)

    evidence, _ = integrate.dblquad(integrand, 1e-9, 60, lambda t: -25, lambda t: 25)
    quad_ok = abs(fit.quality.lme - math.log(evidence)) < 1e-4
    report(4, paths_ok and quad_ok,
           f"max path disagreement {worst:.2e}, quadrature gap "
           f"{abs(fit.quality.lme - math.log(evidence)):.2e}")


def test_criterion_5_figure_reproduction():
    argmax_ok = 0
    interval_ok = 0
    details = []
    for seed in range(5):
        r = run_poly_sweep(PolySweepConfig(master_seed=seed))
        acc5, com5, lme5 = r.mean_acc[5], r.mean_com[5], r.mean_lme[5]
        com20 = r.mean_com[20]
        argmax_ok += r.argmax_order == 5
        in_intervals = (
            -146 <= acc5 <= -136
            and 7.0 <= com5 <= 9.7
            and -155 <= lme5 <= -143
            and 8.5 <= com20 <= 11.5
        )
        interval_ok += in_intervals
        details.append(f"seed {seed}: argmax={r.argmax_order} acc5={acc5:.2f} "
                       f"com5={com5:.2f} lme5={lme5:.2f} com20={com20:.2f}")
    ok = argmax_ok == 5 and interval_ok >= 4
    report(5, ok, f"argmax 5 in {argmax_ok}/5 seeds, intervals in {interval_ok}/5; "
           + "; ".join(details))


def test_criterion_6_hand_case_exactness():
    data = GlmDataset(y=[2.0], X=[[1.0]], P=SpdMatrix.identity(1))
    prior = NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(1), shape=1.0, rate=1.0)
    post = fit_posterior(data, prior)
    exact = (
        abs(post.mu[0] - 1.0) < 1e-14
        and post.lam.entries[0, 0] == 2.0
        and post.shape == 1.5
        and abs(post.rate - 2.0) < 1e-14
    )
    closed = kl_normal_gamma(post, prior)
    est = kl_monte_carlo_pair(post, prior, MC_SAMPLES, stream(106))
    mc_ok = abs(closed - est.value) < 3.0 * est.standard_error
    report(6, exact and mc_ok,
           f"posterior ({post.mu[0]}, {post.lam.entries[0,0]}, {post.shape}, {post.rate}), "
           f"complexity {closed:.6f} vs MC {est.value:.6f} +/- {est.standard_error:.6f}")


def test_criterion_7_property_suite():
    rng = np.random.default_rng(107)
    nonneg_ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        nonneg_ok &= kl_mvn(random_mvn(rng, k), random_mvn(rng, k)) >= 0.0
        nonneg_ok &= kl_gamma(random_gamma(rng), random_gamma(rng)) >= 0.0
        nonneg_ok &= kl_normal_gamma(random_ng(rng, k), random_ng(rng, k)) >= 0.0

    identity_ok = (
        kl_mvn(random_mvn(rng, 3), random_mvn(rng, 3)) >= 0.0  # warm-up draw
        and kl_gamma(GammaParams(1.3, 2.1), GammaParams(1.3, 2.1)) == 0.0
    )
    p = random_mvn(rng, 2)
    identity_ok &= kl_mvn(p, p) == 0.0
    ng = random_ng(rng, 2)
    identity_ok &= kl_normal_gamma(ng, ng) == 0.0

    seq_ok = True
    for _ in range(50):
        n, m, p_dim = 10, 4, 3
        X = rng.standard_normal((n, p_dim))
        y = X @ rng.standard_normal(p_dim) + rng.standard_normal(n)
        prior = NormalGammaParams(mu=np.zeros(p_dim), lam=SpdMatrix.identity(p_dim),
                                  shape=1.0, rate=1.0)
        full = fit_posterior(GlmDataset(y=y, X=X, P=SpdMatrix.identity(n)), prior)
        half = fit_posterior(GlmDataset(y=y[:m], X=X[:m], P=SpdMatrix.identity(m)), prior)
        seq = fit_posterior(GlmDataset(y=y[m:], X=X[m:], P=SpdMatrix.identity(n - m)), half)
        seq_ok &= np.allclose(seq.mu, full.mu, atol=1e-8)
        seq_ok &= np.allclose(seq.lam.entries, full.lam.entries, atol=1e-8)
        seq_ok &= abs(seq.rate - full.rate) < 1e-8 and seq.shape == full.shape
    report(7, nonneg_ok and identity_ok and seq_ok,
           f"nonneg={nonneg_ok} identity={identity_ok} sequential={seq_ok}")


def test_criterion_8_cv_study_selects_constrained_model():
    result = run_cv_study(CvStudyConfig(n_replications=100, generator="B", master_seed=0))
    ok = result.selection_rate_b >= 0.90 and result.mean_delta_com < 0.0
    report(8, ok, f"selection rate {result.selection_rate_b:.2f}, "
           f"mean dCom {result.mean_delta_com:.2f}")
