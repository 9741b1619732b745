import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import integrate

from ngbayes import (
    GammaParams,
    MvNormalParams,
    NormalGammaParams,
    SpdMatrix,
    expected_conditional_mvn_kl,
    kl_gamma,
    kl_monte_carlo,
    kl_mvn,
    kl_normal_gamma,
    logpdf_gamma,
    logpdf_mvn,
    logpdf_ng,
    sample_gamma,
    sample_mvn,
    sample_ng,
)
from ngbayes.divergence import (
    MC_BATCH_SIZE, KlEstimate, NegativeDivergenceError, kl_monte_carlo_pair,
)

from conftest import random_gamma, random_mvn, random_ng, stream

EULER = 0.5772156649015329


def quad_kl_gamma(p, q):
    """1-D quadrature of the defining KL integral (independent oracle)."""
    integrand = lambda y: math.exp(logpdf_gamma(y, p)) * (
        logpdf_gamma(y, p) - logpdf_gamma(y, q)
    )
    value, _ = integrate.quad(integrand, 1e-12, 80, limit=200)
    return value


def quad_kl_mvn_1d(p, q):
    integrand = lambda x: math.exp(logpdf_mvn([x], p)) * (
        logpdf_mvn([x], p) - logpdf_mvn([x], q)
    )
    value, _ = integrate.quad(integrand, -15, 15, limit=200)
    return value


class TestKlMvn:
    def test_identical_is_zero(self, rng):
        p = random_mvn(rng, 3)
        assert kl_mvn(p, p) == 0.0

    def test_unit_gaussians_mean_shift(self):
        p = MvNormalParams(mean=[0.0], precision=SpdMatrix.identity(1))
        q = MvNormalParams(mean=[1.0], precision=SpdMatrix.identity(1))
        assert kl_mvn(p, q) == pytest.approx(0.5, abs=1e-12)
        assert kl_mvn(p, q) == pytest.approx(quad_kl_mvn_1d(p, q), abs=1e-8)

    def test_matches_monte_carlo(self, rng):
        p, q = random_mvn(rng, 2), random_mvn(rng, 2)
        est = kl_monte_carlo_pair(p, q, 200_000, stream(11))
        assert abs(kl_mvn(p, q) - est.value) < 3.0 * est.standard_error

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            kl_mvn(random_mvn(rng, 2), random_mvn(rng, 3))


class TestKlGamma:
    def test_identical_is_zero(self):
        p = GammaParams(1.7, 0.3)
        assert kl_gamma(p, p) == 0.0

    def test_exponential_vs_gamma2(self):
        assert kl_gamma(GammaParams(1, 1), GammaParams(2, 1)) == pytest.approx(EULER, abs=1e-12)

    def test_gamma22_vs_exponential(self):
        expected = math.log(2.0) - EULER
        assert kl_gamma(GammaParams(2, 2), GammaParams(1, 1)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("pair", [((1, 1), (2, 1)), ((2, 2), (1, 1)), ((3.2, 0.7), (1.1, 2.0))])
    def test_matches_quadrature(self, pair):
        p, q = GammaParams(*pair[0]), GammaParams(*pair[1])
        assert kl_gamma(p, q) == pytest.approx(quad_kl_gamma(p, q), abs=1e-8)

    def test_asymmetry_witness(self):
        p, q = GammaParams(1, 1), GammaParams(2, 1)
        assert abs(kl_gamma(p, q) - kl_gamma(q, p)) > 0.1

    def test_batch_of_shapes_and_rates(self):
        # A shape per row and a rate per entry, as a stacked cross-validation passes them.
        shapes, rates = np.array([[0.7], [3.2]]), np.array([[0.5, 2.0, 4.0], [1.1, 0.3, 7.0]])
        got = kl_gamma(GammaParams(shapes, rates), GammaParams(1.5, np.array([1.0, 2.0, 0.4])))
        assert got.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            single = kl_gamma(GammaParams(shapes[i, 0], rates[i, j]),
                              GammaParams(1.5, [1.0, 2.0, 0.4][j]))
            assert got[i, j] == single


class TestKlNormalGamma:
    def test_identical_is_zero(self, rng):
        p = random_ng(rng, 2)
        assert kl_normal_gamma(p, p) == 0.0

    def test_collapses_to_gamma_part(self, rng):
        # Equal precisions give a trace of exactly k: the normal term adds exactly 0.
        for _ in range(200):
            base = random_ng(rng, int(rng.integers(1, 8)))
            q = type(base)(mu=base.mu, lam=base.lam, shape=rng.uniform(0.5, 4.0),
                           rate=rng.uniform(0.5, 4.0))
            assert kl_normal_gamma(base, q) == kl_gamma(base.gamma, q.gamma)

    def test_equal_means_under_an_overflowing_scale_mean(self):
        # a / b overflows, but the mean term is 0 for every y where the means agree.
        p = NormalGammaParams(mu=[1.0, 2.0], lam=SpdMatrix(np.diag([2.0, 1.0])),
                              shape=1e200, rate=1e-200)
        q = NormalGammaParams(mu=p.mu, lam=p.lam, shape=1e200, rate=2e-200)
        assert kl_normal_gamma(p, p) == 0.0
        assert kl_normal_gamma(p, q) == pytest.approx(1e200 * (1.0 - math.log(2.0)), rel=1e-12)

    def test_matches_monte_carlo(self, rng):
        p, q = random_ng(rng, 2), random_ng(rng, 2)
        est = kl_monte_carlo_pair(p, q, 1_000_000, stream(12))
        assert abs(kl_normal_gamma(p, q) - est.value) < 3.0 * est.standard_error

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            kl_normal_gamma(random_ng(rng, 1), random_ng(rng, 2))


class TestExpectedConditionalKl:
    def test_zero_when_normal_parts_match(self, rng):
        for _ in range(200):
            base = random_ng(rng, int(rng.integers(1, 8)))
            q = type(base)(mu=base.mu, lam=SpdMatrix(base.lam.entries.copy()),
                           shape=rng.uniform(0.5, 4.0), rate=rng.uniform(0.5, 4.0))
            assert expected_conditional_mvn_kl(base, q) == 0.0

    def test_chain_rule(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 4))
            p, q = random_ng(rng, k), random_ng(rng, k)
            total = expected_conditional_mvn_kl(p, q) + kl_gamma(p.gamma, q.gamma)
            assert kl_normal_gamma(p, q) == pytest.approx(total, abs=1e-12)

    def test_matches_sampled_expectation(self, rng):
        p, q = random_ng(rng, 2), random_ng(rng, 2)
        gen = stream(13)
        ys = sample_gamma(p.gamma, gen, size=100_000)
        vals = np.array([
            kl_mvn(
                MvNormalParams(p.mu, SpdMatrix(y * p.lam.entries)),
                MvNormalParams(q.mu, SpdMatrix(y * q.lam.entries)),
            )
            for y in ys[:20_000]
        ])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(expected_conditional_mvn_kl(p, q) - vals.mean()) < 3.0 * se


class TestMonteCarloEstimator:
    def test_identical_distributions_near_zero(self):
        p = GammaParams(2.0, 1.0)
        est = kl_monte_carlo_pair(p, GammaParams(2.0, 1.0), 100_000, stream(14))
        assert abs(est.value) <= max(3.0 * est.standard_error, 1e-12)

    def test_mvn_pair_value(self):
        p = MvNormalParams(mean=[0.0], precision=SpdMatrix.identity(1))
        q = MvNormalParams(mean=[1.0], precision=SpdMatrix.identity(1))
        est = kl_monte_carlo_pair(p, q, 500_000, stream(15))
        assert abs(est.value - 0.5) < 3.0 * est.standard_error

    def test_requires_min_samples(self):
        with pytest.raises(ValueError):
            kl_monte_carlo(lambda s: s, lambda s: s, lambda r, m: np.ones(m), 10, stream(0))

    def test_partition_independent(self):
        p, q = GammaParams(2.0, 1.0), GammaParams(1.0, 2.0)
        a = kl_monte_carlo_pair(p, q, 50_000, stream(16))
        b = kl_monte_carlo_pair(p, q, 50_000, stream(16))
        assert a == b

    def test_standard_error_survives_large_offset(self):
        # log p - log q = 1e9 + N(0, 1): sum(d^2)/n - mean^2 cancels to 0 here.
        est = kl_monte_carlo(
            lambda s: 1e9 + s,
            lambda s: np.zeros_like(s),
            lambda r, m: r.standard_normal(m),
            1_000_000,
            stream(18),
        )
        assert est.value == pytest.approx(1e9, abs=0.01)
        assert est.standard_error == pytest.approx(1e-3, rel=0.01)

    def test_nonfinite_logpdf_reported(self):
        with pytest.raises(ArithmeticError, match="sample"):
            kl_monte_carlo(
                lambda s: np.full(len(s), np.nan),
                lambda s: np.zeros(len(s)),
                lambda r, m: np.ones(m),
                1000,
                stream(17),
            )

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            KlEstimate(value=0.0, standard_error=-1.0, sample_count=10)
        with pytest.raises(ValueError):
            KlEstimate(value=0.0, standard_error=0.0, sample_count=0)


def serial_kl_monte_carlo(logpdf_p, logpdf_q, sampler_p, n_samples, rng):
    """The one-thread loop: draw, score and merge each batch in turn.

    Batch 0 draws from ``rng`` and each later batch from the next child that
    ``rng.spawn(1)`` returns.
    """
    mean = m2 = 0.0
    done = 0
    while done < n_samples:
        m = min(MC_BATCH_SIZE, n_samples - done)
        samples = sampler_p(rng if done == 0 else rng.spawn(1)[0], m)
        diff = np.asarray(logpdf_p(samples)) - np.asarray(logpdf_q(samples))
        batch_mean = float(np.mean(diff))
        delta = batch_mean - mean
        m2 += float(np.sum((diff - batch_mean) ** 2)) + delta * delta * done * m / (done + m)
        mean += delta * m / (done + m)
        done += m
    return KlEstimate(value=mean, standard_error=math.sqrt(m2 / n_samples / n_samples),
                      sample_count=n_samples)


def batch_of(gen):
    """The batch a Generator feeds: ``stream(s)`` itself is batch 0, its child b is b + 1."""
    key = gen.bit_generator.seed_seq.spawn_key
    return 0 if len(key) == 1 else key[-1] + 1


def index_sampler(fail_on_batch=None, drawn=None):
    """Sampler whose samples are their global indices; raises on batch ``fail_on_batch``.

    The batch comes from the Generator, never from call order, which depends
    on thread timing. Each batch drawn is appended to ``drawn``, if given.
    """
    def sampler(gen, m):
        batch = batch_of(gen)
        if batch == fail_on_batch:
            raise RuntimeError(f"sampler failed on batch {batch}")
        if drawn is not None:
            drawn.append(batch)
        return np.arange(batch * MC_BATCH_SIZE, batch * MC_BATCH_SIZE + m, dtype=float)

    return sampler


def nan_at(index):
    return lambda s: np.where(s == index, np.nan, 0.0)


class TestMonteCarloPipeline:
    """Batches run on two workers; results are those of a serial loop over the same streams."""

    N = 2 * MC_BATCH_SIZE + 1000

    def test_nan_in_second_batch_names_global_index(self):
        j = 7
        with pytest.raises(ArithmeticError, match=rf"at sample {MC_BATCH_SIZE + j}$"):
            kl_monte_carlo(nan_at(MC_BATCH_SIZE + j), lambda s: np.zeros(len(s)),
                           index_sampler(), self.N, stream(0))

    def test_scoring_error_outranks_next_draw_error(self):
        # Batch 0 fails to score and batch 1 fails to draw: the lower batch's error wins.
        with pytest.raises(ArithmeticError, match=r"at sample 5$"):
            kl_monte_carlo(nan_at(5), lambda s: np.zeros(len(s)),
                           index_sampler(fail_on_batch=1), self.N, stream(0))

    def test_sampler_error_is_raised_when_scoring_succeeds(self):
        with pytest.raises(RuntimeError, match="batch 2"):
            kl_monte_carlo(lambda s: s, lambda s: np.zeros(len(s)),
                           index_sampler(fail_on_batch=2), self.N, stream(0))

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        est = kl_monte_carlo(lambda s: s, lambda s: np.zeros(len(s)), index_sampler(),
                             self.N, stream(0))
        assert est.value == pytest.approx((self.N - 1) / 2.0)
        assert threading.active_count() == before
        for logpdf_p, sampler in ((nan_at(MC_BATCH_SIZE + 3), index_sampler()),
                                  (nan_at(3), index_sampler(fail_on_batch=1)),
                                  (lambda s: s, index_sampler(fail_on_batch=2))):
            with pytest.raises((ArithmeticError, RuntimeError)):
                kl_monte_carlo(logpdf_p, lambda s: np.zeros(len(s)), sampler, self.N,
                               stream(0))
            assert threading.active_count() == before

    @pytest.mark.parametrize("family", ["gamma", "mvn", "ng"])
    def test_pair_equals_serial_loop(self, family):
        rng = np.random.default_rng(41)
        if family == "gamma":
            p, q = random_gamma(rng), random_gamma(rng)
            sample, logpdf = sample_gamma, logpdf_gamma
        elif family == "mvn":
            p, q = random_mvn(rng, 5), random_mvn(rng, 5)
            sample, logpdf = sample_mvn, logpdf_mvn
        else:
            p, q = random_ng(rng, 5), random_ng(rng, 5)
            sample, logpdf = sample_ng, lambda s, params: logpdf_ng(s[0], s[1], params)
        serial = serial_kl_monte_carlo(lambda s: logpdf(s, p), lambda s: logpdf(s, q),
                                       lambda r, m: sample(p, r, size=m), self.N,
                                       stream(42))
        assert kl_monte_carlo_pair(p, q, self.N, stream(42)) == serial

    @pytest.mark.parametrize("family, rows", [("mvn", 5 + 1), ("ng", 5 + 2)])
    def test_traced_peak_is_two_workspaces(self, family, rows):
        # Each worker holds rows x MC_BATCH_SIZE floats (samples and p's scores); 2 MiB is
        # left for both workers' block scratch and the batches' streams and futures.
        rng = np.random.default_rng(43)
        make = random_mvn if family == "mvn" else random_ng
        p, q = make(rng, 5), make(rng, 5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kl_monte_carlo_pair(p, q, 1_000_000, stream(44))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rows * MC_BATCH_SIZE * 8 + 2 * 2**20

    def test_out_of_order_batches_merge_in_batch_order(self):
        # Even batches finish last, so the workers complete batches out of order.
        def sampler(gen, m):
            if batch_of(gen) % 2 == 0:
                time.sleep(0.02)
            return gen.standard_normal(m)

        n = 5 * MC_BATCH_SIZE + 1000
        serial = serial_kl_monte_carlo(lambda s: 3.0 + s, lambda s: s * s, sampler, n,
                                       stream(19))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert kl_monte_carlo(lambda s: 3.0 + s, lambda s: s * s, sampler, n,
                                  stream(19)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_live_samples_stay_at_two_batches(self):
        # Batch 0's scoring waits on an event while the other worker runs through every later
        # batch: only the two running batches may hold samples at any time.
        n_batches = 40
        lock, live, peak = threading.Lock(), [0], [0]
        drawn, release = [], threading.Event()
        draw = index_sampler(drawn=drawn)

        def freed():
            with lock:
                live[0] -= 1

        def sampler(gen, m):
            samples = draw(gen, m)
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            weakref.finalize(samples, freed)
            return samples

        def logpdf_p(s):
            if s[0] == 0:
                release.wait(timeout=30)
            return s

        def release_later():
            deadline = time.monotonic() + 10
            while len(drawn) < n_batches and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()

        releaser = threading.Thread(target=release_later)
        releaser.start()
        try:
            est = kl_monte_carlo(logpdf_p, lambda s: np.zeros(len(s)), sampler,
                                 n_batches * MC_BATCH_SIZE, stream(0))
        finally:
            release.set()
            releaser.join(timeout=30)
        assert not releaser.is_alive()
        assert peak[0] == 2 and live[0] == 0
        assert sorted(drawn) == list(range(n_batches))
        assert est.value == (n_batches * MC_BATCH_SIZE - 1) / 2.0


class TestNonNegativity:
    def test_random_pairs_all_families(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 6))
            assert kl_mvn(random_mvn(rng, k), random_mvn(rng, k)) >= 0.0
            assert kl_gamma(random_gamma(rng), random_gamma(rng)) >= 0.0
            assert kl_normal_gamma(random_ng(rng, k), random_ng(rng, k)) >= 0.0

    def test_large_negative_raises(self):
        from ngbayes.divergence import _clamp

        with pytest.raises(NegativeDivergenceError, match=r"to -1e-06, below"):
            _clamp(-1e-6)
        assert _clamp(-1e-12) == 0.0
        # A batch names its first failing entry and its index, and no other entry.
        batch = np.array([[0.5, -1e-12, 0.25], [-3e-6, 1.0, -7e-6]])
        with pytest.raises(NegativeDivergenceError) as info:
            _clamp(batch)
        assert str(info.value) == ("closed-form KL evaluated to -3e-06 at index (1, 0), "
                                   "below the rounding tolerance")

    def test_non_finite_raises(self):
        from ngbayes.divergence import _clamp

        for value in (np.inf, np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ArithmeticError, match="not a finite number"):
                _clamp(value)
        batch = np.array([[0.5, -1e-6, 0.25], [2.0, np.inf, np.nan]])
        with pytest.raises(ArithmeticError) as info:
            _clamp(batch)
        assert str(info.value) == ("closed-form KL evaluated to inf at index (1, 1), "
                                   "not a finite number")
