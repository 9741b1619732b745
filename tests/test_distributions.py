import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ngbayes import (
    GammaParams,
    MvNormalParams,
    NormalGammaParams,
    SpdMatrix,
    logpdf_gamma,
    logpdf_mvn,
    logpdf_ng,
    sample_gamma,
    sample_mvn,
    sample_ng,
)

from ngbayes.distributions import _BLOCK, _normal_logpdf, _quad_form

from conftest import random_ng, random_spd, stream

LN_2PI = math.log(2.0 * math.pi)


class TestParamValidation:
    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            GammaParams(shape=0.0, rate=1.0)
        with pytest.raises(ValueError):
            GammaParams(shape=1.0, rate=-1.0)

    def test_mvn_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            MvNormalParams(mean=[0.0, 0.0], precision=SpdMatrix.identity(1))

    def test_ng_shape_is_one_number(self):
        # A gamma batch may have a shape per member (KL only); a normal-gamma has one shape.
        assert np.array_equal(GammaParams(shape=[1.0, 2.0], rate=1.0).shape, [1.0, 2.0])
        with pytest.raises(ValueError, match="gamma shape must be a single number"):
            NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(1), shape=[1.0], rate=1.0)

    def test_ng_dimension(self):
        with pytest.raises(ValueError):
            NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(2), shape=1.0, rate=1.0)

    def test_ng_keeps_its_validated_gamma(self):
        p = NormalGammaParams(mu=np.zeros((2, 3)), lam=SpdMatrix.identity(2), shape=2.0,
                              rate=[1.0, 3.0, 0.5])
        assert p.gamma is p.gamma
        assert p.gamma.shape == 2.0 and np.array_equal(p.gamma.rate, [1.0, 3.0, 0.5])


class TestLogpdfMvn:
    def test_standard_normal_at_mode(self):
        p = MvNormalParams(mean=[0.0], precision=SpdMatrix.identity(1))
        assert logpdf_mvn([0.0], p) == pytest.approx(-0.5 * LN_2PI)

    def test_2d_at_mean(self):
        p = MvNormalParams(mean=[1.0, -1.0], precision=SpdMatrix.identity(2))
        assert logpdf_mvn([1.0, -1.0], p) == pytest.approx(-LN_2PI)

    def test_scaled_1d(self):
        p = MvNormalParams(mean=[0.0], precision=SpdMatrix([[4.0]]))
        expected = 0.5 * math.log(4.0) - 0.5 * LN_2PI - 2.0
        assert logpdf_mvn([1.0], p) == pytest.approx(expected)

    def test_normalizes_by_quadrature(self):
        p = MvNormalParams(mean=[0.3], precision=SpdMatrix([[2.5]]))
        total, _ = integrate.quad(lambda x: math.exp(logpdf_mvn([x], p)), -10, 10)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self):
        p = MvNormalParams(mean=[0.0], precision=SpdMatrix.identity(1))
        with pytest.raises(ValueError):
            logpdf_mvn([0.0, 0.0], p)


class TestLogpdfGamma:
    def test_exponential_values(self):
        p = GammaParams(1.0, 1.0)
        assert logpdf_gamma(1.0, p) == pytest.approx(-1.0)
        assert logpdf_gamma(2.0, p) == pytest.approx(-2.0)

    def test_shape_rate_value(self):
        expected = 2.0 * math.log(3.0) + math.log(1.5) - 4.5
        assert logpdf_gamma(1.5, GammaParams(2.0, 3.0)) == pytest.approx(expected)

    def test_normalizes_by_quadrature(self):
        p = GammaParams(2.3, 1.7)
        total, _ = integrate.quad(lambda y: math.exp(logpdf_gamma(y, p)), 1e-12, 60)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            logpdf_gamma(0.0, GammaParams(1.0, 1.0))
        with pytest.raises(ValueError):
            logpdf_gamma(-1.0, GammaParams(0.5, 1.0))


class TestLogpdfNg:
    def test_decomposes_into_conditional_and_marginal(self, rng):
        p = random_ng(rng, 3)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.uniform(0.1, 5.0)
            scaled = MvNormalParams(mean=p.mu, precision=SpdMatrix(y * p.lam.entries))
            expected = logpdf_mvn(x, scaled) + logpdf_gamma(y, p.gamma)
            assert logpdf_ng(x, y, p) == pytest.approx(expected, abs=1e-12)

    def test_simple_value(self):
        p = NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(1), shape=1.0, rate=1.0)
        assert logpdf_ng([0.0], 1.0, p) == pytest.approx(-0.5 * LN_2PI - 1.0)

    @pytest.mark.parametrize("y", [np.inf, np.nan])
    def test_non_finite_y_raises_before_any_arithmetic(self, y):
        p = NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(1), shape=1.0, rate=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite y > 0"):
                logpdf_ng([0.5], y, p)
            with pytest.raises(ValueError, match="finite y > 0"):
                logpdf_ng([[0.5], [1.0]], [1.0, y], p)

    def test_is_its_normal_part_plus_the_gamma_bit_for_bit(self, rng):
        # y is checked and ln y taken once for both parts; the sum must keep its bits.
        for k, m in ((1, 5), (3, _BLOCK + 2), (5, 2 * _BLOCK + 7)):
            p = random_ng(rng, k)
            x = p.mu + rng.standard_normal((m, k))
            y = rng.gamma(2.0, 1.0, m)
            np.testing.assert_array_equal(
                logpdf_ng(x, y, p), _normal_logpdf(x, p.mu, p.lam, y) + logpdf_gamma(y, p.gamma))

    def test_normalizes_by_2d_quadrature(self):
        p = NormalGammaParams(mu=[0.2], lam=SpdMatrix([[1.5]]), shape=2.0, rate=1.2)
        total, _ = integrate.dblquad(
            lambda x, y: math.exp(logpdf_ng([x], y, p)),
            1e-9, 40, lambda y: -15, lambda y: 15,
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestSamplers:
    def test_gamma_moments(self):
        draws = sample_gamma(GammaParams(1.0, 1.0), stream(1), size=1_000_000)
        assert np.mean(draws) == pytest.approx(1.0, abs=0.005)
        draws = sample_gamma(GammaParams(3.0, 2.0), stream(2), size=1_000_000)
        assert np.mean(draws) == pytest.approx(1.5, abs=0.01)

    def test_gamma_determinism(self):
        a = sample_gamma(GammaParams(2.0, 1.0), stream(7, 3), size=100)
        b = sample_gamma(GammaParams(2.0, 1.0), stream(7, 3), size=100)
        np.testing.assert_array_equal(a, b)

    def test_mvn_mean(self):
        p = MvNormalParams(mean=[5.0], precision=SpdMatrix.identity(1))
        draws = sample_mvn(p, stream(3), size=1_000_000)
        assert np.mean(draws) == pytest.approx(5.0, abs=0.005)

    def test_mvn_covariance(self):
        p = MvNormalParams(mean=[0.0, 0.0], precision=SpdMatrix.identity(2))
        draws = sample_mvn(p, stream(4), size=1_000_000)
        np.testing.assert_allclose(np.cov(draws.T), np.eye(2), atol=0.01)

    def test_mvn_respects_precision(self):
        prec = SpdMatrix([[2.0, 0.6], [0.6, 1.0]])
        p = MvNormalParams(mean=[1.0, -2.0], precision=prec)
        draws = sample_mvn(p, stream(5), size=500_000)
        np.testing.assert_allclose(np.cov(draws.T), np.linalg.inv(prec.entries), atol=0.02)

    def test_mvn_determinism(self):
        p = MvNormalParams(mean=[0.0], precision=SpdMatrix.identity(1))
        np.testing.assert_array_equal(
            sample_mvn(p, stream(9), size=50), sample_mvn(p, stream(9), size=50)
        )

    def test_ng_marginal_moments(self):
        p = NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(1), shape=2.0, rate=2.0)
        xs, ys = sample_ng(p, stream(6), size=1_000_000)
        assert np.mean(ys) == pytest.approx(1.0, abs=0.01)
        # Marginal of x is a scaled Student-t with variance b / (lam * (a - 1)).
        assert np.var(xs[:, 0]) == pytest.approx(2.0, rel=0.05)

    def test_ng_determinism(self):
        p = NormalGammaParams(mu=[0.0], lam=SpdMatrix.identity(1), shape=1.5, rate=1.0)
        x1, y1 = sample_ng(p, stream(8), size=40)
        x2, y2 = sample_ng(p, stream(8), size=40)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)


def scaled_precision(rng, k, log10_cond):
    """D C D with C well conditioned and D spanning 10**(log10_cond / 2).

    cond(D C D) reaches about 10**log10_cond, yet each quadratic form stays
    well posed, so any gap above rounding is an error of the kernel. (With
    a rotated spectrum of the same condition, d^T Lambda d itself loses up
    to eps * cond of its digits under either formula.)
    """
    scale = np.logspace(0.0, log10_cond / 2.0, k)
    rng.shuffle(scale)
    c = random_spd(rng, k).entries
    return SpdMatrix(scale[:, None] * c * scale[None, :])


def assert_close_per_coordinate(x, ref, sd):
    """rtol 1e-12, where an entry near 0 is judged on its coordinate's spread sd."""
    np.testing.assert_array_less(np.abs(x - ref), 1e-12 * (np.abs(ref) + sd))


kernel_cases = dict(
    k=st.integers(1, 21),
    log10_cond=st.floats(0.0, 8.0),
    m=st.one_of(st.none(), st.integers(1, 40)),
    seed=st.integers(0, 2**32 - 1),
)


class TestWhitenedKernels:
    @given(**kernel_cases)
    @settings(max_examples=60, deadline=None)
    def test_quadratic_form_matches_dense(self, k, log10_cond, m, seed):
        rng = np.random.default_rng(seed)
        lam = scaled_precision(rng, k, log10_cond)
        d = rng.standard_normal(k if m is None else (m, k)) * 10.0 ** rng.uniform(-3, 3)
        dense = np.einsum("...i,ij,...j->...", d, lam.entries, d)
        quad = _quad_form(lam.chol, d)
        assert np.shape(quad) == np.shape(dense)
        np.testing.assert_allclose(quad, dense, rtol=1e-12, atol=0.0)

    @given(**kernel_cases)
    @settings(max_examples=60, deadline=None)
    def test_samplers_match_triangular_solve(self, k, log10_cond, m, seed):
        rng = np.random.default_rng(seed)
        lam = scaled_precision(rng, k, log10_cond)
        mu = rng.uniform(-1.0, 1.0, k)
        n = 1 if m is None else m
        sd = np.sqrt(np.diag(np.linalg.inv(lam.entries)))

        x = sample_mvn(MvNormalParams(mean=mu, precision=lam), stream(seed), size=n)
        z = stream(seed).standard_normal((k, n))
        ref = (mu[:, None] + np.linalg.solve(lam.chol.T, z)).T
        assert_close_per_coordinate(np.reshape(x, (n, k)), ref, sd)

        params = NormalGammaParams(mu=mu, lam=lam, shape=2.0, rate=1.5)
        x, y = sample_ng(params, stream(seed), size=n)
        gen = stream(seed)
        y_ref = gen.gamma(2.0, 1.0 / 1.5, size=n)
        ref = (mu[:, None] + np.linalg.solve(lam.chol.T, gen.standard_normal((k, n)))
               / np.sqrt(y_ref)).T
        np.testing.assert_array_equal(np.reshape(y, n), y_ref)
        assert_close_per_coordinate(np.reshape(x, (n, k)), ref, sd / np.sqrt(y_ref)[:, None])


@pytest.mark.parametrize("m", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("k, log10_cond", [(1, 0.0), (5, 4.0), (21, 8.0)])
class TestKernelBlockBoundaries:
    """The blocked kernels at batch sizes around a block boundary."""

    def test_logpdfs_match_dense_quadratic_form(self, k, log10_cond, m):
        rng = np.random.default_rng(1000 * k + m)
        lam = scaled_precision(rng, k, log10_cond)
        mu = rng.uniform(-1.0, 1.0, k)
        x = mu + rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
        y = rng.gamma(2.0, 1.0, m)
        dense = np.einsum("ni,ij,nj->n", x - mu, lam.entries, x - mu)
        const = 0.5 * (np.linalg.slogdet(lam.entries)[1] - k * LN_2PI)
        # A sum is judged on the magnitude of its terms.
        ref = const - 0.5 * dense
        got = logpdf_mvn(x, MvNormalParams(mean=mu, precision=lam))
        assert_close_per_coordinate(got, ref, abs(const) + 0.5 * dense)

        params = NormalGammaParams(mu=mu, lam=lam, shape=2.0, rate=1.5)
        gamma_part = logpdf_gamma(y, params.gamma)
        ref = const + 0.5 * k * np.log(y) - 0.5 * y * dense + gamma_part
        scale = abs(const) + 0.5 * k * np.abs(np.log(y)) + 0.5 * y * dense + np.abs(gamma_part)
        assert_close_per_coordinate(logpdf_ng(x, y, params), ref, scale)

    def test_samplers_match_triangular_solve(self, k, log10_cond, m):
        rng = np.random.default_rng(1000 * k + m)
        lam = scaled_precision(rng, k, log10_cond)
        mu = rng.uniform(-1.0, 1.0, k)
        sd = np.sqrt(np.diag(np.linalg.inv(lam.entries)))

        x = sample_mvn(MvNormalParams(mean=mu, precision=lam), stream(m), size=m)
        z = stream(m).standard_normal((k, m))
        assert_close_per_coordinate(x, (mu[:, None] + np.linalg.solve(lam.chol.T, z)).T, sd)

        params = NormalGammaParams(mu=mu, lam=lam, shape=2.0, rate=1.5)
        x, y = sample_ng(params, stream(m), size=m)
        gen = stream(m)
        y_ref = gen.gamma(2.0, 1.0 / 1.5, size=m)
        ref = (mu[:, None] + np.linalg.solve(lam.chol.T, gen.standard_normal((k, m)))
               / np.sqrt(y_ref)).T
        np.testing.assert_array_equal(y, y_ref)
        assert_close_per_coordinate(x, ref, sd / np.sqrt(y_ref)[:, None])


@pytest.mark.parametrize("m", [1, _BLOCK + 3, 2 * _BLOCK + 1])
@pytest.mark.parametrize("k", [1, 5])
class TestOut:
    """Samplers and log-densities writing through ``out`` give the allocating call's bits."""

    @staticmethod
    def pair(k, m):
        rng = np.random.default_rng(100 * k + m)
        return random_ng(rng, k), random_ng(rng, k)

    def test_samplers(self, k, m):
        p, _ = self.pair(k, m)
        mvn = MvNormalParams(mean=p.mu, precision=p.lam)
        x_out = np.empty((k, m)).T  # the layout the samplers return
        x = sample_mvn(mvn, stream(m), size=m, out=x_out)
        assert np.shares_memory(x, x_out)
        np.testing.assert_array_equal(x_out, sample_mvn(mvn, stream(m), size=m))

        y_out = np.empty(m)
        assert sample_gamma(p.gamma, stream(m), size=m, out=y_out) is y_out
        np.testing.assert_array_equal(y_out, sample_gamma(p.gamma, stream(m), size=m))

        x_out, y_out = np.empty((k, m)).T, np.empty(m)
        x, y = sample_ng(p, stream(m), size=m, out=(x_out, y_out))
        assert np.shares_memory(x, x_out) and y is y_out
        x_ref, y_ref = sample_ng(p, stream(m), size=m)
        np.testing.assert_array_equal(x_out, x_ref)
        np.testing.assert_array_equal(y_out, y_ref)

    def test_log_densities_also_over_their_input(self, k, m):
        # The Monte Carlo oracle writes q's scores over the samples' first column (y for the
        # gamma): each block of out is written after that block of x and y is read.
        p, q = self.pair(k, m)
        x, y = sample_ng(p, stream(m), size=m)
        mvn = MvNormalParams(mean=q.mu, precision=q.lam)
        cases = [
            (lambda x, y, out: logpdf_mvn(x, mvn, out=out), logpdf_mvn(x, mvn)),
            (lambda x, y, out: logpdf_gamma(y, q.gamma, out=out), logpdf_gamma(y, q.gamma)),
            (lambda x, y, out: logpdf_ng(x, y, q, out=out), logpdf_ng(x, y, q)),
        ]
        for logpdf, ref in cases:
            for where in ("apart", "x", "y"):
                xs, ys = x.copy(order="F"), y.copy()
                out = {"apart": np.empty(m), "x": xs[:, 0], "y": ys}[where]
                assert logpdf(xs, ys, out) is out
                np.testing.assert_array_equal(out, ref)


def test_out_layout_is_checked():
    p = NormalGammaParams(mu=[0.0, 1.0], lam=SpdMatrix.identity(2), shape=2.0, rate=1.0)
    mvn = MvNormalParams(mean=p.mu, precision=p.lam)
    # numpy would fill a C-ordered (m, k) array in a different order than the draw.
    with pytest.raises(ValueError, match="Fortran-ordered"):
        sample_mvn(mvn, stream(0), size=10, out=np.empty((10, 2)))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        sample_ng(p, stream(0), size=10, out=(np.empty((10, 2)), np.empty(10)))
    x = np.zeros((10, 2))
    for out in (np.empty(9), np.empty(10, dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be"):
            logpdf_mvn(x, mvn, out=out)
    with pytest.raises(ValueError, match="out must be"):
        logpdf_gamma(np.ones((3, 4)), p.gamma, out=np.empty((4, 3)).T)
