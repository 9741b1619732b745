import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ngbayes.numerics import (
    FactorizationError,
    SpdMatrix,
    digamma,
    log_gamma,
    logdet_spd,
    spd_solve,
)

from conftest import random_spd


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.1, 0.7, 1.5, 5.0, 42.0, 1e3, 1e6])
    def test_against_scipy(self, x):
        expected = scipy.special.gammaln(x)
        assert log_gamma(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_special_functions_take_arrays_element_by_element():
    x = np.array([[1e-3, 0.7], [6.0, 1e4]])
    for f in (log_gamma, digamma):
        got = f(x)
        assert got.shape == x.shape
        assert got.tolist() == [[f(v) for v in row] for row in x.tolist()]
    with pytest.raises(ValueError):
        digamma(np.array([1.0, -1.0]))


class TestDigamma:
    def test_trivial_values(self):
        euler = 0.5772156649015329
        assert digamma(1.0) == pytest.approx(-euler, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - euler, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-euler - 2.0 * math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 0.1, 0.9, 3.7, 6.0, 123.0, 1e4, 1e6])
    def test_against_scipy(self, x):
        assert digamma(x) == pytest.approx(scipy.special.digamma(x), abs=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_finite_difference_of_log_gamma(self, x):
        h = 1e-5
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert abs(digamma(x) - fd) < 1e-6


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SpdMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite_with_pivot_index(self):
        with pytest.raises(FactorizationError) as err:
            SpdMatrix([[1.0, 0.0], [0.0, -2.0]])
        assert err.value.pivot_index == 1

    @pytest.mark.parametrize("entries, pivot", [
        (np.diag([-1.0, 2.0, 3.0]), 0),
        ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 5.0]], 1),
        (np.diag([1.0, 2.0, -1.0, 3.0, 1.0]), 2),
    ])
    def test_pivot_index_is_first_bad_pivot(self, entries, pivot):
        with pytest.raises(FactorizationError) as err:
            SpdMatrix(entries)
        assert err.value.pivot_index == pivot

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.ones((2, 3)))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(SpdMatrix.identity(3).chol, np.eye(3))

    def test_scalar(self):
        np.testing.assert_allclose(SpdMatrix([[4.0]]).chol, [[2.0]])

    def test_reconstruction(self, rng):
        a = random_spd(rng, 5)
        lower = a.chol
        np.testing.assert_allclose(lower @ lower.T, a.entries, rtol=1e-10, atol=1e-12)
        assert np.allclose(np.triu(lower, 1), 0.0)

    @pytest.mark.parametrize("make", [lambda: SpdMatrix(np.eye(2)),
                                      lambda: SpdMatrix.from_factor(np.eye(2), np.eye(2))])
    def test_factor_and_entries_are_read_only(self, make):
        # Every KL, log-density and fit reads the cached factor: a write would change them all.
        m = make()
        for array in (m.chol, m.entries):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 5.0
        np.testing.assert_array_equal(m.chol, np.eye(2))


class TestLogdet:
    def test_identity(self):
        assert logdet_spd(SpdMatrix.identity(4)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert logdet_spd(SpdMatrix(np.diag([2.0, 3.0]))) == pytest.approx(math.log(6.0))

    def test_against_cofactor_expansion(self, rng):
        a = random_spd(rng, 4)

        def det(m):
            # Brute-force cofactor expansion (independent oracle).
            if m.shape[0] == 1:
                return m[0, 0]
            return sum(
                (-1) ** j * m[0, j] * det(np.delete(np.delete(m, 0, 0), j, 1))
                for j in range(m.shape[0])
            )

        assert logdet_spd(a) == pytest.approx(math.log(det(a.entries)), rel=1e-10)

    def test_inverse_logdet_is_negated(self, rng):
        a = random_spd(rng, 6)
        inv = SpdMatrix(0.5 * (spd_solve(a, np.eye(6)) + spd_solve(a, np.eye(6)).T))
        assert logdet_spd(a) + logdet_spd(inv) == pytest.approx(0.0, abs=1e-8)


class TestSpdSolve:
    def test_identity(self, rng):
        b = rng.standard_normal((2, 3))
        np.testing.assert_allclose(spd_solve(SpdMatrix.identity(2), b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(spd_solve(SpdMatrix([[2.0]]), np.array([4.0])), [2.0])

    def test_residual(self, rng):
        a = random_spd(rng, 6)
        b = rng.standard_normal((6, 2))
        x = spd_solve(a, b)
        resid = np.linalg.norm(a.entries @ x - b) / np.linalg.norm(b)
        assert resid < 1e-10

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            spd_solve(SpdMatrix.identity(3), np.ones((2, 2)))
