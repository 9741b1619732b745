import numpy as np
import pytest

from ngbayes import GammaParams, MvNormalParams, NormalGammaParams, SpdMatrix


def stream(seed, key=0):
    """Generator on numpy's SeedSequence(seed, spawn_key=(key,)), as ``kl --check`` seeds."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def random_spd(rng, k, scale=1.0):
    """Well-conditioned random SPD matrix."""
    m = rng.standard_normal((k, k))
    a = scale * (m @ m.T / k + 0.5 * np.eye(k))
    return SpdMatrix(0.5 * (a + a.T))


def random_gamma(rng):
    return GammaParams(shape=rng.uniform(0.5, 4.0), rate=rng.uniform(0.5, 4.0))


def random_mvn(rng, k):
    return MvNormalParams(mean=rng.uniform(-1.0, 1.0, size=k),
                          precision=random_spd(rng, k))


def random_ng(rng, k):
    return NormalGammaParams(mu=rng.uniform(-1.0, 1.0, size=k),
                             lam=random_spd(rng, k),
                             shape=rng.uniform(0.5, 4.0),
                             rate=rng.uniform(0.5, 4.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
