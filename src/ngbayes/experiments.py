"""Desk-scale simulation studies.

Two experiments: a polynomial model-order sweep in which the log model
evidence recovers the generating order, and a multi-session study in
which cross-validated evidence distinguishes a flexible per-condition
design from a constrained parametric-modulator design generated from the
same conditions. One simulator generates the data of both: per
replication r, coefficients from numpy's SeedSequence(seed, spawn_key=(r, 0)),
each session's noise in turn from spawn_key=(r, 1), and y = X_gen beta +
sigma z. In both, every replication shares the candidate design, so the
replications are the columns of one response matrix: the sweep makes one
evidence call per order and the study one cross-validation per design,
each fitting all replications at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .distributions import NormalGammaParams
from .glm import GlmDataset, cv_model_quality, log_model_evidence
from .numerics import SpdMatrix

__all__ = [
    "PolySweepConfig", "SweepResult", "CvStudyConfig", "CvStudyResult",
    "equally_spaced", "build_poly_design", "simulate_polynomial", "run_poly_sweep",
    "run_cv_study", "write_sweep_csv", "write_cv_csv", "load_config",
]

SWEEP_CSV_HEADER = "order,mean_lme,mean_acc,mean_com"
CV_CSV_HEADER = "replication,cvlme_a,cvlme_b,acc_a,acc_b,com_a,com_b"

# Parametric-modulator weights over the four condition levels.
PM_WEIGHTS = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)


# JSON value types accepted per config field annotation (a string here); bools never.
_CONFIG_TYPES = {"int": int, "float": (int, float), "str": str}


def _config_from_dict(cls, doc: dict):
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[types[name]]):
            raise ValueError(f"config field {name} must be of type {types[name]}, got {value!r}")
    return cls(**doc)


@dataclass(frozen=True)
class PolySweepConfig:
    """Settings for the polynomial model-order sweep."""

    n_simulations: int = 100
    n_points: int = 100
    p_true: int = 5
    p_min: int = 0
    p_max: int = 20
    noise_variance: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if self.n_simulations < 1 or self.n_points < 2:
            raise ValueError("need n_simulations >= 1 and n_points >= 2")
        if not (0 <= self.p_min <= self.p_true <= self.p_max):
            raise ValueError("require p_min <= p_true <= p_max with p_min >= 0")
        if self.noise_variance < 0.0:
            raise ValueError("noise variance must be nonnegative")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")


@dataclass(frozen=True)
class SweepResult:
    """Per-order means across simulations plus the winning order."""

    orders: np.ndarray
    mean_lme: np.ndarray
    mean_acc: np.ndarray
    mean_com: np.ndarray
    argmax_order: int = field(init=False)

    def __post_init__(self):
        if len(self.orders) and np.max(
            np.abs(self.mean_lme - (self.mean_acc - self.mean_com))
        ) > 1e-8:
            raise ValueError("mean lme must equal mean acc - mean com")
        # np.argmax takes the first maximum; orders ascend, so ties break small.
        best = int(self.orders[int(np.argmax(self.mean_lme))]) if len(self.orders) else -1
        object.__setattr__(self, "argmax_order", best)


@dataclass(frozen=True)
class CvStudyConfig:
    """Settings for the multi-session cross-validation study."""

    n_replications: int = 100
    n_sessions: int = 5
    trials_per_condition: int = 3
    noise_variance: float = 1.0
    generator: str = "B"
    master_seed: int = 0

    def __post_init__(self):
        if self.n_sessions < 2:
            raise ValueError("the study requires at least 2 sessions")
        if self.n_replications < 1 or self.trials_per_condition < 1:
            raise ValueError("replications and trials per condition must be positive")
        if self.generator not in ("A", "B"):
            raise ValueError(f"generator must be 'A' or 'B', got {self.generator!r}")
        if self.noise_variance <= 0.0:
            raise ValueError("noise variance must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")


@dataclass(frozen=True)
class CvStudyResult:
    """Per-replication cross-validated qualities for both designs."""

    cvlme_a: np.ndarray
    cvlme_b: np.ndarray
    acc_a: np.ndarray
    acc_b: np.ndarray
    com_a: np.ndarray
    com_b: np.ndarray

    @property
    def n_replications(self) -> int:
        return len(self.cvlme_a)

    @property
    def mean_delta_lme(self) -> float:
        return float(np.mean(self.cvlme_b - self.cvlme_a))

    @property
    def mean_delta_acc(self) -> float:
        return float(np.mean(self.acc_b - self.acc_a))

    @property
    def mean_delta_com(self) -> float:
        return float(np.mean(self.com_b - self.com_a))

    @property
    def selection_rate_b(self) -> float:
        return float(np.mean(self.cvlme_b > self.cvlme_a))


def equally_spaced(n: int) -> np.ndarray:
    """n points from -1 to +1 inclusive with constant step."""
    if n < 2:
        raise ValueError("need at least 2 points")
    return np.linspace(-1.0, 1.0, n)


def build_poly_design(x, order: int) -> np.ndarray:
    """Matrix of raw predictor powers x^0 .. x^order, one row per point."""
    x = np.asarray(x, dtype=float)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if np.any(np.abs(x) > 1.0):
        raise ValueError("predictor values must lie in [-1, +1]")
    return np.vander(x, order + 1, increasing=True)


def _simulate(X_gen, noise_variance: float, master_seed: int, n_replications: int,
              n_sessions: int) -> np.ndarray:
    """Responses X_gen beta + white noise, shape (n_sessions, n, n_replications).

    Per replication r, beta (shared by the sessions) comes from
    SeedSequence(master_seed, spawn_key=(r, 0)) and the sessions' noise (one
    draw, a row per session) from spawn_key=(r, 1), so a column does not
    depend on n_replications.
    """
    n, k = X_gen.shape
    y = np.empty((n_sessions, n, n_replications))
    for rep in range(n_replications):
        beta_rng, noise_rng = (np.random.default_rng(np.random.SeedSequence(
            master_seed, spawn_key=(rep, i))) for i in (0, 1))
        beta = beta_rng.standard_normal(k)
        z = noise_rng.standard_normal((n_sessions, n))
        y[:, :, rep] = X_gen @ beta + np.sqrt(noise_variance) * z
    return y


def simulate_polynomial(config: PolySweepConfig) -> np.ndarray:
    """Response matrix (n_points, n_simulations) of the order-p_true polynomial, white noise."""
    X_gen = build_poly_design(equally_spaced(config.n_points), config.p_true)
    return _simulate(X_gen, config.noise_variance, config.master_seed,
                     config.n_simulations, 1)[0]


def _standard_prior(p: int) -> NormalGammaParams:
    """Unit normal prior on coefficients, flat-ish gamma prior on precision."""
    return NormalGammaParams(mu=np.zeros(p), lam=SpdMatrix.identity(p),
                             shape=1.0, rate=1.0)


def run_poly_sweep(config: PolySweepConfig) -> SweepResult:
    """Fit every order in [p_min, p_max] to all replications.

    The replications are the columns of one response matrix, so each order
    takes one evidence call; a failed check names the order and the
    column, which is the replication.
    """
    orders = np.arange(config.p_min, config.p_max + 1)
    x = equally_spaced(config.n_points)
    y = simulate_polynomial(config)
    means = np.zeros((3, len(orders)))
    for idx, order in enumerate(orders):
        try:
            data = GlmDataset(y=y, X=build_poly_design(x, int(order)))
            q = log_model_evidence(data, _standard_prior(int(order) + 1)).quality
        except ArithmeticError as exc:
            raise type(exc)(f"fit failed at order {order}: {exc}") from exc
        except ValueError as exc:  # not type(exc): a FactorizationError takes a pivot index
            raise ValueError(f"fit failed at order {order}: {exc}") from exc
        means[:, idx] = np.mean(q.lme), np.mean(q.accuracy), np.mean(q.complexity)
    return SweepResult(orders=orders, mean_lme=means[0],
                       mean_acc=means[1], mean_com=means[2])


def _condition_levels(trials_per_condition: int) -> np.ndarray:
    """(left, right) level pair per trial: all 4 x 4 combinations, repeated."""
    pairs = np.array([(i, j) for i in range(4) for j in range(4)])
    return np.repeat(pairs, trials_per_condition, axis=0)


def _design_flexible(levels: np.ndarray) -> np.ndarray:
    """Design A: one indicator column per (left, right) condition combination."""
    combo = levels[:, 0] * 4 + levels[:, 1]
    return np.eye(16)[combo]


def _design_modulated(levels: np.ndarray) -> np.ndarray:
    """Design B: all-trials column plus one parametric modulator per factor."""
    pm = np.asarray(PM_WEIGHTS)
    return np.column_stack([np.ones(len(levels)), pm[levels[:, 0]], pm[levels[:, 1]]])


def run_cv_study(config: CvStudyConfig) -> CvStudyResult:
    """Compare cross-validated evidence of designs A and B.

    Per replication, coefficients of the generating design are drawn once
    (shared across sessions) and session noise is drawn independently.
    Each session's responses hold one column per replication, so both
    designs are scored with one leave-one-session-out call each.
    """
    levels = _condition_levels(config.trials_per_condition)
    X_a = _design_flexible(levels)
    X_b = _design_modulated(levels)
    X_gen = X_b if config.generator == "B" else X_a
    y = _simulate(X_gen, config.noise_variance, config.master_seed,
                  config.n_replications, config.n_sessions)
    qa = cv_model_quality(GlmDataset(y=ys, X=X_a) for ys in y)
    qb = cv_model_quality(GlmDataset(y=ys, X=X_b) for ys in y)
    return CvStudyResult(cvlme_a=qa.lme, cvlme_b=qb.lme, acc_a=qa.accuracy,
                         acc_b=qb.accuracy, com_a=qa.complexity, com_b=qb.complexity)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per model order; 12 significant digits, LF endings."""
    _write_table(path, SWEEP_CSV_HEADER, result.orders,
                 (result.mean_lme, result.mean_acc, result.mean_com))


def write_cv_csv(result: CvStudyResult, path) -> None:
    """One row per replication of the cross-validation study."""
    _write_table(path, CV_CSV_HEADER, range(result.n_replications),
                 (result.cvlme_a, result.cvlme_b, result.acc_a, result.acc_b,
                  result.com_a, result.com_b))


def _write_table(path, header: str, index, columns) -> None:
    """A header, then per row its integer index and each column to 12 digits."""
    lines = [header] + [",".join([str(int(i))] + [format(float(c[r]), ".12g") for c in columns])
                        for r, i in enumerate(index)]
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def load_config(path, cls):
    """Read a flat JSON config, rejecting unknown keys and mistyped values."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return _config_from_dict(cls, doc)
