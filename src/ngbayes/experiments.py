"""Desk-scale simulation studies.

Two experiments: a polynomial model-order sweep in which the log model
evidence recovers the generating order, and a multi-session study in
which cross-validated evidence distinguishes a flexible per-condition
design from a constrained parametric-modulator design generated from the
same conditions. One simulator generates the data of both: per
replication r, coefficients from numpy's SeedSequence(seed, spawn_key=(r, 0)),
each session's noise in turn from spawn_key=(r, 1), and y = X_gen beta +
sigma z. The seed words of all 2R streams come from one vectorized pass of
SeedSequence's own hash, so the draws are numpy's, bit for bit, without
building a SeedSequence per stream. In both, every replication shares the
candidate design, so the replications are the columns of one response
matrix. The sweep factors the order-p_max design once and reads every
order from that one factor; the study makes one cross-validation per
design. Each fits all replications at once, and each result records the
seconds spent simulating and fitting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .distributions import NormalGammaParams
from .glm import FitDiagnostics, GlmDataset, cv_model_quality, nested_log_model_evidence
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
    """Per-order means across simulations plus the winning order, the fits' check margins
    and ``stage_s``, the seconds spent in each stage ('simulate', 'fit')."""

    orders: np.ndarray
    mean_lme: np.ndarray
    mean_acc: np.ndarray
    mean_com: np.ndarray
    argmax_order: int = field(init=False)
    diagnostics: FitDiagnostics = field(repr=False, compare=False)
    stage_s: dict = field(repr=False, compare=False)

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
    """Per-replication cross-validated qualities of designs A and B; ``diagnostics`` maps
    'a' and 'b' to their FitDiagnostics, a row per fold, and ``stage_s`` gives the seconds
    spent in each stage ('simulate', 'fit')."""

    cvlme_a: np.ndarray
    cvlme_b: np.ndarray
    acc_a: np.ndarray
    acc_b: np.ndarray
    com_a: np.ndarray
    com_b: np.ndarray
    diagnostics: dict = field(repr=False, compare=False)
    stage_s: dict = field(repr=False, compare=False)

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


# numpy's SeedSequence (O'Neill's seed_seq hash): pool size, hash and mix constants.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hasher(init: int, mult: int):
    """numpy's SeedSequence hash with its running constant h, which depends on no data:
    each call XORs h into the words, steps h to h * mult, multiplies by it and folds the
    high half down. The constants are Python ints masked to 32 bits; the words are uint32
    arrays, which wrap silently."""
    h = init

    def hash_words(value):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK32
        value = value * h
        return value ^ value >> 16

    return hash_words


def _seed_states(seed: int, keys) -> np.ndarray:
    """SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64) for every row of
    ``keys`` (K, m), one word < 2**32 per key entry, as a (K, 4) array.

    numpy's algorithm run on all keys at once: the seed's little-endian 32-bit words,
    zero-padded to the pool size, then the key's words are hashed into a pool of 4
    words, which is drawn out as 8 words and paired into uint64.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    words = [np.array([seed >> s & _MASK32], dtype=np.uint32)
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL - len(words)) + list(keys.T)
    hashmix, draw = _hasher(_INIT_A, _MULT_A), _hasher(_INIT_B, _MULT_B)

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.stack(np.broadcast_arrays(*(draw(pool[i % _POOL]) for i in range(2 * _POOL))),
                     axis=-1)
    # Paired as numpy pairs them: little-endian words viewed as little-endian uint64.
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState:
    """A SeedSequence's precomputed PCG64 seed: answers generate_state(4, np.uint64) only.
    ``_simulate`` registers it as numpy's ISeedSequence, so importing this module does not
    load numpy.random."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed state holds {len(self.words)} uint64 words, "
                             f"asked for {n_words} of {np.dtype(dtype)}")
        return self.words


def _simulate(X_gen, noise_variance: float, master_seed: int, n_replications: int,
              n_sessions: int) -> np.ndarray:
    """Responses X_gen beta + white noise, shape (n_sessions, n, n_replications).

    Per replication r, beta (shared by the sessions) comes from
    SeedSequence(master_seed, spawn_key=(r, 0)) and the sessions' noise (one
    draw, a row per session) from spawn_key=(r, 1), so a column does not
    depend on n_replications. The 2R seed states are computed in one pass and
    each seeds its PCG64; each replication's matrix-vector product stays its
    own, as one product over all replications rounds differently.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedState)
    n, k = X_gen.shape
    keys = np.indices((n_replications, 2), dtype=np.uint32).reshape(2, -1).T  # (r, i), r-major
    states = _seed_states(master_seed, keys).reshape(n_replications, 2, _POOL)
    y = np.empty((n_sessions, n, n_replications))
    for rep, (beta_state, noise_state) in enumerate(states):
        beta = np.random.default_rng(_SeedState(beta_state)).standard_normal(k)
        z = np.random.default_rng(_SeedState(noise_state)).standard_normal((n_sessions, n))
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
    """Fit every order in [p_min, p_max] to all replications from one factor.

    The order-p_max design is factored once and every order is read from its
    leading columns; the replications are the columns of one response
    matrix. A failed check names the order and the column, which is the
    replication.
    """
    start = time.perf_counter()
    y = simulate_polynomial(config)
    simulated = time.perf_counter()
    orders = np.arange(config.p_min, config.p_max + 1)
    X = build_poly_design(equally_spaced(config.n_points), config.p_max)
    data = GlmDataset(y=y, X=X)
    q, diagnostics = nested_log_model_evidence(data, _standard_prior(config.p_max + 1), orders)
    return SweepResult(orders=orders, mean_lme=np.mean(q.lme, axis=1),
                       mean_acc=np.mean(q.accuracy, axis=1),
                       mean_com=np.mean(q.complexity, axis=1), diagnostics=diagnostics,
                       stage_s={"simulate": simulated - start,
                                "fit": time.perf_counter() - simulated})


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
    start = time.perf_counter()
    y = _simulate(X_gen, config.noise_variance, config.master_seed,
                  config.n_replications, config.n_sessions)
    simulated = time.perf_counter()
    qa, da = cv_model_quality(GlmDataset(y=ys, X=X_a) for ys in y)
    qb, db = cv_model_quality(GlmDataset(y=ys, X=X_b) for ys in y)
    return CvStudyResult(cvlme_a=qa.lme, cvlme_b=qb.lme, acc_a=qa.accuracy,
                         acc_b=qb.accuracy, com_a=qa.complexity, com_b=qb.complexity,
                         diagnostics={"a": da, "b": db},
                         stage_s={"simulate": simulated - start,
                                  "fit": time.perf_counter() - simulated})


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
