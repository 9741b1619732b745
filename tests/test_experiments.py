import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from ngbayes.experiments import (
    CvStudyConfig,
    PolySweepConfig,
    SweepResult,
    build_poly_design,
    equally_spaced,
    load_config,
    run_cv_study,
    run_poly_sweep,
    simulate_polynomial,
    write_cv_csv,
    write_sweep_csv,
)
from ngbayes.experiments import _seed_states, _SeedState, _simulate
from ngbayes.glm import FitDiagnostics

# _simulate registers the shim on first use; tests that build one directly must not depend on
# some earlier test having simulated.
ISeedSequence.register(_SeedState)


def no_margins(m):
    """Check margins of m orders of one response, all zero."""
    return FitDiagnostics(np.zeros((m, 1)), np.zeros(m), np.zeros((m, 1)))


class TestEquallySpaced:
    def test_small_cases(self):
        np.testing.assert_allclose(equally_spaced(3), [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(equally_spaced(2), [-1.0, 1.0])

    def test_endpoints_and_step(self):
        x = equally_spaced(100)
        assert x[0] == -1.0 and x[-1] == 1.0
        np.testing.assert_allclose(np.diff(x), 2.0 / 99.0)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            equally_spaced(1)

    @given(st.integers(min_value=2, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_always_within_bounds(self, n):
        x = equally_spaced(n)
        assert len(x) == n
        assert np.all(np.abs(x) <= 1.0)


class TestBuildPolyDesign:
    def test_order_zero_is_constant(self):
        np.testing.assert_allclose(build_poly_design(equally_spaced(5), 0), np.ones((5, 1)))

    def test_direct_powers(self):
        X = build_poly_design([-1.0, 0.0, 1.0], 2)
        np.testing.assert_allclose(X, [[1, -1, 1], [1, 0, 0], [1, 1, 1]])

    def test_entries_bounded_at_high_order(self):
        X = build_poly_design(equally_spaced(100), 20)
        assert X.shape == (100, 21)
        assert np.max(np.abs(X)) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[-1"):
            build_poly_design([0.0, 1.5], 2)


class TestSimulatePolynomial:
    def test_deterministic(self):
        cfg = PolySweepConfig(master_seed=42, n_simulations=4)
        a = simulate_polynomial(cfg)
        b = simulate_polynomial(cfg)
        np.testing.assert_array_equal(a, b)

    def test_replications_differ(self):
        y = simulate_polynomial(PolySweepConfig(master_seed=42, n_simulations=2))
        assert not np.array_equal(y[:, 0], y[:, 1])

    def test_noiseless_limit_is_exact_polynomial(self):
        cfg = PolySweepConfig(master_seed=7, noise_variance=0.0, n_points=50, n_simulations=1)
        X = build_poly_design(equally_spaced(50), cfg.p_true)
        y = simulate_polynomial(cfg)[:, 0]
        # Refit residual of the exact design must vanish.
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(X @ beta, y, atol=1e-10)

    def test_noise_variance_moment(self):
        cfg = PolySweepConfig(master_seed=5, n_points=10_000, noise_variance=2.0,
                              n_simulations=1)
        X = build_poly_design(equally_spaced(10_000), cfg.p_true)
        y = simulate_polynomial(cfg)[:, 0]
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        assert np.var(resid) == pytest.approx(2.0, rel=0.05)

    def test_columns_do_not_depend_on_n_simulations(self):
        y2 = simulate_polynomial(PolySweepConfig(master_seed=11, n_simulations=2))
        y4 = simulate_polynomial(PolySweepConfig(master_seed=11, n_simulations=4))
        assert y2.shape == (100, 2) and y4.shape == (100, 4)
        np.testing.assert_array_equal(y2, y4[:, :2])


def simulate_per_stream(X_gen, noise_variance, master_seed, n_replications, n_sessions):
    """The simulator's streams built one SeedSequence at a time: the reference."""
    n, k = X_gen.shape
    y = np.empty((n_sessions, n, n_replications))
    for rep in range(n_replications):
        beta_rng, noise_rng = (np.random.default_rng(np.random.SeedSequence(
            master_seed, spawn_key=(rep, i))) for i in (0, 1))
        beta = beta_rng.standard_normal(k)
        z = noise_rng.standard_normal((n_sessions, n))
        y[:, :, rep] = X_gen @ beta + np.sqrt(noise_variance) * z
    return y


class TestSeedStreams:
    @given(seed=st.integers(min_value=0, max_value=2**200),
           keys=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 1)),
                         min_size=1, max_size=4))
    @example(seed=2**32 - 1, keys=[(0, 0)])
    @example(seed=2**32, keys=[(10**6, 1)])
    @example(seed=2**128, keys=[(3, 0), (3, 1)])
    @settings(max_examples=100, deadline=None)
    def test_state_words_are_numpys(self, seed, keys):
        states = _seed_states(seed, keys)
        assert states.shape == (len(keys), 4) and states.dtype == np.uint64
        for key, words in zip(keys, states):
            seq = np.random.SeedSequence(seed, spawn_key=key)
            np.testing.assert_array_equal(words, seq.generate_state(4, np.uint64))
            assert np.random.PCG64(_SeedState(words)).state == np.random.PCG64(seq).state

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64)])
    def test_seed_state_rejects_other_requests(self, n_words, dtype):
        with pytest.raises(ValueError, match="4 uint64 words"):
            _SeedState(_seed_states(0, [(0, 0)])[0]).generate_state(n_words, dtype)

    @pytest.mark.parametrize("seed", [0, 1, 7, 4242, 2**32, 2**100 + 3])
    @pytest.mark.parametrize("n_sessions", [1, 5])
    @pytest.mark.parametrize("noise_variance", [0.0, 2.0])
    def test_simulator_streams_unchanged(self, seed, n_sessions, noise_variance):
        X_gen = build_poly_design(equally_spaced(30), 3)
        args = (X_gen, noise_variance, seed, 6, n_sessions)
        assert np.array_equal(_simulate(*args), simulate_per_stream(*args))


@pytest.fixture(scope="module")
def small_sweep():
    return run_poly_sweep(PolySweepConfig(n_simulations=10, master_seed=3))


@pytest.fixture(scope="module")
def study():
    return run_cv_study(CvStudyConfig(n_replications=30, master_seed=9))


class TestRunPolySweep:
    def test_argmax_is_true_order(self, small_sweep):
        assert small_sweep.argmax_order == 5

    def test_decomposition_holds_per_order(self, small_sweep):
        np.testing.assert_allclose(
            small_sweep.mean_lme, small_sweep.mean_acc - small_sweep.mean_com, atol=1e-8
        )

    def test_accuracy_trend_up_to_true_order(self, small_sweep):
        acc = small_sweep.mean_acc
        assert np.all(np.diff(acc[:6]) > -0.5)
        assert acc[5] > acc[0]

    def test_complexity_increases_past_true_order(self, small_sweep):
        com = small_sweep.mean_com
        assert np.all(np.diff(com[5:]) > 0.0)

    def test_deterministic_for_fixed_seed(self):
        cfg = PolySweepConfig(n_simulations=3, master_seed=11)
        a, b = run_poly_sweep(cfg), run_poly_sweep(cfg)
        np.testing.assert_array_equal(a.mean_lme, b.mean_lme)

    def test_constant_generator_selects_order_zero(self):
        wins = 0
        for rep_seed in range(10):
            cfg = PolySweepConfig(n_simulations=1, p_true=0, p_max=6, master_seed=rep_seed)
            wins += run_poly_sweep(cfg).argmax_order == 0
        assert wins >= 9

    def test_near_noiseless_run_never_underfits(self):
        # With the fixed unit gamma prior, the vanishing-noise limit does
        # not pin the winner to exactly 5 (the prior expects unit residual
        # variance), but no order below the generating one can win.
        cfg = PolySweepConfig(n_simulations=1, noise_variance=1e-6, master_seed=2)
        assert run_poly_sweep(cfg).argmax_order >= 5

    def test_matched_noise_recovery(self):
        cfg = PolySweepConfig(n_simulations=20, noise_variance=1.0, master_seed=2)
        assert run_poly_sweep(cfg).argmax_order == 5


class TestSweepResult:
    def test_inconsistent_means_rejected(self):
        with pytest.raises(ValueError):
            SweepResult(orders=np.array([0]), mean_lme=np.array([1.0]),
                        mean_acc=np.array([0.0]), mean_com=np.array([0.0]),
                        diagnostics=no_margins(1), stage_s={})

    def test_tie_breaks_to_smaller_order(self):
        r = SweepResult(orders=np.array([0, 1]), mean_lme=np.array([2.0, 2.0]),
                        mean_acc=np.array([2.0, 2.0]), mean_com=np.array([0.0, 0.0]),
                        diagnostics=no_margins(2), stage_s={})
        assert r.argmax_order == 0


class TestRunCvStudy:
    def test_constrained_generator_favors_constrained_model(self, study):
        assert study.mean_delta_lme > 0.0
        assert study.selection_rate_b > 0.8

    def test_complexity_penalizes_flexible_model(self, study):
        assert study.mean_delta_com < 0.0
        assert np.mean(study.com_b < study.com_a) > 0.5

    def test_single_session_rejected(self):
        with pytest.raises(ValueError):
            CvStudyConfig(n_sessions=1)

    def test_deterministic(self):
        cfg = CvStudyConfig(n_replications=3, master_seed=4)
        a, b = run_cv_study(cfg), run_cv_study(cfg)
        np.testing.assert_array_equal(a.cvlme_a, b.cvlme_a)
        np.testing.assert_array_equal(a.cvlme_b, b.cvlme_b)

    def test_flexible_generator_supported(self):
        r = run_cv_study(CvStudyConfig(n_replications=3, generator="A", master_seed=1))
        assert r.n_replications == 3


class TestCsvOutput:
    def test_sweep_row_count_and_roundtrip(self, tmp_path):
        result = run_poly_sweep(PolySweepConfig(n_simulations=2, master_seed=1))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "order,mean_lme,mean_acc,mean_com"
        assert len(lines) == 1 + 21 + 1  # header + 21 orders + trailing newline
        back = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(back["mean_lme"], result.mean_lme, rtol=1e-11)

    def test_empty_result_writes_header_only(self, tmp_path):
        empty = SweepResult(orders=np.array([], dtype=int), mean_lme=np.array([]),
                            mean_acc=np.array([]), mean_com=np.array([]),
                            diagnostics=no_margins(0), stage_s={})
        path = tmp_path / "empty.csv"
        write_sweep_csv(empty, path)
        assert path.read_text() == "order,mean_lme,mean_acc,mean_com\n"

    def test_cv_csv_header(self, tmp_path):
        result = run_cv_study(CvStudyConfig(n_replications=2, master_seed=1))
        path = tmp_path / "cv.csv"
        write_cv_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "replication,cvlme_a,cvlme_b,acc_a,acc_b,com_a,com_b"
        assert len(lines) == 3

    def test_unwritable_path_reports_path(self):
        result = SweepResult(orders=np.array([], dtype=int), mean_lme=np.array([]),
                             mean_acc=np.array([]), mean_com=np.array([]),
                             diagnostics=no_margins(0), stage_s={})
        with pytest.raises(OSError, match="no/such"):
            write_sweep_csv(result, "/no/such/dir/out.csv")


class TestConfigLoading:
    def test_loads_and_rejects_unknown_keys(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text('{"n_simulations": 5, "master_seed": 1}')
        cfg = load_config(good, PolySweepConfig)
        assert cfg.n_simulations == 5 and cfg.p_true == 5

        bad = tmp_path / "bad.json"
        bad.write_text('{"n_simulations": 5, "bogus": true}')
        with pytest.raises(ValueError, match="bogus"):
            load_config(bad, PolySweepConfig)

    def test_invalid_order_bounds(self):
        with pytest.raises(ValueError):
            PolySweepConfig(p_min=6, p_true=5)
