import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from ngbayes.cli import main

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestKlCommand:
    def test_identical_gammas(self, capsys):
        status, out, _ = run_cli(capsys, "kl", "gamma", "--p", "a=1,b=1", "--q", "a=1,b=1")
        assert status == 0
        assert json.loads(out)["kl"] == 0.0

    def test_gamma_value(self, capsys):
        status, out, _ = run_cli(capsys, "kl", "gamma", "--p", "a=1,b=1", "--q", "a=2,b=1")
        assert status == 0
        assert json.loads(out)["kl"] == pytest.approx(0.57722, abs=1e-5)

    def test_gamma_rate_quotient_beyond_float_range(self, capsys):
        # b1 / b2 = 1e400 overflows, but ln b1 - ln b2 does not; the reference has 50 digits.
        status, out, _ = run_cli(capsys, "kl", "gamma", "--p", "a=1,b=1e200",
                                 "--q", "a=1,b=1e-200")
        assert status == 0
        assert json.loads(out)["kl"] == pytest.approx(920.0340371976182736, rel=1e-12)

    def test_ng_check_passes(self, capsys):
        p = '{"mu": [0.5], "Lambda": [[2.0]], "a": 2.0, "b": 1.0}'
        q = '{"mu": [0.0], "Lambda": [[1.0]], "a": 1.0, "b": 1.0}'
        status, out, _ = run_cli(
            capsys, "kl", "ng", "--p", p, "--q", q,
            "--check", "--mc-samples", "200000", "--seed", "7",
        )
        assert status == 0
        report = json.loads(out)
        assert report["check"] == "PASS"
        assert report["mc_standard_error"] > 0.0

    def test_mvn_inline_json(self, capsys):
        p = '{"mu": [0.0], "Lambda": [[1.0]]}'
        q = '{"mu": [1.0], "Lambda": [[1.0]]}'
        status, out, _ = run_cli(capsys, "kl", "mvn", "--p", p, "--q", q)
        assert status == 0
        assert json.loads(out)["kl"] == pytest.approx(0.5)

    def test_params_from_file(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"a": 2, "b": 2}')
        status, out, _ = run_cli(capsys, "kl", "gamma", "--p", str(f), "--q", "a=1,b=1")
        assert status == 0
        assert json.loads(out)["kl"] == pytest.approx(0.11593, abs=1e-5)

    @pytest.mark.parametrize("spec, message", [
        ("a=1", "gamma parameters missing field(s): b"),
        ("a=1,2,b=1", "parameter a is not a JSON value: '1,2'"),
        ("a=x,b=1", "parameter a is not a JSON value: 'x'"),
        ("foo", "cannot parse parameter item 'foo'"),
    ], ids=["missing", "extra-comma", "not-json", "no-equals"])
    def test_malformed_params_names_field(self, capsys, spec, message):
        status, out, err = run_cli(capsys, "kl", "gamma", "--p", spec, "--q", "a=1,b=1")
        assert status == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_bracketed_commas_stay_in_their_item(self, capsys):
        # One argv item: a comma inside brackets, spaces or not, never starts an item.
        kv = run_cli(capsys, "kl", "mvn", "--p", "mu=[0, 1],Lambda=[[1, 0], [0, 1]]",
                     "--q", "mu=[1,0],Lambda=[[2,0],[0,2]]")
        inline = run_cli(capsys, "kl", "mvn", "--p", '{"mu": [0, 1], "Lambda": [[1, 0], [0, 1]]}',
                         "--q", '{"mu": [1, 0], "Lambda": [[2, 0], [0, 2]]}')
        assert kv[0] == inline[0] == 0
        assert json.loads(kv[1])["kl"] == json.loads(inline[1])["kl"]

    def test_non_object_params_file_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "five.json"
        f.write_text("5")
        status, _, err = run_cli(capsys, "kl", "gamma", "--p", str(f), "--q", "a=1,b=1")
        assert status == 1
        assert err.startswith("error: ") and "JSON object" in err

    def test_batched_rate_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "kl", "gamma", "--p", "a=1,b=[1,2]", "--q", "a=1,b=1")
        assert status == 1
        assert err.startswith("error: ")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        status, _, _ = run_cli(capsys, "frobnicate")
        assert status == 1

    def test_list_gamma_shape_is_usage_error(self, capsys):
        p = '{"mu": [0], "Lambda": [[1]], "a": [1], "b": 1}'
        status, _, err = run_cli(capsys, "kl", "ng", "--p", p, "--q", "a=1,b=1")
        assert status == 1
        assert err.startswith("error: ") and "gamma shape" in err

    @pytest.mark.parametrize("family, p, q", [
        ("gamma", "a=1e-300,b=1", "a=1e300,b=1e-300"),
        ("gamma", "a=1,b=1e-200", "a=1,b=1e200"),  # the true KL, about 1e400, is not a float
        ("mvn", '{"mu": [1e200], "Lambda": [[1e200]]}', '{"mu": [-1e200], "Lambda": [[1e200]]}'),
        ("ng", '{"mu": [1e200], "Lambda": [[1e200]], "a": 1, "b": 1}',
         '{"mu": [-1e200], "Lambda": [[1e200]], "a": 1, "b": 1}'),
    ])
    def test_non_finite_kl_is_named_error(self, capsys, family, p, q):
        # An overflow warning would fail this test (error::RuntimeWarning).
        status, out, err = run_cli(capsys, "kl", family, "--p", p, "--q", q)
        assert status == 1 and out == ""
        assert err.startswith("numerical error: ") and "not a finite number" in err

    @pytest.mark.parametrize("family, p, q, shape", [
        ("gamma", "a=0.001,b=1", "a=1,b=1", "0.001"),
        ("gamma", "a=1e-300,b=1", "a=1,b=1", "1e-300"),
        ("ng", '{"mu": [0], "Lambda": [[1]], "a": 0.001, "b": 1}',
         '{"mu": [0], "Lambda": [[1]], "a": 1, "b": 1}', "0.001"),
    ])
    def test_gamma_sampler_underflow_is_named_error(self, capsys, family, p, q, shape):
        # A divide-by-zero warning would fail this test (error::RuntimeWarning).
        status, out, err = run_cli(capsys, "kl", family, "--p", p, "--q", q,
                                   "--check", "--mc-samples", "1000")
        assert status == 1 and out == ""
        assert err == f"numerical error: gamma sampler underflowed to 0 at shape {shape}\n"

    @pytest.mark.parametrize("family, p, q", [
        ("mvn", "mu=[0],Lambda=[[1]]", "mu=[0],Lambda=[[1e300]]"),
        ("gamma", "a=1,b=1", "a=1e-300,b=1e300"),
    ])
    def test_monte_carlo_variance_overflow_is_named_error(self, capsys, family, p, q):
        # An overflow warning would fail this test (error::RuntimeWarning), and a
        # NaN standard error would print invalid JSON with a spurious FAIL.
        status, out, err = run_cli(capsys, "kl", family, "--p", p, "--q", q,
                                   "--check", "--mc-samples", "1000")
        assert status == 1 and out == ""
        assert err.startswith("numerical error: ") and "overflow" in err

    GAMMA = ("gamma", "a=1.5,b=2", "a=2,b=1")
    MVN = ("mvn", '{"mu": [0.5, -0.2, 0.1], "Lambda": [[2, 0.3, 0], [0.3, 1, 0.1], [0, 0.1, 1.5]]}',
           '{"mu": [0, 0, 0], "Lambda": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')
    NG = ("ng", '{"mu": [0.5, -0.2], "Lambda": [[2, 0.3], [0.3, 1]], "a": 2, "b": 1}',
          '{"mu": [0, 0], "Lambda": [[1, 0], [0, 1]], "a": 1, "b": 1}')

    @pytest.mark.parametrize("family, p, q, mc_samples, mc_value, mc_standard_error", [
        (*GAMMA, 1000, 0.7732044100962542, 0.03347329744743471),
        (*MVN, 1000, 0.2870428150617321, 0.02075223550086654),
        (*NG, 1000, 0.7894173879509055, 0.04009807277566987),
        (*GAMMA, 150000, 0.7401051548378649, 0.0027112685230089037),
        (*MVN, 150000, 0.2996189935101255, 0.001661665292538758),
        (*NG, 150000, 0.8193345721740127, 0.003178347496423122),
    ], ids=["gamma", "mvn", "ng", "gamma-3-batches", "mvn-3-batches", "ng-3-batches"])
    def test_check_stream_is_pinned(self, capsys, family, p, q, mc_samples, mc_value,
                                    mc_standard_error):
        # --seed s draws batch 0 from SeedSequence(s, spawn_key=(0,)) and batch b >= 1
        # from spawn_key=(0, b - 1); the figures pin those streams.
        status, out, _ = run_cli(capsys, "kl", family, "--p", p, "--q", q,
                                 "--check", "--mc-samples", str(mc_samples), "--seed", "7")
        assert status == 0
        report = json.loads(out)
        assert report["mc_value"] == pytest.approx(mc_value, rel=1e-12)
        assert report["mc_standard_error"] == pytest.approx(mc_standard_error, rel=1e-12)

    def test_check_reports_z_score(self, capsys):
        family, p, q = self.NG
        status, out, _ = run_cli(capsys, "kl", family, "--p", p, "--q", q,
                                 "--check", "--mc-samples", "1000", "--seed", "7")
        assert status == 0
        report = json.loads(out)
        kl, mc, se = report["kl"], report["mc_value"], report["mc_standard_error"]
        assert report["mc_z_score"] == (kl - mc) / se

    def test_check_z_score_is_null_for_zero_standard_error(self, capsys):
        status, out, _ = run_cli(capsys, "kl", "gamma", "--p", "a=2,b=1", "--q", "a=2,b=1",
                                 "--check", "--mc-samples", "1000")
        assert status == 0
        report = json.loads(out)
        assert report["mc_standard_error"] == 0.0 and report["check"] == "PASS"
        assert report["mc_z_score"] is None


class TestFitCommand:
    def write_hand_files(self, tmp_path, with_p=True):
        data = {"y": [2.0], "X": [[1.0]]}
        if with_p:
            data["P"] = [[1.0]]
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps(data))
        prior_file = tmp_path / "prior.json"
        prior_file.write_text(json.dumps({"mu0": [0.0], "Lambda0": [[1.0]], "a0": 1.0, "b0": 1.0}))
        return str(data_file), str(prior_file)

    def test_hand_example(self, capsys, tmp_path):
        data_file, prior_file = self.write_hand_files(tmp_path)
        status, out, _ = run_cli(capsys, "fit", data_file, prior_file)
        assert status == 0
        report = json.loads(out)
        assert report["mu_n"] == [pytest.approx(1.0)]
        assert report["Lambda_n"] == [[pytest.approx(2.0)]]
        assert report["a_n"] == 1.5
        assert report["b_n"] == pytest.approx(2.0)

    def test_noise_precision_from_file(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        n = 8
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = X @ np.array([0.5, -1.0]) + rng.standard_normal(n)
        P = 2.0 * np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps({"y": y.tolist(), "X": X.tolist(), "P": P.tolist()}))
        prior_file = tmp_path / "prior.json"
        prior_file.write_text(json.dumps({
            "mu0": [0.0, 0.0], "Lambda0": [[1.0, 0.0], [0.0, 1.0]], "a0": 1.0, "b0": 1.0
        }))
        status, out, _ = run_cli(capsys, "fit", str(data_file), str(prior_file))
        assert status == 0
        report = json.loads(out)
        lam_n = X.T @ P @ X + np.eye(2)
        mu_n = np.linalg.solve(lam_n, X.T @ P @ y)
        assert report["noise_precision"] == "from file"
        np.testing.assert_allclose(report["mu_n"], mu_n, rtol=1e-10)
        np.testing.assert_allclose(report["Lambda_n"], lam_n, rtol=1e-10)
        assert report["a_n"] == 1.0 + 0.5 * n
        assert report["b_n"] == pytest.approx(1.0 + 0.5 * (y @ P @ y - mu_n @ lam_n @ mu_n),
                                              rel=1e-10)

    def test_reports_check_margins(self, capsys, tmp_path):
        data_file, prior_file = self.write_hand_files(tmp_path)
        status, out, _ = run_cli(capsys, "fit", data_file, prior_file)
        assert status == 0
        report = json.loads(out)
        assert set(report) == {"mu_n", "Lambda_n", "a_n", "b_n", "accuracy", "complexity", "lme",
                               "noise_precision", "diagnostics"}
        d = report["diagnostics"]
        assert d["evidence_gap"]["column"] == 0 and 0.0 <= d["evidence_gap"]["max"] <= 1e-12
        assert set(d["trace_residual"]) == {"max_abs"} and d["trace_residual"]["max_abs"] <= 1e-14
        assert set(d["mu_error_bound"]) == {"max", "column"}
        assert 0.0 < d["mu_error_bound"]["max"] <= 1e-14

    def test_default_noise_precision_noted(self, capsys, tmp_path):
        data_file, prior_file = self.write_hand_files(tmp_path, with_p=False)
        status, out, _ = run_cli(capsys, "fit", data_file, prior_file)
        assert status == 0
        assert "identity" in json.loads(out)["noise_precision"]

    def test_rank_deficient_design(self, capsys, tmp_path):
        # Lambda_n = I + X^T X = [[3, 2], [2, 3]], mu_n = Lambda_n^-1 X^T y = [0.6, 0.6],
        # b_n = 1 + (y^T y - mu_n^T Lambda_n mu_n) / 2 = 1.7.
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps({"y": [1.0, 2.0], "X": [[1.0, 1.0], [1.0, 1.0]]}))
        prior_file = tmp_path / "prior.json"
        prior_file.write_text(json.dumps({
            "mu0": [0.0, 0.0], "Lambda0": [[1.0, 0.0], [0.0, 1.0]], "a0": 1.0, "b0": 1.0
        }))
        status, out, _ = run_cli(capsys, "fit", str(data_file), str(prior_file))
        assert status == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["mu_n"], [0.6, 0.6], rtol=1e-14)
        assert report["Lambda_n"] == [[3.0, 2.0], [2.0, 3.0]]
        assert report["b_n"] == pytest.approx(1.7, rel=1e-14)

    def test_data_without_signal(self, capsys, tmp_path):
        # X^T y = 0, so mu_n = 0 (to rounding), Lambda_n = 3 and b_n = 1 + y^T y / 2 = 2.
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps({"y": [1.0, -1.0], "X": [[1.0], [1.0]]}))
        prior_file = tmp_path / "prior.json"
        prior_file.write_text(json.dumps({"mu0": [0.0], "Lambda0": [[1.0]], "a0": 1.0, "b0": 1.0}))
        status, out, _ = run_cli(capsys, "fit", str(data_file), str(prior_file))
        assert status == 0
        report = json.loads(out)
        assert abs(report["mu_n"][0]) <= 1e-15
        assert report["Lambda_n"] == [[3.0]]
        assert report["b_n"] == pytest.approx(2.0, rel=1e-14)
        assert report["diagnostics"]["mu_error_bound"]["max"] <= 1e-15

    def test_empty_data_rejected(self, capsys, tmp_path):
        _, prior_file = self.write_hand_files(tmp_path)
        data_file = tmp_path / "empty.json"
        data_file.write_text(json.dumps({"y": [], "X": []}))
        status, _, _ = run_cli(capsys, "fit", str(data_file), prior_file)
        assert status == 1

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        _, prior_file = self.write_hand_files(tmp_path)
        status, _, _ = run_cli(capsys, "fit", str(bad), prior_file)
        assert status == 1


    @pytest.mark.parametrize("which", ["data", "prior"])
    def test_non_object_file_is_usage_error(self, capsys, tmp_path, which):
        files = dict(zip(("data", "prior"), self.write_hand_files(tmp_path)))
        files[which] = tmp_path / "five.json"
        files[which].write_text("5")
        status, _, err = run_cli(capsys, "fit", str(files["data"]), str(files["prior"]))
        assert status == 1
        assert err.startswith("error: ") and "JSON object" in err

    def test_list_gamma_shape_is_usage_error(self, capsys, tmp_path):
        data_file, prior_file = self.write_hand_files(tmp_path)
        Path(prior_file).write_text(json.dumps(
            {"mu0": [0.0], "Lambda0": [[1.0]], "a0": [1], "b0": 1.0}))
        status, _, err = run_cli(capsys, "fit", data_file, prior_file)
        assert status == 1
        assert err.startswith("error: ") and "gamma shape" in err

    def test_overflow_is_named(self, capsys, tmp_path):
        _, prior_file = self.write_hand_files(tmp_path)
        data_file = tmp_path / "big.json"
        data_file.write_text(json.dumps({"y": [1e308, 1], "X": [[1], [1]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, _, err = run_cli(capsys, "fit", str(data_file), prior_file)
        assert status == 1
        assert "overflow" in err and "column 0" in err
        assert "RuntimeWarning" not in err

    def test_overflowing_design_is_one_numerical_error(self, capsys, tmp_path):
        # X^T X overflows; the fit must name it in one line, with no numpy warning before it.
        _, prior_file = self.write_hand_files(tmp_path)
        data_file = tmp_path / "big.json"
        X = 1e200 * np.random.default_rng(0).standard_normal((10, 1))
        data_file.write_text(json.dumps({"y": np.ones(10).tolist(), "X": X.tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run_cli(capsys, "fit", str(data_file), prior_file)
        assert status == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("numerical error: ")
        assert "overflowed or degenerated in column 0" in err


class TestSweepCommand:
    def test_single_order_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_simulations": 2, "p_true": 0, "p_min": 0, "p_max": 0, "master_seed": 1
        }))
        out_csv = tmp_path / "out.csv"
        status, out, _ = run_cli(capsys, "sweep", str(cfg), "--out", str(out_csv))
        assert status == 0
        assert json.loads(out)["argmax_order"] == 0
        assert len(out_csv.read_text().strip().split("\n")) == 2

    def test_reports_check_margins(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_simulations": 3, "p_min": 2, "p_max": 9}))
        status, out, _ = run_cli(capsys, "sweep", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert status == 0
        report = json.loads(out)
        assert set(report) == {"config", "argmax_order", "mean_lme", "mean_acc", "mean_com",
                               "diagnostics", "csv", "stage_s"}
        assert set(report["stage_s"]) == {"simulate", "fit", "write"}
        assert all(s >= 0.0 for s in report["stage_s"].values())
        d = report["diagnostics"]
        assert set(d["evidence_gap"]) == {"max", "order", "column"}
        assert 0.0 <= d["evidence_gap"]["max"] <= 1e-10
        assert 2 <= d["evidence_gap"]["order"] <= 9 and 0 <= d["evidence_gap"]["column"] < 3
        assert set(d["trace_residual"]) == {"max_abs", "order"}
        assert d["trace_residual"]["max_abs"] <= 1e-12 and 2 <= d["trace_residual"]["order"] <= 9
        assert set(d["mu_error_bound"]) == {"max", "order", "column"}
        assert 0.0 < d["mu_error_bound"]["max"] <= 1e-10
        assert 2 <= d["mu_error_bound"]["order"] <= 9

    def test_seed_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_simulations": 2, "p_max": 3, "p_true": 2}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", str(cfg), "--out", str(a), "--seed", "5")[0] == 0
        assert run_cli(capsys, "sweep", str(cfg), "--out", str(b), "--seed", "5")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nope": 1}')
        status, _, err = run_cli(capsys, "sweep", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert status == 1
        assert "nope" in err

    def test_more_coefficients_than_points(self, capsys, tmp_path):
        # Orders 30 to 40 have more columns than the 30 points; the prior keeps them fittable.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_simulations": 2, "n_points": 30, "p_max": 40}))
        out_csv = tmp_path / "o.csv"
        status, _, _ = run_cli(capsys, "sweep", str(cfg), "--out", str(out_csv))
        assert status == 0
        assert len(out_csv.read_text().strip().split("\n")) == 1 + 41


class TestCvStudyCommand:
    def test_runs_and_reports(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_replications": 3, "master_seed": 2}))
        out_csv = tmp_path / "cv.csv"
        status, out, _ = run_cli(capsys, "cv-study", str(cfg), "--out", str(out_csv))
        assert status == 0
        report = json.loads(out)
        assert set(report) == {"config", "mean_delta_cvlme", "mean_delta_acc", "mean_delta_com",
                               "selection_rate_b", "diagnostics", "csv", "stage_s"}
        assert set(report["stage_s"]) == {"simulate", "fit", "write"}
        assert all(s >= 0.0 for s in report["stage_s"].values())
        assert len(out_csv.read_text().strip().split("\n")) == 4
        assert set(report["diagnostics"]) == {"a", "b"}
        for d in report["diagnostics"].values():
            assert set(d["evidence_gap"]) == set(d["mu_error_bound"]) == {"max", "fold", "column"}
            assert set(d["trace_residual"]) == {"max_abs", "fold"}
            assert 0 <= d["evidence_gap"]["fold"] < 5 and 0 <= d["evidence_gap"]["column"] < 3
            assert 0.0 <= d["evidence_gap"]["max"] <= 1e-10
            assert 0.0 < d["mu_error_bound"]["max"] <= 1e-10

    def test_single_session_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_sessions": 1}))
        status, _, _ = run_cli(capsys, "cv-study", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert status == 1

    def test_byte_identical_for_same_seed(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_replications": 2}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "cv-study", str(cfg), "--out", str(a), "--seed", "3")[0] == 0
        assert run_cli(capsys, "cv-study", str(cfg), "--out", str(b), "--seed", "3")[0] == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command, doc, field", [
    ("sweep", {"n_simulations": 2.5}, "n_simulations"),
    ("sweep", {"p_max": "20"}, "p_max"),
    ("sweep", {"master_seed": True}, "master_seed"),
    ("cv-study", {"n_sessions": 3.0}, "n_sessions"),
])
def test_mistyped_config_field_is_usage_error(capsys, tmp_path, command, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, command, str(cfg), "--out", str(tmp_path / "o.csv"))
    assert status == 1 and out == ""
    assert err.startswith("error: config field ") and field in err


@pytest.mark.parametrize("doc, argv, name", [
    ({"master_seed": -1}, ("cv-study", "{cfg}", "--out", "{out}"), "master_seed"),
    ({}, ("sweep", "{cfg}", "--out", "{out}", "--seed", "-1"), "master_seed"),
    ({}, ("kl", "gamma", "--p", "a=1,b=1", "--q", "a=2,b=1", "--check", "--seed", "-3"), "--seed"),
], ids=["config", "study-flag", "kl-flag"])
def test_negative_seed_is_named_usage_error(capsys, tmp_path, doc, argv, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [arg.format(cfg=cfg, out=tmp_path / "o.csv") for arg in argv]
    status, out, err = run_cli(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith(f"error: {name} must be nonnegative, got -")


def test_too_few_mc_samples_names_the_flag(capsys):
    status, out, err = run_cli(capsys, "kl", "gamma", "--p", "a=1,b=1", "--q", "a=2,b=1",
                               "--check", "--mc-samples", "10")
    assert status == 1 and out == ""
    assert err == "error: --mc-samples must be at least 100, got 10\n"


def test_float_config_field_takes_an_int(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_simulations": 1, "p_max": 5, "noise_variance": 2}))
    status, out, _ = run_cli(capsys, "sweep", str(cfg), "--out", str(tmp_path / "o.csv"))
    assert status == 0
    assert json.loads(out)["config"]["noise_variance"] == 2


def test_functions_are_looked_up_at_call_time(capsys, tmp_path, monkeypatch):
    """Samplers, log-densities and study functions are found by module name per call.

    Rebinding those names (as a tracer does) must reach every call; a table
    that captured the functions at import, or a parser built before the
    rebinding, would bypass it.
    """
    import ngbayes.cli
    import ngbayes.divergence

    ngbayes.cli._build_parser()  # a parser that exists before the rebinding must see it
    calls = {}

    def count_calls(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for kind in ("sample", "logpdf"):
        for family in ("gamma", "mvn", "ng"):
            count_calls(ngbayes.divergence, f"{kind}_{family}")
    studies = ["run_poly_sweep", "run_cv_study", "write_sweep_csv", "write_cv_csv",
               "_sweep_summary", "_cv_summary"]
    for name in studies:
        count_calls(ngbayes.cli, name)
    pairs = {
        "gamma": ("a=1,b=1", "a=2,b=1"),
        "mvn": ('{"mu": [0, 1], "Lambda": [[2, 0], [0, 1]]}',
                '{"mu": [0, 0], "Lambda": [[1, 0], [0, 1]]}'),
        "ng": ('{"mu": [0.5], "Lambda": [[2]], "a": 2, "b": 1}',
               '{"mu": [0], "Lambda": [[1]], "a": 1, "b": 1}'),
    }
    for family, (p, q) in pairs.items():
        status, _, _ = run_cli(capsys, "kl", family, "--p", p, "--q", q,
                               "--check", "--mc-samples", "1000")
        assert status in (0, 2)  # 2: a failed 3-sigma check, which 1000 samples may give
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_simulations": 2}))
    assert run_cli(capsys, "sweep", str(cfg), "--out", str(tmp_path / "s.csv"))[0] == 0
    cfg.write_text(json.dumps({"n_replications": 2}))
    assert run_cli(capsys, "cv-study", str(cfg), "--out", str(tmp_path / "c.csv"))[0] == 0
    assert sorted(calls) == sorted(
        [f"{kind}_{family}" for kind in ("sample", "logpdf") for family in ("gamma", "mvn", "ng")]
        + studies
    )


class TestParserCache:
    def test_built_once_and_keeps_no_state(self, capsys, tmp_path):
        import ngbayes.cli

        ngbayes.cli._build_parser.cache_clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_simulations": 2, "p_max": 3, "p_true": 2,
                                   "master_seed": 11}))
        out_csv = str(tmp_path / "o.csv")
        status, out, _ = run_cli(capsys, "sweep", str(cfg), "--out", out_csv, "--seed", "5")
        assert status == 0 and json.loads(out)["config"]["master_seed"] == 5
        status, out, _ = run_cli(capsys, "sweep", str(cfg), "--out", out_csv)
        assert status == 0 and json.loads(out)["config"]["master_seed"] == 11
        status, out, err = run_cli(capsys, "sweep", str(cfg))  # --out is required
        assert status == 1 and out == "" and "--out" in err
        info = ngbayes.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        status, out, _ = run_cli(capsys, "--help")
        assert status == 0 and out.startswith("usage: ngbayes")


def csv_rows(text):
    lines = text.rstrip("\n").split("\n")
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("command, reference", [("sweep", "sweep_seed0.csv"),
                                                ("cv-study", "cvstudy_seed0.csv")])
def test_default_study_matches_reference_csv(capsys, tmp_path, command, reference):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    outputs = []
    for name in ("a.csv", "b.csv"):
        status, out, _ = run_cli(capsys, command, str(cfg), "--out", str(tmp_path / name),
                                 "--seed", "0")
        assert status == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    header, rows = csv_rows(outputs[0].decode())
    ref_header, ref_rows = csv_rows((REFERENCE_DIR / reference).read_text())
    assert header == ref_header and rows.shape == ref_rows.shape
    scale = np.maximum(np.abs(rows), np.abs(ref_rows))
    assert np.all(np.abs(rows - ref_rows) <= 1e-9 * scale)
    if command == "sweep":
        assert json.loads(out)["argmax_order"] == 5
