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

    def test_malformed_params_names_field(self, capsys):
        status, _, err = run_cli(capsys, "kl", "gamma", "--p", "a=1", "--q", "a=1,b=1")
        assert status == 1
        assert "b" in err

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

    def test_default_noise_precision_noted(self, capsys, tmp_path):
        data_file, prior_file = self.write_hand_files(tmp_path, with_p=False)
        status, out, _ = run_cli(capsys, "fit", data_file, prior_file)
        assert status == 0
        assert "identity" in json.loads(out)["noise_precision"]

    def test_rank_deficient_design(self, capsys, tmp_path):
        data_file = tmp_path / "data.json"
        data_file.write_text(json.dumps({"y": [1.0, 2.0], "X": [[1.0, 1.0], [1.0, 1.0]]}))
        prior_file = tmp_path / "prior.json"
        prior_file.write_text(json.dumps({
            "mu0": [0.0, 0.0], "Lambda0": [[1.0, 0.0], [0.0, 1.0]], "a0": 1.0, "b0": 1.0
        }))
        status, _, err = run_cli(capsys, "fit", str(data_file), str(prior_file))
        assert status == 1
        assert "rank" in err

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


class TestCvStudyCommand:
    def test_runs_and_reports(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_replications": 3, "master_seed": 2}))
        out_csv = tmp_path / "cv.csv"
        status, out, _ = run_cli(capsys, "cv-study", str(cfg), "--out", str(out_csv))
        assert status == 0
        report = json.loads(out)
        assert "mean_delta_cvlme" in report
        assert len(out_csv.read_text().strip().split("\n")) == 4

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
