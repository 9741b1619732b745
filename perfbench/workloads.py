"""Workload inputs, operations and output checks.

Every workload drives the program only through ``ngbayes.cli.main``, the
public entry point, with inputs the benchmark generates from the workload
seed. One op is one timed unit of a workload:

- ``sweep``: one ``ngbayes sweep`` with the default ``PolySweepConfig``
  (100 replications x orders 0..20 = 2100 fits at n = 100), CSV included.
- ``cvstudy``: one ``ngbayes cv-study`` with the default ``CvStudyConfig``
  (100 replications x 2 designs x 5 folds), CSV included.
- ``fit_n1000``: one ``ngbayes fit`` at n = 1000, k = 6, white noise, so
  the noise precision defaults to the identity.
- ``kl_oracle``: one round of ``ngbayes kl {gamma,mvn,ng} --check
  --mc-samples 1000000`` on fixed k = 5 parameter pairs.

``op()`` returns the op's wall time and its list of problems; an op with
any problem (non-zero exit, exception or failed output check) is failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import ngbayes.cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The reference CSVs were written at this seed; other seeds run every
# check except the comparison with them.
DEFAULT_SEED = 0

# Tolerance for CSV comparison with the reference (relative difference).
REFERENCE_RTOL = 1e-9

# PolySweepConfig.p_true: the order the sweep must select.
SWEEP_TRUE_ORDER = 5

FIT_N, FIT_K, FIT_POOL = 1000, 6, 8
KL_DIM, KL_SAMPLES = 5, 1_000_000


def invoke(argv):
    """Run ``ngbayes.cli.main(argv)``; return (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = ngbayes.cli.main(argv)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def _call_problems(code, stderr):
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[:300]}"]
    return []


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _parse_csv(text: str):
    lines = text.rstrip("\n").split("\n")
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def csv_reference_problems(text: str, reference: str) -> list[str]:
    """Compare a CSV with a reference, value by value, to REFERENCE_RTOL."""
    header, rows = _parse_csv(text)
    ref_header, ref_rows = _parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"CSV shape differs from reference: {header!r} x {len(rows)} rows"]
    worst = max((_rel_diff(a, b) for row, ref in zip(rows, ref_rows)
                 for a, b in zip(row, ref)), default=0.0)
    if worst > REFERENCE_RTOL or any(len(r) != len(q) for r, q in zip(rows, ref_rows)):
        return [f"CSV differs from reference: max relative difference {worst:.3g}"]
    return []


def _decomposition_problems(rows, lme_col, acc_col, com_col, label):
    """Each row must satisfy lme = acc - com (to CSV rounding) and com >= 0."""
    for row in rows:
        lme, acc, com = row[lme_col], row[acc_col], row[com_col]
        if abs(lme - (acc - com)) > 1e-9 * max(1.0, abs(acc), abs(com)):
            return [f"{label}: lme != acc - com in row {row}"]
        if com < 0.0:
            return [f"{label}: negative complexity in row {row}"]
    return []


class _CsvWorkload:
    """A study written to CSV: repeats must be byte-identical."""

    command = ""

    def __init__(self, work: Path, seed: int, reference_name: str):
        self.config = work / f"{self.command}.json"
        self.warm_config = work / f"{self.command}_warm.json"
        self.csv = work / f"{self.command}.csv"
        self.config.write_text(json.dumps({"master_seed": seed}))
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = (REFERENCE_DIR / reference_name).read_text()
        self._first = None
        self._verdicts = {}

    def warm_up(self):
        _, code, _, err = invoke([self.command, str(self.warm_config), "--out", str(self.csv)])
        return _call_problems(code, err)

    def op(self):
        """Run one op; return (seconds, problems)."""
        seconds, code, out, err = invoke([self.command, str(self.config), "--out", str(self.csv)])
        problems = _call_problems(code, err)
        if problems:
            return seconds, problems
        text = self.csv.read_bytes().decode()
        if self._first is None:
            self._first = text
        elif text != self._first:
            problems.append("CSV is not byte-identical to the first repeat")
        if text not in self._verdicts:
            verdict = self.check_csv(text)
            if self.reference is not None:
                verdict += csv_reference_problems(text, self.reference)
            self._verdicts[text] = verdict
        problems += self._verdicts[text]
        problems += self.check_report(json.loads(out))
        return seconds, problems


class Sweep(_CsvWorkload):
    command = "sweep"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed, "sweep_seed0.csv")
        self.warm_config.write_text(json.dumps({"n_simulations": 2, "master_seed": seed}))

    def check_csv(self, text):
        _, rows = _parse_csv(text)
        if [int(r[0]) for r in rows] != list(range(21)):
            return [f"sweep CSV has orders {[r[0] for r in rows]}, expected 0..20"]
        return _decomposition_problems(rows, 1, 2, 3, "sweep")

    def check_report(self, report):
        if report["argmax_order"] != SWEEP_TRUE_ORDER:
            return [f"sweep selected order {report['argmax_order']}, expected {SWEEP_TRUE_ORDER}"]
        return []


class CvStudy(_CsvWorkload):
    command = "cv-study"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed, "cvstudy_seed0.csv")
        self.warm_config.write_text(json.dumps({"n_replications": 2, "master_seed": seed}))

    def check_csv(self, text):
        _, rows = _parse_csv(text)
        if [int(r[0]) for r in rows] != list(range(100)):
            return ["cv-study CSV does not have replications 0..99"]
        return (_decomposition_problems(rows, 1, 3, 5, "design A")
                + _decomposition_problems(rows, 2, 4, 6, "design B"))

    def check_report(self, report):
        # The data come from design B, so cvLME favours it on average.
        if not report["mean_delta_cvlme"] > 0.0:
            return [f"cv-study mean delta cvLME {report['mean_delta_cvlme']} is not positive"]
        return []


class FitN1000:
    """Single fits at n = 1000 from a pool of generated JSON inputs."""

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng([seed, 1000])
        self.inputs, self.expected = [], []
        prior = {"mu0": [0.0] * FIT_K, "Lambda0": np.eye(FIT_K).tolist(), "a0": 1.0, "b0": 1.0}
        prior_path = work / "prior.json"
        prior_path.write_text(json.dumps(prior))
        for i in range(FIT_POOL):
            X = np.column_stack([np.ones(FIT_N), rng.standard_normal((FIT_N, FIT_K - 1))])
            y = X @ rng.standard_normal(FIT_K) + rng.standard_normal(FIT_N)
            data_path = work / f"data{i}.json"
            data_path.write_text(json.dumps({"y": y.tolist(), "X": X.tolist()}))
            self.inputs.append(["fit", str(data_path), str(prior_path)])
            # Closed-form posterior computed independently of the program.
            lam_n = X.T @ X + np.eye(FIT_K)
            mu_n = np.linalg.solve(lam_n, X.T @ y)
            b_n = 1.0 + 0.5 * (y @ y - mu_n @ lam_n @ mu_n)
            self.expected.append((mu_n, 1.0 + 0.5 * FIT_N, b_n))
        self._first = {}
        self._next = 0

    def warm_up(self):
        _, code, _, err = invoke(self.inputs[0])
        return _call_problems(code, err)

    def op(self):
        i = self._next
        self._next = (i + 1) % FIT_POOL
        seconds, code, out, err = invoke(self.inputs[i])
        problems = _call_problems(code, err)
        if problems:
            return seconds, problems
        if self._first.setdefault(i, out) != out:
            problems.append(f"fit output for input {i} is not identical to its first repeat")
        report = json.loads(out)
        acc, com, lme = report["accuracy"], report["complexity"], report["lme"]
        if abs(lme - (acc - com)) > 1e-9 * max(1.0, abs(acc), abs(com)):
            problems.append(f"fit lme {lme} != accuracy {acc} - complexity {com}")
        mu_n, a_n, b_n = self.expected[i]
        worst = max([_rel_diff(u, v) for u, v in zip(report["mu_n"], mu_n)]
                    + [_rel_diff(report["a_n"], a_n), _rel_diff(report["b_n"], b_n)])
        if not worst <= 1e-8 or len(report["mu_n"]) != FIT_K:
            problems.append(f"fit posterior differs from the closed form by {worst:.3g}")
        if report["noise_precision"] != "identity (default)":
            problems.append(f"fit noise precision is {report['noise_precision']!r}")
        return seconds, problems


def _spd(rng, k):
    a = rng.standard_normal((k, k))
    m = a @ a.T / k + 0.5 * np.eye(k)
    return (0.5 * (m + m.T)).tolist()


class KlOracle:
    """One op is a round of ``kl --check`` over the three families.

    ``kl --check`` is a 3-sigma test, so a correct program fails it on
    0.27 % of (pair, MC seed) inputs. Pairs drawn from the workload seed
    fail on about 1.7 % of seeds (seed 20: mvn, z = 3.1), which would fail
    runs at random; the pairs and the MC seed are therefore those of the
    default seed whatever the workload seed.
    """

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng([DEFAULT_SEED, 5])
        pairs = {
            "gamma": [{"a": rng.uniform(1, 4), "b": rng.uniform(0.5, 2)} for _ in range(2)],
            "mvn": [{"mu": rng.normal(0, 0.5, KL_DIM).tolist(), "Lambda": _spd(rng, KL_DIM)}
                    for _ in range(2)],
            "ng": [{"mu": rng.normal(0, 0.5, KL_DIM).tolist(), "Lambda": _spd(rng, KL_DIM),
                    "a": rng.uniform(2, 5), "b": rng.uniform(1, 3)} for _ in range(2)],
        }
        self.calls = []
        for family, (p, q) in pairs.items():
            p_path, q_path = work / f"{family}_p.json", work / f"{family}_q.json"
            p_path.write_text(json.dumps(p))
            q_path.write_text(json.dumps(q))
            self.calls.append(["kl", family, "--p", str(p_path), "--q", str(q_path),
                               "--check", "--seed", str(DEFAULT_SEED)])
        self._first = {}

    def warm_up(self):
        problems = []
        for argv in self.calls:
            # Exit code 2 is a failed check, which 1000 samples may give.
            _, code, _, err = invoke(argv + ["--mc-samples", "1000"])
            problems += _call_problems(0 if code == 2 else code, err)
        return problems

    def op(self):
        seconds, problems = 0.0, []
        for argv in self.calls:
            t, code, out, err = invoke(argv + ["--mc-samples", str(KL_SAMPLES)])
            seconds += t
            family = argv[1]
            if code != 0 or not out:
                problems += [f"kl {family}: exit code {code}: {(out + err).strip()[:300]}"]
                continue
            if self._first.setdefault(family, out) != out:
                problems.append(f"kl {family} output is not identical to its first repeat")
            report = json.loads(out)
            if report["check"] != "PASS" or report["mc_samples"] != KL_SAMPLES:
                problems.append(f"kl {family} check: {out.strip()}")
            if not (math.isfinite(report["kl"]) and report["kl"] >= 0.0):
                problems.append(f"kl {family} closed form is {report['kl']}")
        return seconds, problems


WORKLOADS = {"sweep": Sweep, "cvstudy": CvStudy, "fit_n1000": FitN1000, "kl_oracle": KlOracle}
