"""Command-line interface.

Subcommands: ``kl`` (closed-form divergences with an optional Monte Carlo
check), ``fit`` (single GLM fit from JSON files), ``sweep`` (polynomial
model-order experiment) and ``cv-study`` (multi-session cross-validation
study). ``kl --check`` uses one Monte Carlo entry for every family, and
both studies run through one command. Exit status: 0 success, 1
usage/config/IO error, 2 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import time

import numpy as np

from .distributions import GammaParams, MvNormalParams, NormalGammaParams
from .divergence import kl_gamma, kl_monte_carlo_pair, kl_mvn, kl_normal_gamma
from .experiments import (
    CvStudyConfig,
    PolySweepConfig,
    load_config,
    run_cv_study,
    run_poly_sweep,
    write_cv_csv,
    write_sweep_csv,
)
from .glm import GlmDataset, log_model_evidence
from .numerics import SpdMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


def _parse_param_doc(spec: str) -> dict:
    """Parameter spec: inline JSON object, a JSON file path, or k=v pairs."""
    spec = spec.strip()
    if spec.startswith("{"):
        return json.loads(spec)
    if os.path.exists(spec):
        with open(spec) as fh:
            return json.load(fh)
    doc = {}
    for item in re.split(r",(?=\s*[A-Za-z_]\w*\s*=)", spec):  # an item starts at "name="
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"cannot parse parameter item {item!r}")
        try:
            doc[key.strip()] = json.loads(value)
        except ValueError:
            raise ValueError(f"parameter {key.strip()} is not a JSON value: {value!r}") from None
    return doc


def _require(doc: dict, keys: tuple, family: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{family} parameters must be a JSON object, got {doc!r}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{family} parameters missing field(s): {', '.join(missing)}")
    extra = set(doc) - set(keys)
    if extra:
        raise ValueError(f"{family} parameters have unknown field(s): {sorted(extra)}")


def _params_from_doc(family: str, doc: dict):
    if family == "gamma":
        _require(doc, ("a", "b"), family)
        if np.ndim(doc["a"]) or np.ndim(doc["b"]):
            raise ValueError("gamma parameters a and b must be single numbers")
        return GammaParams(shape=doc["a"], rate=doc["b"])
    if family == "mvn":
        _require(doc, ("mu", "Lambda"), family)
        return MvNormalParams(mean=np.atleast_1d(doc["mu"]),
                              precision=SpdMatrix(np.atleast_2d(doc["Lambda"])))
    if family == "ng":
        _require(doc, ("mu", "Lambda", "a", "b"), family)
        return NormalGammaParams(mu=np.ravel(doc["mu"]),
                                 lam=SpdMatrix(np.atleast_2d(doc["Lambda"])),
                                 shape=doc["a"], rate=doc["b"])
    raise ValueError(f"unknown family {family!r}")


_KL_CLOSED = {"gamma": kl_gamma, "mvn": kl_mvn, "ng": kl_normal_gamma}


def _cmd_kl(args) -> int:
    p = _params_from_doc(args.family, _parse_param_doc(args.p))
    q = _params_from_doc(args.family, _parse_param_doc(args.q))
    closed = _KL_CLOSED[args.family](p, q)
    report = {"family": args.family, "kl": closed}
    status = EXIT_OK
    if args.check:
        if args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        if args.mc_samples < 100:
            raise ValueError(f"--mc-samples must be at least 100, got {args.mc_samples}")
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(0,)))
        est = kl_monte_carlo_pair(p, q, args.mc_samples, rng)
        ok = abs(closed - est.value) <= 3.0 * est.standard_error or est.standard_error == 0.0
        report.update(
            mc_value=est.value,
            mc_standard_error=est.standard_error,
            mc_samples=est.sample_count,
            seed=args.seed,
            check="PASS" if ok else "FAIL",
            # How near the 3-sigma check came to failing; undefined for a constant log-ratio.
            mc_z_score=(float(closed - est.value) / est.standard_error
                        if est.standard_error > 0.0 else None),
        )
        if not ok:
            status = EXIT_CHECK_FAILED
    print(json.dumps(report, allow_nan=False))
    return status


def _cmd_fit(args) -> int:
    with open(args.data) as fh:
        data_doc = json.load(fh)
    with open(args.prior) as fh:
        prior_doc = json.load(fh)
    default_p = not isinstance(data_doc, dict) or "P" not in data_doc
    _require(data_doc, ("y", "X") if default_p else ("y", "X", "P"), "data")
    _require(prior_doc, ("mu0", "Lambda0", "a0", "b0"), "prior")
    P = None if default_p else SpdMatrix(np.atleast_2d(data_doc["P"]))
    # One response: y is flattened, so the fit is never a batch.
    dataset = GlmDataset(y=np.ravel(data_doc["y"]), X=np.atleast_2d(data_doc["X"]), P=P)
    prior = NormalGammaParams(mu=np.ravel(prior_doc["mu0"]),
                              lam=SpdMatrix(np.atleast_2d(prior_doc["Lambda0"])),
                              shape=prior_doc["a0"], rate=prior_doc["b0"])
    fit = log_model_evidence(dataset, prior)
    post = fit.posterior
    print(json.dumps({
        "mu_n": post.mu.tolist(),
        "Lambda_n": post.lam.entries.tolist(),
        "a_n": post.shape,
        "b_n": post.rate,
        "accuracy": fit.quality.accuracy,
        "complexity": fit.quality.complexity,
        "lme": fit.quality.lme,
        "noise_precision": "identity (default)" if default_p else "from file",
        "diagnostics": _diagnostics(fit.diagnostics),
    }, allow_nan=False))
    return EXIT_OK


def _diagnostics(d, rows=None, key="order") -> dict:
    """The largest evidence-path gap, |trace-identity residual| and mu_n error bound, each
    with its column (the residual has none) and, over several fits, its row's ``key`` (a
    sweep's order, a fold)."""
    def worst(values, name):
        at = np.unravel_index(np.argmax(np.abs(values)), values.shape)
        out = {name: float(abs(values[at]))} | ({"column": int(at[1])} if len(at) > 1 else {})
        return out if rows is None else out | {key: int(rows[at[0]])}
    return {"evidence_gap": worst(d.evidence_gap, "max"),
            "trace_residual": worst(d.trace_residual, "max_abs"),
            "mu_error_bound": worst(d.mu_error_bound, "max")}


def _sweep_summary(result) -> dict:
    i = int(np.flatnonzero(result.orders == result.argmax_order)[0])
    return {"argmax_order": result.argmax_order, "mean_lme": result.mean_lme[i],
            "mean_acc": result.mean_acc[i], "mean_com": result.mean_com[i],
            "diagnostics": _diagnostics(result.diagnostics, result.orders)}


def _cv_summary(result) -> dict:
    return {"mean_delta_cvlme": result.mean_delta_lme, "mean_delta_acc": result.mean_delta_acc,
            "mean_delta_com": result.mean_delta_com, "selection_rate_b": result.selection_rate_b,
            "diagnostics": {design: _diagnostics(d, range(len(d.trace_residual)), "fold")
                            for design, d in result.diagnostics.items()}}


def _cmd_study(args) -> int:
    config = load_config(args.config, args.config_type)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    run, write, summary = (globals()[name] for name in args.study)  # rebindings are seen
    result = run(config)
    start = time.perf_counter()
    write(result, args.out)
    stage_s = result.stage_s | {"write": time.perf_counter() - start}
    print(json.dumps({"config": config.__dict__, **summary(result), "csv": str(args.out),
                      "stage_s": stage_s}, allow_nan=False))
    return EXIT_OK


@functools.cache  # one parser per process: parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngbayes",
        description="KL divergences, conjugate GLM evidence and model-selection experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    kl = sub.add_parser("kl", help="closed-form KL divergence, optionally Monte Carlo checked")
    kl.add_argument("family", choices=("mvn", "gamma", "ng"))
    kl.add_argument("--p", required=True, help="P parameters (k=v list, JSON, or file)")
    kl.add_argument("--q", required=True, help="Q parameters (k=v list, JSON, or file)")
    kl.add_argument("--check", action="store_true", help="cross-check with Monte Carlo")
    kl.add_argument("--mc-samples", type=int, default=100_000)
    kl.add_argument("--seed", type=int, default=0)
    kl.set_defaults(func=_cmd_kl)

    fit = sub.add_parser("fit", help="fit one GLM from JSON data and prior files")
    fit.add_argument("data", help="JSON file with y, X and optional P")
    fit.add_argument("prior", help="JSON file with mu0, Lambda0, a0, b0")
    fit.set_defaults(func=_cmd_fit)

    for name, help_text, config_type, study_functions in (
        ("sweep", "polynomial model-order sweep", PolySweepConfig,
         ("run_poly_sweep", "write_sweep_csv", "_sweep_summary")),
        ("cv-study", "multi-session cross-validation study", CvStudyConfig,
         ("run_cv_study", "write_cv_csv", "_cv_summary")),
    ):
        study = sub.add_parser(name, help=help_text)
        study.add_argument("config", help=f"JSON config ({config_type.__name__} fields)")
        study.add_argument("--out", required=True, help="output CSV path")
        study.add_argument("--seed", type=int, default=None, help="override master_seed")
        study.set_defaults(func=_cmd_study, config_type=config_type, study=study_functions)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
