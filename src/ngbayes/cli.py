"""Command-line interface.

Subcommands: ``kl`` (closed-form divergences with an optional Monte Carlo
check), ``fit`` (single GLM fit from JSON files), ``sweep`` (polynomial
model-order experiment) and ``cv-study`` (multi-session cross-validation
study). Exit status: 0 success, 1 usage/config/IO error, 2 check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .distributions import GammaParams, MvNormalParams, NormalGammaParams, RngStream
from .divergence import (
    kl_gamma,
    kl_monte_carlo_gamma,
    kl_monte_carlo_mvn,
    kl_monte_carlo_ng,
    kl_mvn,
    kl_normal_gamma,
)
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


class UsageError(ValueError):
    pass


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside brackets."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def _parse_param_doc(spec: str) -> dict:
    """Parameter spec: inline JSON object, a JSON file path, or k=v pairs."""
    spec = spec.strip()
    if spec.startswith("{"):
        return json.loads(spec)
    if os.path.exists(spec):
        with open(spec) as fh:
            return json.load(fh)
    doc = {}
    for item in _split_top_level(spec):
        if "=" not in item:
            raise UsageError(f"cannot parse parameter item {item!r}")
        key, value = item.split("=", 1)
        doc[key.strip()] = json.loads(value)
    return doc


def _require(doc: dict, keys: tuple, family: str) -> None:
    if not isinstance(doc, dict):
        raise UsageError(f"{family} parameters must be a JSON object, got {doc!r}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise UsageError(f"{family} parameters missing field(s): {', '.join(missing)}")
    extra = set(doc) - set(keys)
    if extra:
        raise UsageError(f"{family} parameters have unknown field(s): {sorted(extra)}")


def _params_from_doc(family: str, doc: dict):
    if family == "gamma":
        _require(doc, ("a", "b"), family)
        if np.ndim(doc["a"]) or np.ndim(doc["b"]):
            raise UsageError("gamma parameters a and b must be single numbers")
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
    raise UsageError(f"unknown family {family!r}")


_KL_CLOSED = {"gamma": kl_gamma, "mvn": kl_mvn, "ng": kl_normal_gamma}
_KL_MC = {"gamma": kl_monte_carlo_gamma, "mvn": kl_monte_carlo_mvn,
          "ng": kl_monte_carlo_ng}


def _cmd_kl(args) -> int:
    p = _params_from_doc(args.family, _parse_param_doc(args.p))
    q = _params_from_doc(args.family, _parse_param_doc(args.q))
    closed = _KL_CLOSED[args.family](p, q)
    report = {"family": args.family, "kl": closed}
    status = EXIT_OK
    if args.check:
        est = _KL_MC[args.family](p, q, args.mc_samples, RngStream(args.seed))
        ok = abs(closed - est.value) <= 3.0 * est.standard_error or est.standard_error == 0.0
        report.update(
            mc_value=est.value,
            mc_standard_error=est.standard_error,
            mc_samples=est.sample_count,
            seed=args.seed,
            check="PASS" if ok else "FAIL",
        )
        if not ok:
            status = EXIT_CHECK_FAILED
    print(json.dumps(report))
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
    }))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config, PolySweepConfig)
    if args.seed is not None:
        config = PolySweepConfig(**{**config.__dict__, "master_seed": args.seed})
    result = run_poly_sweep(config)
    write_sweep_csv(result, args.out)
    i = int(np.flatnonzero(result.orders == result.argmax_order)[0])
    print(json.dumps({
        "config": config.__dict__,
        "argmax_order": result.argmax_order,
        "mean_lme": result.mean_lme[i],
        "mean_acc": result.mean_acc[i],
        "mean_com": result.mean_com[i],
        "csv": str(args.out),
    }))
    return EXIT_OK


def _cmd_cv_study(args) -> int:
    config = load_config(args.config, CvStudyConfig)
    if args.seed is not None:
        config = CvStudyConfig(**{**config.__dict__, "master_seed": args.seed})
    result = run_cv_study(config)
    write_cv_csv(result, args.out)
    print(json.dumps({
        "config": config.__dict__,
        "mean_delta_cvlme": result.mean_delta_lme,
        "mean_delta_acc": result.mean_delta_acc,
        "mean_delta_com": result.mean_delta_com,
        "selection_rate_b": result.selection_rate_b,
        "csv": str(args.out),
    }))
    return EXIT_OK


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

    sweep = sub.add_parser("sweep", help="polynomial model-order sweep")
    sweep.add_argument("config", help="JSON config (PolySweepConfig fields)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=None, help="override master_seed")
    sweep.set_defaults(func=_cmd_sweep)

    cv = sub.add_parser("cv-study", help="multi-session cross-validation study")
    cv.add_argument("config", help="JSON config (CvStudyConfig fields)")
    cv.add_argument("--out", required=True, help="output CSV path")
    cv.add_argument("--seed", type=int, default=None, help="override master_seed")
    cv.set_defaults(func=_cmd_cv_study)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
