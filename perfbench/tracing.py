"""Per-layer span tracing for the benchmark's traced run.

The tracer wraps the public functions of each ngbayes module from outside
the package; nothing under ``src/`` changes. ``glm``, ``divergence`` and
``distributions`` import ``spd_solve``, ``logdet_spd``, ``log_gamma`` and
friends by name, and ``cli`` keeps the KL functions in module-level
tables, so every module binding and table entry that refers to a wrapped
function is replaced. Factorization is wrapped on ``SpdMatrix`` itself
(its ``__post_init__`` validates and factors), and dataset validation on
``GlmDataset.__post_init__``.

Spans are aggregated in memory as they close: per layer the call count,
total time, self time (duration minus the time covered by direct child
spans) and layer-specific work counters. A call into a layer that is
already open (``logpdf_ng`` calling ``logpdf_gamma``, the reflection
branch of ``log_gamma``) is part of the open span and is not counted
again.
"""

from __future__ import annotations

import functools
import statistics
import time

# Reported fields per layer, in output order. ``calls``, ``samples``,
# ``points`` and ``max_dim`` are exact counts per op; ``s`` and ``self_s``
# are seconds per op; ``flops_computed`` is sum(n**3 / 3) over the
# factorizations, computed from their sizes rather than measured.
LAYER_FIELDS = {
    "numerics.spd_factor": ("calls", "s", "max_dim", "flops_computed"),
    "numerics.spd_solve": ("calls", "s"),
    "numerics.logdet_spd": ("calls", "s"),
    "numerics.special": ("calls", "s"),
    "distributions.sample": ("calls", "samples", "s"),
    "distributions.logpdf": ("calls", "points", "s"),
    "divergence.kl_normal_gamma": ("calls", "s", "self_s"),
    "divergence.kl_gamma": ("calls", "s"),
    "divergence.kl_mvn": ("calls", "s"),
    "divergence.expected_conditional_mvn_kl": ("calls", "s"),
    "divergence.kl_monte_carlo": ("calls", "s", "self_s"),
    "glm.dataset": ("calls", "s"),
    "glm.fit_posterior": ("calls", "s", "self_s"),
    "glm.accuracy": ("calls", "s", "self_s"),
    "glm.complexity": ("calls", "s"),
    "glm.log_model_evidence": ("calls", "self_s"),
    "glm.cv_model_quality": ("calls", "self_s"),
    "experiments.simulate_polynomial": ("calls", "s"),
    "experiments.run": ("calls", "self_s"),
    "experiments.write_csv": ("calls", "s"),
    "cli.main": ("calls", "self_s"),
}

FIELD_UNITS = {
    "calls": "count",
    "samples": "count",
    "points": "count",
    "max_dim": "rows",
    "flops_computed": "flop",
    "s": "s",
    "self_s": "s",
}

COUNT_FIELDS = ("calls", "samples", "points", "max_dim", "flops_computed")


def _factor_work(args, kwargs, result):
    n = args[0].entries.shape[0]
    return {"max_dim": n, "flops_computed": n ** 3 / 3.0}


def _sample_work(args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"samples": 1 if size is None else int(size)}


def _logpdf_work(args, kwargs, result):
    return {"points": getattr(result, "size", 1)}


def _layer_table(ngbayes):
    """(owner, attribute, layer, work counter) for every traced function."""
    numerics, distributions = ngbayes.numerics, ngbayes.distributions
    divergence, glm = ngbayes.divergence, ngbayes.glm
    experiments, cli = ngbayes.experiments, ngbayes.cli
    return [
        (numerics.SpdMatrix, "__post_init__", "numerics.spd_factor", _factor_work),
        (numerics, "spd_solve", "numerics.spd_solve", None),
        (numerics, "logdet_spd", "numerics.logdet_spd", None),
        (numerics, "log_gamma", "numerics.special", None),
        (numerics, "digamma", "numerics.special", None),
        (distributions, "sample_gamma", "distributions.sample", _sample_work),
        (distributions, "sample_mvn", "distributions.sample", _sample_work),
        (distributions, "sample_ng", "distributions.sample", _sample_work),
        (distributions, "logpdf_gamma", "distributions.logpdf", _logpdf_work),
        (distributions, "logpdf_mvn", "distributions.logpdf", _logpdf_work),
        (distributions, "logpdf_ng", "distributions.logpdf", _logpdf_work),
        (divergence, "kl_normal_gamma", "divergence.kl_normal_gamma", None),
        (divergence, "kl_gamma", "divergence.kl_gamma", None),
        (divergence, "kl_mvn", "divergence.kl_mvn", None),
        (divergence, "expected_conditional_mvn_kl",
         "divergence.expected_conditional_mvn_kl", None),
        (divergence, "kl_monte_carlo", "divergence.kl_monte_carlo", None),
        (glm.GlmDataset, "__post_init__", "glm.dataset", None),
        (glm, "fit_posterior", "glm.fit_posterior", None),
        (glm, "accuracy", "glm.accuracy", None),
        (glm, "complexity", "glm.complexity", None),
        (glm, "log_model_evidence", "glm.log_model_evidence", None),
        (glm, "cv_model_quality", "glm.cv_model_quality", None),
        (experiments, "simulate_polynomial", "experiments.simulate_polynomial", None),
        (experiments, "run_poly_sweep", "experiments.run", None),
        (experiments, "run_cv_study", "experiments.run", None),
        (experiments, "write_sweep_csv", "experiments.write_csv", None),
        (experiments, "write_cv_csv", "experiments.write_csv", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Aggregates spans per layer; one instance per traced run."""

    def __init__(self):
        self._stack = []  # open spans: [start, seconds in child spans]
        self._open = set()
        self._undo = []
        self.stats = {}

    def reset(self):
        self.stats = {}

    def _record(self, layer, seconds, self_seconds, work):
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        st["calls"] += 1
        st["s"] += seconds
        st["self_s"] += self_seconds
        for key, value in (work or {}).items():
            if key == "max_dim":
                st[key] = max(st.get(key, 0), value)
            else:
                st[key] = st.get(key, 0) + value

    def _wrap(self, fn, layer, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in tracer._open:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._open.add(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - frame[0]
                tracer._stack.pop()
                tracer._open.discard(layer)
                if tracer._stack:
                    tracer._stack[-1][1] += seconds
            tracer._record(layer, seconds, seconds - frame[1],
                           work(args, kwargs, result) if work else None)
            return result

        return wrapper

    def install(self, ngbayes):
        """Replace every binding of each traced function with its wrapper."""
        wrappers = {}
        for owner, attr, layer, work in _layer_table(ngbayes):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, work)
            wrappers[id(original)] = wrapper
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
        modules = [ngbayes] + [getattr(ngbayes, name) for name in
                               ("numerics", "distributions", "divergence",
                                "glm", "experiments", "cli")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._undo.append((value.__setitem__, key, entry))
                            value[key] = wrappers[id(entry)]

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)


def layer_metrics(per_op_stats):
    """Per-layer metrics from the stats of each traced op.

    Counts come from the first op (``counts_repeat`` in the caller tells
    whether every op gave the same counts); times are medians over ops.
    """
    metrics = {}
    for layer, fields in LAYER_FIELDS.items():
        for field in fields:
            values = [stats.get(layer, {}).get(field, 0) for stats in per_op_stats]
            value = values[0] if field in COUNT_FIELDS else statistics.median(values)
            metrics[f"{layer}.{field}"] = {"value": value, "unit": FIELD_UNITS[field]}
    return metrics


def counts_of(stats):
    """The exact-count part of one op's stats, for repeat comparison."""
    return {layer: {k: v for k, v in st.items() if k in COUNT_FIELDS}
            for layer, st in sorted(stats.items())}
